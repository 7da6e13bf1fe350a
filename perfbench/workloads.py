"""The benchmark's workloads: one fickit command at a fixed config each.

Configs are spelled out in full rather than taken from fickit's
defaults, so a later change of a default does not silently change what
the benchmark measures. This module imports no fickit code: the parent
process uses it to size and check runs without loading the package.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    command: str              # public function of fickit.cli
    config: dict              # ExperimentConfig fields (seed, out_dir set per run)
    outputs: tuple            # CSV files the command writes

    def resolved(self, seed: int, replicates: int | None = None) -> dict:
        cfg = dict(self.config, seed=int(seed))
        if replicates is not None:
            cfg["replicates"] = int(replicates)
        return cfg

    def replicate_count(self, cfg: dict) -> int:
        """Monte Carlo replicates one job completes."""
        reps = cfg["replicates"]
        if self.command == "cmd_sweep":
            levels = cfg["n_max"] - cfg["n_min"] + 1
            per_level = 2 if cfg["truth_known"] else 1
            return len(cfg["algorithms"]) * levels * per_level * reps
        if self.command == "cmd_landscape":
            return cfg["grid_axis1"][2] * cfg["grid_axis2"][2] * reps
        # ten closed-form complexity checks plus two chi-squared maxima
        # tables of at least 20,000 draws each
        return 10 * reps + 2 * max(reps, 20_000)


WORKLOADS = {
    "sweep_n1000": Workload(
        command="cmd_sweep",
        config=dict(experiment="neutrino_sweep", sample_size=1000,
                    replicates=500, algorithms=["sequential", "greedy"],
                    n_min=0, n_max=8, truth_known=True),
        outputs=("sweep.csv", "summary.csv")),
    "landscape_singular": Workload(
        command="cmd_landscape",
        config=dict(experiment="landscape", sample_size=100,
                    replicates=1000, landscape_family="sine_singular",
                    landscape_truth=[0.0, 0.9], grid_axis1=[-1.5, 1.5, 31],
                    grid_axis2=[0.3, 1.5566, 81]),
        outputs=("landscape.csv", "profile.csv")),
    "oracle_suite": Workload(
        command="cmd_oracle_suite",
        config=dict(experiment="oracle_suite", replicates=1000),
        outputs=("oracle.csv",)),
}
