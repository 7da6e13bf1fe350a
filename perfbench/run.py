#!/usr/bin/env python3
"""fickit benchmark: run one workload, or all of them, and check outputs.

    python3 perfbench/run.py --workload sweep_n1000 --seed 212 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, untraced and traced

Each job is a fresh single-threaded Python process (``job.py``) writing
to its own temporary directory under ``.perfbench/``; jobs run one at a
time (closed loop) until ``--seconds`` of jobs are done, at least one.
Set-up is also timed in extra set-up-only processes. Every time a job
measures is scaled to a reference host speed by a yardstick timed in the
same process (see ``job.Yardstick`` and ``host_scale``). A traced run pairs
each untraced job with a traced one, so ``trace.overhead_frac`` comes
from the same run. Every job's CSVs are checked against the reference
(see ``reference.py``) and, in a traced run, must be byte-identical to
the untraced job's. The last stdout line is one JSON object: correct,
attempted, failed, metrics. The exit code is non-zero on any mismatch,
and when the checkout has no fickit sources.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from reference import EXPECTED, mismatched_rows, stored_rows  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 212
DEFAULT_SECONDS = 30
SETUP_PROBES = 4
# Time of one yardstick unit on the reference host (a 2-vCPU Intel Xeon
# VM, Python 3.11, numpy 2.4) when it is quiet. A job's times are
# multiplied by (YARDSTICK_REF_S / m) ** HOST_SENSITIVITY, m the median
# of its units, so they read in seconds at the reference host's speed.
# The workloads' times move less than the yardstick's when the host's
# speed drifts: regressed within runs on the yardstick, log wall time
# has a slope of 0.53-0.67 on the three workloads. Both are fixed
# constants; changing either rescales every time metric.
YARDSTICK_REF_S = 0.004
HOST_SENSITIVITY = 0.7
# A run must end within 180 s: start no job after RUN_START_LIMIT_S and
# kill any job still running at RUN_KILL_S.
RUN_START_LIMIT_S = 110.0
RUN_KILL_S = 165.0
END_TO_END = {"setup_s": "s", "wall_s": "s", "replicates_per_s": "1/s",
              "peak_rss_mb": "MB"}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def host_record() -> dict:
    def read(path):
        try:
            return Path(path).read_text(encoding="utf-8")
        except OSError:
            return ""

    model = next((ln.split(":", 1)[1].strip()
                  for ln in read("/proc/cpuinfo").splitlines()
                  if ln.startswith("model name")), platform.processor())
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}/"
        level = read(base + "level").strip()
        if level in ("2", "3"):
            caches[f"L{level}"] = read(base + "size").strip()
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpu": model, **caches,
            "python": platform.python_version(), "numpy": np.__version__,
            "commit": commit}


def host_scale(units) -> float:
    """Factor that takes a time measured beside yardstick ``units`` to
    the reference host's speed."""
    return (YARDSTICK_REF_S / statistics.median(units)) ** HOST_SENSITIVITY


class Run:
    """One measured run of one workload: its jobs and their checks."""

    def __init__(self, name, seed, seconds, trace, replicates=None):
        self.name, self.seed, self.seconds, self.trace = (
            name, seed, seconds, trace)
        self.workload = WORKLOADS[name]
        self.cfg = self.workload.resolved(seed, replicates)
        self.replicates = replicates
        self.started = time.monotonic()
        self.setups = []
        self.jobs = {"plain": [], "traced": []}     # (out_dir, result|None)

    def spawn(self, out, traced=False, setup_only=False):
        env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
        cmd = [sys.executable, str(HERE / "job.py"), "--workload", self.name,
               "--seed", str(self.seed), "--out", str(out)]
        if self.replicates is not None:
            cmd += ["--replicates", str(self.replicates)]
        if traced:
            cmd.append("--trace")
        if setup_only:
            cmd.append("--setup-only")
        timeout = max(1.0, RUN_KILL_S - (time.monotonic() - self.started))
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd + ["--spawned-at", repr(time.time())],
                                  cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"{self.name}: job killed after {timeout:.0f} s",
                  file=sys.stderr)
            return None
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            print(f"{self.name}: job exited {proc.returncode}\n"
                  f"{proc.stderr[-2000:]}", file=sys.stderr)
            return None
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["elapsed_s"] = elapsed
        self.setups.append(result["setup_s"] *
                           host_scale(result["setup_units_s"]))
        if not setup_only:
            # a job shorter than one sampling period has no units of its own
            result["scale"] = host_scale(result["wall_units_s"] or
                                         result["setup_units_s"])
        return result

    def measure(self, workdir: Path):
        self.spawn(workdir / "warmup", setup_only=True)    # fills caches
        self.setups.clear()
        probes = itertools.count()
        for _ in range(SETUP_PROBES):
            self.spawn(workdir / f"probe{next(probes)}", setup_only=True)
        kinds = ("plain", "traced") if self.trace else ("plain",)
        t_start = time.monotonic()
        rounds = []
        while True:
            t_round = time.monotonic()
            for kind in kinds:
                out = workdir / f"{kind}{len(self.jobs[kind])}"
                self.jobs[kind].append(
                    (out, self.spawn(out, traced=kind == "traced")))
            rounds.append(time.monotonic() - t_round)
            # one more set-up sample per round spreads them over the run
            self.spawn(workdir / f"probe{next(probes)}", setup_only=True)
            # another round if it would end nearer to --seconds than not
            now = time.monotonic()
            if (now - t_start + statistics.median(rounds) / 2 > self.seconds
                    or now - self.started > RUN_START_LIMIT_S):
                break

    def check(self):
        """(attempted, failed): one operation per expected output row."""
        expected = EXPECTED[self.workload.command](self.cfg)
        stored = {csv: stored_rows(self.seed, self.name, csv,
                                   self.cfg["replicates"])
                  for csv in expected}
        first = {}
        attempted = failed = 0
        for out, result in self.jobs["plain"] + self.jobs["traced"]:
            for csv, rows in expected.items():
                attempted += len(rows)
                path = out / csv
                if result is None or not path.exists():
                    failed += len(rows)
                    continue
                text = path.read_text(encoding="utf-8")
                bad = mismatched_rows(text, rows)
                if stored[csv] is not None:
                    bad = max(bad, mismatched_rows(text, stored[csv]))
                # every job must write the same bytes as the first one,
                # traced or not
                ref = first.setdefault(csv, text)
                differ = sum(a != b for a, b in zip(text.splitlines(),
                                                    ref.splitlines()))
                differ += abs(len(text.splitlines()) - len(ref.splitlines()))
                failed += min(len(rows), max(bad, differ))
        return attempted, failed

    def metrics(self) -> dict:
        """Medians over the run's jobs: end-to-end metrics, or per-layer
        ones in a traced run; empty when no job succeeded."""
        plain = [r for _, r in self.jobs["plain"] if r is not None]
        traced = [r for _, r in self.jobs["traced"] if r is not None]
        if not plain or (self.trace and not traced):
            return {}
        wall = statistics.median(r["wall_s"] * r["scale"] for r in plain)
        if self.trace:
            units = LAYER_METRICS
            values = {k: statistics.median(r["layers"][k] for r in traced)
                      for k in traced[0]["layers"]}
            values["trace.overhead_frac"] = statistics.median(
                r["wall_s"] * r["scale"] for r in traced) / wall - 1.0
        else:
            units = END_TO_END
            values = {
                "setup_s": statistics.median(self.setups),
                "wall_s": wall,
                "replicates_per_s":
                    self.workload.replicate_count(self.cfg) / wall,
                "peak_rss_mb":
                    statistics.median(r["peak_rss_mb"] for r in plain),
            }
        return {k: {"value": values[k], "unit": u} for k, u in units.items()}

    def spans(self):
        """Coarse spans of the first traced job."""
        for out, result in self.jobs["traced"]:
            if result is not None and (out / "spans.json").exists():
                return json.loads((out / "spans.json").read_text())
        return []


def run_workload(name, seed, seconds, trace, replicates=None) -> dict:
    """Measure and check one workload; the result object of the run."""
    tmp_root = ROOT / ".perfbench"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=tmp_root))
    run = Run(name, seed, seconds, trace, replicates)
    try:
        load_before = os.getloadavg()
        run.measure(workdir)
        load_after = os.getloadavg()
        attempted, failed = run.check()
        metrics = run.metrics()
        spans = run.spans()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace and spans:
        (tmp_root / f"spans-{name}-seed{seed}.json").write_text(
            json.dumps(spans), encoding="utf-8")
    info = {"workload": name, "seed": seed, "config": run.cfg,
            "wall_s": {k: [r and r["wall_s"] for _, r in v]
                       for k, v in run.jobs.items()},
            "scale": {k: [r and r["scale"] for _, r in v]
                      for k, v in run.jobs.items()},
            "setup_s": run.setups,
            "loadavg_before": load_before, "loadavg_after": load_after}
    return {"correct": failed == 0 and bool(metrics), "attempted": attempted,
            "failed": failed, "metrics": metrics, "info": info}


def print_metrics(name, result):
    for metric, m in result["metrics"].items():
        print(f"{name:20s} {metric:45s} {m['value']:>14.6g} {m['unit']}")
    rate = result["failed"] / max(result["attempted"], 1)
    print(f"{name:20s} {'error_rate':45s} {rate:>14.6g} ratio")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replicates", type=int, default=None,
                        help="override the workload's replicate count")
    parser.add_argument("--record", default=str(ROOT / ".perfbench" /
                                                "results.json"),
                        help="where the all-workload mode writes its record")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fickit" / "__init__.py").exists():
        print(f"no fickit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    host = host_record()
    if args.workload:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.replicates)
        print(json.dumps({"host": host, **result["info"]}))
        print_metrics(args.workload, result)
        print(json.dumps({k: result[k] for k in
                          ("correct", "attempted", "failed", "metrics")}))
        return 0 if result["correct"] else 1

    record = {"host": host, "seed": args.seed, "seconds": args.seconds,
              "workloads": {}}
    ok = True
    for name in WORKLOADS:
        entry = {}
        for trace in (False, True):
            result = run_workload(name, args.seed, args.seconds, trace,
                                  args.replicates)
            print_metrics(name, result)
            ok = ok and result["correct"]
            entry["traced" if trace else "untraced"] = result
        record["workloads"][name] = entry
    Path(args.record).parent.mkdir(parents=True, exist_ok=True)
    Path(args.record).write_text(json.dumps(record, indent=2) + "\n",
                                 encoding="utf-8")
    print(f"record written to {args.record}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
