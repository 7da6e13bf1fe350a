"""Domain types and information/entropy primitives.

All information quantities are measured in nats. Every Monte Carlo
operation is a pure function of its inputs and a 64-bit seed: replicate
``r`` draws from an RNG stream derived from ``(seed, r)``, so results do
not depend on evaluation order or on how replicates are grouped.

A Dataset holds one sample (shape (N,)) or a block of R samples (shape
(R, N), one per row). The Monte Carlo engine draws, fits and scores the
replicates a block at a time; see ``replicate_values``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

# Byte budget of one (rows x N) float64 array of the Monte Carlo engine.
# Replicates are drawn, fit and scored in chunks of at most this many
# bytes per array, so memory stays flat in the replicate count; a fit
# and its scores hold about a dozen such arrays at once.
BLOCK_BYTES = 128 * 1024

LOG_2PI = math.log(2.0 * math.pi)


class FickitError(Exception):
    """Base class for errors raised by this package."""


class DensityError(FickitError):
    """A log density evaluated to a non-finite value (underflow or
    invalid parameters). Never silently propagated as +/-inf."""


class FitError(FickitError):
    """A fitting procedure failed or produced a degenerate density."""


class StructuredDataError(FickitError):
    """Resampling-style validation was requested for a family whose
    observations are not exchangeable (e.g. time series)."""


def row_error(cls, bad, message: str) -> Exception:
    """``cls(message)`` for a failure flagged in ``bad``: a scalar flag
    for one dataset, or one flag per block row. A block error names its
    first flagged row in the message and in its ``row`` attribute."""
    bad = np.asarray(bad)
    if bad.ndim == 0:
        return cls(message)
    row = int(np.argmax(bad))
    exc = cls(f"row {row}: {message}")
    exc.row = row
    return exc


def replicate_rng(seed: int, replicate: int) -> np.random.Generator:
    """Independent RNG stream for one Monte Carlo replicate."""
    return np.random.default_rng([int(seed) % 2**63, int(replicate)])


def derive_seed(seed: int, *tags: int) -> int:
    """Derive a stable sub-seed for a named stream of a larger run."""
    ss = np.random.SeedSequence([int(seed) % 2**63, *[int(t) for t in tags]])
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class Dataset:
    """An ordered sample of real-valued observations, or a block of
    samples of equal size, one per row.

    The observations of a sample are treated as one structured unit: no
    operation in this package permutes or subsets them implicitly.
    ``sample_size`` is the length of the last axis.
    """

    values: np.ndarray
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim not in (1, 2) or 0 in vals.shape:
            raise ValueError("Dataset requires a non-empty 1-D sequence "
                             "or 2-D block")
        if not np.isfinite(vals).all():
            raise row_error(ValueError, ~np.isfinite(vals).all(axis=-1),
                            "Dataset values must all be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def sample_size(self) -> int:
        return int(self.values.shape[-1])

    def memo(self, transform: Callable) -> np.ndarray:
        """``transform(values)``, computed once per Dataset, read-only."""
        if transform not in self._memo:
            self._memo[transform] = out = transform(self.values)
            out.setflags(write=False)
        return self._memo[transform]


def draw_rows(rng, law: str, n: int, *args) -> np.ndarray:
    """``getattr(rng, law)(*args, size=n)`` for one Generator; for a
    sequence of Generators, one (rows, n) block with row i drawn from
    the i-th, in order.

    A law without arguments (a standard distribution) draws each row
    straight into the block; one with arguments (``"choice"`` from an
    array of values) copies each row in.
    """
    if isinstance(rng, np.random.Generator):
        return getattr(rng, law)(*args, size=n)
    block = np.empty((len(rng), n))
    for g, row in zip(rng, block):
        if args:
            row[:] = getattr(g, law)(*args, size=n)
        else:
            getattr(g, law)(out=row)
    return block


@dataclass(frozen=True)
class ParameterVector:
    """Continuous parameter coordinates plus optional discrete tags
    (e.g. selected frequency indices of a greedy fit).

    The parameters of a fit to a block carry a leading axis: one row of
    coordinates, and one tuple of tags, per dataset.
    """

    coordinates: np.ndarray
    tags: Optional[tuple] = None

    def __post_init__(self):
        coords = np.atleast_1d(np.array(self.coordinates, dtype=float))
        coords.setflags(write=False)
        object.__setattr__(self, "coordinates", coords)
        if self.tags is not None:
            tags = np.asarray(self.tags, dtype=int)
            ordered = np.sort(tags, axis=-1)
            if (ordered[..., 1:] == ordered[..., :-1]).any():
                raise ValueError("discrete tags must be distinct")
            rows = tags.tolist()
            object.__setattr__(self, "tags", tuple(map(tuple, rows))
                               if tags.ndim == 2 else tuple(rows))

    @property
    def dimension(self) -> int:
        """Number of continuous coordinates (discrete tags excluded)."""
        return int(self.coordinates.shape[-1])


@dataclass(frozen=True)
class FittedModel:
    """A concrete distribution over datasets, or one per block row.

    ``log_density`` maps a Dataset to its log density in nats, one
    value per row. A model fit to a block scores row r under the fit to
    row r; a model fit to one dataset scores every row under that fit.

    ``noise`` names the Generator method that draws the model's
    standard noise, and ``from_noise`` maps an (N,) noise array, or an
    (R, N) block of them, to data. ``from_noise`` never writes into its
    argument, so models with one noise law can share one draw.

    A Gaussian model (independent normal observations) also carries
    its ``mean``, a function of the sample size n giving the (n,) mean
    (or (R, n) for a fit to a block), and its ``variance``, a scalar or
    one per row. Other models leave both None.
    """

    params: ParameterVector
    log_density: Callable[[Dataset], np.ndarray]
    from_noise: Callable[[np.ndarray], Dataset]
    noise: str = "standard_normal"
    label: str = ""
    mean: Optional[Callable[[int], np.ndarray]] = None
    variance: Optional[np.ndarray] = None

    def sampler(self, sample_size: int, rng) -> Dataset:
        """A Dataset of exactly ``sample_size`` drawn from a Generator,
        or a block with one row per Generator of a sequence of them."""
        return self.from_noise(draw_rows(rng, self.noise, sample_size))


@dataclass(frozen=True)
class MonteCarloEstimate:
    """A replayable stochastic scalar: value +/- standard error."""

    value: float
    std_error: float
    replicates: int
    seed: int

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("replicates must be positive")
        if self.std_error < 0:
            raise ValueError("std_error must be non-negative")

    @classmethod
    def from_values(cls, values: np.ndarray, seed: int) -> "MonteCarloEstimate":
        values = np.asarray(values, dtype=float)
        n = values.size
        se = float(values.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        return cls(value=float(values.mean()), std_error=se,
                   replicates=n, seed=int(seed))


def replicate_values(draw, sample_size: int, replicates: int, seed: int,
                     statistics: Sequence[Callable[..., np.ndarray]],
                     draws: int = 1) -> list:
    """Values of each statistic over Monte Carlo replicates
    0..replicates-1.

    Replicate r draws ``draws`` blocks in turn from the stream
    ``replicate_rng(seed, r)`` through ``draw(sample_size, rngs)``.
    Replicates run in chunks of at most ``BLOCK_BYTES`` per
    (rows x N) array: a chunk builds its streams and draws its blocks
    once, row i from stream start + i, and each statistic maps the
    blocks to one value (or one row of values) per block row. A value
    therefore depends neither on the replicate count, nor on the
    chunks, nor on the other statistics.

    Returns one entry per statistic: an array with one row per
    replicate, or the error that stopped the statistic. The error names
    its replicate and seed; a ``FickitError`` keeps its type, and any
    other ``ValueError`` becomes a plain one. A failed statistic is not
    evaluated again while the others go on; a failed draw fails every
    statistic still running. ``unwrap`` raises the first failure.
    """
    if replicates < 2:
        raise ValueError("replicates must be >= 2")
    rows = max(1, BLOCK_BYTES // (8 * int(sample_size)))
    out = [None] * len(statistics)
    for start in range(0, replicates, rows):
        live = [i for i, o in enumerate(out) if not isinstance(o, Exception)]
        if not live:
            break
        stop = min(start + rows, replicates)
        rngs = [replicate_rng(seed, r) for r in range(start, stop)]
        try:
            blocks = [draw(sample_size, rngs) for _ in range(draws)]
        except (FickitError, ValueError) as exc:
            for i in live:
                out[i] = _replicate_error(exc, start, stop, seed)
            break
        for i in live:
            try:
                values = np.asarray(statistics[i](*blocks), dtype=float)
            except (FickitError, ValueError) as exc:
                out[i] = _replicate_error(exc, start, stop, seed)
                continue
            if out[i] is None:
                out[i] = np.empty((replicates,) + values.shape[1:])
            out[i][start:stop] = values
    return out


def _replicate_error(exc: Exception, start: int, stop: int,
                     seed: int) -> Exception:
    """``exc`` from replicates start..stop-1, retold with the failing
    replicate (the chunk when no row is known) and the seed."""
    where = f"replicates {start}..{stop - 1}"
    if stop - start == 1 or hasattr(exc, "row"):
        where = f"replicate {start + getattr(exc, 'row', 0)}"
    cls = type(exc) if isinstance(exc, FickitError) else ValueError
    error = cls(f"{where} (seed {seed}) failed: {exc}")
    error.__cause__ = exc
    return error


def unwrap(results: list) -> list:
    """``replicate_values`` results as arrays; raises the first failure
    among them."""
    for result in results:
        if isinstance(result, Exception):
            raise result
    return results


def shannon_information(data: Dataset, model: FittedModel):
    """Negative log density of the data under the model, in nats: a
    float for one dataset, one value per row for a block."""
    h = -np.asarray(model.log_density(data), dtype=float)
    bad = ~np.isfinite(h)
    if bad.any():
        raise row_error(DensityError, bad, "non-finite information: "
                        "density underflow or invalid parameters")
    return float(h) if h.ndim == 0 else h


def cross_entropy_mc(truth_sampler: FittedModel, eval_model: FittedModel,
                     sample_size: int, replicates: int,
                     seed: int) -> MonteCarloEstimate:
    """Monte Carlo estimate of the expected information of fresh data
    from ``truth_sampler`` scored under ``eval_model``."""
    [vals] = unwrap(replicate_values(
        truth_sampler.sampler, sample_size, replicates, seed,
        [lambda y: shannon_information(y, eval_model)]))
    return MonteCarloEstimate.from_values(vals, seed)


def kl_statistic(data: Dataset, theta0: FittedModel, theta: FittedModel):
    """In-sample information loss of ``theta`` relative to ``theta0``,
    one value per row of a block.

    Antisymmetric under swapping the two models.
    """
    return shannon_information(data, theta) - shannon_information(data, theta0)


def kl_divergence_mc(theta0: FittedModel, theta: FittedModel,
                     truth_sampler: FittedModel, sample_size: int,
                     replicates: int, seed: int) -> MonteCarloEstimate:
    """Expected information loss of ``theta`` relative to ``theta0``
    under data from ``truth_sampler``.

    Uses common random numbers: each replicate scores the same dataset
    under both models, which sharply reduces the variance of the
    difference.
    """
    [vals] = unwrap(replicate_values(
        truth_sampler.sampler, sample_size, replicates, seed,
        [lambda y: kl_statistic(y, theta0, theta)]))
    return MonteCarloEstimate.from_values(vals, seed)


def error_statistic(data: Dataset, theta0: FittedModel, theta: FittedModel,
                    divergence: float):
    """Gap between the expected and the realized information loss.

    ``divergence`` is a previously computed expected loss for the same
    model pair. Averaged over datasets at the fitted parameters, this
    gap is the predictive complexity.
    """
    return float(divergence) - kl_statistic(data, theta0, theta)
