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

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# Byte budget of one (rows x N) float64 array of the Monte Carlo engine.
# Replicates are drawn, fit and scored in chunks of at most this many
# bytes per array, so memory stays flat in the replicate count; a fit
# and its scores hold about a dozen such arrays at once.
BLOCK_BYTES = 128 * 1024


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


def draw_rows(rng, draw: Callable[[np.random.Generator], np.ndarray]):
    """``draw(rng)`` for one Generator; for a sequence of Generators, a
    block with one row drawn from each, in order.

    Samplers draw through this, so that a model fit to one dataset can
    sample a whole block, each row from its own replicate stream.
    """
    if isinstance(rng, np.random.Generator):
        return draw(rng)
    return np.stack([draw(g) for g in rng])


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
    ``sampler(sample_size, rng)`` draws a Dataset of exactly that size
    from a Generator, or a block with one row per Generator from a
    sequence of them.
    """

    params: ParameterVector
    log_density: Callable[[Dataset], np.ndarray]
    sampler: Callable[[int, np.random.Generator], Dataset]
    label: str = ""


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


def replicate_values(sampler, sample_size: int, replicates: int, seed: int,
                     statistic: Callable[..., np.ndarray],
                     draws: int = 1) -> np.ndarray:
    """Values of ``statistic`` over Monte Carlo replicates
    0..replicates-1, as an array with one row per replicate.

    Replicate r draws ``draws`` datasets of ``sample_size`` in turn from
    the stream ``replicate_rng(seed, r)`` through
    ``sampler(sample_size, rngs)``. Replicates run in chunks of at most
    ``BLOCK_BYTES`` per (rows x N) array: a chunk draws one block per
    draw, row i from stream start + i, and ``statistic(*blocks)``
    returns one value (or one row of values) per block row. A value
    therefore does not depend on the replicate count or on the chunks.
    A failure names its replicate and seed; a ``FickitError`` keeps its
    type, any other ``ValueError`` becomes a plain one.
    """
    if replicates < 2:
        raise ValueError("replicates must be >= 2")
    rows = max(1, BLOCK_BYTES // (8 * int(sample_size)))
    out = None
    for start in range(0, replicates, rows):
        stop = min(start + rows, replicates)
        rngs = [replicate_rng(seed, r) for r in range(start, stop)]
        try:
            blocks = [sampler(sample_size, rngs) for _ in range(draws)]
            values = np.asarray(statistic(*blocks), dtype=float)
        except (FickitError, ValueError) as exc:
            where = f"replicates {start}..{stop - 1}"
            if stop - start == 1 or hasattr(exc, "row"):
                where = f"replicate {start + getattr(exc, 'row', 0)}"
            cls = type(exc) if isinstance(exc, FickitError) else ValueError
            raise cls(f"{where} (seed {seed}) failed: {exc}") from exc
        if out is None:
            out = np.empty((replicates,) + values.shape[1:])
        out[start:stop] = values
    return out


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
    vals = replicate_values(truth_sampler.sampler, sample_size, replicates,
                            seed, lambda y: shannon_information(y, eval_model))
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
    vals = replicate_values(truth_sampler.sampler, sample_size, replicates,
                            seed, lambda y: kl_statistic(y, theta0, theta))
    return MonteCarloEstimate.from_values(vals, seed)


def error_statistic(data: Dataset, theta0: FittedModel, theta: FittedModel,
                    divergence: float):
    """Gap between the expected and the realized information loss.

    ``divergence`` is a previously computed expected loss for the same
    model pair. Averaged over datasets at the fitted parameters, this
    gap is the predictive complexity.
    """
    return float(divergence) - kl_statistic(data, theta0, theta)
