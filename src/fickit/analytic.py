"""Perturbative and extreme-value machinery.

Coordinate complexities in the orthonormalized parameter basis, the
chi-squared extreme-value approximation for multiplicity, error-statistic
correlation, and information-landscape diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (LOG_2PI, Dataset, FickitError, FittedModel,
                   MonteCarloEstimate, ParameterVector, _chunk_rows, _Deferred,
                   kl_statistic, replicate_values, shannon_information, unwrap)

# Eigenvalues below this fraction of the largest are treated as
# degenerate directions and pseudo-inverted.
EIGENVALUE_CLIP = 1e-12

# Coordinate-classification thresholds (artifact conventions).
UNIDENTIFIABLE_MAX = 0.1
REGULAR_TOL = 0.2
MULTIPLICITY_MIN = 2.0


@dataclass(frozen=True)
class FisherMatrix:
    """Hessian of the N-observation cross entropy at the optimal
    parameters, in nats. Symmetric positive semi-definite."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("Fisher matrix must be square")
        scale = np.abs(m).max() or 1.0
        if np.abs(m - m.T).max() > 1e-9 * scale:
            raise ValueError("Fisher matrix must be symmetric")
        eig = np.linalg.eigvalsh(m)
        if eig.min() < -1e-9 * max(eig.max(), 0.0):
            raise ValueError("Fisher matrix must be positive semi-definite")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]


def classify_coordinate(k: float) -> str:
    if k <= UNIDENTIFIABLE_MAX:
        return "unidentifiable"
    if k >= MULTIPLICITY_MIN:
        return "multiplicity"
    if abs(k - 1.0) <= REGULAR_TOL:
        return "regular"
    return "intermediate"


@dataclass(frozen=True)
class CoordinateComplexity:
    value: float
    classification: str
    degenerate: bool = False


def coordinate_complexities(mle_errors: Sequence,
                            fisher: FisherMatrix) -> list:
    """Per-coordinate mean-square parameter errors in the basis where
    the Fisher matrix is the identity.

    Directions with (near-)zero Fisher eigenvalue are scaled with the
    clipped eigenvalue and flagged as degenerate.
    """
    errs = np.array([np.asarray(getattr(e, "coordinates", e), dtype=float)
                     for e in mle_errors])
    if errs.shape[0] < 2:
        raise ValueError("need at least two MLE error samples")
    if errs.shape[1] != fisher.dimension:
        raise ValueError("dimension mismatch")
    eigval, eigvec = np.linalg.eigh(fisher.entries)
    clip = EIGENVALUE_CLIP * max(eigval.max(), 0.0)
    degenerate = eigval <= clip
    scale = np.sqrt(np.clip(eigval, clip, None)) if clip > 0 \
        else np.sqrt(np.abs(eigval))
    hatted = (errs @ eigvec) * scale            # samples x coordinates
    ks = (hatted ** 2).mean(axis=0)
    out = []
    for k, deg in zip(ks, degenerate):
        cls = "unidentifiable" if deg else classify_coordinate(float(k))
        out.append(CoordinateComplexity(float(k), cls, bool(deg)))
    return out


def evt_complexity(m, nu: int) -> float:
    """Large-m approximation to the expected extremum of m independent
    chi-squared(nu) variables: 2 log m + (nu - 2) log log m."""
    if m < 2:
        raise ValueError("m must be >= 2 (log log undefined below)")
    if nu < 1:
        raise ValueError("nu must be >= 1")
    return 2.0 * math.log(m) + (nu - 2) * math.log(math.log(m))


def max_chi2_mc(m: int, nu: int, replicates: int,
                seed: int) -> MonteCarloEstimate:
    """Direct simulation of the expected maximum of m independent
    chi-squared(nu) draws."""
    if m < 1 or nu < 1:
        raise ValueError("m and nu must be >= 1")
    if replicates < 2:
        raise ValueError("replicates must be >= 2")
    rng = np.random.default_rng([int(seed) % 2**63])
    maxima = np.empty(replicates)
    # A chunk of at most BLOCK_BYTES draws whole replicates, or one
    # replicate in pieces of columns when its m draws exceed the
    # budget. Split calls continue one stream, so the draws do not
    # depend on the chunking.
    rows = _chunk_rows(m)
    cols = min(m, _chunk_rows(1))
    for done in range(0, replicates, rows):
        top = maxima[done:done + rows]
        top[:] = -np.inf
        for start in range(0, m, cols):      # holds one chunk at a time
            np.maximum(top, rng.chisquare(
                nu, (top.size, min(cols, m - start))).max(axis=1), out=top)
    return MonteCarloEstimate.from_values(maxima, seed)


def error_statistic_correlation(family, truth: FittedModel,
                                theta_a: ParameterVector,
                                theta_b: ParameterVector,
                                sample_size: int, replicates: int,
                                seed: int) -> float:
    """Pearson correlation between the error statistics of two fixed
    parameter points under data simulated from ``truth``.

    Near-zero correlation identifies independent candidate distributions
    contributing to the multiplicity of a singular model.
    """
    if replicates < 10:
        raise ValueError("replicates must be >= 10")
    if family.model_at is None:
        raise ValueError("family does not expose model_at")
    model_a = family.model_at(theta_a)
    model_b = family.model_at(theta_b)
    if (np.array_equal(theta_a.coordinates, theta_b.coordinates)
            and np.array_equal(theta_a.tags, theta_b.tags)):
        return 1.0
    # An error statistic is a constant divergence minus kl_statistic,
    # and a correlation ignores constants.
    ka, kb = unwrap(replicate_values(
        truth.sampler, sample_size, replicates, seed,
        [lambda x: kl_statistic(x, truth, model_a),
         lambda x: kl_statistic(x, truth, model_b)]))
    if ka.std() == 0.0 or kb.std() == 0.0:
        raise ValueError("error statistic has zero variance; "
                         "correlation undefined")
    return float(np.corrcoef(ka, kb)[0, 1])


@dataclass(frozen=True)
class GridAxis:
    start: float
    stop: float
    num: int

    def values(self) -> np.ndarray:
        if self.num < 2:
            raise ValueError("grid axis needs at least two points")
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.linspace(self.start, self.stop, self.num)
        if not np.isfinite(values).all():
            raise ValueError(f"grid axis from {self.start} to {self.stop} "
                             "overflows the float range")
        return values


@dataclass
class LandscapeGrid(_Deferred):
    """In-sample (d) and expected (D) information-loss surfaces over a
    2-parameter grid, with profiles minimized over axis 1."""

    axis1_values: np.ndarray
    axis2_values: np.ndarray
    d_surface: np.ndarray          # shape (num1, num2)
    D_surface: np.ndarray
    D_std_error: np.ndarray
    invalid: np.ndarray            # bool mask of cells that failed

    @classmethod
    def _deferred(cls, build: Callable[[], np.ndarray],
                  **fields) -> "LandscapeGrid":
        """A grid of every field but ``D_std_error``, which ``build()``
        makes only when first read."""
        return cls._defer(lambda: {"D_std_error": build()}, **fields)

    # np.fmin ignores NaN cells and gives NaN for an all-invalid
    # column: np.nanmin's result, without its all-NaN warning.
    @property
    def d_profile(self) -> np.ndarray:
        return np.fmin.reduce(self.d_surface, axis=0)

    @property
    def D_profile(self) -> np.ndarray:
        return np.fmin.reduce(self.D_surface, axis=0)

    def argmin_D(self) -> tuple:
        flat = np.nanargmin(self.D_surface)
        return np.unravel_index(flat, self.D_surface.shape)


def _unit_normal_mean(model: FittedModel, n: int) -> np.ndarray:
    """The mean of n observations of a unit-variance Gaussian model;
    a ``TypeError`` for any other model."""
    if model.mean is None or model.variance is None \
            or np.ndim(model.variance) != 0 or float(model.variance) != 1.0:
        raise TypeError("information_landscape needs unit-variance "
                        f"Gaussian models; {model.label or 'a model'} has "
                        f"variance {model.variance}")
    return model.mean(n)


def _cell_means(family, params: np.ndarray, N: int) -> np.ndarray:
    """The (cells, N) means of the cell models at the parameter rows
    ``params``, a NaN row for each cell the family rejects.

    One ``model_at`` call builds the block. A block it fails on
    (``ValueError``, ``TypeError`` or ``FickitError``), or does not
    build as a unit-variance Gaussian with one mean row per cell, is
    bisected: only rejected cells are flagged, and a family that takes
    no blocks ends cell by cell. A single cell is built from its 1-D
    row; ``ValueError`` or ``FickitError`` flags it, and any other
    error propagates.
    """
    if len(params) == 1:
        means = np.full((1, N), np.nan)
        try:
            means[0] = _unit_normal_mean(
                family.model_at(ParameterVector(params[0])), N)
        except (ValueError, FickitError):
            pass
        return means
    try:
        means = _unit_normal_mean(family.model_at(ParameterVector(params)),
                                  N)
        if np.shape(means) == (len(params), N):
            return means
    except (ValueError, TypeError, FickitError):
        pass
    return np.concatenate([_cell_means(family, half, N)
                           for half in np.array_split(params, 2)])


def information_landscape(family, truth: FittedModel, data: Dataset,
                          axis1: GridAxis, axis2: GridAxis,
                          replicates: int = 200,
                          seed: int = 0) -> LandscapeGrid:
    """Evaluate the in-sample loss d on ``data`` and the Monte Carlo
    expected loss D over the grid ``axis1`` x ``axis2``.

    The truth and every cell model must be unit-variance Gaussian (a
    ``TypeError`` otherwise). With z = y - mu_0 for simulated data y and
    delta = mu_theta - mu_0, a cell's loss on y is 1/2 |delta|^2 -
    delta . z, so D and its standard error depend on the simulations
    only through the mean of z and its sample covariance S:
    D = 1/2 |delta|^2 - delta . mean(z), se = sqrt(delta' S delta / R).
    The R simulations, shared by every cell (common random numbers),
    are drawn in chunks and kept only as the sum of z: beside the
    chunks, memory is O(N) and does not grow with R. Cells are scored in
    chunks of ``BLOCK_BYTES`` per (cells x N) array, d exactly as the
    models' densities give it. The models of a chunk come from one
    ``model_at`` call for its block of parameter rows; a chunk the
    family rejects is bisected down to the cells it rejects. Cells are
    walked axis-2 major, so a block holds every axis-1 value of few
    axis-2 values, each in one consecutive run; a family may share work
    across equal consecutive axis-2 values (the sine family builds one
    wave per frequency).

    The grid's ``D_std_error`` is built on its first read and kept: the
    simulations are drawn again from the same seed and chunks into the
    N x N scatter matrix of z, which gives S, and the cells are walked
    again in the same chunks for the quadratic forms. Until then the
    grid holds the family, the truth and the O(N) sums, not S.

    Cells whose parameters the family rejects (``ValueError`` or a
    ``FickitError``) or whose losses overflow are flagged, not fatal,
    and numpy does not warn about them; any other error propagates.
    """
    if family.model_at is None:
        raise ValueError("family does not expose model_at")
    a1 = axis1.values()
    a2 = axis2.values()
    N = data.sample_size
    mu0 = _unit_normal_mean(truth, N)
    h_truth_data = shannon_information(data, truth)
    rows = _chunk_rows(N)
    # Cells go by walk index and are transposed to the grid's shape at
    # the end: a list of every cell's parameters would raise the peak
    # memory of a large grid.
    cells = a1.size * a2.size

    def simulations(add) -> None:
        """``add(z)`` for each chunk of the R simulations."""
        def statistic(y: Dataset) -> np.ndarray:
            z = y.values - mu0
            add(z)
            return np.empty((len(z), 0))        # nothing per replicate
        unwrap(replicate_values(truth.sampler, N, replicates, seed,
                                [statistic]))

    def cell_blocks():
        """(slice of the walk, cell means) for each chunk of cells."""
        for start in range(0, cells, rows):
            block = slice(start, min(start + rows, cells))
            j, i = np.divmod(np.arange(block.start, block.stop), a1.size)
            yield block, _cell_means(
                family, np.column_stack([a1[i], a2[j]]), N)

    def grid_shape(x: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(x.reshape(a2.size, a1.size).T)

    z_sum = np.zeros(N)
    simulations(lambda z: np.add(z_sum, z.sum(axis=0), out=z_sum))
    z_mean = z_sum / replicates
    d, D = np.full(cells, np.nan), np.full(cells, np.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        for block, means in cell_blocks():
            sq = data.values - means
            np.square(sq, out=sq)
            d[block] = (0.5 * N * LOG_2PI + 0.5 * sq.sum(axis=-1)
                        - h_truth_data)
            # delta reuses sq's buffer: one fewer chunk temporary, which
            # otherwise lands at the heap top, is trimmed when freed and
            # faults back in on the next chunk (96 minor faults per call
            # at the default landscape).
            delta = np.subtract(means, mu0, out=sq)
            D[block] = (0.5 * np.square(delta).sum(axis=-1)
                        - delta @ z_mean)
    invalid = ~(np.isfinite(d) & np.isfinite(D))
    d[invalid] = D[invalid] = np.nan

    def std_error() -> np.ndarray:
        scatter = np.zeros((N, N))
        simulations(lambda z: np.add(scatter, z.T @ z, out=scatter))
        cov = (scatter - replicates * np.outer(z_mean, z_mean)) \
            / (replicates - 1)
        Dse = np.full(cells, np.nan)
        with np.errstate(over="ignore", invalid="ignore"):
            for block, means in cell_blocks():
                delta = means - mu0
                # S is singular when R <= N: rounding can take the
                # quadratic form of a null direction below 0.
                spread = np.maximum(((delta @ cov) * delta).sum(axis=-1),
                                    0.0)
                Dse[block] = np.sqrt(spread) / np.sqrt(replicates)
        Dse[invalid] = np.nan
        return grid_shape(Dse)

    return LandscapeGrid._deferred(
        std_error, axis1_values=a1, axis2_values=a2, d_surface=grid_shape(d),
        D_surface=grid_shape(D), invalid=grid_shape(invalid))


def count_local_minima(profile: np.ndarray) -> int:
    """Strict interior local minima of a 1-D profile."""
    p = np.asarray(profile, dtype=float)
    if p.size < 3:
        return 0
    interior = p[1:-1]
    return int(np.sum((interior < p[:-2]) & (interior < p[2:])))
