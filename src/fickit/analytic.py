"""Perturbative and extreme-value machinery.

Coordinate complexities in the orthonormalized parameter basis, the
chi-squared extreme-value approximation for multiplicity, error-statistic
correlation, and information-landscape diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import (Dataset, FickitError, FittedModel, MonteCarloEstimate,
                   ParameterVector, derive_seed, kl_divergence_mc,
                   kl_statistic, replicate_values, shannon_information,
                   unwrap)

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


def quadratic_error_statistic(delta_theta, fisher: FisherMatrix) -> float:
    """Quadratic form of a parameter error in the Fisher metric."""
    d = np.asarray(getattr(delta_theta, "coordinates", delta_theta),
                   dtype=float)
    if d.size != fisher.dimension:
        raise ValueError("dimension mismatch between error and Fisher matrix")
    return float(d @ fisher.entries @ d)


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
    chunk = max(1, 10_000_000 // m)
    done = 0
    while done < replicates:
        k = min(chunk, replicates - done)
        maxima[done:done + k] = rng.chisquare(nu, (k, m)).max(axis=1)
        done += k
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
    same = (np.array_equal(theta_a.coordinates, theta_b.coordinates)
            and theta_a.tags == theta_b.tags)
    model_a = family.model_at(theta_a)
    model_b = family.model_at(theta_b)
    div_a = kl_divergence_mc(truth, model_a, truth, sample_size,
                             replicates, derive_seed(seed, 1)).value
    div_b = kl_divergence_mc(truth, model_b, truth, sample_size,
                             replicates, derive_seed(seed, 2)).value
    ka, kb = unwrap(replicate_values(
        truth.sampler, sample_size, replicates, seed,
        [lambda x: div_a - kl_statistic(x, truth, model_a),
         lambda x: div_b - kl_statistic(x, truth, model_b)]))
    if same:
        return 1.0
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
        return np.linspace(self.start, self.stop, self.num)


@dataclass(frozen=True)
class GridSpec:
    axis1: GridAxis
    axis2: GridAxis


@dataclass
class LandscapeGrid:
    """In-sample (d) and expected (D) information-loss surfaces over a
    2-parameter grid, with profiles minimized over axis 1."""

    axis1_values: np.ndarray
    axis2_values: np.ndarray
    d_surface: np.ndarray          # shape (num1, num2)
    D_surface: np.ndarray
    D_std_error: np.ndarray
    invalid: np.ndarray            # bool mask of cells that failed

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


def information_landscape(family, truth: FittedModel, data: Dataset,
                          grid: GridSpec, replicates: int = 200,
                          seed: int = 0) -> LandscapeGrid:
    """Evaluate the in-sample loss on ``data`` and the Monte Carlo
    expected loss over a 2-parameter grid.

    The same simulated datasets, drawn once as one block, are reused
    for every grid cell (common random numbers), so neighboring cells
    are directly comparable; each cell scores the whole block in one
    call. Cells whose parameters the family rejects (``ValueError`` or
    a ``FickitError``, such as the ``DensityError`` of a score that
    overflows) are flagged, not fatal, and numpy does not warn about
    them; any other error propagates.
    """
    if family.model_at is None:
        raise ValueError("family does not expose model_at")
    a1 = grid.axis1.values()
    a2 = grid.axis2.values()
    [sims] = unwrap(replicate_values(truth.sampler, data.sample_size,
                                     replicates, seed, [lambda y: y.values]))
    sims = Dataset(sims)
    h_truth_data = shannon_information(data, truth)
    h_truth_sims = shannon_information(sims, truth)
    d = np.full((a1.size, a2.size), np.nan)
    D = np.full((a1.size, a2.size), np.nan)
    Dse = np.full((a1.size, a2.size), np.nan)
    invalid = np.zeros((a1.size, a2.size), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, v1 in enumerate(a1):
            for j, v2 in enumerate(a2):
                try:
                    model = family.model_at(ParameterVector([v1, v2]))
                    d[i, j] = shannon_information(data, model) - h_truth_data
                    diffs = shannon_information(sims, model) - h_truth_sims
                    D[i, j] = diffs.mean()
                    Dse[i, j] = diffs.std(ddof=1) / np.sqrt(replicates)
                except (ValueError, FickitError):
                    invalid[i, j] = True
    return LandscapeGrid(a1, a2, d, D, Dse, invalid)


def count_local_minima(profile: np.ndarray) -> int:
    """Strict interior local minima of a 1-D profile."""
    p = np.asarray(profile, dtype=float)
    if p.size < 3:
        return 0
    interior = p[1:-1]
    return int(np.sum((interior < p[:-2]) & (interior < p[2:])))
