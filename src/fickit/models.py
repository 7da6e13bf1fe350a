"""Bundled model families: exact MLE fits, samplers, Fisher matrices,
and the Fourier time-series regression experiment (sequential and
greedy mode selection)."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .analytic import FisherMatrix
from .core import (LOG_2PI, Dataset, FitError, FittedModel, ParameterVector,
                   row_error)


@dataclass(frozen=True)
class ModelFamily:
    """A fitting contract: a deterministic procedure that turns a
    Dataset into a FittedModel. Fit to a block, it returns one model
    that holds the fit to each row, exactly as if fit row by row.

    ``structured_data`` marks families whose observations are not
    exchangeable; resampling-style validation refuses them.
    ``model_at`` builds the candidate distribution at explicit
    parameters; ``fisher_at(params, sample_size)`` gives the Fisher
    matrix of the corresponding N-observation problem.
    """

    family_id: str
    fit: Callable[[Dataset], FittedModel]
    n_params: int
    structured_data: bool = False
    model_at: Optional[Callable[[ParameterVector], FittedModel]] = None
    fisher_at: Optional[Callable[[ParameterVector, int], FisherMatrix]] = None


def _block_sizes(n: int, k: int) -> np.ndarray:
    if n < k:
        raise ValueError("need at least one observation per mean block")
    sizes = np.full(k, n // k)
    sizes[:n % k] += 1
    return sizes


def _log(x):
    """Natural log, element by element through ``math.log``: numpy's
    vectorised log can differ from it in the last bit, and a replicate's
    value must not depend on whether it was computed in a block."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return math.log(x)
    return np.array([math.log(v) for v in x])


def _rows(fn: Callable[[np.ndarray], np.ndarray], x) -> np.ndarray:
    """``fn`` of one 1-D array, or of each row of a block, stacked.

    For the LAPACK and BLAS calls whose multi-row forms change the last
    bits (a multi-column least-squares solve, a matrix product in place
    of matrix-vector products).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return fn(x)
    return np.stack([fn(row) for row in x])


def _check_size(n: int, N: int) -> None:
    if n != N:
        raise ValueError(f"sample size {n} does not match the "
                         f"model's N = {N}")


def _fixed_mean(mean: np.ndarray) -> Callable[[int], np.ndarray]:
    N = mean.shape[-1]

    def mean_at(n: int) -> np.ndarray:
        _check_size(n, N)
        return mean

    return mean_at


def _gaussian_model(params: ParameterVector,
                    mean: Optional[Callable[[int], np.ndarray]] = None,
                    variance=1.0, label: str = "",
                    kept: Optional[np.ndarray] = None) -> FittedModel:
    """Independent normal observations around ``mean(n)`` (shape (n,),
    or (R, n) for a fit to a block) with the given variance (a scalar,
    or one per row).

    A Fourier fit passes the orthonormal coefficients it ``kept`` in
    place of a mean. It scores in coefficient space (Parseval), and
    builds its data-space mean, one inverse transform, only when first
    asked for it.

    A scalar unit variance skips log 1 = 0, the division by 1 and the
    scaling of the noise by sqrt 1 = 1, which change nothing: it gives
    the unit-variance density and data bit for bit.
    """
    variance = np.asarray(variance, dtype=float)
    unit = variance.ndim == 0 and float(variance) == 1.0
    log_norm = LOG_2PI if unit else LOG_2PI + _log(variance)
    sd = None if unit else np.sqrt(variance)[..., None]
    if kept is not None:
        N = kept.shape[-1]
        inverse = functools.cache(lambda: inverse_fourier_transform(kept))

        def mean(n: int) -> np.ndarray:
            _check_size(n, N)
            return inverse()

    def log_density(data: Dataset) -> np.ndarray:
        n = data.sample_size
        if kept is None:
            sq = data.values - mean(n)
        else:
            _check_size(n, N)
            sq = fourier_transform(data) - kept
        np.square(sq, out=sq)
        half = 0.5 * sq.sum(axis=-1)
        return -0.5 * n * log_norm - (half if unit else half / variance)

    def from_noise(noise: np.ndarray) -> Dataset:
        at = mean(noise.shape[-1])
        return Dataset(at + noise if unit else at + sd * noise)

    return FittedModel(params, log_density, from_noise, label=label,
                       mean=mean, variance=variance)


def gaussian_mean_model(means: np.ndarray, label: str = "") -> FittedModel:
    """Unit-variance normal blocks around the given per-block means (a
    row of means per dataset for a fit to a block).

    A dataset of size n is split into means.shape[-1] contiguous blocks
    of near-equal size (the leading blocks absorb any remainder).
    """
    means = np.atleast_1d(np.asarray(means, dtype=float))
    k = means.shape[-1]
    return _gaussian_model(
        ParameterVector(means),
        lambda n: np.repeat(means, _block_sizes(n, k), axis=-1), label=label)


def gaussian_mean_family(K: int) -> ModelFamily:
    """K block means with known unit variance; the regular reference
    family with complexity exactly K at every sample size."""
    if K < 1:
        raise ValueError("K must be >= 1")

    def fit(data: Dataset) -> FittedModel:
        sizes = _block_sizes(data.sample_size, K)
        means = [data.values[..., end - size:end].mean(axis=-1)
                 for size, end in zip(sizes, np.cumsum(sizes))]
        return gaussian_mean_model(np.array(means).T)    # a row per dataset

    def model_at(params: ParameterVector) -> FittedModel:
        if params.dimension != K:
            raise ValueError("parameter dimension must equal K")
        return gaussian_mean_model(params.coordinates)

    def fisher_at(params: ParameterVector, sample_size: int) -> FisherMatrix:
        return FisherMatrix(np.diag(_block_sizes(sample_size, K)
                                    .astype(float)))

    return ModelFamily(f"gaussian_mean_k{K}", fit, n_params=K,
                       model_at=model_at, fisher_at=fisher_at)


def _regression_model(design: np.ndarray, beta: np.ndarray,
                      variance) -> FittedModel:
    beta = np.asarray(beta, dtype=float)
    variance = np.asarray(variance, dtype=float)
    params = ParameterVector(np.concatenate([beta, variance[..., None]],
                                            axis=-1))
    mean = _rows(lambda b: design @ b, beta)
    return _gaussian_model(params, _fixed_mean(mean), variance)


def linear_regression_family(design: np.ndarray) -> ModelFamily:
    """Linear least-squares regression with unknown noise variance.

    The parameter count includes the variance, matching the small-sample
    corrected criterion convention.
    """
    design = np.atleast_2d(np.asarray(design, dtype=float))
    n, p = design.shape
    if np.linalg.matrix_rank(design) < p:
        raise ValueError("design matrix must have full column rank")
    if n <= p + 2:
        raise ValueError("need N > K + 1 observations (K = p + 1)")

    def fit(data: Dataset) -> FittedModel:
        if data.sample_size != n:
            raise ValueError("data length must match the design matrix")
        y = data.values
        beta = _rows(lambda row: np.linalg.lstsq(design, row, rcond=None)[0],
                     y)
        resid = y - _rows(lambda b: design @ b, beta)
        variance = (resid ** 2).sum(axis=-1) / n
        if np.any(variance <= 0.0):
            raise row_error(FitError, variance <= 0.0,
                            "zero residual variance: degenerate density")
        return _regression_model(design, beta, variance)

    def model_at(params: ParameterVector) -> FittedModel:
        coords = params.coordinates
        if coords.size != p + 1:
            raise ValueError("expected p coefficients plus a variance")
        variance = float(coords[-1])
        if variance <= 0.0:
            raise ValueError("variance must be positive")
        return _regression_model(design, coords[:-1], variance)

    def fisher_at(params: ParameterVector, sample_size: int) -> FisherMatrix:
        variance = float(params.coordinates[-1])
        block = np.zeros((p + 1, p + 1))
        block[:p, :p] = design.T @ design / variance
        block[p, p] = sample_size / (2.0 * variance ** 2)
        return FisherMatrix(block)

    return ModelFamily(f"linear_regression_n{n}_p{p}", fit, n_params=p + 1,
                       model_at=model_at, fisher_at=fisher_at)


def exponential_model(rate) -> FittedModel:
    """Exponential observations at the given rate (one per row for a
    fit to a block)."""
    rate = np.asarray(rate, dtype=float)
    if np.any(rate <= 0.0):
        raise ValueError("rate must be positive")
    log_rate = _log(rate)
    scale = (1.0 / rate)[..., None]

    def log_density(data: Dataset) -> np.ndarray:
        x = data.values
        logpdf = data.sample_size * log_rate - rate * x.sum(axis=-1)
        return np.where((x <= 0.0).any(axis=-1), -np.inf, logpdf)

    def from_noise(noise: np.ndarray) -> Dataset:
        return Dataset(scale * noise)

    return FittedModel(ParameterVector(rate[..., None]), log_density,
                       from_noise, "standard_exponential")


def exponential_family() -> ModelFamily:
    """One-parameter exponential distribution, MLE rate = N / sum(x)."""

    def fit(data: Dataset) -> FittedModel:
        bad = (data.values <= 0.0).any(axis=-1)
        if bad.any():
            raise row_error(FitError, bad,
                            "exponential data must be strictly positive")
        return exponential_model(data.sample_size
                                 / data.values.sum(axis=-1))

    def model_at(params: ParameterVector) -> FittedModel:
        return exponential_model(float(params.coordinates[0]))

    def fisher_at(params: ParameterVector, sample_size: int) -> FisherMatrix:
        rate = float(params.coordinates[0])
        return FisherMatrix(np.array([[sample_size / rate ** 2]]))

    return ModelFamily("exponential", fit, n_params=1,
                       model_at=model_at, fisher_at=fisher_at)


def fixed_family(model: FittedModel, family_id: str = "fixed") -> ModelFamily:
    """Zero-parameter family: fitting always returns the given model."""
    return ModelFamily(family_id, fit=lambda data: model, n_params=0,
                       model_at=lambda params: model)


# ---------------------------------------------------------------------------
# Neutrino-intensity Fourier regression experiment
# ---------------------------------------------------------------------------

def neutrino_mean(N: int) -> np.ndarray:
    """Seasonal mean intensity over one period, sampled at j = 1..N."""
    j = np.arange(1, N + 1)
    return np.sqrt(120.0 + 100.0 * np.sin(2.0 * np.pi * j / N + np.pi / 6.0))


def neutrino_truth(N: int) -> FittedModel:
    """Independent unit-variance normal intensities around the seasonal
    mean; the data-generating process of the Fourier experiment."""
    if N < 2 or N % 2:
        raise ValueError("N must be even and >= 2")
    mu = neutrino_mean(N)
    return _gaussian_model(ParameterVector(mu), _fixed_mean(mu),
                           label=f"neutrino_truth_N{N}")


def fourier_indices(N: int) -> np.ndarray:
    """Signed mode index for each position of the coefficient layout.

    Layout: position p holds mode p for p = 0..N/2 (constant, cosines,
    Nyquist) and mode p - N for p > N/2 (sines), so Python negative
    indexing addresses sine modes directly.
    """
    pos = np.arange(N)
    return np.where(pos <= N // 2, pos, pos - N)


def fourier_transform(data) -> np.ndarray:
    """Orthonormal real Fourier coefficients of an even-length series,
    or of each row of a block.

    Unit-variance white noise maps to independent unit-variance
    coefficients; the inverse transform reconstructs the data exactly.
    A Dataset's coefficients are memoised on it (read-only).
    """
    if isinstance(data, Dataset):
        return data.memo(_coefficients)
    return _coefficients(np.asarray(data, float))


def _coefficients(x: np.ndarray) -> np.ndarray:
    N = x.shape[-1]
    if N % 2:
        raise ValueError("orthonormal Fourier basis requires even N")
    r = np.fft.rfft(x)
    c = np.empty(x.shape)
    c[..., 0] = r[..., 0].real / math.sqrt(N)
    c[..., 1:N // 2] = math.sqrt(2.0 / N) * r[..., 1:N // 2].real
    c[..., N // 2] = r[..., N // 2].real / math.sqrt(N)
    if N > 2:
        c[..., N // 2 + 1:] = (-math.sqrt(2.0 / N)
                               * r[..., 1:N // 2].imag[..., ::-1])
    return c


def inverse_fourier_transform(coeffs: np.ndarray) -> np.ndarray:
    c = np.asarray(coeffs, dtype=float)
    N = c.shape[-1]
    if N % 2:
        raise ValueError("orthonormal Fourier basis requires even N")
    # Real and imaginary parts are filled separately; 0.0 - s * c, not
    # -s * c, gives +0.0 for a zero coefficient, as the complex product
    # -1j * s * c does, so the spectrum matches it bit for bit.
    r = np.zeros(c.shape[:-1] + (N // 2 + 1,), dtype=complex)
    r.real[..., 0] = c[..., 0] * math.sqrt(N)
    if N > 2:
        r.real[..., 1:N // 2] = c[..., 1:N // 2] * math.sqrt(N / 2.0)
        r.imag[..., 1:N // 2] = (0.0 - math.sqrt(N / 2.0)
                                 * c[..., N // 2 + 1:][..., ::-1])
    r.real[..., N // 2] = c[..., N // 2] * math.sqrt(N)
    return np.fft.irfft(r, N)


def _sequential_positions(n: int, N: int) -> np.ndarray:
    pos = [0]
    for k in range(1, n + 1):
        pos.extend([k, N - k])
    return np.array(pos, dtype=int)


def sequential_fourier_family(n: int, N: int) -> ModelFamily:
    """Keep the constant mode plus the n lowest frequencies (both the
    cosine and sine coefficient of each); zero everything else."""
    if N % 2 or N < 2:
        raise ValueError("N must be even and >= 2")
    if not 0 <= n <= N // 2 - 1:
        raise ValueError("nesting index out of range")
    sel = _sequential_positions(n, N)

    def fit(data: Dataset) -> FittedModel:
        c = fourier_transform(data)
        kept = np.zeros(c.shape)
        kept[..., sel] = c[..., sel]
        return _gaussian_model(ParameterVector(c[..., sel]), kept=kept)

    def model_at(params: ParameterVector) -> FittedModel:
        if params.dimension != sel.size:
            raise ValueError("parameter dimension mismatch")
        kept = np.zeros(N)
        kept[sel] = params.coordinates
        return _gaussian_model(params, kept=kept)

    def fisher_at(params: ParameterVector, sample_size: int) -> FisherMatrix:
        # Orthonormal coefficients of unit-variance data: unit Fisher.
        return FisherMatrix(np.eye(sel.size))

    return ModelFamily(f"sequential_fourier_n{n}_N{N}", fit,
                       n_params=2 * n + 1, structured_data=True,
                       model_at=model_at, fisher_at=fisher_at)


def greedy_mask(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Boolean mask of the positions greedy selection keeps, for one
    coefficient vector or for each row of a block: the constant mode
    plus the n largest-magnitude remaining coefficients.

    A partition finds the n-th largest magnitude among positions
    1..N-1, and every magnitude at least as large is kept. In a row
    with more ties at that magnitude than places left, the ties fill
    the places in the tie-break order (smaller absolute mode index
    first, positive first). Exact, and linear per row.
    """
    c = np.asarray(coeffs, dtype=float)
    N = c.shape[-1]
    mags = np.abs(c.reshape(-1, N)[:, 1:])
    if n == 0:
        keep = np.zeros(mags.shape, dtype=bool)
    else:
        nth = np.partition(mags, N - 1 - n, axis=1)[:, N - 1 - n, None]
        keep = mags >= nth
        surplus = np.flatnonzero(keep.sum(axis=1) > n)
        if surplus.size:
            idx = fourier_indices(N)
            order = np.lexsort((idx < 0, np.abs(idx)))[1:] - 1
            m = mags[surplus][:, order]
            above = m > nth[surplus]
            tied = m == nth[surplus]
            room = n - above.sum(axis=1, keepdims=True)
            keep[surplus[:, None], order] = above | (
                tied & (np.cumsum(tied, axis=1) <= room))
    constant = np.ones((keep.shape[0], 1), dtype=bool)
    return np.concatenate([constant, keep], axis=1).reshape(c.shape)


def greedy_fourier_family(n: int, N: int) -> ModelFamily:
    """Keep the constant mode plus the n largest-magnitude coefficients,
    re-running the full selection on every dataset it is fit to."""
    if N % 2 or N < 2:
        raise ValueError("N must be even and >= 2")
    if not 0 <= n <= N - 1:
        raise ValueError("nesting index out of range")
    idx = fourier_indices(N)

    def fit(data: Dataset) -> FittedModel:
        c = fourier_transform(data)
        mask = greedy_mask(c, n)
        shape = c.shape[:-1] + (n + 1,)
        positions = (np.flatnonzero(mask) % N).reshape(shape)
        params = ParameterVector(c[mask].reshape(shape), tags=idx[positions])
        return _gaussian_model(params, kept=np.where(mask, c, 0.0))

    def model_at(params: ParameterVector) -> FittedModel:
        if params.tags is None or len(params.tags) != params.dimension:
            raise ValueError("greedy parameters need one tag per coordinate")
        kept = np.zeros(N)
        sel = np.array([t % N for t in params.tags], dtype=int)
        kept[sel] = params.coordinates
        return _gaussian_model(params, kept=kept)

    def fisher_at(params: ParameterVector, sample_size: int) -> FisherMatrix:
        # Orthonormal coefficients of unit-variance data: unit Fisher.
        return FisherMatrix(np.eye(n + 1))

    return ModelFamily(f"greedy_fourier_n{n}_N{N}", fit,
                       n_params=n + 1, structured_data=True,
                       model_at=model_at, fisher_at=fisher_at)


def greedy_piecewise_complexity(n: int, N: int,
                                generator_coefficients) -> float:
    """Analytic two-regime approximation to the greedy complexity.

    Each nesting step contributes 1 when the step's generator
    coefficient is identifiable and 2 log N when the step selects among
    noise modes. The identifiability boundary (squared magnitude at
    least 2 log N) is the extreme-value scale of N unit chi-squared
    noise coefficients. That scale fits the first noise pick only:
    later picks cost lower order statistics (at N=1000 the expected
    largest of about 995 unit chi-squared values is 11.9 and the next
    three are 10.0, 9.1 and 8.5, against 2 log N = 13.8), so the
    approximation overstates every noise step after the first.
    """
    c = np.asarray(generator_coefficients, dtype=float)
    if c.size != N:
        raise ValueError("need the full coefficient vector")
    sel = np.flatnonzero(greedy_mask(c, n))[1:]
    threshold = 2.0 * math.log(N)
    total = 1.0                                   # constant mode, regular
    for p in sel:
        total += 1.0 if c[p] ** 2 >= threshold else threshold
    return total


# ---------------------------------------------------------------------------
# Two-parameter landscape examples
# ---------------------------------------------------------------------------

def _sine_design(N: int) -> np.ndarray:
    return np.arange(N, dtype=float)


def sine_regression_model(amplitude, omega, N: int) -> FittedModel:
    """Amplitude times a sinusoid of the given frequency in unit noise
    (one amplitude and frequency per row for a fit to a block)."""
    a = np.asarray(amplitude, dtype=float)
    w = np.asarray(omega, dtype=float)
    mean = a[..., None] * np.sin(w[..., None] * _sine_design(N))
    return _gaussian_model(ParameterVector(np.stack([a, w], axis=-1)),
                           _fixed_mean(mean))


def sine_regression_family(N: int, omega_max: float = np.pi,
                           grid_points: int = 0) -> ModelFamily:
    """Singular example: amplitude times a sinusoid of unknown frequency
    in unit noise. At zero amplitude the frequency is unidentifiable and
    the in-sample landscape is rough."""
    if N < 2:
        raise ValueError("N must be >= 2")
    t = _sine_design(N)
    num = grid_points or 8 * N

    def fit(data: Dataset) -> FittedModel:
        omegas = np.linspace(omega_max / num, omega_max, num)
        basis = np.sin(np.outer(omegas, t))           # num x N
        proj = _rows(lambda y: basis @ y, data.values)
        norm2 = (basis ** 2).sum(axis=1)
        gain = proj ** 2 / norm2
        best = np.argmax(gain, axis=-1)               # first max: fixed rule
        a = np.take_along_axis(proj, best[..., None], -1)[..., 0]
        return sine_regression_model(a / norm2[best], omegas[best], N)

    def model_at(params: ParameterVector) -> FittedModel:
        a, omega = params.coordinates
        return sine_regression_model(float(a), float(omega), N)

    def fisher_at(params: ParameterVector, sample_size: int) -> FisherMatrix:
        a, omega = params.coordinates
        s = np.sin(omega * t)
        c = a * t * np.cos(omega * t)
        g = np.stack([s, c])
        return FisherMatrix(g @ g.T)

    return ModelFamily(f"sine_regression_N{N}", fit, n_params=2,
                       structured_data=True, model_at=model_at,
                       fisher_at=fisher_at)


def linear_trend_family(N: int) -> ModelFamily:
    """Regular 2-parameter reference: intercept plus slope on a unit
    time grid, known unit noise variance."""
    if N < 3:
        raise ValueError("N must be >= 3")
    t = np.linspace(0.0, 1.0, N)
    design = np.column_stack([np.ones(N), t])

    def make(params: ParameterVector) -> FittedModel:
        mean = _rows(lambda b: design @ b, params.coordinates)
        return _gaussian_model(params, _fixed_mean(mean))

    def fit(data: Dataset) -> FittedModel:
        beta = _rows(lambda y: np.linalg.lstsq(design, y, rcond=None)[0],
                     data.values)
        return make(ParameterVector(beta))

    def fisher_at(params: ParameterVector, sample_size: int) -> FisherMatrix:
        return FisherMatrix(design.T @ design)

    return ModelFamily(f"linear_trend_N{N}", fit, n_params=2,
                       structured_data=True, model_at=make,
                       fisher_at=fisher_at)
