"""Bundled model families: exact MLE fits, samplers, Fisher matrices,
and the Fourier time-series regression experiment (sequential and
greedy mode selection)."""

from __future__ import annotations

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

    ``model_at`` builds the candidate distribution at explicit
    parameters: one row of them, or a block of rows (a leading axis),
    for which it returns one model holding each row. ``fit`` returns
    the model ``model_at`` gives at its estimate, from the family's one
    model constructor: a Fourier fit hands that constructor its kept
    coefficients and builds its estimate only when it is read.
    ``structured_data`` marks families whose observations are not
    exchangeable; resampling-style validation refuses them.
    ``fisher_at(params, sample_size)`` gives the Fisher matrix of the
    corresponding N-observation problem.
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
    asked for it. It samples in coefficient space too (the transform
    is linear): its data's coefficients are ``kept`` plus the noise's,
    memoised on a noise Dataset, and their values are built when read.

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
        inverse = []                # the data-space mean, once built

        def mean(n: int) -> np.ndarray:
            _check_size(n, N)
            if not inverse:
                inverse.append(inverse_fourier_transform(kept))
            return inverse[0]

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

    def from_noise(noise) -> Dataset:
        x = getattr(noise, "values", noise)     # an array, or its Dataset
        n = x.shape[-1]

        def values() -> np.ndarray:
            return mean(n) + x if unit else mean(n) + sd * x

        if kept is None:
            return Dataset(values())
        _check_size(n, N)
        c = fourier_transform(noise)
        return Dataset._deferred(values, _coefficients,
                                 kept + c if unit else kept + sd * c)

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
        return model_at(ParameterVector(
            np.concatenate([beta, variance[..., None]], axis=-1)))

    def model_at(params: ParameterVector) -> FittedModel:
        coords = params.coordinates
        if params.dimension != p + 1:
            raise ValueError("expected p coefficients plus a variance")
        variance = coords[..., -1]
        if np.any(variance <= 0.0):
            raise ValueError("variance must be positive")
        mean = _rows(lambda b: design @ b, coords[..., :-1])
        return _gaussian_model(params, _fixed_mean(mean), variance)

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

    def from_noise(noise) -> Dataset:
        return Dataset(scale * getattr(noise, "values", noise))

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
        return exponential_model(params.coordinates[..., 0])

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
    keep = np.zeros(N, dtype=bool)
    keep[sel] = True

    def fit(data: Dataset) -> FittedModel:
        c = fourier_transform(data)
        kept = np.zeros(c.shape)
        np.copyto(kept, c, where=keep)
        return _gaussian_model(
            ParameterVector._deferred(lambda: (c[..., sel], None)), kept=kept)

    def model_at(params: ParameterVector) -> FittedModel:
        if params.dimension != sel.size:
            raise ValueError("parameter dimension mismatch")
        kept = np.zeros(params.coordinates.shape[:-1] + (N,))
        kept[..., sel] = params.coordinates
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

    With the constant mode's magnitude set to infinity, a partition
    finds the (n + 1)-th largest, and every magnitude at least as large
    is kept. Ties at it beyond the places left fill them in the
    tie-break order (smaller absolute mode index first, positive
    first). Exact, and linear per row.
    """
    c = np.asarray(coeffs, dtype=float)
    N = c.shape[-1]
    if n == 0:                                  # the constant mode only
        return np.broadcast_to(np.arange(N) == 0, c.shape).copy()
    mags = np.abs(c.reshape(-1, N))
    mags[:, 0] = np.inf
    nth = np.partition(mags, N - 1 - n, axis=1)[:, N - 1 - n, None]
    keep = mags >= nth
    # A row without NaN keeps at least n + 1 positions, so only a
    # larger total leaves ties to break.
    if np.count_nonzero(keep) > keep.shape[0] * (n + 1):
        surplus = np.flatnonzero(keep.sum(axis=1) > n + 1)
        idx = fourier_indices(N)
        order = np.lexsort((idx < 0, np.abs(idx)))
        m = mags[surplus][:, order]
        above = m > nth[surplus]
        tied = m == nth[surplus]
        room = n + 1 - above.sum(axis=1, keepdims=True)
        keep[surplus[:, None], order] = above | (
            tied & (np.cumsum(tied, axis=1) <= room))
    return keep.reshape(c.shape)


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
        kept = np.zeros(c.shape)
        np.copyto(kept, c, where=mask)

        def estimate() -> tuple:
            shape = c.shape[:-1] + (n + 1,)
            positions = (np.flatnonzero(mask) % N).reshape(shape)
            return c[mask].reshape(shape), idx[positions]

        return _gaussian_model(ParameterVector._deferred(estimate), kept=kept)

    def model_at(params: ParameterVector) -> FittedModel:
        coords = params.coordinates
        if params.tags is None or params.tags.shape != coords.shape:
            raise ValueError("greedy parameters need one tag per coordinate")
        kept = np.zeros(coords.shape[:-1] + (N,))
        np.put_along_axis(kept, params.tags % N, coords, -1)
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

def sine_regression_family(N: int) -> ModelFamily:
    """Singular example: amplitude times a sinusoid of unknown frequency
    in unit noise. At zero amplitude the frequency is unidentifiable and
    the in-sample landscape is rough."""
    if N < 3:
        raise ValueError("N must be >= 3")
    t = np.arange(N, dtype=float)

    def fit(data: Dataset) -> FittedModel:
        # Waves sin(w t), w = k pi / 8N for k < 8N (sin(pi t) is rounding
        # noise at integer t): a row's projections are -Im of its 16N-point
        # FFT at k, and |s|^2 = N/2 - 1/2 sum_t cos(2 w t).
        omegas = np.linspace(np.pi / (8 * N), np.pi, 8 * N)[:-1]
        norm2 = 0.5 * N - 0.5 * np.fft.fft(np.ones(N), 8 * N).real[1:]
        proj = -np.fft.rfft(data.values, 16 * N)[..., 1:8 * N].imag
        best = np.argmax(proj ** 2 / norm2, axis=-1)  # first max: fixed rule
        a = np.take_along_axis(proj, best[..., None], -1)[..., 0]
        return model_at(ParameterVector(
            np.stack([a / norm2[best], omegas[best]], axis=-1)))

    def model_at(params: ParameterVector) -> FittedModel:
        # An amplitude and a frequency per row; a wrong count fails to
        # unpack with a ValueError.
        a, omega = params.coordinates.T[..., None]
        # One wave per run of equal consecutive frequencies (equal bits),
        # gathered to its rows: np.sin is elementwise, so each row is bit
        # for bit its own wave.
        w = omega.ravel()
        key = w.view(np.int64)
        new = np.ones(w.size, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=new[1:])
        waves = np.sin(w[new, None] * t)[np.cumsum(new) - 1]
        return _gaussian_model(params, _fixed_mean(
            a * waves.reshape(omega.shape[:-1] + (N,))))

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
