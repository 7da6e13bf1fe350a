"""Information criteria and complexity estimators.

Closed forms (AIC, BIC, small-sample corrections), Monte Carlo
complexities (candidate-sampled, true-generator oracle, bootstrap),
and leave-one-out cross validation.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .analytic import FisherMatrix
from .core import (Dataset, FickitError, FittedModel, MonteCarloEstimate,
                   ParameterVector, StructuredDataError, _chunk_rows,
                   _finite_information, draw_rows, replicate_values,
                   shannon_information, unwrap)
from .models import _FourierRule, _greedy_order, fourier_transform

Complexity = Union[float, MonteCarloEstimate, None]


@dataclass(frozen=True)
class CriterionReport:
    """Per-model record: in-sample fit, complexity, and their sum."""

    model_label: str
    criterion_kind: str
    goodness_of_fit: float
    complexity: Complexity
    criterion_value: float
    n_params: Optional[int] = None


def _report(label, kind, h, complexity, n_params) -> CriterionReport:
    kval = complexity.value if isinstance(complexity, MonteCarloEstimate) \
        else float(complexity)
    return CriterionReport(label, kind, h, complexity, h + kval, n_params)


def aic(fit: FittedModel, data: Dataset, label: str = "") -> CriterionReport:
    """In-sample information plus the continuous parameter count."""
    k = fit.params.dimension
    h = shannon_information(data, fit)
    return _report(label or fit.label, "AIC", h, float(k), k)


def bic(fit: FittedModel, data: Dataset, label: str = "") -> CriterionReport:
    k = fit.params.dimension
    h = shannon_information(data, fit)
    penalty = 0.5 * k * math.log(data.sample_size)
    return _report(label or fit.label, "BIC", h, penalty, k)


def aicc_linear_regression(K: int, N: int) -> float:
    """Small-sample complexity of linear regression with unknown
    variance; K counts coefficients plus the variance."""
    if N <= K + 1:
        raise ValueError("complexity diverges for N <= K + 1")
    return K * N / (N - K - 1)


def aicc_exponential(N: int) -> float:
    """Exact complexity of the one-parameter exponential model."""
    if N < 2:
        raise ValueError("complexity diverges at N = 1")
    return N / (N - 1)


def _complexity_replicates(pairs: Sequence, sample_size: int,
                           replicates: int, seed: int) -> list:
    """Per-replicate out-of-sample minus in-sample information of each
    fitted family under its generator: one entry per (family,
    generator) pair, an array with one value per replicate, or the
    error that failed the pair (see ``replicate_values``).

    Each replicate draws two noise blocks Z, Y from its stream once;
    every pair maps them to data through its generator's
    ``from_noise``, runs the full fitting algorithm on each, and
    averages the generalization gap both ways. The symmetrization
    leaves the expectation unchanged (Z and Y are exchangeable) and
    cancels the generator's shared-signal noise, cutting the variance by
    orders of magnitude for structured generators. A pair's values are
    those it gives alone: the pairs share the draws, so they must share
    the generators' noise law. A noise block is a Dataset, so every
    pair shares what it memoises (its Fourier coefficients). A
    generator object in several pairs maps each chunk's noise to data
    once, held for that chunk only.

    When both fits carry ``kept`` coefficients (unit-variance fits that
    score in coefficient space), the N/2 log 2 pi and squared-norm
    terms of the four scorings cancel, and the gap is Efron's
    covariance penalty 1/2 <c(z) - c(y), kept_z - kept_y>. The two
    differences are taken first, so that the large constant mode
    cancels before any product. They go into two (rows x N) buffers
    made once per call and reused by every such pair and chunk, and
    ``np.einsum`` reduces each row alone, so a row's gap does not
    depend on its chunk. Every other pair of fits is scored four times
    by ``shannon_information``.

    A sequential or greedy Fourier family (a ``models._FourierRule``'s
    bound ``fit``) is not fit: its levels select from rankings shared
    per chunk, and each pair patches the chunk's c(z) - c(y) and a zero
    kept_z - kept_y in place for the same inner product, then restores
    them.
    """
    laws = {generator.noise for _, generator in pairs}
    if len(laws) != 1:
        raise ValueError(f"complexity pairs must share one noise law, "
                         f"got {sorted(laws)}")
    law = laws.pop()

    def draw(n: int, rngs) -> Dataset:
        return Dataset._own(draw_rows(rngs, law, n))    # shared by every pair

    repeats = Counter(id(generator) for _, generator in pairs)
    held_noise, held = None, {}     # a chunk's Z noise, its shares

    def shares(z_noise: Dataset) -> dict:
        nonlocal held_noise, held
        if held_noise is not z_noise:           # a new chunk
            held_noise, held = z_noise, {}
        return held

    def datasets(generator: FittedModel, z_noise, y_noise) -> tuple:
        key = id(generator)
        if repeats[key] < 2:
            return generator.from_noise(z_noise), generator.from_noise(y_noise)
        shared = shares(z_noise)
        if key not in shared:
            shared[key] = (generator.from_noise(z_noise),
                           generator.from_noise(y_noise))
        return shared[key]

    work_of = {}                    # d and k per rule key, and "fit"

    def work(key, rows: int) -> list:
        # Zero when made, one chunk each: one twice that size would be
        # a fresh memory map, faulted in on every call. The first chunk
        # handed sets the size; replicate_values hands no larger one.
        if key not in work_of:
            work_of[key] = [np.zeros((rows, sample_size)) for _ in range(2)]
        return [w[:rows] for w in work_of[key]]

    def covariance_gap(z: Dataset, y: Dataset, fit_z: FittedModel,
                       fit_y: FittedModel) -> np.ndarray:
        c_z = fourier_transform(z)
        d, k = work("fit", len(c_z))
        np.subtract(c_z, fourier_transform(y), out=d)
        np.subtract(fit_z.kept, fit_y.kept, out=k)
        return _finite_information(0.5 * np.einsum("...i,...i->...", d, k))

    # A greedy rule pair ranks by key: the noise's coefficients under a
    # generator with ``kept`` (key None; off its support S the data's
    # are the noise's), else the generator's data. Fitting is faster
    # for a pair alone under its key, or once S holds over N/64 places.
    rules, levels = {}, {}
    for family, generator in pairs:
        rule, kept = getattr(family.fit, "__self__", None), generator.kept
        S = np.flatnonzero(np.zeros(0) if kept is None else kept)
        key = None if kept is not None else id(generator)
        if (isinstance(rule, _FourierRule) and rule.N == sample_size
                and (kept is None or kept.shape == (sample_size,))
                and (rule.sel is not None or 64 * S.size <= sample_size)):
            rules[id(family), id(generator)] = rule, S, key
            if rule.sel is None:
                levels.setdefault(key, []).append(rule.n + 1 + S.size)
    depth = {key: max(d) for key, d in levels.items() if len(d) > 1}
    rules = {pair: r for pair, r in rules.items()
             if r[0].sel is not None or r[2] in depth}

    def rule_gap(rule: _FourierRule, S: np.ndarray, key, generator,
                 z_noise: Dataset, y_noise: Dataset) -> np.ndarray:
        shared, kept = shares(z_noise), generator.kept  # a new chunk first
        z, y = ((z_noise, y_noise) if kept is not None
                else datasets(generator, z_noise, y_noise))
        c_z, c_y = fourier_transform(z), fourier_transform(y)
        d, k = work(key, len(c_z))          # k stays zero between uses
        if ("rule", key) not in shared:     # the chunk's d and ranks
            np.subtract(c_z, c_y, out=d)
            deep = depth.get(key)
            shared["rule", key] = [deep and _greedy_order(c, deep)
                                   for c in (c_z, c_y)]
        r_z, r_y = shared["rule", key]
        base = d[:, S]
        if S.size:                  # the data's coefficients on the support
            a_z, a_y = kept[S] + c_z[:, S], kept[S] + c_y[:, S]
            Dataset._own(a_z), Dataset._own(a_y)   # checked as sampled
            d[:, S] = a_z - a_y
        (P_z, v_z), (P_y, v_y) = (rule.select(c_z, r_z, kept, S),
                                  rule.select(c_y, r_y, kept, S))
        # One column index for all rows (sequential) scatters faster.
        rows = slice(None) if P_z.ndim == 1 else np.arange(len(c_z))[:, None]
        k[rows, P_z] = v_z
        k[rows, P_y] -= v_y
        g = 0.5 * np.einsum("...i,...i->...", d, k)
        k[rows, P_z] = k[rows, P_y] = 0.0   # leave k zero and d the chunk's
        d[:, S] = base
        return _finite_information(g)

    def gap_of(family, generator: FittedModel):
        rule = rules.get((id(family), id(generator)))

        def gap(z_noise: Dataset, y_noise: Dataset) -> np.ndarray:
            if rule is not None:
                return rule_gap(*rule, generator, z_noise, y_noise)
            z, y = datasets(generator, z_noise, y_noise)
            fit_z = family.fit(z)
            fit_y = family.fit(y)
            if fit_z.kept is not None and fit_y.kept is not None:
                return covariance_gap(z, y, fit_z, fit_y)
            gap_z = (shannon_information(y, fit_z)
                     - shannon_information(z, fit_z))
            gap_y = (shannon_information(z, fit_y)
                     - shannon_information(y, fit_y))
            return 0.5 * (gap_z + gap_y)
        return gap

    return replicate_values(draw, sample_size, replicates, seed,
                            [gap_of(f, g) for f, g in pairs], draws=2)


def fic_complexity(family, generator: FittedModel, sample_size: int,
                   replicates: int = 1000, seed: int = 0
                   ) -> MonteCarloEstimate:
    """Monte Carlo complexity of the family under a candidate generator:
    the expected generalization gap of the fully refit model."""
    [vals] = unwrap(_complexity_replicates([(family, generator)],
                                           sample_size, replicates, seed))
    return MonteCarloEstimate.from_values(vals, seed)


def fic(data: Dataset, family, replicates: int = 1000, seed: int = 0,
        label: str = "") -> CriterionReport:
    """Fit the family, then add the Monte Carlo complexity computed
    under the fitted candidate distribution at the same sample size."""
    fitted = family.fit(data)
    h = shannon_information(data, fitted)
    complexity = fic_complexity(family, fitted, data.sample_size,
                                replicates, seed)
    return _report(label or family.family_id, "FIC", h, complexity,
                   family.n_params)


def bootstrap_complexity(data: Dataset, family, mode: str,
                         replicates: int = 1000, seed: int = 0
                         ) -> MonteCarloEstimate:
    """Bootstrap complexity: twice the gap between the information of
    the observed data under models fit to resampled vs observed data.

    ``mode`` is "parametric" (resample from the fitted distribution) or
    "empirical" (with-replacement resampling; refused for structured
    families).
    """
    if mode not in ("parametric", "empirical"):
        raise ValueError("mode must be 'parametric' or 'empirical'")
    if mode == "empirical" and family.structured_data:
        raise StructuredDataError(
            f"{family.family_id} holds structured observations; "
            "empirical resampling is not meaningful for it")
    fit_x = family.fit(data)
    h_x = shannon_information(data, fit_x)

    def resample(n: int, rng) -> Dataset:
        return Dataset(draw_rows(rng, "choice", n, data.values))

    [vals] = unwrap(replicate_values(
        fit_x.sampler if mode == "parametric" else resample,
        data.sample_size, replicates, seed,
        [lambda y: 2.0 * (shannon_information(data, family.fit(y)) - h_x)]))
    return MonteCarloEstimate.from_values(vals, seed)


def loocv(data: Dataset, family, label: str = "") -> CriterionReport:
    """Sum of held-out informations over leave-one-out refits.

    Reported as the raw sum; comparisons with criterion values carry an
    O(K/N) offset because each refit sees N - 1 observations.
    """
    if family.structured_data:
        raise StructuredDataError(
            f"{family.family_id} holds structured observations; "
            "leave-one-out validation is not meaningful for it")
    n = data.sample_size
    if n < 2:
        raise ValueError("leave-one-out requires at least two observations")

    def held_out(i: int) -> float:
        fitted = family.fit(Dataset(np.delete(data.values, i)))
        return shannon_information(Dataset(data.values[i:i + 1]), fitted)

    # The N leave-one-out datasets are fit a block of BLOCK_BYTES at a
    # time, row i without observation i; row i's fit scores observation
    # i. A block that fails is redone row by row, so an error is the
    # one-row fit's. The sum runs in row order, as one row at a time.
    rows = _chunk_rows(n)
    total = 0.0
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        keep = np.arange(n) != np.arange(start, stop)[:, None]
        rest = np.broadcast_to(data.values, keep.shape)[keep]
        try:
            fitted = family.fit(Dataset(rest.reshape(stop - start, n - 1)))
            held = shannon_information(
                Dataset(data.values[start:stop, None]), fitted).tolist()
        except (FickitError, ValueError):
            held = [held_out(i) for i in range(start, stop)]
        for h in held:
            total += h
    return CriterionReport(label or family.family_id, "LOOCV",
                           goodness_of_fit=total, complexity=None,
                           criterion_value=total, n_params=family.n_params)


def fic_complexity_gradient(family, theta_hat: ParameterVector,
                            sample_size: int, fd_step: float = 0.05,
                            replicates: int = 1000, seed: int = 0,
                            use_pseudo_inverse: bool = False):
    """Central-difference gradient of the Monte Carlo complexity with
    respect to the generator parameters, with its standard error.

    Every side of every difference is scored in one call on the same
    draws, so the noise of shared draws cancels. Steps are ``fd_step``
    (finite and non-zero) in MLE-standard-deviation units per coordinate.
    """
    if fd_step == 0 or not math.isfinite(fd_step):
        raise ValueError(f"fd_step must be finite and non-zero: {fd_step}")
    scales = np.sqrt(np.diag(_fisher_inverse(
        family.fisher_at(theta_hat, sample_size), use_pseudo_inverse)))
    steps = fd_step * np.where(scales > 0, scales, 1.0)
    pairs = []
    for i, step in enumerate(steps):
        for side in (step, -step):              # plus, then minus
            shifted = np.array(theta_hat.coordinates)
            shifted[i] += side
            pairs.append((family, family.model_at(
                ParameterVector(shifted, tags=theta_hat.tags))))
    v = unwrap(_complexity_replicates(pairs, sample_size, replicates, seed))
    diffs = (np.array(v[::2]) - v[1::2]) / (2.0 * steps[:, None])
    return diffs.mean(axis=1), diffs.std(ddof=1, axis=1) / np.sqrt(replicates)


def fic_variance_estimate(family, theta_hat: ParameterVector,
                          sample_size: int, fd_step: float = 0.05,
                          replicates: int = 1000, seed: int = 0,
                          use_pseudo_inverse: bool = False) -> float:
    """First-order variance of the complexity induced by parameter
    uncertainty: gradient through the inverse Fisher metric.

    Zero (within Monte Carlo noise) for parameter-invariant
    complexities.
    """
    fisher = family.fisher_at(theta_hat, sample_size)
    inv = _fisher_inverse(fisher, use_pseudo_inverse)
    grad, _ = fic_complexity_gradient(family, theta_hat, sample_size,
                                      fd_step, replicates, seed,
                                      use_pseudo_inverse)
    return float(grad @ inv @ grad)


def _fisher_inverse(fisher: FisherMatrix,
                    use_pseudo_inverse: bool) -> np.ndarray:
    eig = np.linalg.eigvalsh(fisher.entries)
    singular = eig.min() <= 1e-12 * max(eig.max(), 1e-300)
    if singular and not use_pseudo_inverse:
        raise FickitError(
            "Fisher matrix is singular; pass use_pseudo_inverse=True to "
            "project onto its identifiable subspace")
    if use_pseudo_inverse:
        return np.linalg.pinv(fisher.entries,
                              rcond=1e-12, hermitian=True)
    return np.linalg.inv(fisher.entries)

