"""Model families: MLE fits, samplers, the orthonormal Fourier basis,
and the sequential/greedy mode-selection algorithms."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import fickit
from fickit.core import (Dataset, FitError, ParameterVector, draw_rows,
                         replicate_rng, shannon_information)
from fickit.models import (_coefficients, exponential_family,
                           exponential_model, fixed_family, fourier_indices,
                           fourier_transform, gaussian_mean_family,
                           gaussian_mean_model, greedy_fourier_family,
                           greedy_mask, greedy_piecewise_complexity,
                           inverse_fourier_transform,
                           linear_regression_family, linear_trend_family,
                           neutrino_mean, neutrino_truth,
                           sequential_fourier_family, sine_regression_family)


class TestGaussianMeanFamily:
    def test_single_mean_fit(self):
        fit = gaussian_mean_family(1).fit(Dataset([1.0, 2.0, 3.0]))
        assert fit.params.coordinates[0] == pytest.approx(2.0)

    def test_block_means(self):
        fit = gaussian_mean_family(2).fit(Dataset([1.0, 3.0, 10.0, 20.0]))
        assert fit.params.coordinates == pytest.approx([2.0, 15.0])

    def test_uneven_blocks(self):
        # Leading block absorbs the remainder: blocks {1,3} and {10}.
        fit = gaussian_mean_family(2).fit(Dataset([1.0, 3.0, 10.0]))
        assert fit.params.coordinates == pytest.approx([2.0, 10.0])

    def test_too_short_for_blocks(self):
        with pytest.raises(ValueError):
            gaussian_mean_family(4).fit(Dataset([1.0, 2.0, 3.0]))

    def test_refit_recovers_means(self):
        family = gaussian_mean_family(2)
        gen = family.model_at(ParameterVector([1.5, -0.5]))
        refit = family.fit(gen.sampler(100_000, replicate_rng(31, 0)))
        assert np.abs(refit.params.coordinates
                      - [1.5, -0.5]).max() < 0.02


class TestLinearRegressionFamily:
    def test_intercept_only_hand_fit(self):
        family = linear_regression_family(np.ones((4, 1)))
        fit = family.fit(Dataset([0.0, 2.0, 0.0, 2.0]))
        assert fit.params.coordinates[0] == pytest.approx(1.0)
        assert fit.params.coordinates[1] == pytest.approx(1.0)  # MLE variance

    def test_rank_deficient_design(self):
        design = np.column_stack([np.ones(10), np.ones(10)])
        with pytest.raises(ValueError):
            linear_regression_family(design)

    def test_too_few_observations(self):
        with pytest.raises(ValueError):
            linear_regression_family(np.ones((3, 2)))

    def test_zero_residual_is_fit_error(self):
        family = linear_regression_family(np.ones((5, 1)))
        with pytest.raises(FitError):
            family.fit(Dataset([2.0] * 5))


class TestExponentialFamily:
    def test_single_observation(self):
        fit = exponential_family().fit(Dataset([1.0]))
        assert fit.params.coordinates[0] == pytest.approx(1.0)

    def test_rate_is_n_over_sum(self):
        fit = exponential_family().fit(Dataset([2.0, 2.0]))
        assert fit.params.coordinates[0] == pytest.approx(0.5)

    def test_nonpositive_data_rejected(self):
        with pytest.raises(FitError):
            exponential_family().fit(Dataset([1.0, 0.0]))


class TestNeutrinoTruth:
    def test_mean_at_sine_maximum(self):
        # 2*pi*j/N + pi/6 = pi/2 at j = N/6; radicand is 220 there.
        mu = neutrino_mean(12)
        assert mu[2 - 1] == pytest.approx(math.sqrt(220.0), abs=1e-9)

    def test_mean_bounds(self):
        mu = neutrino_mean(100)
        assert np.all(mu ** 2 >= 20.0 - 1e-9)
        assert np.all(mu ** 2 <= 220.0 + 1e-9)

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            neutrino_truth(99)

    def test_sampler_size_and_determinism(self):
        truth = neutrino_truth(100)
        a = truth.sampler(100, replicate_rng(5, 0))
        b = truth.sampler(100, replicate_rng(5, 0))
        assert a.sample_size == 100
        assert np.array_equal(a.values, b.values)


class TestFourierBasis:
    def test_constant_signal(self):
        c = fourier_transform(np.full(16, 3.0))
        assert c[0] == pytest.approx(3.0 * 4.0, abs=1e-9)
        assert np.abs(c[1:]).max() < 1e-9

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            fourier_transform(np.ones(7))

    @given(arrays(float, st.sampled_from([2, 4, 10, 16]),
                  elements=st.floats(-100, 100)))
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_and_parseval(self, x):
        c = fourier_transform(x)
        back = inverse_fourier_transform(c)
        scale = max(1.0, np.abs(x).max())
        assert np.abs(back - x).max() < 1e-9 * scale
        assert abs((c ** 2).sum() - (x ** 2).sum()) <= \
            1e-9 * max(1.0, (x ** 2).sum())

    def test_index_layout(self):
        assert list(fourier_indices(8)) == [0, 1, 2, 3, 4, -3, -2, -1]

    def test_white_noise_coefficients_unit_covariance(self):
        n, reps = 16, 4000
        rng = np.random.default_rng([77])
        coeffs = np.array([fourier_transform(rng.standard_normal(n))
                           for _ in range(reps)])
        cov = np.cov(coeffs.T, bias=False)
        tol = 3.0 / math.sqrt(reps)
        assert np.abs(cov - np.eye(n)).max() < tol + 0.03
        assert np.abs(coeffs.mean(axis=0)).max() < tol


class TestSequentialFamily:
    def test_parameter_count(self):
        for n in (0, 1, 3):
            family = sequential_fourier_family(n, 100)
            assert family.n_params == 2 * n + 1
            fit = family.fit(neutrino_truth(100).sampler(
                100, replicate_rng(1, 0)))
            assert fit.params.dimension == 2 * n + 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            sequential_fourier_family(50, 100)
        with pytest.raises(ValueError):
            sequential_fourier_family(-1, 100)

    def test_keeps_low_modes_only(self):
        data = neutrino_truth(20).sampler(20, replicate_rng(2, 0))
        fit = sequential_fourier_family(1, 20).fit(data)
        c = fourier_transform(data)
        # Fitted mean reproduces modes 0, +1, -1 and zeroes the rest.
        kept = np.zeros(20)
        kept[[0, 1, -1]] = c[[0, 1, -1]]
        assert np.allclose(fit.params.coordinates, c[[0, 1, 19]])
        assert np.allclose(
            inverse_fourier_transform(kept),
            fit.sampler(20, replicate_rng(3, 0)).values
            - replicate_rng(3, 0).standard_normal(20))

    def test_refit_averages_to_generator(self):
        family = sequential_fourier_family(1, 20)
        gen = family.model_at(ParameterVector([2.0, -1.0, 0.5]))
        refits = np.array([
            family.fit(gen.sampler(20, replicate_rng(8, r))).params.coordinates
            for r in range(400)])
        err = np.abs(refits.mean(axis=0) - [2.0, -1.0, 0.5])
        assert err.max() < 3.0 / math.sqrt(400)


class TestGreedySelection:
    def test_argmax_selection(self):
        c = np.zeros(16)
        c[5] = 9.0
        assert list(np.flatnonzero(greedy_mask(c, 1))) == [0, 5]

    def test_always_includes_constant_mode(self):
        c = np.zeros(16)
        c[0] = 100.0
        c[3] = 1.0
        assert list(np.flatnonzero(greedy_mask(c, 1))) == [0, 3]

    def test_tie_breaks_small_index_positive_first(self):
        c = np.zeros(8)
        c[[2, 3, -2, -3]] = 2.0
        # |i|=2 before |i|=3, positive before negative.
        assert list(np.flatnonzero(greedy_mask(c, 1))) == [0, 2]
        assert list(np.flatnonzero(greedy_mask(c, 2))) == [0, 2, 8 - 2]

    def test_pure_function_of_coefficients(self):
        rng = np.random.default_rng([9])
        c = rng.standard_normal(32)
        before = c.copy()
        assert np.array_equal(greedy_mask(c, 5), greedy_mask(c.copy(), 5))
        assert np.array_equal(c, before)


def _greedy_selection(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Reference for ``greedy_mask``: positions of the constant mode
    plus the n largest-magnitude remaining coefficients, by a full sort
    in the tie-break order."""
    idx = fourier_indices(coeffs.size)
    order = np.lexsort((idx < 0, np.abs(idx), -np.abs(coeffs)))
    order = order[order != 0]
    return np.concatenate(([0], order[:n]))


class TestGreedyMask:
    @given(st.integers(0, 2**32), st.integers(1, 12), st.integers(1, 32),
           st.integers(0, 1), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_greedy_selection_row_by_row(self, seed, rows, half,
                                                 decimals, data):
        # Rounded draws: many rows hold ties at the selection boundary.
        N = 2 * half
        c = np.round(np.random.default_rng([seed]).standard_normal(
            (rows, N)) * 2.0, decimals)
        n = data.draw(st.integers(0, N - 1))
        mask = greedy_mask(c, n)
        for row, got in zip(c, mask):
            expected = np.zeros(N, dtype=bool)
            expected[_greedy_selection(row, n)] = True
            assert np.array_equal(got, expected)
        assert np.array_equal(greedy_mask(c[0], n), mask[0])

    def test_tie_break_order(self):
        c = np.zeros(8)
        c[[2, 3, -2, -3]] = 2.0
        assert list(np.flatnonzero(greedy_mask(c, 3))) == [0, 2, 3, 8 - 2]

    @pytest.mark.parametrize("n", [1, 4, 30])
    def test_one_row_tied_at_the_boundary(self, n):
        # Distinct magnitudes in every row but row 9, whose n-th and
        # (n + 1)-th largest non-constant ones tie: the block's kept
        # total exceeds 16 (n + 1) by one, and row 9 alone is cut.
        N = 32
        rng = np.random.default_rng([7, n])
        c = (rng.permuted(np.tile(np.arange(1.0, N + 1), (16, 1)), axis=1)
             * rng.choice([-1.0, 1.0], (16, N)))
        ranked = 1 + np.argsort(-np.abs(c[9, 1:]), kind="stable")
        c[9, ranked[n]] = -c[9, ranked[n - 1]]
        mask = greedy_mask(c, n)
        assert np.count_nonzero(mask) == 16 * (n + 1)
        for row, got in zip(c, mask):
            expected = np.zeros(N, dtype=bool)
            expected[_greedy_selection(row, n)] = True
            assert np.array_equal(got, expected)


def _block_cases():
    N = 24
    design = np.column_stack([np.ones(N), np.linspace(0.0, 1.0, N)])
    regression = linear_regression_family(design)
    trend = linear_trend_family(N)
    sine = sine_regression_family(N)
    return {
        "gaussian_mean": (gaussian_mean_family(3),
                          gaussian_mean_model([0.5, -1.0, 2.0])),
        "linear_regression": (regression, regression.model_at(
            ParameterVector([1.0, -2.0, 1.5]))),
        "exponential": (exponential_family(), exponential_model(1.5)),
        "fixed": (fixed_family(gaussian_mean_model([0.3])),
                  gaussian_mean_model([0.0])),
        "sequential_fourier": (sequential_fourier_family(3, N),
                               neutrino_truth(N)),
        "greedy_fourier": (greedy_fourier_family(5, N), neutrino_truth(N)),
        "sine_regression": (sine, sine.model_at(ParameterVector([1.0, 0.8]))),
        "linear_trend": (trend, trend.model_at(ParameterVector([0.5, 1.0]))),
    }


BLOCK_CASES = _block_cases()


def _sampled(generator):
    """A block drawn from the generator, and its rows as Datasets."""
    def make(N, R):
        block = generator.sampler(N, [replicate_rng(62, r)
                                      for r in range(R)])
        return block, [Dataset(row) for row in block.values]
    return make


def _tied(N, R):
    """A block, and its rows, known by rounded (tie-heavy) Fourier
    coefficients, as a Fourier generator's ``from_noise`` gives them."""
    def known(c):
        return Dataset._deferred(lambda: inverse_fourier_transform(c),
                                 _coefficients, c)
    c = np.round(np.random.default_rng([62]).standard_normal((R, N)) * 2.0)
    return known(c), [known(row.copy()) for row in c]


# A fixed family has no estimate: its one model holds no row per dataset.
FITTED_CASES = {k: (family, _sampled(generator))
                for k, (family, generator) in BLOCK_CASES.items()
                if k != "fixed"}
FITTED_CASES.update({f"greedy_ties_n{n}": (greedy_fourier_family(n, 24), _tied)
                     for n in (0, 1, 23)})


class TestBlockFits:
    """A fit to a block equals the fits to its rows, bit for bit."""

    @pytest.mark.parametrize("family, generator", BLOCK_CASES.values(),
                             ids=BLOCK_CASES.keys())
    def test_block_fit_and_score_match_rows(self, family, generator):
        N, R = 24, 6
        rngs = [replicate_rng(61, r) for r in range(R)]
        z = generator.sampler(N, rngs)
        y = generator.sampler(N, rngs)
        assert z.values.shape == (R, N)
        fit = family.fit(z)
        h_own = shannon_information(z, fit)
        h_cross = shannon_information(y, fit)
        # A fixed family's one model scores one dataset as a float.
        h_one = np.broadcast_to(
            shannon_information(Dataset(y.values[0]), fit), (R,))
        coords = fit.params.coordinates
        for r in range(R):
            g = replicate_rng(61, r)
            z_r = generator.sampler(N, g)
            y_r = generator.sampler(N, g)
            assert np.array_equal(z_r.values, z.values[r])
            assert np.array_equal(y_r.values, y.values[r])
            fit_r = family.fit(z_r)
            assert h_own[r] == shannon_information(z_r, fit_r)
            assert h_cross[r] == shannon_information(y_r, fit_r)
            assert h_one[r] == shannon_information(
                Dataset(y.values[0]), fit_r)
            assert np.array_equal(
                np.broadcast_to(coords, (R, coords.shape[-1]))[r],
                fit_r.params.coordinates)
            if fit_r.params.tags is not None:
                assert np.array_equal(fit.params.tags[r],
                                      fit_r.params.tags)

    @pytest.mark.parametrize("family, make", FITTED_CASES.values(),
                             ids=FITTED_CASES.keys())
    def test_fit_is_model_at_of_its_estimate(self, family, make):
        # fit and model_at of its estimate are one model: the same
        # scores, mean and samples, bit for bit.
        N, R = 24, 5
        block, rows = make(N, R)
        fit = family.fit(block)
        again = family.model_at(fit.params)
        h = fit.log_density(block)
        assert np.array_equal(again.log_density(block), h)
        if fit.mean is not None:
            assert np.array_equal(again.mean(N), fit.mean(N))
        noise = Dataset(draw_rows([replicate_rng(63, r) for r in range(R)],
                                  fit.noise, N))
        for got, want in ((again.from_noise(noise), fit.from_noise(noise)),
                          (again.from_noise(noise.values[0]),
                           fit.from_noise(noise.values[0]))):
            assert np.array_equal(fourier_transform(got),
                                  fourier_transform(want))
            assert np.array_equal(got.values, want.values)
        coords, tags = fit.params.coordinates, fit.params.tags
        for r in range(R):
            model = family.model_at(ParameterVector(
                coords[r], tags=None if tags is None else tags[r]))
            assert model.log_density(rows[r]) == h[r]

    def test_block_logs_are_math_log(self):
        # numpy's vectorised log may differ from math.log in the last
        # bit, which would make a variance or rate fit to a block score
        # differently from the same fit to one dataset.
        from fickit.models import _log
        x = np.random.default_rng([3]).uniform(0.1, 10.0, 5000)
        assert np.array_equal(_log(x), [math.log(v) for v in x])


class TestCoefficientSpace:
    """Fourier fits score in coefficient space. By Parseval the score is
    the data-space normal density around the inverse transform of the
    kept coefficients; each Dataset is transformed once. A fit samples
    in coefficient space too, and builds its data-space mean only when
    a sample's values are read."""

    @pytest.mark.parametrize("rows", [0, 7], ids=["one_dataset", "block"])
    @pytest.mark.parametrize("algorithm", ["sequential", "greedy"])
    def test_log_density_is_the_data_space_density(self, algorithm, rows):
        N, n = 40, 3
        truth = neutrino_truth(N)
        rng = [replicate_rng(71, r) for r in range(rows)] if rows \
            else replicate_rng(71, 0)
        z = truth.sampler(N, rng)
        y = truth.sampler(N, rng)
        c = fourier_transform(z.values)
        if algorithm == "sequential":
            fit = sequential_fourier_family(n, N).fit(z)
            keep = np.isin(fourier_indices(N), np.arange(-n, n + 1))
        else:
            fit = greedy_fourier_family(n, N).fit(z)
            keep = greedy_mask(c, n)
        mean = inverse_fourier_transform(np.where(keep, c, 0.0))
        one = [Dataset(y.values[0])] if rows else []   # a block fit's
        for data in [z, y] + one:                      # score of one row
            expected = (-0.5 * N * math.log(2.0 * math.pi)
                        - 0.5 * ((data.values - mean) ** 2).sum(axis=-1))
            np.testing.assert_allclose(fit.log_density(data), expected,
                                       rtol=1e-12)

    @pytest.mark.parametrize("rows", [0, 6], ids=["one_dataset", "block"])
    @pytest.mark.parametrize("algorithm", ["sequential", "greedy"])
    def test_samples_are_the_mean_plus_noise(self, algorithm, rows):
        N = 40
        family = sequential_fourier_family(3, N) if algorithm == \
            "sequential" else greedy_fourier_family(5, N)
        truth = neutrino_truth(N)
        rng = [replicate_rng(77, r) for r in range(rows)] if rows \
            else replicate_rng(77, 0)
        fit = family.fit(truth.sampler(N, rng))
        noise = draw_rows([replicate_rng(78, r) for r in range(rows or 4)],
                          fit.noise, N)
        for source in (noise, Dataset(noise), noise[0]):
            data = fit.from_noise(source)
            c = fourier_transform(data)         # known before any values
            assert data.sample_size == N and "values" not in vars(data)
            expected = fit.mean(N) + getattr(source, "values", source)
            assert np.array_equal(data.values, expected)
            assert data.values is data.values
            assert not data.values.flags.writeable
            np.testing.assert_allclose(c, fourier_transform(data.values),
                                       rtol=1e-12, atol=1e-12)
            assert fourier_transform(data) is c

    def test_non_finite_sample_names_its_row(self):
        N, R = 40, 5
        family = sequential_fourier_family(2, N)
        coords = np.zeros((R, 5))
        coords[3, 1] = np.inf
        fit = family.model_at(ParameterVector(coords))
        noise = draw_rows([replicate_rng(79, r) for r in range(R)],
                          fit.noise, N)
        with pytest.raises(ValueError, match="row 3: Dataset values must "
                           "all be finite") as info:
            fit.from_noise(noise)
        assert info.value.row == 3
        huge = family.model_at(ParameterVector([1e308] * 5))
        data = huge.from_noise(noise)       # finite coefficients, values
        with pytest.raises(ValueError, match="row 0: Dataset values"), \
                np.errstate(over="ignore", invalid="ignore"):
            data.values                     # beyond the float range

    def test_one_forward_transform_per_dataset(self, monkeypatch):
        calls = {"rfft": 0, "irfft": 0}

        def counted(name):
            fn = getattr(np.fft, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(np.fft, name, counted(name))
        N = 40
        truth = neutrino_truth(N)
        z = truth.sampler(N, [replicate_rng(72, r) for r in range(5)])
        y = truth.sampler(N, [replicate_rng(73, r) for r in range(5)])
        assert calls == {"rfft": 0, "irfft": 0}
        for family in (sequential_fourier_family(2, N),
                       greedy_fourier_family(4, N)):
            fit_z, fit_y = family.fit(z), family.fit(y)
            for data in (z, y):
                shannon_information(data, fit_z)
                shannon_information(data, fit_y)
        assert calls == {"rfft": 2, "irfft": 0}
        # Sampling a fit transforms its noise, once per noise Dataset
        # for every fit that shares it, and builds the data-space mean
        # (one inverse transform per fit) only when values are read.
        first = fit_z.sampler(N, replicate_rng(74, 0))
        second = fit_z.sampler(N, replicate_rng(75, 0))
        assert calls == {"rfft": 4, "irfft": 0}
        noise = Dataset(draw_rows(replicate_rng(76, 0), "standard_normal", N))
        shared = [fit.from_noise(noise) for fit in (fit_z, fit_y, fit_z)]
        for data in shared:
            shannon_information(data, fit_y)
        assert calls == {"rfft": 5, "irfft": 0}
        first.values, second.values, shared[0].values
        assert calls == {"rfft": 5, "irfft": 1}

        c = fourier_transform(z)
        assert c is fourier_transform(z)
        assert not c.flags.writeable
        with pytest.raises(ValueError):
            c[0, 0] = 1.0
        twin = Dataset(z.values)            # equal values, another Dataset
        assert fourier_transform(twin) is not c
        assert np.array_equal(fourier_transform(twin), c)
        assert calls["rfft"] == 6
        assert fourier_transform(z.values).flags.writeable
        assert calls["rfft"] == 7


class TestNoise:
    """Every model samples through its noise law and ``from_noise``,
    and leaves a shared noise block as it was."""

    @pytest.mark.parametrize("family, generator", BLOCK_CASES.values(),
                             ids=BLOCK_CASES.keys())
    def test_sampler_is_from_noise_of_draw(self, family, generator):
        N, R = 24, 5
        rngs = [replicate_rng(62, r) for r in range(R)]
        block_fit = family.fit(generator.sampler(N, rngs))
        one_fit = family.fit(generator.sampler(N, replicate_rng(63, 0)))
        def streams():      # a block's streams, and one stream
            return [replicate_rng(64, r) for r in range(R)], \
                replicate_rng(65, 0)

        for model in (generator, block_fit, one_fit):
            for k in range(2):
                expected = model.from_noise(
                    draw_rows(streams()[k], model.noise, N))
                assert np.array_equal(model.sampler(N, streams()[k]).values,
                                      expected.values)
            noise = draw_rows([replicate_rng(66, r) for r in range(R)],
                              model.noise, N)
            noise.setflags(write=False)
            before = noise.copy()
            data = model.from_noise(noise)
            fit = family.fit(data)
            shannon_information(data, fit)
            shannon_information(data, model)
            assert np.array_equal(noise, before)

    @pytest.mark.parametrize("law", ["standard_normal",
                                     "standard_exponential"])
    def test_block_rows_are_single_draws(self, law):
        rngs = [replicate_rng(67, r) for r in range(16)]
        block = draw_rows(rngs, law, 50)
        for r, row in enumerate(block):
            assert np.array_equal(
                row, draw_rows(replicate_rng(67, r), law, 50))

    def test_choice_block_rows_are_single_draws(self):
        values = np.arange(7.0) ** 2
        block = draw_rows([replicate_rng(68, r) for r in range(4)],
                          "choice", 9, values)
        for r, row in enumerate(block):
            g = replicate_rng(68, r)
            assert np.array_equal(row, g.choice(values, size=9,
                                                replace=True))


class TestGaussianModels:
    """Gaussian models carry their mean and variance; the data they
    sample are that mean plus the scaled noise."""

    def test_mean_and_variance(self):
        N, R = 24, 3
        truth = neutrino_truth(N)
        assert np.array_equal(truth.mean(N), neutrino_mean(N))
        assert truth.variance == 1.0
        block = truth.sampler(N, [replicate_rng(69, r) for r in range(R)])
        c = fourier_transform(block)
        sequential = np.isin(np.arange(N), [0, 1, 2, N - 2, N - 1])
        for family, mask in ((sequential_fourier_family(2, N), sequential),
                             (greedy_fourier_family(3, N), greedy_mask(c, 3))):
            fit = family.fit(block)
            kept = np.where(mask, c, 0.0)
            assert fit.mean(N).shape == (R, N)
            assert np.array_equal(fit.mean(N),
                                  inverse_fourier_transform(kept))
            assert fit.variance == 1.0
            with pytest.raises(ValueError, match="does not match"):
                fit.mean(N + 2)
        fit = linear_regression_family(np.ones((N, 1))).fit(block)
        assert np.array_equal(fit.variance, fit.params.coordinates[:, -1])
        model = exponential_model(2.0)
        assert model.mean is None and model.variance is None

    @pytest.mark.parametrize("variance", [1.0, 4.0])
    def test_from_noise_scales_by_the_standard_deviation(self, variance):
        N = 10
        model = linear_regression_family(np.ones((N, 1))).model_at(
            ParameterVector([0.5, variance]))
        noise = draw_rows(replicate_rng(70, 0), model.noise, N)
        expected = model.mean(N) + math.sqrt(variance) * noise
        assert np.array_equal(model.from_noise(noise).values, expected)


class TestGreedyFamily:
    def test_parameter_count_and_tags(self):
        family = greedy_fourier_family(3, 100)
        assert family.n_params == 4
        data = neutrino_truth(100).sampler(100, replicate_rng(4, 0))
        fit = family.fit(data)
        assert fit.params.dimension == 4
        assert len(fit.params.tags) == 4
        assert fit.params.tags[0] == 0
        assert len(set(fit.params.tags)) == 4

    def test_model_at_roundtrip(self):
        family = greedy_fourier_family(2, 16)
        data = Dataset(np.random.default_rng([12]).standard_normal(16))
        fit = family.fit(data)
        rebuilt = family.model_at(fit.params)
        assert shannon_information(data, rebuilt) == \
            pytest.approx(shannon_information(data, fit), abs=1e-9)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            greedy_fourier_family(16, 16)


class TestNestingProperties:
    @given(st.integers(0, 4), st.integers(0, 9))
    @settings(max_examples=40, deadline=None)
    def test_monotone_fit_both_algorithms(self, n, draw):
        N = 20
        data = neutrino_truth(N).sampler(N, replicate_rng(100, draw))
        for build in (sequential_fourier_family, greedy_fourier_family):
            h_prev = None
            for level in (n, n + 1):
                fit = build(level, N).fit(data)
                h = shannon_information(data, fit)
                if h_prev is not None:
                    assert h <= h_prev + 1e-9
                h_prev = h

    @given(st.integers(0, 4), st.integers(0, 9))
    @settings(max_examples=40, deadline=None)
    def test_greedy_dominates_at_equal_parameter_count(self, n, draw):
        # Greedy keeps the 2n largest coefficients; sequential keeps a
        # fixed set of 2n. Same count, greedy fits at least as well.
        N = 20
        data = neutrino_truth(N).sampler(N, replicate_rng(101, draw))
        h_seq = shannon_information(
            data, sequential_fourier_family(n, N).fit(data))
        h_greedy = shannon_information(
            data, greedy_fourier_family(2 * n, N).fit(data))
        assert h_greedy <= h_seq + 1e-9


class TestGreedyPiecewise:
    def test_all_identifiable(self):
        N = 100
        c = np.zeros(N)
        c[[0, 1, 2]] = 10.0
        assert greedy_piecewise_complexity(2, N, c) == pytest.approx(3.0)

    def test_all_noise(self):
        N = 100
        c = np.zeros(N)
        c[0] = 10.0
        expected = 1.0 + 2 * 2.0 * math.log(N)
        assert greedy_piecewise_complexity(2, N, c) == pytest.approx(expected)

    def test_threshold_boundary(self):
        N = 100
        c = np.zeros(N)
        c[0] = 10.0
        c[1] = math.sqrt(2.0 * math.log(N))   # exactly identifiable
        assert greedy_piecewise_complexity(1, N, c) == pytest.approx(2.0)


class TestLandscapeFamilies:
    def test_sine_fit_recovers_strong_signal(self):
        N = 60
        family = sine_regression_family(N)
        gen = family.model_at(ParameterVector([3.0, 0.7]))
        fit = family.fit(gen.sampler(N, replicate_rng(41, 0)))
        a, omega = fit.params.coordinates
        assert a == pytest.approx(3.0, abs=0.5)
        assert omega == pytest.approx(0.7, abs=0.05)

    # Frequencies and their runs of equal bits: -0.0 and 0.0 give waves
    # of opposite sign at t = 0, so they are different runs.
    @pytest.mark.parametrize("omegas, runs", [
        ([0.3, 0.3, 0.3, 1.2, 1.2, 0.7], 3),                # repeated
        ([0.3, 1.2, 0.3, 1.2, 0.3, 1.2], 6),                # interleaved
        ([1.4, -0.2, 0.9, 0.0, -0.0, 0.0, 0.5], 7),         # unsorted
        ([0.8] * 5, 1), ([0.8], 1)])                         # one frequency
    def test_sine_block_builds_one_wave_per_run(self, monkeypatch, omegas,
                                                runs):
        N = 37
        family = sine_regression_family(N)
        a = np.linspace(-2.0, 3.0, len(omegas))
        rows = np.stack([family.model_at(ParameterVector([x, w])).mean(N)
                         for x, w in zip(a, omegas)])
        sines = []
        sin = np.sin

        def counting_sin(x, *args, **kwargs):
            sines.append(np.shape(x))
            return sin(x, *args, **kwargs)

        monkeypatch.setattr(np, "sin", counting_sin)
        block = family.model_at(
            ParameterVector(np.column_stack([a, omegas]))).mean(N)
        assert sines == [(runs, N)]
        assert np.array_equal(block.view(np.int64), rows.view(np.int64))

    def test_sine_empty_block(self):
        family = sine_regression_family(12)
        model = family.model_at(ParameterVector(np.empty((0, 2))))
        assert model.mean(12).shape == (0, 12)

    def test_landscape_does_not_load_numpy_fft(self, tmp_path):
        # The landscape builds its sine family but never fits it, and
        # the family builds nothing before a fit.
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(fickit.__file__)))
        code = ("import sys; from fickit.cli import ExperimentConfig, "
                "cmd_landscape; cmd_landscape(ExperimentConfig("
                "experiment='landscape', landscape_family='sine_singular', "
                "sample_size=20, replicates=5, "
                "grid_axis1=(-1.0, 1.0, 3), grid_axis2=(0.3, 1.5, 4), "
                f"out_dir={str(tmp_path)!r})); "
                "sys.exit('numpy.fft' in sys.modules)")
        assert subprocess.run([sys.executable, "-c", code], env=env,
                              timeout=60).returncode == 0
        assert (tmp_path / "landscape.csv").exists()

    @pytest.mark.parametrize("N", [3, 25, 100])
    def test_sine_fit_matches_an_explicit_basis(self, monkeypatch, N):
        omegas = np.linspace(np.pi / (8 * N), np.pi, 8 * N)[:-1]
        basis = np.sin(np.outer(omegas, np.arange(N)))
        rows = np.random.default_rng([47, N]).standard_normal((60, N))
        rows[::3] += 2.0 * basis[5 * N]
        proj, norm2 = rows @ basis.T, (basis ** 2).sum(axis=1)
        outputs = {}
        for name in ("fft", "rfft"):
            def spy(*args, _fn=getattr(np.fft, name), _name=name, **kw):
                outputs[_name] = _fn(*args, **kw)
                return outputs[_name]
            monkeypatch.setattr(np.fft, name, spy)
        fit = sine_regression_family(N).fit(Dataset(rows)).params.coordinates
        np.testing.assert_allclose(-outputs["rfft"][:, 1:8 * N].imag, proj,
                                   rtol=0, atol=1e-12 * N)
        np.testing.assert_allclose(
            0.5 * N - 0.5 * outputs["fft"].real[1:], norm2, rtol=1e-12)
        best = np.argmax(proj ** 2 / norm2, axis=1)
        assert np.array_equal(fit[:, 1], omegas[best])
        np.testing.assert_allclose(
            fit[:, 0], proj[np.arange(len(rows)), best] / norm2[best],
            rtol=1e-12)

    def test_sine_fit_memory_is_linear_in_n(self):
        # An (8N - 1) x N basis alone would take 16.8 MB at N = 512.
        N = 512
        rows = np.random.default_rng(48).standard_normal((16, N))
        np.fft.rfft(rows[0])            # numpy.fft's import is not the fit's
        family = sine_regression_family(N)
        tracemalloc.start()
        try:
            family.fit(Dataset(rows))
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000
        assert kept < 100_000           # and the family keeps nothing

    def test_sine_fit_never_picks_a_vanishing_wave(self):
        # At omega = pi, sin(omega t) is rounding noise at integer t (a
        # squared norm of 2.7e-28; every other grid wave has at least
        # 1.17), so a fit that picks it returns an amplitude near 1e14.
        # Zero-amplitude data once picked it in 37 of these 2,000 fits.
        N = 25
        family = sine_regression_family(N)
        noise = np.random.default_rng(1).standard_normal((2000, N))
        omega = family.fit(Dataset(noise)).params.coordinates[:, 1]
        norm2 = (np.sin(np.outer(omega, np.arange(N))) ** 2).sum(axis=1)
        assert norm2.min() > 1e-6

    def test_linear_trend_fit(self):
        N = 50
        family = linear_trend_family(N)
        gen = family.model_at(ParameterVector([1.0, -2.0]))
        fit = family.fit(gen.sampler(N, replicate_rng(42, 0)))
        assert np.abs(fit.params.coordinates - [1.0, -2.0]).max() < 1.0

    def test_structured_flags(self):
        assert sequential_fourier_family(1, 20).structured_data
        assert greedy_fourier_family(1, 20).structured_data
        assert not gaussian_mean_family(1).structured_data
        assert not exponential_family().structured_data
