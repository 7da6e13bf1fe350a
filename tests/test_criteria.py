"""Information criteria: closed forms, Monte Carlo complexities,
bootstrap, leave-one-out validation, and model selection."""

import dataclasses
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest

from fickit.core import (BLOCK_BYTES, Dataset, DensityError, FickitError,
                         FitError, ParameterVector, StructuredDataError,
                         replicate_rng, shannon_information, unwrap)
from fickit.criteria import (_complexity_replicates, aic, aicc_exponential,
                             aicc_linear_regression, bic,
                             bootstrap_complexity, fic, fic_complexity,
                             fic_complexity_gradient, fic_variance_estimate,
                             loocv)
from fickit.models import (exponential_family, exponential_model,
                           fourier_transform, gaussian_mean_family,
                           gaussian_mean_model, greedy_fourier_family,
                           linear_regression_family, neutrino_truth,
                           sequential_fourier_family, sine_regression_family)

from conftest import fixed_family


def _gaussian_data(n, seed, mean=0.0):
    return Dataset(mean + replicate_rng(seed, 0).standard_normal(n))


def _replicate_fits(family, generator, N, seed, r):
    """Replicate r's datasets Z and Y, sampled one row at a time, and
    the family's fits to them."""
    rng = replicate_rng(seed, r)
    z = generator.sampler(N, rng)
    y = generator.sampler(N, rng)
    return z, y, family.fit(z), family.fit(y)


def _scored_gap(z, y, fit_z, fit_y):
    """The symmetrised generalization gap from its four scorings."""
    return 0.5 * ((shannon_information(y, fit_z)
                   - shannon_information(z, fit_z))
                  + (shannon_information(z, fit_y)
                     - shannon_information(y, fit_y)))


def _covariance_gap(z, y, fit_z, fit_y):
    """The same gap for two unit-variance coefficient-space fits:
    1/2 <c(z) - c(y), kept_z - kept_y>."""
    return 0.5 * np.einsum("...i,...i->...",
                           fourier_transform(z) - fourier_transform(y),
                           fit_z.kept - fit_y.kept)


class TestComplexityReplicates:
    def test_values_do_not_depend_on_replicate_count_or_chunks(self):
        # At N=1000 a chunk holds 16 rows, so R=40 and R=100 split the
        # first 40 replicates at different boundaries.
        from fickit.core import BLOCK_BYTES
        from fickit.criteria import _complexity_replicates
        N = 1000
        assert BLOCK_BYTES // (8 * N) < 40
        family = greedy_fourier_family(3, N)
        truth = neutrino_truth(N)
        [short] = _complexity_replicates([(family, truth)], N, 40, seed=91)
        [long] = _complexity_replicates([(family, truth)], N, 100, seed=91)
        assert np.array_equal(short, long[:40])
        # Each value is the replicate's own two-dataset gap: its
        # covariance form bit for bit, and its four scorings to rounding.
        for r in (0, 17, 39):
            fits = _replicate_fits(family, truth, N, 91, r)
            assert short[r] == _covariance_gap(*fits)
            assert abs(short[r] - _scored_gap(*fits)) <= 1e-11


class TestCovarianceGap:
    """Pairs of unit-variance coefficient-space fits take the gap as one
    inner product; every other pair is scored four times."""

    @pytest.mark.parametrize("family", [greedy_fourier_family(4, 1000),
                                        sequential_fourier_family(3, 1000)])
    def test_matches_exact_arithmetic(self, family):
        # The exact gap of the rounded coefficients, in rationals: the
        # four scorings' constant and squared-norm terms cancel exactly.
        # At N=1000, R=20 runs a chunk of 16 rows and one of 4.
        from fickit.criteria import _complexity_replicates
        N, R = 1000, 20
        truth = neutrino_truth(N)
        [column] = unwrap(_complexity_replicates([(family, truth)], N, R,
                                                 110))
        for r in range(R):
            z, y, fit_z, fit_y = _replicate_fits(family, truth, N, 110, r)
            c_z, c_y = fourier_transform(z), fourier_transform(y)
            either = np.flatnonzero((fit_z.kept != 0) | (fit_y.kept != 0))
            exact = sum((Fraction(c_z[i]) - Fraction(c_y[i]))
                        * (Fraction(fit_z.kept[i]) - Fraction(fit_y.kept[i]))
                        for i in either) / 2
            assert abs(column[r] - float(exact)) <= 1e-14

    @pytest.fixture
    def scorings(self, monkeypatch):
        """The models that ``criteria`` scores data under, one per call."""
        from fickit import criteria
        calls = []

        def counted(data, model):
            calls.append(model)
            return shannon_information(data, model)

        monkeypatch.setattr(criteria, "shannon_information", counted)
        return calls

    def test_fourier_pairs_are_not_scored(self, scorings):
        from fickit.criteria import _complexity_replicates
        N = 100
        truth = neutrino_truth(N)
        data = truth.sampler(N, replicate_rng(111, 0))
        families = [sequential_fourier_family(2, N),
                    greedy_fourier_family(3, N)]
        pairs = ([(f, truth) for f in families]
                 + [(f, f.fit(data)) for f in families])
        unwrap(_complexity_replicates(pairs, N, 200, 112))
        assert scorings == []

    def test_other_pairs_keep_their_four_scorings(self, scorings):
        from fickit.criteria import _complexity_replicates
        N, R = 12, 30
        t = np.linspace(0.0, 1.0, N)
        regression = linear_regression_family(np.column_stack([np.ones(N),
                                                               t]))
        normal = [(gaussian_mean_family(3),
                   gaussian_mean_model([0.5, -1.0, 2.0])),
                  (regression, regression.model_at(
                      ParameterVector([1.0, -2.0, 1.5])))]
        for pairs in (normal, [(exponential_family(),
                                exponential_model(1.5))]):
            scorings.clear()
            columns = unwrap(_complexity_replicates(pairs, N, R, 113))
            assert len(scorings) == 4 * len(pairs)    # one chunk of 30
            for (family, generator), column in zip(pairs, columns):
                for r in range(R):
                    assert column[r] == _scored_gap(*_replicate_fits(
                        family, generator, N, 113, r))

    def test_overflowing_coefficients_name_their_replicate(self, scorings):
        # Replicate 3's data are about 1e308 at every time, so their
        # Fourier sums overflow; the others are plain unit noise. The
        # inner product fails, not a scoring.
        N = 8
        means = np.zeros((10, 1))
        means[3] = 1e308
        generator = gaussian_mean_model(means)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DensityError) as failed:
            fic_complexity(sequential_fourier_family(1, N), generator, N,
                           10, 114)
        assert str(failed.value).startswith(
            "replicate 3 (seed 114) failed: row 3: non-finite information")
        assert scorings == []

    def test_overflowing_coefficients_name_their_replicate_greedy(
            self, scorings):
        # The greedy twin: the selection ranks non-finite magnitudes,
        # and the inner product fails on the same row, as the same fit
        # wrapped fails through its own data.
        N = 8
        means = np.zeros((10, 1))
        means[3] = 1e308
        generator = gaussian_mean_model(means)
        family = greedy_fourier_family(1, N)
        with np.errstate(over="ignore", invalid="ignore"):
            [fast] = _complexity_replicates([(family, generator)], N, 10, 114)
            [slow] = _complexity_replicates([(_wrapped(family), generator)],
                                            N, 10, 114)
        assert type(fast) is type(slow) is DensityError
        assert str(fast) == str(slow)
        assert str(fast).startswith(
            "replicate 3 (seed 114) failed: row 3: non-finite information")
        assert scorings == []


def _wrapped(family):
    """The family with its fit wrapped: the engine then samples, fits
    and scores it as any family."""
    fit = family.fit
    return dataclasses.replace(family, fit=lambda data: fit(data))


class TestRuleFits:
    """Sequential and greedy Fourier fits select every level from one
    ranking per noise block, and give what the same fits wrapped give
    through their own data and fits, bit for bit."""

    @staticmethod
    def _generators(N: int) -> dict:
        truth = neutrino_truth(N)
        data = truth.sampler(N, replicate_rng(120, 0))
        rng = np.random.default_rng([121])

        def coefficient_model(n):
            # 2n + 1 unit-size coefficients: where the noise's largest
            # fall on the support they often shrink, and a greedy level
            # then picks noise ranked below n + 1.
            return sequential_fourier_family(n, N).model_at(
                ParameterVector(rng.standard_normal(2 * n + 1)))

        return {"truth": lambda f: truth,
                "level fit": lambda f: f.fit(data),
                "unshared data-space": lambda f: neutrino_truth(N),
                "support at N/64": lambda f, g=coefficient_model(
                    (N // 64 - 1) // 2): g,
                "support over N/64": lambda f, g=coefficient_model(
                    N // 128 + 1): g,
                "dense": lambda f, g=coefficient_model(N // 2 - 1): g}

    @pytest.mark.parametrize("make", [sequential_fourier_family,
                                      greedy_fourier_family])
    @pytest.mark.parametrize("N, R", [(100, 200), (1000, 40)])
    def test_match_wrapped_fits(self, monkeypatch, make, N, R):
        # R spans two chunks at both sizes (163 + 37 and 16 + 16 + 8).
        from fickit import models
        families = [make(n, N) for n in range(9)]
        pairs = [(f, generator(f)) for generator in
                 self._generators(N).values() for f in families]
        # Then the level fits again, the largest support first, so each
        # pair's support differs from the one patched before it.
        pairs += [(f, g) for f, (_, g) in zip(families, pairs[17:8:-1])]
        # A greedy level is fit under a generator that keeps over N/64
        # positions, or alone (the unshared data-space generators).
        fit = 0 if make is sequential_fourier_family else 9 + sum(
            64 * np.count_nonzero(g.kept) > N
            for _, g in pairs if g.kept is not None)
        fits = []
        build = models._gaussian_model

        def counted(*args, **kwargs):
            fits.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(models, "_gaussian_model", counted)
        for seed in (212, 1017):
            fast = unwrap(_complexity_replicates(pairs, N, R, seed))
            ran = len(fits)
            slow = unwrap(_complexity_replicates(
                [(_wrapped(f), g) for f, g in pairs], N, R, seed))
            for a, b in zip(fast, slow):
                assert np.array_equal(a, b)
            assert ran == 2 * fit * math.ceil(R / (BLOCK_BYTES // (8 * N)))
            fits.clear()

    @pytest.mark.parametrize("make", [sequential_fourier_family,
                                      greedy_fourier_family])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_support_fails_alike(self, make, bad):
        # A generator's data coefficients are kept + c(noise): a
        # non-finite kept coefficient fails every row as its
        # ``from_noise`` would, with the same error on both paths.
        N, R = 100, 200
        coords = np.ones(5)
        coords[3] = bad
        generator = sequential_fourier_family(2, N).model_at(
            ParameterVector(coords))
        pairs = [(make(n, N), generator) for n in (0, 3)]
        fast = _complexity_replicates(pairs, N, R, 122)
        slow = _complexity_replicates([(_wrapped(f), g) for f, g in pairs],
                                      N, R, 122)
        for a, b in zip(fast, slow):
            assert type(a) is type(b) is ValueError
            assert str(a) == str(b) == ("replicate 0 (seed 122) failed: "
                                        "row 0: Dataset values must all be "
                                        "finite")

    @pytest.mark.parametrize("algorithm, which, bound", [
        ("sequential", "fic", 9.5), ("sequential", "true", 11.83),
        ("greedy", "fic", 9.5), ("greedy", "true", 12.45)])
    def test_sweep_task_memory_is_flat(self, algorithm, which, bound):
        # A nine-level sweep task at N=1000 peaks no higher than when
        # every level fit its own data (``bound``: that engine's
        # tracemalloc peak at R=1000, in BLOCK_BYTES, 10.78 and 12.45
        # for the level fits), and grows with R by its outputs and
        # stream words only: nine values and 32 bytes of seed words per
        # replicate. Under level fits a chunk's shares go before the
        # next chunk's transforms are taken, which keeps 9.5 blocks.
        import tracemalloc
        from fickit import cli
        N = 1000
        config = cli.ExperimentConfig(experiment="neutrino_sweep",
                                      sample_size=N)
        data = cli._neutrino_dataset(config)
        families = [cli._family(algorithm, n, N) for n in range(9)]
        truth = neutrino_truth(N)
        pairs = [(f, truth if which == "true" else f.fit(data))
                 for f in families]
        _complexity_replicates(pairs, N, 20, 123)      # caches and imports
        peaks = []
        for R in (100, 1000):
            tracemalloc.start()
            try:
                unwrap(_complexity_replicates(pairs, N, R, 123))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= bound * BLOCK_BYTES
        assert peaks[1] - peaks[0] <= (9 * 8 + 32) * 900 + 4096


def _gradient_pair(family, theta, i, step):
    plus = np.array(theta.coordinates)
    minus = np.array(theta.coordinates)
    plus[i] += step
    minus[i] -= step
    return (family.model_at(ParameterVector(plus)),
            family.model_at(ParameterVector(minus)))


class TestSharedPairs:
    """Pairs sharing one call of ``_complexity_replicates`` give what
    each gives alone, bit for bit."""

    @staticmethod
    def _assert_columns_equal_single_calls(pairs, N, R, seed):
        from fickit.criteria import _complexity_replicates
        shared = _complexity_replicates(pairs, N, R, seed)
        assert len(shared) == len(pairs)
        for pair, column in zip(pairs, shared):
            [alone] = _complexity_replicates([pair], N, R, seed)
            assert column.shape == (R,)
            assert np.array_equal(column, alone)

    @pytest.mark.parametrize("make", [sequential_fourier_family,
                                      greedy_fourier_family])
    def test_levels_under_truth_and_level_fits(self, make):
        # At N=100 a chunk holds 163 rows, so R=200 spans two chunks.
        N, R = 100, 200
        truth = neutrino_truth(N)
        data = truth.sampler(N, replicate_rng(93, 0))
        families = [make(n, N) for n in range(4)]
        self._assert_columns_equal_single_calls(
            [(f, truth) for f in families], N, R, 94)
        self._assert_columns_equal_single_calls(
            [(f, f.fit(data)) for f in families], N, R, 95)

    def test_linear_regression_gradient_pair(self):
        N = 12
        t = np.linspace(0.0, 1.0, N)
        family = linear_regression_family(np.column_stack([np.ones(N), t]))
        theta = ParameterVector([0.5, -1.0, 2.0])
        for i in range(3):
            self._assert_columns_equal_single_calls(
                [(family, g) for g in _gradient_pair(family, theta, i, 0.1)],
                N, 60, 96)

    def test_exponential_gradient_pair(self):
        family = exponential_family()
        pair = _gradient_pair(family, ParameterVector([1.5]), 0, 0.05)
        self._assert_columns_equal_single_calls(
            [(family, g) for g in pair], 8, 60, 97)

    def test_gradient_matches_separate_calls(self):
        family = exponential_family()
        theta = ParameterVector([1.5])
        grad, _ = fic_complexity_gradient(family, theta, 8, replicates=60,
                                          seed=98)
        step = 0.05 * np.sqrt(np.linalg.inv(
            family.fisher_at(theta, 8).entries)[0, 0])
        gen_p, gen_m = _gradient_pair(family, theta, 0, step)
        v_p = fic_complexity(family, gen_p, 8, 60, 98)
        v_m = fic_complexity(family, gen_m, 8, 60, 98)
        assert grad[0] == pytest.approx((v_p.value - v_m.value)
                                        / (2 * step), rel=1e-12)

    @staticmethod
    def _recording(generator, log):
        """``generator`` with a ``from_noise`` that logs a weak
        reference to each Dataset it builds."""
        def from_noise(noise):
            data = generator.from_noise(noise)
            log.append(weakref.ref(data))
            return data
        return dataclasses.replace(generator, from_noise=from_noise)

    def test_shared_generator_maps_each_chunk_once(self):
        # At N=100, R=200 spans two chunks (163 and 37 rows) of Z and Y.
        from fickit.criteria import _complexity_replicates
        N, R = 100, 200
        log = []
        truth = self._recording(neutrino_truth(N), log)
        good = [greedy_fourier_family(n, N) for n in range(3)]

        def fit(data):                  # fails on the second chunk only
            if data.values.shape[0] < 100:
                raise FitError("no fit")
            return good[0].fit(data)

        bad = dataclasses.replace(good[0], fit=fit)
        families = good[:2] + [bad] + good[2:]
        columns = _complexity_replicates([(f, truth) for f in families],
                                         N, R, 101)
        assert len(log) == 2 * 2
        for family, column in zip(good, columns[:2] + columns[3:]):
            [alone] = _complexity_replicates([(family, neutrino_truth(N))],
                                             N, R, 101)
            assert np.array_equal(column, alone)
        assert isinstance(columns[2], FitError)
        assert str(columns[2]).startswith("replicates 163..199 (seed 101)")

    def test_holds_data_for_the_current_pair_or_chunk_only(self):
        from fickit.criteria import _complexity_replicates
        N, R = 100, 200
        log, live = [], []

        def watched(family):            # counts the live Datasets at a fit
            def fit(data):
                live.append(sum(ref() is not None for ref in log))
                return family.fit(data)
            return dataclasses.replace(family, fit=fit)

        families = [sequential_fourier_family(n, N) for n in range(3)]
        data = neutrino_truth(N).sampler(N, replicate_rng(102, 0))
        distinct = [self._recording(f.fit(data), log) for f in families]
        _complexity_replicates([(watched(f), g)
                                for f, g in zip(families, distinct)],
                               N, R, 103)
        assert len(log) == 3 * 2 * 2 and set(live) == {2}
        log.clear()
        live.clear()
        truth = self._recording(neutrino_truth(N), log)
        _complexity_replicates([(watched(f), truth) for f in families],
                               N, R, 104)
        assert len(log) == 2 * 2 and set(live) == {2}

    def test_fourier_generators_share_noise_coefficients(self):
        # Distinct Fourier-fit generators read each chunk's noise
        # coefficients from one memo; a pair's values are still those it
        # gives alone, and each is its replicate's own gap, sampled one
        # row at a time.
        from fickit.criteria import _complexity_replicates
        N, R = 100, 200
        data = neutrino_truth(N).sampler(N, replicate_rng(105, 0))
        pairs = [(f, f.fit(data)) for f in (sequential_fourier_family(1, N),
                                            greedy_fourier_family(2, N),
                                            greedy_fourier_family(4, N))]
        columns = _complexity_replicates(pairs, N, R, 106)
        for (family, generator), column in zip(pairs, columns):
            [alone] = _complexity_replicates([(family, generator)], N, R,
                                             106)
            assert np.array_equal(column, alone)
            for r in (0, 162, 163, 199):        # both chunks' edges
                fits = _replicate_fits(family, generator, N, 106, r)
                assert column[r] == _covariance_gap(*fits)
                assert abs(column[r] - _scored_gap(*fits)) <= 1e-11

    def test_block_fits_build_no_parameters(self, monkeypatch):
        # The gap reads only the fits' scores, so a Fourier block fit
        # never builds its ParameterVector: across three chunks of Z and
        # Y fits, only the generators' own fits build theirs, when read.
        from fickit.criteria import _complexity_replicates
        N, R = 64, 600                  # chunks of 256, 256 and 88 rows
        built = []
        check = ParameterVector.__post_init__

        def counted(params):
            built.append(params)
            check(params)

        monkeypatch.setattr(ParameterVector, "__post_init__", counted)
        data = neutrino_truth(N).sampler(N, replicate_rng(107, 0))
        families = [sequential_fourier_family(2, N),
                    greedy_fourier_family(3, N), greedy_fourier_family(0, N)]
        pairs = [(f, f.fit(data)) for f in families]
        assert built[1:] == []          # the truth's own parameters only
        for _, generator in pairs:
            assert generator.params.dimension >= 1
        assert len(built) == 1 + len(pairs)
        columns = unwrap(_complexity_replicates(pairs, N, R, 108))
        assert [c.shape for c in columns] == [(R,)] * len(pairs)
        assert len(built) == 1 + len(pairs)

    def test_noise_laws_must_match(self):
        from fickit.criteria import _complexity_replicates
        pairs = [(gaussian_mean_family(1), gaussian_mean_model([0.0])),
                 (exponential_family(), exponential_model(1.0))]
        with pytest.raises(ValueError, match="noise law"):
            _complexity_replicates(pairs, 5, 10, 0)

    def test_failed_pair_leaves_the_others(self):
        from fickit.criteria import _complexity_replicates
        N = 20
        truth = neutrino_truth(N)
        good = sequential_fourier_family(2, N)

        def fit(data):
            raise FitError("no fit")

        bad = dataclasses.replace(good, fit=fit)
        [alone] = _complexity_replicates([(good, truth)], N, 30, 99)
        first, failed, last = _complexity_replicates(
            [(good, truth), (bad, truth), (good, truth)], N, 30, 99)
        assert np.array_equal(first, alone)
        assert np.array_equal(last, alone)
        assert isinstance(failed, FitError)
        with pytest.raises(FitError) as single:
            fic_complexity(bad, truth, N, 30, 99)
        assert str(failed) == str(single.value)
        assert str(failed).startswith("replicates 0..29 (seed 99) failed")


class TestClosedForms:
    def test_aic_complexity_is_dimension(self):
        data = _gaussian_data(10, 1)
        for k in (1, 2, 5):
            fit = gaussian_mean_family(k).fit(data)
            report = aic(fit, data)
            assert report.complexity == float(k)
            assert report.criterion_value == pytest.approx(
                report.goodness_of_fit + k)

    def test_aic_sequential_fourier(self):
        data = neutrino_truth(100).sampler(100, replicate_rng(2, 0))
        for n in (0, 2, 4):
            fit = sequential_fourier_family(n, 100).fit(data)
            assert aic(fit, data).complexity == float(2 * n + 1)

    def test_aic_zero_parameters(self):
        from fickit.core import FittedModel
        base = gaussian_mean_model([0.0])
        model = FittedModel(ParameterVector([]), base.log_density,
                            base.from_noise)
        family = fixed_family(model)
        data = _gaussian_data(10, 3)
        report = aic(family.fit(data), data)
        assert report.complexity == 0.0
        assert report.criterion_value == shannon_information(data, model)

    def test_bic_penalty(self):
        data = neutrino_truth(100).sampler(100, replicate_rng(4, 0))
        for n in (0, 3):
            fit = sequential_fourier_family(n, 100).fit(data)
            expected = 0.5 * (2 * n + 1) * math.log(100.0)
            assert bic(fit, data).complexity == pytest.approx(expected)

    def test_bic_unit_complexity_at_n_e_squared(self):
        # One parameter and sample size e^2 give exactly 0.5 * 1 * 2.
        n = int(round(math.e ** 2))            # grid is integral; log(n)~2
        data = _gaussian_data(n, 5)
        fit = gaussian_mean_family(1).fit(data)
        assert bic(fit, data).complexity == pytest.approx(
            0.5 * math.log(n), abs=1e-12)

    def test_aicc_linear_regression_values(self):
        assert aicc_linear_regression(3, 10) == pytest.approx(5.0)
        assert aicc_linear_regression(1, 3) == pytest.approx(3.0)
        assert aicc_linear_regression(2, 10 ** 7) == pytest.approx(
            2.0, abs=1e-5)

    def test_aicc_linear_regression_pole(self):
        with pytest.raises(ValueError):
            aicc_linear_regression(3, 4)

    def test_aicc_exponential_values(self):
        assert aicc_exponential(2) == pytest.approx(2.0)
        assert aicc_exponential(100) == pytest.approx(100.0 / 99.0)
        assert aicc_exponential(10 ** 7) == pytest.approx(1.0, abs=1e-6)

    def test_aicc_exponential_pole(self):
        with pytest.raises(ValueError):
            aicc_exponential(1)


class TestFicComplexity:
    def test_gaussian_mean_is_k(self):
        for k in (1, 3):
            family = gaussian_mean_family(k)
            gen = family.model_at(ParameterVector(np.zeros(k)))
            est = fic_complexity(family, gen, 12, replicates=600, seed=11)
            assert abs(est.value - k) <= 3 * est.std_error

    def test_parameter_invariance(self):
        family = gaussian_mean_family(1)
        at_zero = fic_complexity(family, family.model_at(
            ParameterVector([0.0])), 10, replicates=800, seed=12)
        at_seven = fic_complexity(family, family.model_at(
            ParameterVector([7.0])), 10, replicates=800, seed=13)
        combined = math.hypot(at_zero.std_error, at_seven.std_error)
        assert abs(at_zero.value - at_seven.value) <= 3 * combined

    def test_exponential_small_sample(self):
        family = exponential_family()
        gen = family.model_at(ParameterVector([1.0]))
        est = fic_complexity(family, gen, 10, replicates=2000, seed=14)
        assert abs(est.value - 10.0 / 9.0) <= 3 * est.std_error

    def test_regression_matches_small_sample_form(self):
        n = 10
        design = np.column_stack([np.ones(n), np.arange(n, dtype=float)])
        family = linear_regression_family(design)
        gen = family.model_at(ParameterVector([1.0, 0.5, 1.0]))
        est = fic_complexity(family, gen, n, replicates=2000, seed=15)
        expected = aicc_linear_regression(3, n)
        assert abs(est.value - expected) <= 3 * est.std_error

    def test_sequential_fourier_is_parameter_count(self):
        N, n = 100, 2
        family = sequential_fourier_family(n, N)
        data = neutrino_truth(N).sampler(N, replicate_rng(16, 0))
        est = fic_complexity(family, family.fit(data), N,
                             replicates=600, seed=17)
        assert abs(est.value - (2 * n + 1)) <= 3 * est.std_error

    def test_deterministic(self):
        family = gaussian_mean_family(1)
        gen = family.model_at(ParameterVector([0.0]))
        a = fic_complexity(family, gen, 10, replicates=50, seed=18)
        b = fic_complexity(family, gen, 10, replicates=50, seed=18)
        assert a == b


def _max_gain_reference(N, draws, seed, chunk=500):
    """Expected maximal gain max_w (s_w . eps)^2 / |s_w|^2 of unit noise
    eps over the sine fit's grid of 8N - 1 frequencies w = k pi / 8N,
    with s_w = sin(w t): the complexity of the sine family at zero
    amplitude, where the fit projects the data onto the one direction
    that fits it best (the gap's expectation is E|P eps|^2, as for
    greedy selection).

    It uses numpy only, with its own grid and draws. Returns the mean
    and its standard error."""
    t = np.arange(N)
    basis = np.sin(np.outer(np.pi / (8 * N) * np.arange(1, 8 * N), t))
    norm2 = np.einsum("ij,ij->i", basis, basis)
    rng = np.random.default_rng(seed)
    gains = np.concatenate([
        (np.square(rng.standard_normal((min(chunk, draws - s), N))
                   @ basis.T) / norm2).max(axis=1)
        for s in range(0, draws, chunk)])
    return gains.mean(), gains.std(ddof=1) / math.sqrt(draws)


class TestUnidentifiableFrequency:
    """At zero amplitude the sine family's frequency is unidentifiable:
    its complexity is the expected maximal gain over the frequency grid,
    and grows with N like 2 log N, while AIC charges 2 at every N."""

    SIZES = (25, 50, 100, 200)

    @pytest.fixture(scope="class")
    def table(self):
        rows = {}
        for N in self.SIZES:
            family = sine_regression_family(N)
            est = fic_complexity(
                family, family.model_at(ParameterVector([0.0, 0.9])), N,
                replicates=400, seed=9)
            rows[N] = (est.value, est.std_error,
                       *_max_gain_reference(N, 2000, seed=[19, N]))
        print("\n   N   K (engine)       reference      2 log N   AIC")
        for N, (k, k_se, ref, ref_se) in rows.items():
            print(f"{N:4d}   {k:5.2f} +- {k_se:.2f}   {ref:5.2f} +- "
                  f"{ref_se:.2f}   {2 * math.log(N):5.2f}     2")
        return rows

    def test_matches_max_gain_reference(self, table):
        for N, (k, k_se, ref, ref_se) in table.items():
            assert abs(k - ref) <= 3 * math.hypot(k_se, ref_se), N

    def test_grows_with_n_like_the_reference(self, table):
        (k0, k0_se, r0, r0_se), (k1, k1_se, r1, r1_se) = (
            table[self.SIZES[0]], table[self.SIZES[-1]])
        k_se, ref_se = math.hypot(k0_se, k1_se), math.hypot(r0_se, r1_se)
        assert abs((k1 - k0) - (r1 - r0)) <= 3 * math.hypot(k_se, ref_se)
        # AIC's charge does not grow at all.
        assert k1 - k0 > 3 * k_se
        assert k0 - 2.0 > 3 * k0_se


class TestFicCriterion:
    def test_matches_aic_for_regular_family(self):
        data = _gaussian_data(200, 21)
        family = gaussian_mean_family(1)
        f = fic(data, family, replicates=800, seed=22)
        a = aic(family.fit(data), data)
        assert f.goodness_of_fit == pytest.approx(a.goodness_of_fit)
        assert abs(f.criterion_value - a.criterion_value) <= \
            3 * f.complexity.std_error

    def test_decomposition_identity(self):
        data = _gaussian_data(20, 23)
        report = fic(data, gaussian_mean_family(2), replicates=100, seed=24)
        assert report.criterion_value - report.goodness_of_fit == \
            pytest.approx(report.complexity.value)


class TestTrueComplexity:
    def test_zero_parameter_family(self):
        truth = gaussian_mean_model([0.0])
        family = fixed_family(truth)
        est = fic_complexity(family, truth, 10, replicates=100, seed=31)
        assert est.value == 0.0
        assert est.std_error == 0.0

    def test_agrees_with_candidate_complexity_when_well_specified(self):
        truth = gaussian_mean_model([0.4])
        family = gaussian_mean_family(1)
        oracle = fic_complexity(family, truth, 10,
                                replicates=800, seed=32)
        candidate = fic_complexity(family, family.model_at(
            ParameterVector([-2.0])), 10, replicates=800, seed=33)
        combined = math.hypot(oracle.std_error, candidate.std_error)
        assert abs(oracle.value - candidate.value) <= 3 * combined


class TestBootstrap:
    def test_parametric_gaussian(self):
        data = _gaussian_data(20, 41)
        est = bootstrap_complexity(data, gaussian_mean_family(1),
                                   "parametric", replicates=2000, seed=42)
        assert abs(est.value - 1.0) <= 3 * est.std_error

    def test_zero_parameter_family_is_exactly_zero(self):
        data = _gaussian_data(10, 43)
        family = fixed_family(gaussian_mean_model([0.0]))
        est = bootstrap_complexity(data, family, "empirical",
                                   replicates=100, seed=44)
        assert est.value == 0.0
        assert est.std_error == 0.0

    def test_parametric_regression_matches_small_sample_form(self):
        n = 60
        family = linear_regression_family(np.ones((n, 1)))
        data = Dataset(1.0 + replicate_rng(45, 0).standard_normal(n))
        est = bootstrap_complexity(data, family, "parametric",
                                   replicates=2000, seed=46)
        expected = aicc_linear_regression(2, n)
        assert abs(est.value - expected) <= 3 * est.std_error

    def test_empirical_refuses_structured_family(self):
        data = neutrino_truth(20).sampler(20, replicate_rng(47, 0))
        with pytest.raises(StructuredDataError):
            bootstrap_complexity(data, sequential_fourier_family(1, 20),
                                 "empirical", replicates=50, seed=48)

    def test_unknown_mode(self):
        data = _gaussian_data(10, 49)
        with pytest.raises(ValueError):
            bootstrap_complexity(data, gaussian_mean_family(1), "block",
                                 replicates=50, seed=50)


class TestLoocv:
    def test_zero_parameter_family(self):
        model = gaussian_mean_model([0.0])
        data = _gaussian_data(6, 51)
        report = loocv(data, fixed_family(model))
        assert report.criterion_value == pytest.approx(
            shannon_information(data, model))
        assert report.complexity is None

    def test_two_point_hand_computation(self):
        x1, x2 = 0.5, 2.5
        report = loocv(Dataset([x1, x2]), gaussian_mean_family(1))
        expected = (2 * 0.5 * math.log(2 * math.pi)
                    + 0.5 * (x2 - x1) ** 2 + 0.5 * (x1 - x2) ** 2)
        assert report.criterion_value == pytest.approx(expected, abs=1e-9)

    def test_large_sample_equivalence_with_aic(self):
        n, draws = 1000, 40
        family = gaussian_mean_family(1)
        diffs = np.empty(draws)
        for r in range(draws):
            data = Dataset(replicate_rng(52, r).standard_normal(n))
            diffs[r] = (loocv(data, family).criterion_value
                        - aic(family.fit(data), data).criterion_value)
        se = diffs.std(ddof=1) / math.sqrt(draws)
        assert abs(diffs.mean()) <= 3 * se

    @pytest.mark.parametrize("n", [2, 5, 300, 1000])
    @pytest.mark.parametrize("family, positive", [
        (gaussian_mean_family(1), False), (exponential_family(), True),
        (fixed_family(gaussian_mean_model([0.3])), False)])
    def test_blocks_match_the_row_loop(self, n, family, positive):
        # Fit one leave-one-out dataset at a time and sum in row order:
        # the block fit must give the same bits.
        x = replicate_rng(54, n).standard_normal(n)
        if positive:
            x = np.abs(x) + 0.1
        total = 0.0
        for i in range(n):
            fitted = family.fit(Dataset(np.delete(x, i)))
            total += shannon_information(Dataset(x[i:i + 1]), fitted)
        assert loocv(Dataset(x), family).criterion_value == total

    def test_block_error_is_the_row_loop_error(self):
        x = np.abs(replicate_rng(55, 0).standard_normal(300)) + 0.1
        x[7] = -1.0
        with pytest.raises(FitError) as info:
            loocv(Dataset(x), exponential_family())
        assert str(info.value) == "exponential data must be strictly positive"

    def test_refuses_structured_family(self):
        data = neutrino_truth(20).sampler(20, replicate_rng(53, 0))
        with pytest.raises(StructuredDataError):
            loocv(data, sequential_fourier_family(1, 20))


class TestFicVariance:
    def test_gaussian_gradient_and_variance_vanish(self):
        family = gaussian_mean_family(1)
        theta = ParameterVector([0.3])
        grad, grad_se = fic_complexity_gradient(family, theta, 20,
                                                replicates=200, seed=61)
        assert abs(grad[0]) < 1e-10
        v = fic_variance_estimate(family, theta, 20, replicates=200, seed=61)
        assert v < 1e-20

    def test_step_size_robustness(self):
        family = gaussian_mean_family(1)
        theta = ParameterVector([0.3])
        v1 = fic_variance_estimate(family, theta, 20, fd_step=0.05,
                                   replicates=200, seed=62)
        v2 = fic_variance_estimate(family, theta, 20, fd_step=0.025,
                                   replicates=200, seed=62)
        assert abs(v1 - v2) < 1e-20

    def test_greedy_near_threshold_is_positive(self):
        N = 32
        family = greedy_fourier_family(1, N)
        threshold = math.sqrt(2.0 * math.log(N))
        theta = ParameterVector([10.0, threshold], tags=(0, 3))
        v = fic_variance_estimate(family, theta, N, replicates=500, seed=63)
        assert v > 0.1

    def test_singular_fisher_requires_pseudo_inverse_flag(self):
        N = 20
        family = sine_regression_family(N)
        theta = ParameterVector([0.0, 0.9])     # zero amplitude: singular
        with pytest.raises(FickitError, match="pseudo_inverse"):
            fic_variance_estimate(family, theta, N, replicates=20, seed=64)
        v = fic_variance_estimate(family, theta, N, replicates=20, seed=64,
                                  use_pseudo_inverse=True)
        assert np.isfinite(v)


class TestRankModels:
    """Models ranked by criterion value: the lowest FIC is selected."""

    def test_neutrino_sweep_selects_n_2(self):
        from fickit.cli import DEFAULT_SEED, _STREAM_DATA, _STREAM_FIC
        from fickit.core import derive_seed
        N = 100
        data = neutrino_truth(N).sampler(
            N, replicate_rng(derive_seed(DEFAULT_SEED, _STREAM_DATA), 0))
        reports = [fic(data, sequential_fourier_family(n, N),
                       replicates=400,
                       seed=derive_seed(DEFAULT_SEED, _STREAM_FIC, n),
                       label=f"n={n}")
                   for n in range(0, 7)]
        best = min(reports, key=lambda r: r.criterion_value)
        assert best.model_label == "n=2"
