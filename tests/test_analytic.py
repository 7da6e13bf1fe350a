"""Coordinate complexities, extreme-value approximation, error-statistic
correlation, and information landscapes."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from fickit import analytic, core
from fickit.analytic import (FisherMatrix, GridAxis, LandscapeGrid,
                             classify_coordinate, coordinate_complexities,
                             count_local_minima, error_statistic_correlation,
                             evt_complexity, information_landscape,
                             max_chi2_mc)
from fickit.core import (Dataset, FickitError, FittedModel, ParameterVector,
                         replicate_rng, replicate_values,
                         shannon_information, unwrap)
from fickit.models import (exponential_model, gaussian_mean_family,
                           linear_regression_family, linear_trend_family,
                           sine_regression_family)

from conftest import fixed_family

MAX_OF_TWO_CHI2 = 1.0 + 2.0 / math.pi


class TestFisherMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            FisherMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_negative_definite(self):
        with pytest.raises(ValueError):
            FisherMatrix(np.array([[-1.0]]))

    def test_accepts_semi_definite(self):
        f = FisherMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert f.dimension == 2


class TestQuadraticErrorStatistic:
    """The Fisher-metric quadratic form of parameter errors, averaged:
    the sum of the coordinate complexities."""

    def test_zero_error(self):
        out = coordinate_complexities(np.zeros((2, 2)), FisherMatrix(np.eye(2)))
        assert [c.value for c in out] == [0.0, 0.0]

    def test_euclidean_norm(self):
        out = coordinate_complexities([[3.0, 4.0], [-3.0, -4.0]],
                                      FisherMatrix(np.eye(2)))
        assert sum(c.value for c in out) == pytest.approx(25.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            coordinate_complexities([[1.0], [2.0]], FisherMatrix(np.eye(2)))

    def test_gaussian_mean_unit_expectation(self):
        # E[N * (sample mean)^2] = 1 for unit-variance data.
        n, reps = 20, 2000
        means = np.array([replicate_rng(51, r).standard_normal(n).mean()
                          for r in range(reps)])
        [k] = coordinate_complexities(means[:, None],
                                      FisherMatrix(np.array([[float(n)]])))
        se = (n * means ** 2).std(ddof=1) / math.sqrt(reps)
        assert abs(k.value - 1.0) <= 3 * se


class TestCoordinateComplexities:
    def test_regular_family_unit_complexities(self):
        n, k, reps = 50, 2, 2000
        family = gaussian_mean_family(k)
        gen = family.model_at(ParameterVector([0.0, 1.0]))
        fisher = family.fisher_at(gen.params, n)
        errors = []
        for r in range(reps):
            fit = family.fit(gen.sampler(n, replicate_rng(52, r)))
            errors.append(fit.params.coordinates - gen.params.coordinates)
        out = coordinate_complexities(errors, fisher)
        for coord in out:
            assert abs(coord.value - 1.0) < 0.15
            assert coord.classification == "regular"
            assert not coord.degenerate

    def test_degenerate_direction_flagged(self):
        fisher = FisherMatrix(np.diag([50.0, 0.0]))
        rng = np.random.default_rng([53])
        errors = rng.normal(0.0, [1.0 / math.sqrt(50.0), 1.0], (500, 2))
        out = coordinate_complexities(errors, fisher)
        degenerate = [c for c in out if c.degenerate]
        regular = [c for c in out if not c.degenerate]
        assert len(degenerate) == 1 and len(regular) == 1
        assert regular[0].classification == "regular"
        assert degenerate[0].classification == "unidentifiable"
        assert degenerate[0].value < 0.1

    def test_sum_identity_with_quadratic_form(self):
        # Sum of coordinate complexities equals the mean quadratic form.
        fisher = FisherMatrix(np.array([[4.0, 1.0], [1.0, 2.0]]))
        rng = np.random.default_rng([54])
        errors = rng.standard_normal((200, 2))
        out = coordinate_complexities(errors, fisher)
        total = sum(c.value for c in out)
        mean_quad = np.mean([e @ fisher.entries @ e for e in errors])
        assert total == pytest.approx(mean_quad, rel=1e-9)

    def test_classification_table(self):
        assert classify_coordinate(0.05) == "unidentifiable"
        assert classify_coordinate(1.1) == "regular"
        assert classify_coordinate(5.0) == "multiplicity"
        assert classify_coordinate(0.5) == "intermediate"


class TestEvtComplexity:
    def test_m_e_nu_2(self):
        assert evt_complexity(math.e, 2) == pytest.approx(2.0, abs=1e-12)

    def test_nu_2_is_2_log_m(self):
        for m in (2, 10, 1000):
            assert evt_complexity(m, 2) == pytest.approx(2 * math.log(m))

    def test_substitution_m_1000_nu_1(self):
        expected = 2 * math.log(1000.0) - math.log(math.log(1000.0))
        assert expected == pytest.approx(11.883, abs=5e-4)
        assert evt_complexity(1000, 1) == pytest.approx(expected)

    def test_m_below_2_rejected(self):
        with pytest.raises(ValueError):
            evt_complexity(1, 1)

    def test_mc_agreement_m_20(self):
        est = max_chi2_mc(20, 1, 20_000, seed=61)
        assert abs(evt_complexity(20, 1) - est.value) / est.value <= 0.15


class TestMaxChi2:
    def test_m_1_mean_is_nu(self):
        for nu in (1, 3):
            est = max_chi2_mc(1, nu, 4000, seed=62)
            assert abs(est.value - nu) <= 3 * est.std_error

    def test_max_of_two(self):
        est = max_chi2_mc(2, 1, 40_000, seed=63)
        assert abs(est.value - MAX_OF_TWO_CHI2) <= 3 * est.std_error

    def test_monotone_in_m(self):
        vals = [max_chi2_mc(m, 1, 20_000, seed=64).value
                for m in (1, 2, 4, 8, 16)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_dominates_single_draw(self):
        for m in (1, 5, 50):
            est = max_chi2_mc(m, 2, 3000, seed=65)
            assert est.value >= 2.0 - 3 * est.std_error

    def test_deterministic(self):
        assert max_chi2_mc(10, 1, 500, seed=66) == \
            max_chi2_mc(10, 1, 500, seed=66)

    @pytest.mark.parametrize("budget", [300, 1000, 2500])
    def test_chunk_budget_does_not_change_draws(self, monkeypatch, budget):
        # 300 < m splits every replicate into column pieces, 1000 = m
        # draws one replicate per chunk, 2500 draws two.
        expected = [max_chi2_mc(1000, nu, 7, seed=67) for nu in (1, 2, 3)]
        monkeypatch.setattr(core, "BLOCK_BYTES", 8 * budget)
        assert [max_chi2_mc(1000, nu, 7, seed=67)
                for nu in (1, 2, 3)] == expected

    @staticmethod
    def _peak_bytes(m, replicates):
        tracemalloc.start()
        try:
            max_chi2_mc(m, 1, replicates, seed=68)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    @pytest.mark.parametrize("m, replicates", [(1000, 50), (100_000, 3)])
    def test_holds_one_chunk_at_a_time(self, monkeypatch, m, replicates):
        # Whole replicates per chunk, and one replicate in pieces.
        budget = 10_000
        monkeypatch.setattr(core, "BLOCK_BYTES", 8 * budget)
        assert self._peak_bytes(m, replicates) < 1.5 * 8 * budget

    @pytest.mark.parametrize("m, replicates",
                             [(1000, 50), (20, 20_000), (100_000, 3)])
    def test_default_budget_holds_one_chunk(self, m, replicates):
        # The first call in a process imports modules (about 0.9 MB)
        # that would otherwise be measured in place of the chunk.
        max_chi2_mc(2, 1, 2, seed=0)
        assert self._peak_bytes(m, replicates) < \
            1.5 * core.BLOCK_BYTES + 8 * replicates


class TestErrorStatisticCorrelation:
    def setup_method(self):
        self.N = 100
        self.family = sine_regression_family(self.N)
        self.truth = self.family.model_at(ParameterVector([0.0, 1.0]))

    def test_identical_points(self):
        theta = ParameterVector([0.5, 0.8])
        c = error_statistic_correlation(self.family, self.truth, theta,
                                        theta, self.N, 50, seed=71)
        assert c == 1.0

    def test_far_frequencies_uncorrelated(self):
        c = error_statistic_correlation(
            self.family, self.truth, ParameterVector([0.5, 0.5]),
            ParameterVector([0.5, 2.5]), self.N, 400, seed=72)
        assert abs(c) < 3.0 / math.sqrt(400)

    def test_adjacent_frequencies_correlated(self):
        c = error_statistic_correlation(
            self.family, self.truth, ParameterVector([0.5, 0.5]),
            ParameterVector([0.5, 0.503]), self.N, 400, seed=72)
        assert c > 0.95

    def test_symmetric_in_arguments(self):
        a = ParameterVector([0.5, 0.6])
        b = ParameterVector([0.5, 1.4])
        c_ab = error_statistic_correlation(self.family, self.truth, a, b,
                                           self.N, 200, seed=73)
        c_ba = error_statistic_correlation(self.family, self.truth, b, a,
                                           self.N, 200, seed=73)
        assert c_ab == pytest.approx(c_ba, abs=1e-9)


class TestGridAxis:
    def test_span_beyond_float_range(self):
        # stop - start overflows: a ValueError, not numpy's warnings and
        # NaN grid values.
        with pytest.raises(ValueError, match="float range"):
            GridAxis(-1.7e308, 1.7e308, 2).values()


class TestInformationLandscape:
    def test_regular_argmin_at_truth(self):
        N = 50
        family = linear_trend_family(N)
        truth = family.model_at(ParameterVector([0.25, 0.5]))
        data = truth.sampler(N, replicate_rng(81, 0))
        axes = GridAxis(-0.75, 1.25, 17), GridAxis(-0.5, 1.5, 17)
        g = information_landscape(family, truth, data, *axes,
                                  replicates=150, seed=82)
        i, j = g.argmin_D()
        step1 = g.axis1_values[1] - g.axis1_values[0]
        step2 = g.axis2_values[1] - g.axis2_values[0]
        assert abs(g.axis1_values[i] - 0.25) <= step1 + 1e-9
        assert abs(g.axis2_values[j] - 0.5) <= step2 + 1e-9

    def test_singular_landscape(self):
        N = 100
        family = sine_regression_family(N)
        truth = family.model_at(ParameterVector([0.0, 0.9]))
        data = truth.sampler(N, replicate_rng(83, 0))
        axes = GridAxis(-1.5, 1.5, 31), GridAxis(0.3, 1.5566, 81)
        g = information_landscape(family, truth, data, *axes,
                                  replicates=200, seed=84)
        # Flat expected-loss profile along the unidentifiable frequency.
        profile = g.D_profile
        noise = 5.0 * np.nanmedian(g.D_std_error)
        assert profile.max() - profile.min() <= noise
        # Rough in-sample profile: many local minima.
        assert count_local_minima(g.d_profile) >= 5
        # The fitted region beats the truth in-sample.
        assert np.nanmin(g.d_surface) <= 0.0 + 1e-9

    def test_invalid_cells_flagged_not_fatal(self):
        N = 30

        class PickyFamily:
            family_id = "picky"
            model_at = staticmethod(
                lambda p: _reject_negative(p, N))

        def _reject_negative(params, n):
            if params.coordinates[0] < 0:
                raise ValueError("invalid parameter")
            return linear_trend_family(n).model_at(params)

        family = PickyFamily()
        truth = linear_trend_family(N).model_at(ParameterVector([0.5, 0.0]))
        data = truth.sampler(N, replicate_rng(85, 0))
        axes = GridAxis(-1.0, 1.0, 5), GridAxis(-1.0, 1.0, 3)
        g = information_landscape(family, truth, data, *axes,
                                  replicates=20, seed=86)
        assert g.invalid[:2].all()
        assert not g.invalid[2:].any()
        assert np.isnan(g.D_surface[g.invalid]).all()

    def test_std_error_built_on_first_read(self, monkeypatch):
        # The grid returns after one replicate pass (the sum of z) and
        # one cell pass (d and D). The first read of D_std_error adds
        # one of each, for the scatter and the quadratic forms, and a
        # second read adds none. One chunk of cells and one of
        # replicates, so each pass is one call.
        N = 12
        family = linear_trend_family(N)
        truth = family.model_at(ParameterVector([0.25, 0.5]))
        data = truth.sampler(N, replicate_rng(107, 0))
        passes = {"cells": 0, "replicates": 0}
        cell_means, sampler = analytic._cell_means, FittedModel.sampler

        def counted_cells(*args):
            passes["cells"] += 1
            return cell_means(*args)

        def counted_sampler(model, *args):
            passes["replicates"] += model is truth
            return sampler(model, *args)

        monkeypatch.setattr(analytic, "_cell_means", counted_cells)
        monkeypatch.setattr(FittedModel, "sampler", counted_sampler)
        axes = GridAxis(-1.0, 1.0, 5), GridAxis(-1.0, 1.0, 3)
        g = information_landscape(family, truth, data, *axes,
                                  replicates=30, seed=108)
        assert passes == {"cells": 1, "replicates": 1}
        first = g.D_std_error
        assert passes == {"cells": 2, "replicates": 2}
        second = g.D_std_error
        assert passes == {"cells": 2, "replicates": 2}
        np.testing.assert_array_equal(first, second)
        assert first.shape == (5, 3) and (first > 0).all()

    def test_programming_error_propagates(self):
        # A bug in model_at is not reported as an invalid cell.
        N = 30

        class BuggyFamily:
            family_id = "buggy"
            model_at = staticmethod(lambda params: params.coordinates + "x")

        truth = linear_trend_family(N).model_at(ParameterVector([0.5, 0.0]))
        data = truth.sampler(N, replicate_rng(87, 0))
        axes = GridAxis(-1.0, 1.0, 3), GridAxis(-1.0, 1.0, 3)
        with pytest.raises(TypeError, match="ufunc"):
            information_landscape(BuggyFamily(), truth, data, *axes,
                                  replicates=10, seed=88)


def _reference_landscape(family, truth, data, axis1, axis2, replicates,
                         seed):
    """Every simulation scored under every cell model, one cell at a
    time: the direct definition the sufficient statistics replace."""
    a1 = axis1.values()
    a2 = axis2.values()
    [sims] = unwrap(replicate_values(truth.sampler, data.sample_size,
                                     replicates, seed, [lambda y: y.values]))
    sims = Dataset(sims)
    h_truth_data = shannon_information(data, truth)
    h_truth_sims = shannon_information(sims, truth)
    d, D, Dse = (np.full((a1.size, a2.size), np.nan) for _ in range(3))
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


def _sine_case(N):
    family = sine_regression_family(N)
    return family, family.model_at(ParameterVector([0.0, 0.9]))


def _trend_case(N):
    family = linear_trend_family(N)
    return family, family.model_at(ParameterVector([0.25, 0.5]))


def _fixed_case(family, truth):
    # Every model, a block's too, has the truth's (N,) mean.
    return fixed_family(truth)


def _float_reader_case(family, truth):
    # Reads its parameters with float(), a TypeError for a block.
    return SimpleNamespace(model_at=lambda params: family.model_at(
        ParameterVector([float(params.coordinates[0]),
                         float(params.coordinates[1])])))


@pytest.mark.filterwarnings("error")
class TestLandscapeAgainstReference:
    # The second axis-1 grid reaches amplitudes or intercepts whose
    # squares overflow: those cells must be invalid in both.
    @pytest.mark.parametrize("case", [_sine_case, _trend_case])
    @pytest.mark.parametrize("axis1", [GridAxis(-1.5, 1.5, 7),
                                       GridAxis(-1.0, 1e300, 3)])
    # R < N leaves the sample covariance singular.
    @pytest.mark.parametrize("N, replicates", [(24, 40), (12, 300), (40, 3)])
    def test_matches_per_cell_scoring(self, case, axis1, N, replicates):
        family, truth = case(N)
        data = truth.sampler(N, replicate_rng(89, 0))
        axes = axis1, GridAxis(0.3, 1.5, 9)
        got = information_landscape(family, truth, data, *axes,
                                    replicates=replicates, seed=90)
        ref = _reference_landscape(family, truth, data, *axes,
                                   replicates, seed=90)
        np.testing.assert_array_equal(got.invalid, ref.invalid)
        assert got.invalid.any() == (axis1.stop > 1e299)
        assert not got.invalid.all()
        np.testing.assert_array_equal(got.d_surface, ref.d_surface)
        np.testing.assert_allclose(got.D_surface, ref.D_surface,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.D_std_error, ref.D_std_error,
                                   rtol=1e-10, atol=0)

    @pytest.mark.parametrize("case", [_sine_case, _trend_case])
    def test_chunks_split_rows_around_rejected_cells(self, monkeypatch,
                                                     case):
        # Chunks of 5 cells on a 7 x 9 grid walked axis-2 major (cell
        # i * 9 + j at walk position j * 7 + i), so chunks split grid
        # columns. Cell 12 (position 22) is rejected with valid cells on
        # both sides, and 30 (24) ends the same chunk; 13 (29) and 7 (49)
        # each end a chunk; 62 (62) is alone at the end of the last,
        # short chunk.
        N = 24
        family, truth = case(N)
        data = truth.sampler(N, replicate_rng(99, 0))
        axes = GridAxis(-1.5, 1.5, 7), GridAxis(0.3, 1.5, 9)
        a1, a2 = axes[0].values(), axes[1].values()
        rejected = {(a1[i], a2[j]) for i, j in
                    (divmod(k, a2.size) for k in (7, 12, 13, 30, 62))}
        calls = []

        def model_at(params):
            calls.append(params.coordinates.shape)
            rows = np.atleast_2d(params.coordinates)
            if any((r[0], r[1]) in rejected for r in rows):
                raise ValueError("rejected cell")
            return family.model_at(params)

        picky = SimpleNamespace(model_at=model_at)
        monkeypatch.setattr(core, "BLOCK_BYTES", 8 * N * 5)
        got = information_landscape(picky, truth, data, *axes,
                                    replicates=30, seed=100)
        block_calls = len(calls)
        ref = _reference_landscape(picky, truth, data, *axes, 30, seed=100)
        assert np.flatnonzero(got.invalid).tolist() == [7, 12, 13, 30, 62]
        np.testing.assert_array_equal(got.invalid, ref.invalid)
        np.testing.assert_array_equal(got.d_surface, ref.d_surface)
        np.testing.assert_allclose(got.D_surface, ref.D_surface,
                                   rtol=0, atol=1e-12)
        # Fewer calls than cells: 13 chunks, and only the four holding a
        # rejected cell are bisected.
        assert block_calls < 63

    @pytest.mark.parametrize("blind", [_fixed_case, _float_reader_case])
    def test_block_blind_family_matches_reference(self, monkeypatch,
                                                  blind):
        N = 12
        family, truth = _sine_case(N)
        blind_family = blind(family, truth)
        data = truth.sampler(N, replicate_rng(101, 0))
        axes = GridAxis(-1.0, 1.0, 5), GridAxis(0.3, 1.5, 7)
        monkeypatch.setattr(core, "BLOCK_BYTES", 8 * N * 8)
        got = information_landscape(blind_family, truth, data, *axes,
                                    replicates=20, seed=102)
        ref = _reference_landscape(blind_family, truth, data, *axes, 20,
                                   seed=102)
        assert not got.invalid.any()
        np.testing.assert_array_equal(got.invalid, ref.invalid)
        np.testing.assert_array_equal(got.d_surface, ref.d_surface)
        np.testing.assert_allclose(got.D_surface, ref.D_surface,
                                   rtol=0, atol=1e-12)

    def test_one_model_at_call_per_chunk(self):
        # The default singular landscape: 31 x 81 cells at N = 100.
        N = 100
        family, truth = _sine_case(N)
        data = truth.sampler(N, replicate_rng(103, 0))
        calls = []

        def model_at(params):
            calls.append(params.coordinates.shape)
            return family.model_at(params)

        axes = GridAxis(-1.5, 1.5, 31), GridAxis(0.3, 1.5566, 81)
        information_landscape(SimpleNamespace(model_at=model_at), truth,
                              data, *axes, replicates=10, seed=104)
        rows = core.BLOCK_BYTES // (8 * N)
        assert len(calls) <= math.ceil(31 * 81 / rows) + 1

    def test_memory_bounded_in_cells(self):
        # One (cells x N) array of the 200 x 200 grid would take 32 MB.
        N = 100
        family, truth = _sine_case(N)
        data = truth.sampler(N, replicate_rng(105, 0))
        axes = GridAxis(-1.5, 1.5, 200), GridAxis(0.3, 1.5, 200)
        tracemalloc.start()
        try:
            information_landscape(family, truth, data, *axes,
                                  replicates=10, seed=106)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 200 * 200 * N / 8

    def _axes(self):
        return GridAxis(-1.0, 1.0, 3), GridAxis(1.0, 2.0, 2)

    def test_rejects_non_unit_variance_cells(self):
        N = 12
        family = linear_regression_family(np.ones((N, 1)))
        truth = family.model_at(ParameterVector([0.0, 1.0]))
        data = truth.sampler(N, replicate_rng(91, 0))
        with pytest.raises(TypeError, match="unit-variance Gaussian"):
            information_landscape(family, truth, data, *self._axes(),
                                  replicates=10, seed=92)

    def test_rejects_non_unit_variance_truth(self):
        N = 12
        truth = linear_regression_family(np.ones((N, 1))).model_at(
            ParameterVector([0.0, 2.0]))
        data = truth.sampler(N, replicate_rng(93, 0))
        with pytest.raises(TypeError, match="unit-variance Gaussian"):
            information_landscape(linear_trend_family(N), truth, data,
                                  *self._axes(), replicates=10, seed=94)

    def test_rejects_non_gaussian_models(self):
        N = 12
        family = linear_trend_family(N)
        truth = family.model_at(ParameterVector([1.0, 0.0]))
        data = truth.sampler(N, replicate_rng(95, 0))
        exponential = SimpleNamespace(
            model_at=lambda params: exponential_model(2.0))
        with pytest.raises(TypeError, match="unit-variance Gaussian"):
            information_landscape(exponential, truth, data, *self._axes(),
                                  replicates=10, seed=96)
        with pytest.raises(TypeError, match="unit-variance Gaussian"):
            information_landscape(family, exponential_model(1.0),
                                  Dataset(np.ones(N)), *self._axes(),
                                  replicates=10, seed=96)

    def test_memory_bounded_in_replicates(self):
        # One R x N block of simulations would take 8 MB.
        N, R = 100, 10_000
        family, truth = _trend_case(N)
        data = truth.sampler(N, replicate_rng(97, 0))
        axes = GridAxis(-1.0, 1.0, 3), GridAxis(-1.0, 1.0, 3)
        tracemalloc.start()
        try:
            information_landscape(family, truth, data, *axes,
                                  replicates=R, seed=98)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * R * N / 4


class TestCountLocalMinima:
    def test_monotone_has_none(self):
        assert count_local_minima(np.arange(10.0)) == 0

    def test_counts_interior_minima(self):
        assert count_local_minima(np.array([3.0, 1.0, 2.0, 0.5, 4.0])) == 2

    def test_short_profiles(self):
        assert count_local_minima(np.array([1.0, 0.0])) == 0
