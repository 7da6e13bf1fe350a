"""Coordinate complexities, extreme-value approximation, error-statistic
correlation, and information landscapes."""

import math

import numpy as np
import pytest

from fickit.analytic import (FisherMatrix, GridAxis, GridSpec,
                             classify_coordinate, coordinate_complexities,
                             count_local_minima, error_statistic_correlation,
                             evt_complexity, information_landscape,
                             max_chi2_mc, quadratic_error_statistic)
from fickit.core import Dataset, ParameterVector, replicate_rng
from fickit.models import (gaussian_mean_family, linear_trend_family,
                           sine_regression_family, sine_regression_model)

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
    def test_zero_error(self):
        f = FisherMatrix(np.eye(2))
        assert quadratic_error_statistic([0.0, 0.0], f) == 0.0

    def test_euclidean_norm(self):
        f = FisherMatrix(np.eye(2))
        assert quadratic_error_statistic([3.0, 4.0], f) == pytest.approx(25.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            quadratic_error_statistic([1.0], FisherMatrix(np.eye(2)))

    def test_gaussian_mean_unit_expectation(self):
        # E[N * (sample mean)^2] = 1 for unit-variance data.
        n, reps = 20, 2000
        f = FisherMatrix(np.array([[float(n)]]))
        vals = np.empty(reps)
        for r in range(reps):
            x = replicate_rng(51, r).standard_normal(n)
            vals[r] = quadratic_error_statistic([x.mean()], f)
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - 1.0) <= 3 * se


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
        mean_quad = np.mean([quadratic_error_statistic(e, fisher)
                             for e in errors])
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


class TestErrorStatisticCorrelation:
    def setup_method(self):
        self.N = 100
        self.family = sine_regression_family(self.N)
        self.truth = sine_regression_model(0.0, 1.0, self.N)

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


class TestInformationLandscape:
    def test_regular_argmin_at_truth(self):
        N = 50
        family = linear_trend_family(N)
        truth = family.model_at(ParameterVector([0.25, 0.5]))
        data = truth.sampler(N, replicate_rng(81, 0))
        grid = GridSpec(GridAxis(-0.75, 1.25, 17), GridAxis(-0.5, 1.5, 17))
        g = information_landscape(family, truth, data, grid,
                                  replicates=150, seed=82)
        i, j = g.argmin_D()
        step1 = g.axis1_values[1] - g.axis1_values[0]
        step2 = g.axis2_values[1] - g.axis2_values[0]
        assert abs(g.axis1_values[i] - 0.25) <= step1 + 1e-9
        assert abs(g.axis2_values[j] - 0.5) <= step2 + 1e-9

    def test_singular_landscape(self):
        N = 100
        family = sine_regression_family(N)
        truth = sine_regression_model(0.0, 0.9, N)
        data = truth.sampler(N, replicate_rng(83, 0))
        grid = GridSpec(GridAxis(-1.5, 1.5, 31), GridAxis(0.3, 1.5566, 81))
        g = information_landscape(family, truth, data, grid,
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
        grid = GridSpec(GridAxis(-1.0, 1.0, 5), GridAxis(-1.0, 1.0, 3))
        g = information_landscape(family, truth, data, grid,
                                  replicates=20, seed=86)
        assert g.invalid[:2].all()
        assert not g.invalid[2:].any()
        assert np.isnan(g.D_surface[g.invalid]).all()

    def test_programming_error_propagates(self):
        # A bug in model_at is not reported as an invalid cell.
        N = 30

        class BuggyFamily:
            family_id = "buggy"
            model_at = staticmethod(lambda params: params.coordinates + "x")

        truth = linear_trend_family(N).model_at(ParameterVector([0.5, 0.0]))
        data = truth.sampler(N, replicate_rng(87, 0))
        grid = GridSpec(GridAxis(-1.0, 1.0, 3), GridAxis(-1.0, 1.0, 3))
        with pytest.raises(TypeError):
            information_landscape(BuggyFamily(), truth, data, grid,
                                  replicates=10, seed=88)


class TestCountLocalMinima:
    def test_monotone_has_none(self):
        assert count_local_minima(np.arange(10.0)) == 0

    def test_counts_interior_minima(self):
        assert count_local_minima(np.array([3.0, 1.0, 2.0, 0.5, 4.0])) == 2

    def test_short_profiles(self):
        assert count_local_minima(np.array([1.0, 0.0])) == 0
