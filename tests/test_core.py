"""Information primitives: Shannon information, cross entropy, KL
statistic and divergence, and the error statistic."""

import math
import os
import pickle
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fickit
from fickit import core
from fickit.analytic import LandscapeGrid
from fickit.core import (Dataset, DensityError, FitError, FittedModel,
                         MonteCarloEstimate, ParameterVector, cross_entropy_mc,
                         error_statistic, kl_divergence_mc, kl_statistic,
                         replicate_rng, replicate_values, shannon_information,
                         unwrap)
from fickit.criteria import fic_complexity
from fickit.models import exponential_family, exponential_model, \
    gaussian_mean_family, gaussian_mean_model

HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
STD_NORMAL_ENTROPY = HALF_LOG_2PI + 0.5


class TestDataset:
    def test_sample_size(self):
        assert Dataset([1.0, 2.0, 3.0]).sample_size == 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Dataset([])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Dataset([1.0, np.inf])
        with pytest.raises(ValueError):
            Dataset([np.nan])

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((2, 2, 2)))

    def test_block_sample_size_is_last_axis(self):
        block = Dataset(np.ones((3, 4)))
        assert block.sample_size == 4
        assert block.values.shape == (3, 4)

    def test_block_names_non_finite_row(self):
        values = np.ones((3, 4))
        values[1, 2] = np.nan
        with pytest.raises(ValueError, match="row 1"):
            Dataset(values)

    def test_immutable(self):
        d = Dataset([1.0, 2.0])
        with pytest.raises(ValueError):
            d.values[0] = 5.0

    def test_deferred_values_are_built_once_when_read(self):
        built = []

        def build():
            built.append(1)
            return np.arange(6.0).reshape(2, 3)

        known = np.ones((2, 3))
        d = Dataset._deferred(build, np.negative, known)
        assert d.sample_size == 3 and d.memo(np.negative) is known
        assert not known.flags.writeable and built == []
        assert np.array_equal(d.values, np.arange(6.0).reshape(2, 3))
        assert d.values is d.values and len(built) == 1
        assert not d.values.flags.writeable
        with pytest.raises(AttributeError, match="other"):
            d.other

    def test_deferred_checks_what_it_knows_and_builds(self):
        known = np.zeros((3, 2))
        known[2, 0] = np.nan
        with pytest.raises(ValueError, match="row 2: Dataset values"):
            Dataset._deferred(lambda: np.zeros((3, 2)), np.negative, known)
        d = Dataset._deferred(lambda: np.array([[0.0, 1.0], [np.inf, 0.0]]),
                              np.negative, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="row 1: Dataset values"):
            d.values

    def test_own_keeps_a_fresh_array_and_checks_it(self):
        fresh = np.arange(6.0).reshape(2, 3)
        d = Dataset._own(fresh)
        assert d.values is fresh and not fresh.flags.writeable
        fresh = np.ones((2, 3))
        fresh[1, 0] = np.inf
        with pytest.raises(ValueError, match="row 1: Dataset values"):
            Dataset._own(fresh)
        with pytest.raises(ValueError, match="non-empty"):
            Dataset._own(np.ones((2, 2, 2)))

    def test_a_callers_array_is_still_copied(self):
        mine = np.arange(3.0)
        d = Dataset(mine)
        assert not np.shares_memory(d.values, mine)
        assert mine.flags.writeable


class TestParameterVector:
    def test_dimension_counts_continuous_only(self):
        p = ParameterVector([1.0, 2.0], tags=(3, -5))
        assert p.dimension == 2

    def test_rejects_duplicate_tags(self):
        with pytest.raises(ValueError):
            ParameterVector([1.0, 2.0], tags=(3, 3))

    def test_tags_are_a_read_only_int_array(self):
        source = [3, -5]
        p = ParameterVector([1.0, 2.0], tags=source)
        source[0] = 7                       # the tags are a copy
        assert p.tags.dtype.kind == "i"
        assert np.array_equal(p.tags, [3, -5])
        with pytest.raises(ValueError):
            p.tags[0] = 4


class TestMonteCarloEstimate:
    def test_std_error_definition(self):
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        est = MonteCarloEstimate.from_values(vals, seed=7)
        assert est.value == pytest.approx(2.5)
        assert est.std_error == pytest.approx(vals.std(ddof=1) / 2.0)
        assert est.replicates == 4
        assert est.seed == 7

    def test_rejects_negative_std_error(self):
        with pytest.raises(ValueError):
            MonteCarloEstimate(1.0, -0.1, 10, 0)


class TestShannonInformation:
    def test_standard_normal_at_mode(self):
        model = gaussian_mean_model([0.0])
        assert shannon_information(Dataset([0.0]), model) == \
            pytest.approx(HALF_LOG_2PI, abs=1e-12)

    def test_additive_over_observations(self):
        model = gaussian_mean_model([0.0])
        xs = [0.3, -1.2, 0.7, 2.1]
        total = shannon_information(Dataset(xs), model)
        parts = sum(shannon_information(Dataset([x]), model) for x in xs)
        assert total == pytest.approx(parts, abs=1e-9)

    def test_exponential_rate_one(self):
        # -log(1 * e^{-2}) = 2
        model = exponential_model(1.0)
        assert shannon_information(Dataset([2.0]), model) == \
            pytest.approx(2.0, abs=1e-12)

    def test_non_finite_density_raises(self):
        model = exponential_model(1.0)
        with pytest.raises(DensityError):
            shannon_information(Dataset([-1.0]), model)

    def test_block_one_value_per_row(self):
        model = gaussian_mean_model([0.0])
        rows = [[0.3, -1.2], [0.7, 2.1], [0.0, 0.0]]
        h = shannon_information(Dataset(rows), model)
        assert h.shape == (3,)
        for r, row in enumerate(rows):
            assert h[r] == shannon_information(Dataset(row), model)

    def test_block_names_first_non_finite_row(self):
        model = exponential_model(1.0)
        block = Dataset([[1.0, 2.0], [3.0, 4.0], [-1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(DensityError, match="row 2"):
            shannon_information(block, model)

    def test_relabeled_model_same_information(self):
        # Same density, different parameter bookkeeping: h is unchanged.
        base = gaussian_mean_model([0.5])
        relabeled = FittedModel(ParameterVector([1.0]), base.log_density,
                                base.from_noise)
        data = Dataset([0.1, 0.9, -0.4, 1.3])
        assert shannon_information(data, base) == \
            shannon_information(data, relabeled)


class TestCrossEntropy:
    def test_standard_normal_entropy(self):
        truth = gaussian_mean_model([0.0])
        est = cross_entropy_mc(truth, truth, 1, 4000, seed=1)
        assert abs(est.value - STD_NORMAL_ENTROPY) <= 3 * est.std_error

    def test_shifted_mean_adds_half(self):
        truth = gaussian_mean_model([0.0])
        other = gaussian_mean_model([1.0])
        est = cross_entropy_mc(truth, other, 1, 4000, seed=2)
        assert abs(est.value - (STD_NORMAL_ENTROPY + 0.5)) <= \
            3 * est.std_error

    def test_minimized_at_truth(self):
        truth = gaussian_mean_model([0.0])
        at_truth = cross_entropy_mc(truth, truth, 4, 800, seed=3)
        for mu in (-1.0, -0.5, 0.5, 1.0):
            other = cross_entropy_mc(truth, gaussian_mean_model([mu]),
                                     4, 800, seed=3)
            combined = math.hypot(at_truth.std_error, other.std_error)
            assert at_truth.value <= other.value + 3 * combined

    def test_replicates_precondition(self):
        truth = gaussian_mean_model([0.0])
        with pytest.raises(ValueError):
            cross_entropy_mc(truth, truth, 1, 1, seed=0)

    def test_deterministic_replay(self):
        truth = gaussian_mean_model([0.0])
        a = cross_entropy_mc(truth, truth, 3, 50, seed=11)
        b = cross_entropy_mc(truth, truth, 3, 50, seed=11)
        assert a == b


class TestReplicateValues:
    def test_failure_names_replicate_and_seed(self):
        # Exponential fits reject the first normal draw holding a
        # non-positive value; the error names that replicate.
        n, seed = 3, 5
        first = next(r for r in range(100) if (gaussian_mean_model([0.0])
                     .sampler(n, replicate_rng(seed, r)).values <= 0).any())
        with pytest.raises(FitError,
                           match=rf"^replicate {first} \(seed {seed}\)"):
            unwrap(replicate_values(
                gaussian_mean_model([0.0]).sampler, n, 100, seed,
                [lambda y: shannon_information(y,
                                               exponential_family().fit(y))]))

    def test_rows_follow_streams(self):
        model = gaussian_mean_model([0.0])
        [values] = replicate_values(model.sampler, 4, 10, 9,
                                    [lambda z, y: y.values], draws=2)
        for r in range(10):
            rng = replicate_rng(9, r)
            model.sampler(4, rng)
            assert np.array_equal(values[r], model.sampler(4, rng).values)

    def test_failed_statistic_leaves_the_others(self):
        model = gaussian_mean_model([0.0])

        def fails_late(y):
            if y.values.shape[0] < 163:         # the last, short chunk
                raise DensityError("late")
            return y.values[:, 0]

        first, failed, last = replicate_values(
            model.sampler, 100, 200, 9,
            [lambda y: y.values[:, 0], fails_late, lambda y: y.values[:, 1]])
        [alone] = replicate_values(model.sampler, 100, 200, 9,
                                   [lambda y: y.values[:, 1]])
        assert isinstance(failed, DensityError)
        assert str(failed) == "replicates 163..199 (seed 9) failed: late"
        assert np.array_equal(last, alone)
        assert first.shape == (200,)
        with pytest.raises(DensityError, match="^replicates 163"):
            unwrap([first, failed, last])


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**64 + 5, -3]
SEEDS = EDGE_SEEDS + [int(s) for s in
                      np.random.default_rng(4).integers(0, 2**63, 40)]


def _seed_sequence_words(seed, replicates):
    return np.array([np.random.SeedSequence([seed % 2**63, r])
                     .generate_state(4, np.uint64) for r in replicates])


class TestStreamSeeding:
    """The vectorised SeedSequence hash behind ``replicate_values``
    against numpy's own: a numpy change to SeedSequence fails here
    instead of moving numbers."""

    # Indices from 2**32 up hash a second entropy word; no draws made.
    @pytest.mark.parametrize("start, stop", [(0, 300), (2**32 - 5, 2**32),
                                             (2**32 - 3, 2**32 + 3),
                                             (2**64 - 3, 2**64)])
    def test_words_match_seed_sequence(self, start, stop):
        for seed in SEEDS:
            assert np.array_equal(core._stream_words(seed, start, stop),
                                  _seed_sequence_words(seed, range(start,
                                                                   stop)))

    def test_indices_past_two_words_refused(self):
        with pytest.raises(OverflowError):
            core._stream_words(5, 2**64 - 1, 2**64 + 1)

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_streams_draw_as_replicate_rng(self, seed):
        rs = [0, 1, 17, 299, 2**32 - 1, 2**32]
        stream = core._stream_from_words()
        for r in rs:
            [words] = core._stream_words(seed, r, r + 1)
            built, ref = stream(words), replicate_rng(seed, r)
            for law, args in [("standard_normal", ()), ("exponential", ()),
                              ("chisquare", (3.0,))]:
                assert np.array_equal(getattr(built, law)(*args, size=50),
                                      getattr(ref, law)(*args, size=50))

    @pytest.mark.parametrize("seed", [9, 2**40 + 7])
    def test_windows_and_chunks_match_row_by_row(self, monkeypatch, seed):
        # 24 observations: 3-row chunks in 18-row windows, so 50
        # replicates span three windows, the last one partial.
        N, R = 24, 50
        monkeypatch.setattr(core, "BLOCK_BYTES", 8 * N * 3)
        model = gaussian_mean_model([0.0])
        [values] = replicate_values(
            model.sampler, N, R, seed,
            [lambda z, y: np.hstack([z.values, y.values])], draws=2)
        for r in range(R):
            rng = replicate_rng(seed, r)
            expected = np.hstack([model.sampler(N, rng).values,
                                  model.sampler(N, rng).values])
            assert np.array_equal(values[r], expected)


def test_import_does_not_load_numpy_random():
    # numpy 2 imports numpy.random lazily; fickit builds its stream
    # type on first use, so importing the CLI costs none of it.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(fickit.__file__)))
    code = ("import sys, fickit.cli; "
            "sys.exit('numpy.random' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env,
                          timeout=60).returncode == 0


class TestKLStatistic:
    def test_identical_parameters(self):
        m = gaussian_mean_model([0.3])
        assert kl_statistic(Dataset([1.0, 2.0]), m, m) == 0.0

    def test_hand_value(self):
        # d = 0.5 * ((0 - 1)^2 - 0^2)
        zero = gaussian_mean_model([0.0])
        one = gaussian_mean_model([1.0])
        assert kl_statistic(Dataset([0.0]), zero, one) == \
            pytest.approx(0.5, abs=1e-12)

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=8),
           st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=60, deadline=None)
    def test_antisymmetry(self, xs, mu0, mu1):
        a = gaussian_mean_model([mu0])
        b = gaussian_mean_model([mu1])
        data = Dataset(xs)
        assert kl_statistic(data, a, b) + kl_statistic(data, b, a) == 0.0


class TestKLDivergence:
    def test_identical_parameters(self):
        m = gaussian_mean_model([0.0])
        est = kl_divergence_mc(m, m, m, 5, 100, seed=4)
        assert est.value == 0.0

    def test_gaussian_shift(self):
        # KL(N(0,1) || N(1,1)) = 1/2 per observation.
        zero = gaussian_mean_model([0.0])
        one = gaussian_mean_model([1.0])
        for n in (1, 8):
            est = kl_divergence_mc(zero, one, zero, n, 3000, seed=5)
            assert abs(est.value - n / 2.0) <= 3 * est.std_error

    def test_gibbs_nonnegative(self):
        zero = gaussian_mean_model([0.0])
        for mu in (0.25, -0.8, 1.5):
            other = gaussian_mean_model([mu])
            est = kl_divergence_mc(zero, other, zero, 4, 2000, seed=6)
            assert est.value >= -3 * est.std_error


class TestErrorStatistic:
    def test_identical_parameters(self):
        m = gaussian_mean_model([0.0])
        assert error_statistic(Dataset([1.0, -1.0]), m, m, 0.0) == 0.0

    def test_mean_kappa_is_unity(self):
        # One regular location parameter: expected error statistic 1.
        truth = gaussian_mean_model([0.0])
        family = gaussian_mean_family(1)
        n, reps = 10, 300
        kappas = np.empty(reps)
        for r in range(reps):
            x = truth.sampler(n, replicate_rng(21, r))
            fitted = family.fit(x)
            div = kl_divergence_mc(truth, fitted, truth, n, 150,
                                   seed=1000 + r).value
            kappas[r] = error_statistic(x, truth, fitted, div)
        est = MonteCarloEstimate.from_values(kappas, seed=21)
        assert abs(est.value - 1.0) <= 3 * est.std_error

    def test_matches_complexity_oracle(self):
        # Same quantity through the direct generalization-gap estimator.
        truth = gaussian_mean_model([0.0])
        family = gaussian_mean_family(1)
        direct = fic_complexity(family, truth, 10, replicates=3000,
                                seed=22)
        assert abs(direct.value - 1.0) <= 3 * direct.std_error


def _raise(exc):
    raise exc


class _Unpicklable(Exception):
    def __init__(self, a, b):               # pickle calls it with one arg
        super().__init__(f"{a} {b}")


class TestForkMap:
    def test_results_in_order_from_workers(self, use_cpus, no_children):
        use_cpus(2)
        parent = os.getpid()
        got = core._fork_map([lambda i=i: (i, os.getpid()) for i in range(7)])
        assert [i for i, _ in got] == list(range(7))
        assert parent not in {pid for _, pid in got}
        assert no_children()

    def test_more_thunks_than_task_runs(self, use_cpus, no_children):
        use_cpus(2)
        count = 3 * core._MAX_RUNS + 5
        assert core._fork_map([lambda i=i: i * i for i in range(count)]) \
            == [i * i for i in range(count)]
        assert no_children()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_first_error_in_order_keeps_type_and_message(
            self, use_cpus, no_children, cpus):
        use_cpus(cpus)
        thunks = [lambda: 1, lambda: _raise(KeyError("not a fickit error")),
                  lambda: _raise(FitError("injected"))]
        with pytest.raises(KeyError, match="not a fickit error"):
            core._fork_map(thunks)
        with pytest.raises(FitError) as info:
            core._fork_map(thunks[:1] + thunks[2:])
        assert str(info.value) == "injected"
        assert no_children()

    def test_error_that_does_not_pickle_is_retold(self, use_cpus,
                                                    no_children):
        use_cpus(2)
        with pytest.raises(RuntimeError, match="_Unpicklable: 1 2"):
            core._fork_map([lambda: 0, lambda: _raise(_Unpicklable(1, 2))])
        assert no_children()

    def test_dead_worker_is_an_error_not_a_hang(self, use_cpus,
                                                no_children):
        use_cpus(2)

        def hung(*_):
            raise TimeoutError("_fork_map still waiting after 10 s")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(10)
        start = time.monotonic()
        try:
            with pytest.raises(ChildProcessError, match="exit codes"):
                core._fork_map([lambda: os._exit(1), lambda: 2, lambda: 3])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - start < 5.0
        assert no_children()

    def test_nested_call_runs_in_its_worker(self, use_cpus):
        use_cpus(2)

        def nested():
            return os.getpid(), core._fork_map([os.getpid, os.getpid])

        for pid, inner in core._fork_map([nested, nested]):
            assert inner == [pid, pid]
            assert pid != os.getpid()

    def test_one_cpu_runs_in_process(self, use_cpus):
        use_cpus(1)
        assert core._fork_map([os.getpid, os.getpid]) == [os.getpid()] * 2

    def test_result_that_does_not_pickle_is_retold(self, use_cpus,
                                                   no_children):
        use_cpus(2)
        with pytest.raises(RuntimeError, match="task 1 returned a function "
                           "that does not pickle: .*lambda"):
            core._fork_map([lambda: 1, lambda: (lambda: 2)])
        assert no_children()

    # Cuts of the last task's reply: at a reply boundary (0), inside the
    # first frame's header (2) and just past it (11), inside the large
    # bytes value written after that frame, and before its last byte.
    @pytest.mark.parametrize("cut", [0, 2, 11, -100_000, -1])
    def test_reply_cut_short_is_a_missing_task(self, use_cpus, no_children,
                                               monkeypatch, cut):
        use_cpus(2)
        parent, write, last = os.getpid(), os.write, 5

        def cut_short(fd, data):
            if os.getpid() == parent or last not in pickle.loads(data):
                return write(fd, data)
            write(fd, data[:cut])
            os._exit(1)

        monkeypatch.setattr(os, "write", cut_short)
        thunks = [lambda i=i: i for i in range(last)] + [lambda: bytes(2**18)]
        start = time.monotonic()
        with pytest.raises(ChildProcessError,
                           match=r"exit codes .*1.* before returning task "
                                 f"{last} of {last + 1}$"):
            core._fork_map(thunks)
        assert time.monotonic() - start < 5.0
        assert no_children()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="lists open descriptors through /proc")
    @pytest.mark.parametrize("case", ["success", "error", "dead worker",
                                      "parent stopped"])
    def test_no_file_descriptor_is_left_open(self, use_cpus, no_children,
                                             monkeypatch, case):
        use_cpus(2)
        thunks = [lambda: 1, lambda: 2, lambda: 3]
        expected = None
        if case == "error":
            thunks[1], expected = lambda: _raise(KeyError("injected")), KeyError
        elif case == "dead worker":
            thunks[1], expected = lambda: os._exit(1), ChildProcessError
        elif case == "parent stopped":
            expected = KeyboardInterrupt
            monkeypatch.setattr(pickle, "load",
                                lambda stream: _raise(KeyboardInterrupt()))
        before = sorted(os.listdir("/proc/self/fd"))
        if expected is None:
            assert core._fork_map(thunks) == [1, 2, 3]
        else:
            with pytest.raises(expected):
                core._fork_map(thunks)
        assert sorted(os.listdir("/proc/self/fd")) == before
        assert no_children()


def _deferred_dataset(build):
    return Dataset._deferred(lambda: build(np.arange(6.0).reshape(2, 3)),
                             np.negative, np.ones((2, 3))), ["values"]


def _deferred_parameters(build):
    return ParameterVector._deferred(
        lambda: build((np.ones(2), [3, -5]))), ["coordinates", "tags"]


def _deferred_grid(build):
    axis, zeros = np.linspace(0.0, 1.0, 3), np.zeros((3, 3))
    grid = LandscapeGrid._deferred(
        lambda: build(zeros), axis1_values=axis, axis2_values=axis,
        d_surface=zeros, D_surface=zeros, invalid=zeros.astype(bool))
    return grid, ["D_std_error"]


@pytest.mark.parametrize("make", [_deferred_dataset, _deferred_parameters,
                                  _deferred_grid])
class TestDeferredFields:
    """Every class with fields built on first read keeps one contract."""

    @staticmethod
    def counted(make):
        built = []

        def build(fields):
            built.append(1)
            return fields

        return (*make(build), built)

    def test_a_deferred_field_is_built_once(self, make):
        obj, names, built = self.counted(make)
        assert "_build" in vars(obj) and built == []
        first = [getattr(obj, name) for name in names]
        assert all(getattr(obj, n) is f for n, f in zip(names, first))
        assert len(built) == 1 and "_build" not in vars(obj)

    @pytest.mark.parametrize("name", ["other", "_other", "__deepcopy__",
                                      "__setstate__"])
    def test_any_other_missing_name_builds_nothing(self, make, name):
        obj, names, built = self.counted(make)
        message = f"'{type(obj).__name__}' object has no attribute '{name}'"
        with pytest.raises(AttributeError, match=message):
            getattr(obj, name)
        assert built == [] and "_build" in vars(obj)
        getattr(obj, names[0])
        with pytest.raises(AttributeError, match=message):
            getattr(obj, name)
        assert len(built) == 1
