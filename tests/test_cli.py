"""Command-line surface: config handling, CSV output, determinism, and
exit codes."""

import dataclasses
import json
import math
import shlex
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fickit import cli
from fickit.cli import (EXIT_NUMERICAL, EXIT_OK, EXIT_ORACLE, EXIT_USAGE,
                        ExperimentConfig, UsageError, cmd_evt_table,
                        cmd_landscape, cmd_simulate, cmd_sweep, main,
                        write_csv)
from fickit.core import FitError, derive_seed
from fickit.models import neutrino_mean

_ROOT = Path(__file__).parents[1]


def _read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    header = body[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in body[1:]]


class TestExperimentConfig:
    def test_roundtrip(self):
        config = ExperimentConfig(experiment="neutrino_sweep",
                                  sample_size=50, replicates=20, seed=9,
                                  algorithms=("greedy",), n_max=3)
        assert ExperimentConfig.parse(config.serialize()) == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(UsageError):
            ExperimentConfig.from_dict({"experiment": "neutrino_sweep",
                                        "replicas": 5})

    def test_unknown_experiment_rejected(self):
        with pytest.raises(UsageError):
            ExperimentConfig(experiment="banana")

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(UsageError):
            ExperimentConfig(experiment="neutrino_sweep",
                             algorithms=("exhaustive",))

    def test_invalid_json(self):
        with pytest.raises(UsageError):
            ExperimentConfig.parse("not json")

    def test_integer_too_long_to_read(self):
        # Python reads at most 4,300 digits of an integer from text.
        with pytest.raises(UsageError, match="not valid JSON"):
            ExperimentConfig.parse('{"experiment": "evt_table", '
                                   f'"replicates": 1{"0" * 5000}}}')

    def test_field_table_has_every_field_but_experiment(self):
        names = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert names[0] == "experiment"
        assert list(cli._FIELDS) == names[1:]
        assert set(_VALID) == set(cli._FIELDS)

    def test_every_cap_passes_validation(self):
        capped = [n for n, row in cli._FIELDS.items() if row.cap < math.inf]
        assert capped == ["sample_size", "replicates", "evt_m_values",
                          "evt_nu_values"]
        for name in capped:               # validation only: nothing runs
            value = _holding(name, cli._FIELDS[name].cap)
            ExperimentConfig(experiment="evt_table", **{name: value})

    # Each of these once ended in a Python traceback (or, for the bare
    # string, in a complaint about its characters), or started work no
    # run can finish: 10**30 observations, 10**400 replicates or m =
    # 10**30 draws per maximum. The rest are one over each cap.
    @pytest.mark.parametrize("command, experiment, field, value", [
        ("sweep", "neutrino_sweep", "sample_size", "100"),
        ("sweep", "neutrino_sweep", "replicates", 2.5),
        ("landscape", "landscape", "grid_axis1", [-1.5, 1.5]),
        ("evt-table", "evt_table", "evt_m_values", [0]),
        ("sweep", "neutrino_sweep", "algorithms", "greedy"),
        ("landscape", "landscape", "landscape_truth", [10 ** 400, 0.9]),
        ("simulate", "simulate", "sample_size", 10 ** 30),
        ("sweep", "neutrino_sweep", "sample_size", 10 ** 30),
        ("evt-table", "evt_table", "replicates", 10 ** 400),
        ("evt-table", "evt_table", "evt_m_values", [10 ** 30]),
        ("evt-table", "evt_table", "evt_nu_values", [10 ** 400]),
        ("landscape", "landscape", "sample_size", cli.MAX_SAMPLE_SIZE + 1),
        ("landscape", "landscape", "sample_size",
         cli.MAX_LANDSCAPE_SIZE + 1),
        ("oracle-suite", "oracle_suite", "replicates",
         cli.MAX_REPLICATES + 1),
        ("evt-table", "evt_table", "evt_m_values", [cli.MAX_EVT + 1]),
        ("evt-table", "evt_table", "evt_nu_values", [cli.MAX_EVT + 1]),
        ("evt-table", "evt_table", "out_dir", "x\ud800"),
        ("evt-table", "evt_table", "out_dir", "x\x00y"),
    ], ids=["sample_size_string", "replicates_float", "grid_axis_short",
            "evt_m_zero", "algorithms_string", "landscape_truth_huge_int",
            "simulate_sample_size_huge", "sweep_sample_size_huge",
            "replicates_huge_int", "evt_m_huge", "evt_nu_huge_int",
            "sample_size_over_cap", "landscape_sample_size_over_cap",
            "replicates_over_cap", "evt_m_over_cap", "evt_nu_over_cap",
            "out_dir_lone_surrogate", "out_dir_nul"])
    def test_bad_field_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                      command, experiment, field, value):
        # A row that gets past validation fails at once, before it can
        # allocate or loop at its size.
        def must_not_run(*args, **kwargs):
            raise AssertionError("work started on a bad config")

        for name in ("neutrino_mean", "neutrino_truth", "_landscape_setup",
                     "information_landscape", "_complexity_replicates",
                     "fic_complexity", "max_chi2_mc"):
            monkeypatch.setattr(cli, name, must_not_run)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"experiment": experiment,
                                    "out_dir": str(tmp_path / "out"),
                                    field: value}))
        assert main([command, "--config", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be")
        assert not (tmp_path / "out").exists()


class TestWriteCsv:
    def test_metadata_and_formatting(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", {"seed": 5, "N": 10},
                         ["a", "b", "c"],
                         [(1, 0.5, "x"), (2, float("nan"), None)])
        text = path.read_text(encoding="utf-8")
        assert text.splitlines() == ["# seed = 5", "# N = 10", "a,b,c",
                                     "1,0.5,x", "2,,"]

    def test_joined_rows_are_written_as_given(self, tmp_path):
        # A string row is its fields already joined; the others are
        # formatted field by field, in the same file.
        path = write_csv(tmp_path / "t.csv", {"seed": 5}, ["a", "b", "c"],
                         ["x,1,0.5", (2, float("nan"), "y"), "z,3,"])
        assert path.read_text(encoding="utf-8").splitlines() == \
            ["# seed = 5", "a,b,c", "x,1,0.5", "2,,y", "z,3,"]


@pytest.mark.parametrize("value, text", [
    (0.5, "0.5"), (np.float64(1 / 3), "0.333333333333"), (-0.0, "-0"),
    (np.float64(-0.0), "-0"), (math.nan, ""), (np.float64(math.nan), ""),
    (math.inf, "inf"), (-math.inf, "-inf"), (5e-324, "4.94065645841e-324"),
    (1e300, "1e+300"), (7, "7"), (np.int64(-3), "-3"), (True, "true"),
    (np.bool_(False), "false"), (None, ""), ("abc", "abc")])
def test_fmt_strings(value, text):
    # Python floats take the first branch; every other type keeps its
    # own, and both give the same strings.
    assert cli._fmt(value) == text


class TestSimulate:
    def test_rows_match_generator_mean(self, tmp_path):
        config = ExperimentConfig(experiment="simulate", sample_size=100,
                                  out_dir=str(tmp_path))
        data_path, coeff_path = cmd_simulate(config)
        header, rows = _read_rows(data_path)
        assert header == ["j", "t", "mu_true", "x"]
        assert len(rows) == 100
        mu = neutrino_mean(100)
        for j in (1, 37, 100):
            assert float(rows[j - 1]["mu_true"]) == \
                pytest.approx(mu[j - 1], rel=1e-10)
        coeff_header, coeff_rows = _read_rows(coeff_path)
        assert coeff_header == ["index", "true_coefficient",
                                "fitted_coefficient"]
        assert len(coeff_rows) == 100
        indices = [int(r["index"]) for r in coeff_rows]
        assert indices == sorted(indices)

    def test_deterministic_bytes(self, tmp_path):
        for d in ("a", "b"):
            config = ExperimentConfig(experiment="simulate", sample_size=40,
                                      seed=77, out_dir=str(tmp_path / d))
            cmd_simulate(config)
        assert (tmp_path / "a" / "data.csv").read_bytes() == \
            (tmp_path / "b" / "data.csv").read_bytes()
        assert (tmp_path / "a" / "coefficients.csv").read_bytes() == \
            (tmp_path / "b" / "coefficients.csv").read_bytes()

    def test_odd_sample_size_is_usage_error(self, tmp_path):
        config = ExperimentConfig(experiment="simulate", sample_size=99,
                                  out_dir=str(tmp_path))
        with pytest.raises(UsageError):
            cmd_simulate(config)


class TestSweep:
    def test_default_seed_selects_n_2(self, tmp_path):
        config = ExperimentConfig(experiment="neutrino_sweep",
                                  sample_size=100, replicates=300,
                                  n_max=6, out_dir=str(tmp_path))
        sweep_path, summary_path = cmd_sweep(config)
        _, summary = _read_rows(summary_path)
        assert {r["algorithm"]: r["best_n"] for r in summary} == \
            {"sequential": "2", "greedy": "2"}
        header, rows = _read_rows(sweep_path)
        assert header[:6] == ["algorithm", "n", "h_fit", "K_aic", "K_bic",
                              "K_fic"]
        # Nested fits only improve in-sample.
        for algorithm in ("sequential", "greedy"):
            h = [float(r["h_fit"]) for r in rows
                 if r["algorithm"] == algorithm]
            assert all(b <= a + 1e-9 for a, b in zip(h, h[1:]))
        # Closed-form columns.
        for r in rows:
            n = int(r["n"])
            expected_k = 2 * n + 1 if r["algorithm"] == "sequential" \
                else n + 1
            assert int(r["K_aic"]) == expected_k
            assert float(r["K_bic"]) == pytest.approx(
                0.5 * expected_k * math.log(100.0), rel=1e-9)
            assert int(r["K_aic_naive"]) == 2 * n + 1
            assert float(r["aic"]) == pytest.approx(
                float(r["h_fit"]) + expected_k, rel=1e-9)

    def test_sequential_k_fic_matches_parameter_count(self, tmp_path):
        config = ExperimentConfig(experiment="neutrino_sweep",
                                  sample_size=100, replicates=400,
                                  algorithms=("sequential",), n_max=4,
                                  out_dir=str(tmp_path))
        sweep_path, _ = cmd_sweep(config)
        _, rows = _read_rows(sweep_path)
        for r in rows:
            n = int(r["n"])
            assert abs(float(r["K_fic"]) - (2 * n + 1)) <= \
                3 * float(r["K_fic_stderr"])

    def test_truth_unknown_blanks_oracle_columns(self, tmp_path):
        config = ExperimentConfig(experiment="neutrino_sweep",
                                  sample_size=20, replicates=30, n_max=1,
                                  truth_known=False, out_dir=str(tmp_path))
        sweep_path, _ = cmd_sweep(config)
        _, rows = _read_rows(sweep_path)
        assert all(r["K_true"] == "" and r["K_true_stderr"] == ""
                   for r in rows)

    @pytest.mark.parametrize("where", ["data", "replicates"])
    def test_failing_level_fails_only_its_row(self, tmp_path, monkeypatch,
                                              where):
        config = ExperimentConfig(experiment="neutrino_sweep",
                                  sample_size=20, replicates=30, n_max=3,
                                  out_dir=str(tmp_path / "clean"))
        clean = cmd_sweep(config)[0].read_text().splitlines()
        family_of = cli._family

        def faulty(algorithm, n, N):
            family = family_of(algorithm, n, N)
            if (algorithm, n) != ("greedy", 1):
                return family

            def fit(data):
                if where == "replicates" and data.values.ndim == 1:
                    return family.fit(data)
                raise FitError("injected")
            return dataclasses.replace(family, fit=fit)

        monkeypatch.setattr(cli, "_family", faulty)
        config = dataclasses.replace(config, out_dir=str(tmp_path / "bad"))
        faulty_lines = cmd_sweep(config)[0].read_text().splitlines()
        failed = [i for i, (a, b) in enumerate(zip(clean, faulty_lines))
                  if a != b]
        assert len(faulty_lines) == len(clean)
        assert len(failed) == 1
        row = faulty_lines[failed[0]].split(",")
        assert row[:2] == ["greedy", "1"]
        assert row[2:-1] == [""] * 12
        if where == "data":
            assert row[-1] == "injected"
        else:
            # Failed in the complexity replicates, named as a one-level
            # engine call names it.
            seed = derive_seed(config.seed, 1, 1)      # K_fic, greedy
            assert row[-1] == f"replicates 0..29 (seed {seed}) failed: " \
                "injected"

    def test_rule_fits_write_what_wrapped_fits_write(self, tmp_path,
                                                     monkeypatch):
        # Every level's fit wrapped takes the engine's general path (its
        # own data, fits and selection): sweep.csv is byte-identical.
        config = ExperimentConfig(experiment="neutrino_sweep",
                                  sample_size=100, replicates=200,
                                  out_dir=str(tmp_path / "rule"))
        rule = cmd_sweep(config)[0].read_bytes()
        family_of = cli._family

        def wrapped(algorithm, n, N):
            family = family_of(algorithm, n, N)
            fit = family.fit
            return dataclasses.replace(family, fit=lambda data: fit(data))

        monkeypatch.setattr(cli, "_family", wrapped)
        config = dataclasses.replace(config, out_dir=str(tmp_path / "wrap"))
        assert cmd_sweep(config)[0].read_bytes() == rule

    @pytest.mark.parametrize("algorithm", ["sequential", "greedy"])
    def test_levels_transform_each_noise_block_once(self, monkeypatch,
                                                   algorithm):
        # Nine Fourier-fit generators sample in coefficient space from
        # each chunk's two transformed noise blocks; nothing else is
        # transformed, forward or back.
        from fickit.core import BLOCK_BYTES
        config = ExperimentConfig(experiment="neutrino_sweep",
                                  sample_size=100, replicates=400)
        data = cli._neutrino_dataset(config)
        pairs = {}
        for n in range(9):
            family = cli._family(algorithm, n, 100)
            pairs[n] = (family, family.fit(data))
        calls = {"rfft": 0, "irfft": 0}

        def counted(name):
            fn = getattr(np.fft, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(np.fft, name, counted(name))
        estimates = cli._complexities(pairs, config, cli._STREAM_FIC, 0)
        chunks = math.ceil(400 / (BLOCK_BYTES // (8 * 100)))
        assert chunks == 3
        assert calls == {"rfft": 2 * chunks, "irfft": 0}
        assert sorted(estimates) == list(range(9))

    def test_n_max_out_of_range(self, tmp_path):
        config = ExperimentConfig(experiment="neutrino_sweep",
                                  sample_size=10, replicates=10, n_max=8,
                                  out_dir=str(tmp_path))
        with pytest.raises(UsageError):
            cmd_sweep(config)


class TestLandscape:
    def test_regular_argmin_near_truth(self, tmp_path, monkeypatch):
        config = ExperimentConfig(
            experiment="landscape", sample_size=50, replicates=100,
            landscape_family="linear_regular", landscape_truth=(0.25, 0.5),
            grid_axis1=(-0.75, 1.25, 17), grid_axis2=(-0.5, 1.5, 17),
            out_dir=str(tmp_path))
        fmt, types = cli._fmt, set()

        def typed(x):
            types.add(type(x))
            return fmt(x)

        monkeypatch.setattr(cli, "_fmt", typed)
        surf_path, prof_path = cmd_landscape(config)
        # The axis values and the profiles reach _fmt as floats: the
        # axis strings are joined once, and no joined string passes
        # through _fmt. The surfaces' numbers do not reach it at all;
        # each cell row is one %-format (test_mixed_grid_rows).
        assert types == {float}
        _, rows = _read_rows(surf_path)
        best = min(rows, key=lambda r: float(r["D"]))
        assert abs(float(best["theta1"]) - 0.25) <= 0.125 + 1e-9
        assert abs(float(best["theta2"]) - 0.5) <= 0.125 + 1e-9
        header, prof = _read_rows(prof_path)
        assert header == ["theta2", "d_profile", "D_profile"]
        assert len(prof) == 17

    @pytest.mark.parametrize("family", ["sine_singular", "linear_regular"])
    def test_mixed_grid_rows(self, tmp_path, monkeypatch, family):
        # Amplitudes or intercepts of 5e299 and 1e300 overflow their
        # squares: those cells are invalid, beside valid ones at -1.
        grids = []

        def landscape(*args, **kwargs):
            grids.append(cli_landscape(*args, **kwargs))
            return grids[-1]

        cli_landscape = cli.information_landscape
        monkeypatch.setattr(cli, "information_landscape", landscape)
        config = ExperimentConfig(
            experiment="landscape", sample_size=10, replicates=20,
            landscape_family=family, grid_axis1=(-1.0, 1e300, 3),
            grid_axis2=(0.3, 1.0, 4), out_dir=str(tmp_path))
        surf_path, _ = cmd_landscape(config)
        [grid] = grids
        assert "D_std_error" not in vars(grid)      # never computed
        _, rows = _read_rows(surf_path)
        invalid = grid.invalid.ravel().tolist()
        assert invalid == [False] * 4 + [True] * 8
        cells = zip(rows, invalid, grid.d_surface.ravel().tolist(),
                    grid.D_surface.ravel().tolist(),
                    [(v1, v2) for v1 in grid.axis1_values.tolist()
                     for v2 in grid.axis2_values.tolist()])
        for row, bad, d, D, (v1, v2) in cells:
            assert (row["theta1"], row["theta2"]) == \
                (format(v1, ".12g"), format(v2, ".12g"))
            assert (row["d"], row["D"]) == (("", "") if bad else (
                format(d, ".12g"), format(D, ".12g")))

    @pytest.mark.parametrize("family", ["sine_singular", "linear_regular"])
    def test_overflowing_truth_is_usage_error(self, tmp_path, family):
        # The truth's data overflow to inf or nan at these parameters.
        config = ExperimentConfig(
            experiment="landscape", sample_size=10, replicates=4,
            landscape_family=family, landscape_truth=(1e308, 1e308),
            grid_axis1=(0.0, 1.0, 2), grid_axis2=(0.3, 1.0, 2),
            out_dir=str(tmp_path))
        with pytest.raises(UsageError, match="landscape_truth"):
            cmd_landscape(config)

    @pytest.mark.parametrize("family", ["sine_singular", "linear_regular"])
    def test_overflow_warns_nothing(self, tmp_path, family, capsys):
        # An overflowing truth, a grid axis whose span overflows and a
        # grid of only invalid cells: numpy's overflow and all-NaN
        # warnings do not reach stderr, and the exit codes and outputs
        # stay what they were.
        truth = tmp_path / "truth.json"
        truth.write_text(json.dumps({
            "experiment": "landscape", "sample_size": 10, "replicates": 4,
            "landscape_family": family, "landscape_truth": [1e308, 1e308],
            "grid_axis1": [0.0, 1.0, 2], "grid_axis2": [0.3, 1.0, 2]}))
        invalid = tmp_path / "invalid.json"
        invalid.write_text(json.dumps({
            "experiment": "landscape", "sample_size": 10, "replicates": 4,
            "landscape_family": family, "grid_axis1": [1e308, 1e308, 2],
            "grid_axis2": [1e308, 1e308, 3]}))
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps({
            "experiment": "landscape", "sample_size": 10, "replicates": 4,
            "landscape_family": family,
            "grid_axis1": [-1.7e308, 1.7e308, 2],
            "grid_axis2": [-1.7e308, 1.7e308, 2]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["landscape", "--config", str(truth), "--out",
                         str(tmp_path / "a")]) == EXIT_USAGE
            assert main(["landscape", "--config", str(wide), "--out",
                         str(tmp_path / "c")]) == EXIT_USAGE
            assert main(["landscape", "--config", str(invalid), "--out",
                         str(tmp_path / "b")]) == EXIT_OK
        assert "Warning" not in capsys.readouterr().err
        _, surface = _read_rows(tmp_path / "b" / "landscape.csv")
        _, profile = _read_rows(tmp_path / "b" / "profile.csv")
        assert [(r["d"], r["D"]) for r in surface] == [("", "")] * 6
        assert [(r["d_profile"], r["D_profile"]) for r in profile] == \
            [("", "")] * 3

    @pytest.mark.parametrize("family", ["linear_regular", "sine_singular"])
    def test_too_few_points_for_the_family(self, tmp_path, family):
        config = ExperimentConfig(
            experiment="landscape", sample_size=2, replicates=4,
            landscape_family=family, grid_axis1=(0.0, 1.0, 2),
            grid_axis2=(0.3, 1.0, 2), out_dir=str(tmp_path))
        with pytest.raises(UsageError, match="sample_size 2"):
            cmd_landscape(config)

    def test_grid_too_large_for_an_array(self, tmp_path):
        config = ExperimentConfig(
            experiment="landscape", sample_size=10, replicates=4,
            grid_axis1=(0.0, 1.0, 10 ** 400), grid_axis2=(0.3, 1.0, 2),
            out_dir=str(tmp_path))
        with pytest.raises(UsageError, match="grid_axis1"):
            cmd_landscape(config)

    # 1025 x 1025 is over the cap though each axis alone is not.
    @pytest.mark.parametrize("num1, num2", [(1025, 1025), (2, 2 ** 19 + 1),
                                            (2 ** 40, 2 ** 40)])
    def test_grid_over_the_cell_cap(self, tmp_path, monkeypatch, num1,
                                    num2):
        # Rejected before the family, the data or any grid array exist.
        def must_not_run(*args, **kwargs):
            raise AssertionError("work started on an over-cap grid")

        monkeypatch.setattr(cli, "_landscape_setup", must_not_run)
        monkeypatch.setattr(cli, "information_landscape", must_not_run)
        monkeypatch.setattr(cli.GridAxis, "values", must_not_run)
        config = ExperimentConfig(
            experiment="landscape", grid_axis1=(0.0, 1.0, num1),
            grid_axis2=(0.3, 1.0, num2), out_dir=str(tmp_path / "out"))
        with pytest.raises(UsageError, match="grid_axis1"):
            cmd_landscape(config)
        assert not (tmp_path / "out").exists()

    def test_grid_at_the_cell_cap_passes_validation(self, monkeypatch):
        # Validation passes and set-up starts, at the cell cap and at the
        # landscape's sample-size cap; nothing runs at this size.
        class SetupStarted(Exception):
            pass

        def setup(config):
            raise SetupStarted

        monkeypatch.setattr(cli, "_landscape_setup", setup)
        config = ExperimentConfig(experiment="landscape",
                                  sample_size=cli.MAX_LANDSCAPE_SIZE,
                                  grid_axis1=(0.0, 1.0, 2 ** 10),
                                  grid_axis2=(0.3, 1.0, 2 ** 10))
        assert cli.MAX_GRID_CELLS == 2 ** 20
        with pytest.raises(SetupStarted):
            cmd_landscape(config)

    def test_deterministic_bytes(self, tmp_path):
        for d in ("a", "b"):
            config = ExperimentConfig(
                experiment="landscape", sample_size=30, replicates=40,
                grid_axis1=(-1.0, 1.0, 5), grid_axis2=(0.4, 1.2, 7),
                out_dir=str(tmp_path / d))
            cmd_landscape(config)
        assert (tmp_path / "a" / "landscape.csv").read_bytes() == \
            (tmp_path / "b" / "landscape.csv").read_bytes()


class TestEvtTable:
    def test_table_contents(self, tmp_path):
        config = ExperimentConfig(experiment="evt_table", replicates=4000,
                                  evt_m_values=(1, 10, 100, 1000),
                                  evt_nu_values=(1, 2), out_dir=str(tmp_path))
        (path,) = cmd_evt_table(config)
        _, rows = _read_rows(path)
        assert len(rows) == 8
        by_key = {(int(r["m"]), int(r["nu"])): r for r in rows}
        # m=1 has no formula but the simulated mean is the chi2 mean.
        assert by_key[(1, 1)]["evt_formula"] == ""
        r11 = by_key[(1, 1)]
        assert abs(float(r11["mc_mean"]) - 1.0) <= \
            3 * float(r11["mc_stderr"])
        # Relative gap shrinks along m at nu=1.
        gaps = []
        for m in (10, 100, 1000):
            r = by_key[(m, 1)]
            gaps.append(abs(float(r["evt_formula"]) - float(r["mc_mean"]))
                        / float(r["mc_mean"]))
        assert gaps[2] < gaps[0]


class TestMain:
    def test_unknown_command_exits_usage(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_config_experiment_mismatch(self, tmp_path, capsys):
        config = ExperimentConfig(experiment="evt_table")
        p = tmp_path / "config.json"
        p.write_text(config.serialize())
        assert main(["sweep", "--config", str(p)]) == EXIT_USAGE

    def test_shipped_configs_load_for_their_command(self):
        paths = sorted((Path(__file__).parents[1] / "configs").glob("*"))
        assert paths
        experiments = {e: name for name, (_, e) in cli._COMMANDS.items()}
        for path in paths:
            config = ExperimentConfig.load(path)
            args = cli.build_parser().parse_args(
                [experiments[config.experiment], "--config", str(path)])
            assert cli._resolve_config(args) == config

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"experiment": "evt_table", "out_dir": "\xff"}')
        assert main(["evt-table", "--config", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(
            f"error: config {path} is not UTF-8")

    def test_missing_config_file(self, capsys):
        assert main(["sweep", "--config", "/nonexistent.json"]) == EXIT_USAGE

    def test_odd_sample_size_via_config(self, tmp_path, capsys):
        config = ExperimentConfig(experiment="simulate", sample_size=99,
                                  out_dir=str(tmp_path))
        p = tmp_path / "config.json"
        p.write_text(config.serialize())
        assert main(["simulate", "--config", str(p)]) == EXIT_USAGE

    def test_simulate_roundtrip_with_overrides(self, tmp_path, capsys):
        config = ExperimentConfig(experiment="simulate", sample_size=20)
        p = tmp_path / "config.json"
        p.write_text(config.serialize())
        code = main(["simulate", "--config", str(p), "--seed", "5",
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        assert (tmp_path / "out" / "data.csv").exists()
        meta = (tmp_path / "out" / "data.csv").read_text().splitlines()
        assert "# seed = 5" in meta

    def test_out_dir_is_a_file(self, tmp_path, capsys):
        (tmp_path / "taken").write_text("")
        code = main(["simulate", "--out", str(tmp_path / "taken")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    def test_out_dir_below_a_file(self, tmp_path, capsys):
        (tmp_path / "taken").write_text("")
        code = main(["simulate", "--out", str(tmp_path / "taken" / "sub")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    def test_oracle_suite_passes(self, tmp_path, capsys):
        code = main(["oracle-suite", "--replicates", "400",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        _, rows = _read_rows(tmp_path / "oracle.csv")
        assert rows and all(r["pass"] == "true" for r in rows)
        expected = {r["check"]: float(r["expected"]) for r in rows}
        assert expected["exponential_N10"] == pytest.approx(10.0 / 9.0)
        assert expected["linear_regression_K3_N10"] == pytest.approx(5.0)

    def test_evt_table_deterministic_via_cli(self, tmp_path, capsys):
        for d in ("a", "b"):
            code = main(["evt-table", "--replicates", "500",
                         "--seed", "3", "--out", str(tmp_path / d)])
            assert code == EXIT_OK
        assert (tmp_path / "a" / "evt.csv").read_bytes() == \
            (tmp_path / "b" / "evt.csv").read_bytes()


class TestWorkers:
    @pytest.mark.parametrize("command", ["sweep", "oracle-suite",
                                         "evt-table"])
    def test_default_csvs_do_not_depend_on_the_cpu_count(
            self, tmp_path, capsys, use_cpus, no_children, command):
        outputs = []
        for cpus in (1, 2):
            use_cpus(cpus)
            out = tmp_path / str(cpus)
            assert main([command, "--out", str(out)]) == EXIT_OK
            assert no_children()
            outputs.append({p.name: p.read_bytes()
                            for p in sorted(out.iterdir())})
        assert outputs[0] == outputs[1]

    def test_failed_command_leaves_no_child(self, tmp_path, monkeypatch,
                                            use_cpus, no_children):
        use_cpus(2)

        def buggy(*args):
            raise KeyError("a bug in a worker")

        monkeypatch.setattr(cli, "_complexity_replicates", buggy)
        config = ExperimentConfig(experiment="neutrino_sweep",
                                  sample_size=20, replicates=10, n_max=1,
                                  out_dir=str(tmp_path))
        with pytest.raises(KeyError, match="a bug in a worker"):
            cmd_sweep(config)
        assert no_children()
        assert not (tmp_path / "sweep.csv").exists()


def _readme():
    return (_ROOT / "README.md").read_text(encoding="utf-8")


class TestReadme:
    def test_config_table_matches_the_field_table(self):
        rows = [[cell.strip() for cell in line.split("|")[1:-1]]
                for line in _readme().splitlines() if line.startswith("| `")]
        assert [row[0] for row in rows] == [f"`{name}`"
                                            for name in cli._FIELDS]
        for (_, what, bounds, _), row in zip(rows, cli._FIELDS.values()):
            assert what == row.what
            if row.cap < math.inf:
                assert bounds == f"{row.low} to {row.cap}"
            else:
                assert bounds == (f">= {row.low}" if row.low > -math.inf
                                  else "any")

    def test_standard_runs_pass_validation(self, monkeypatch):
        # Each documented run parses and validates, so no cap rejects it.
        monkeypatch.chdir(_ROOT)
        block = _readme().split("## Standard runs", 1)[1].split("```")[1]
        runs = [shlex.split(line, comments=True)
                for line in block.splitlines()[1:]]
        assert len(runs) == 7
        for argv in runs:
            assert argv[0] == "fickit"
            cli._resolve_config(cli.build_parser().parse_args(argv[1:]))


# -- config fuzzing ----------------------------------------------------------

_EXPERIMENTS = {"simulate": "simulate", "sweep": "neutrino_sweep",
                "landscape": "landscape", "oracle-suite": "oracle_suite",
                "evt-table": "evt_table"}
_HUGE = [1e308, -1e308, 10 ** 400]      # 10 ** 400 overflows a float


def _mixed(valid, invalid):
    """``valid`` nine times in ten, else one of ``invalid``."""
    return st.integers(0, 9).flatmap(
        lambda i: st.sampled_from(invalid) if i == 9 else valid)


def _holding(name, x):
    """A value of field ``name`` with ``x`` as its integer: a list field
    keeps its default's other entries."""
    default = getattr(ExperimentConfig, name)
    return list(default[:-1]) + [x] if isinstance(default, tuple) else x


def _invalid(name):
    """Values of ``name`` drawn from its row of the field table: one
    below the least value, one above the cap, a huge integer and the
    wrong types, and for a string field the strings no path can hold.
    Some of them are valid for a field with no bounds (a
    huge seed), and each invalid one is rejected before any work."""
    row = cli._FIELDS[name]
    edges = [b + d for b, d in ((row.low, -1), (row.cap, 1))
             if math.isfinite(b)]
    values = [_holding(name, x) for x in edges + [10 ** 400, 2.5, None,
                                                    True]] + [[], {}]
    if isinstance(getattr(ExperimentConfig, name), str):
        values += ["x\ud800", "x\x00y"]        # no path can hold them
    else:
        values += ["3", _holding(name, "3")]    # no stray output dirs
    return values


_REALS = st.sampled_from([0.0, 0.9, -1.5, 1e-308] + _HUGE)
_GRID = st.lists(_REALS, min_size=2, max_size=2).flatmap(
    lambda ends: st.sampled_from([2, 3]).map(lambda num: ends + [num]))

# Valid values of each field. Those that set the amount of work are
# tiny: sample_size <= 20, replicates <= 4, at most 3 grid points per
# axis and m <= 50.
_VALID = {
    "sample_size": st.sampled_from([2, 3, 4, 6, 10, 20]),
    "replicates": st.integers(2, 4),
    "seed": st.integers(-2 ** 70, 2 ** 70),
    "algorithms": st.lists(st.sampled_from(["sequential", "greedy"]),
                           max_size=2, unique=True),
    "n_min": st.integers(0, 3),
    "n_max": st.integers(0, 9),
    "out_dir": st.sampled_from(["OUT", "FILE", "FILE/sub"]),
    "truth_known": st.booleans(),
    "landscape_family": st.sampled_from(
        ["sine_singular", "linear_regular", "bogus"]),
    "landscape_truth": st.lists(_REALS, min_size=2, max_size=2),
    "grid_axis1": _GRID,
    "grid_axis2": _GRID,
    "evt_m_values": st.lists(st.integers(1, 50), max_size=3),
    "evt_nu_values": st.lists(st.integers(1, 3), max_size=3),
}
# Shapes that the table's bounds do not describe: unknown names, lists
# of the wrong length, non-finite reals, and grids over MAX_GRID_CELLS.
_SHAPES = {
    "algorithms": [["bogus"], [1]],
    "landscape_truth": [[0.0], [math.inf, 0.9], [math.nan, 0.0],
                        [0.0, 0.9, 1.0]],
    "grid_axis1": [[0.0, 1.0], [0.0, 1.0, 2, 3], [math.inf, 1.0, 2]],
    "grid_axis2": [[0.0, 1.0, 2 ** 19 + 1]],
}
_FIELD_VALUES = {name: _mixed(valid, _invalid(name) + _SHAPES.get(name, []))
                 for name, valid in _VALID.items()}
# Every field that sets the amount of work is always present, so that
# its tiny valid values apply; the rest may be missing.
_ALWAYS = ("sample_size", "replicates", "grid_axis1", "grid_axis2",
           "evt_m_values", "evt_nu_values")


@st.composite
def _configs(draw):
    # The oracle suite always simulates 20,000 chi-squared maxima of
    # m = 1000 (about 2 s), so it is drawn less often.
    command = draw(st.sampled_from(
        ["simulate", "sweep", "landscape", "evt-table"] * 3
        + ["oracle-suite"]))
    optional = sorted(set(_VALID) - set(_ALWAYS)) + ["bogus_key"]
    names = list(_ALWAYS) + sorted(draw(st.sets(st.sampled_from(optional))))
    raw = {name: draw(_FIELD_VALUES.get(name, st.just(1))) for name in names}
    raw["experiment"] = draw(_mixed(st.just(_EXPERIMENTS[command]),
                                    ["evt_table", "bogus", None]))
    return command, raw


class TestConfigFuzz:
    @given(_configs())
    @example(("simulate", {"experiment": "simulate", "sample_size": 4,
                           "replicates": 2, "out_dir": "FILE"}))
    @example(("simulate", {"experiment": "simulate", "sample_size": 4,
                           "replicates": 2, "out_dir": "FILE/sub"}))
    @example(("landscape", {"experiment": "landscape", "sample_size": 4,
                            "replicates": 2,
                            "landscape_family": "sine_singular",
                            "landscape_truth": [1e308, 1e308],
                            "grid_axis1": [0.0, 1.0, 2],
                            "grid_axis2": [0.3, 1.0, 2]}))
    @example(("landscape", {"experiment": "landscape", "sample_size": 4,
                            "replicates": 2,
                            "landscape_family": "linear_regular",
                            "landscape_truth": [1e308, 1e308],
                            "grid_axis1": [0.0, 1.0, 2],
                            "grid_axis2": [0.3, 1.0, 2]}))
    @example(("landscape", {"experiment": "landscape", "sample_size": 4,
                            "replicates": 2,
                            "grid_axis1": [-1.7e308, 1.7e308, 2],
                            "grid_axis2": [-1.7e308, 1.7e308, 2]}))
    @example(("landscape", {"experiment": "landscape", "sample_size": 4,
                            "replicates": 2,
                            "grid_axis1": [0.0, 1.0, 1025],
                            "grid_axis2": [0.3, 1.0, 1025]}))
    @settings(max_examples=100, deadline=None)
    def test_main_ends_with_an_exit_code(self, case):
        command, raw = case
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "FILE").write_text("")
            places = {"OUT": tmp / "out", "FILE": tmp / "FILE",
                      "FILE/sub": tmp / "FILE" / "sub"}
            out = raw.get("out_dir", "OUT")
            raw = dict(raw, out_dir=str(places[out])
                       if isinstance(out, str) and out in places else out)
            path = tmp / "config.json"
            path.write_text(json.dumps(raw))
            code = main([command, "--config", str(path)])
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_NUMERICAL, EXIT_ORACLE)
