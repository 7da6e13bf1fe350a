"""Command-line surface: config handling, CSV output, determinism, and
exit codes."""

import dataclasses
import json
import math
import tempfile
import warnings
from pathlib import Path

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

    # Each of these once ended in a Python traceback (or, for the bare
    # string, in a complaint about its characters).
    @pytest.mark.parametrize("command, experiment, field, value", [
        ("sweep", "neutrino_sweep", "sample_size", "100"),
        ("sweep", "neutrino_sweep", "replicates", 2.5),
        ("landscape", "landscape", "grid_axis1", [-1.5, 1.5]),
        ("evt-table", "evt_table", "evt_m_values", [0]),
        ("sweep", "neutrino_sweep", "algorithms", "greedy"),
        ("landscape", "landscape", "landscape_truth", [10 ** 400, 0.9]),
    ], ids=["sample_size_string", "replicates_float", "grid_axis_short",
            "evt_m_zero", "algorithms_string", "landscape_truth_huge_int"])
    def test_bad_field_is_usage_error(self, tmp_path, capsys, command,
                                      experiment, field, value):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"experiment": experiment, field: value,
                                    "out_dir": str(tmp_path / "out")}))
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

    def test_n_max_out_of_range(self, tmp_path):
        config = ExperimentConfig(experiment="neutrino_sweep",
                                  sample_size=10, replicates=10, n_max=8,
                                  out_dir=str(tmp_path))
        with pytest.raises(UsageError):
            cmd_sweep(config)


class TestLandscape:
    def test_regular_argmin_near_truth(self, tmp_path):
        config = ExperimentConfig(
            experiment="landscape", sample_size=50, replicates=100,
            landscape_family="linear_regular", landscape_truth=(0.25, 0.5),
            grid_axis1=(-0.75, 1.25, 17), grid_axis2=(-0.5, 1.5, 17),
            out_dir=str(tmp_path))
        surf_path, prof_path = cmd_landscape(config)
        _, rows = _read_rows(surf_path)
        best = min(rows, key=lambda r: float(r["D"]))
        assert abs(float(best["theta1"]) - 0.25) <= 0.125 + 1e-9
        assert abs(float(best["theta2"]) - 0.5) <= 0.125 + 1e-9
        header, prof = _read_rows(prof_path)
        assert header == ["theta2", "d_profile", "D_profile"]
        assert len(prof) == 17

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

    def test_too_few_points_for_the_family(self, tmp_path):
        config = ExperimentConfig(
            experiment="landscape", sample_size=2, replicates=4,
            landscape_family="linear_regular", grid_axis1=(0.0, 1.0, 2),
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


# -- config fuzzing ----------------------------------------------------------

_EXPERIMENTS = {"simulate": "simulate", "sweep": "neutrino_sweep",
                "landscape": "landscape", "oracle-suite": "oracle_suite",
                "evt-table": "evt_table"}
_HUGE = [1e308, -1e308, 10 ** 400]      # 10 ** 400 overflows a float
_WRONG = ["10", None, True, [], {}]


def _mixed(valid, invalid):
    """``valid`` nine times in ten, else one of ``invalid``."""
    return st.integers(0, 9).flatmap(
        lambda i: st.sampled_from(invalid) if i == 9 else valid)


_REALS = st.sampled_from([0.0, 0.9, -1.5, 1e-308] + _HUGE)
_GRID = st.lists(_REALS, min_size=2, max_size=2).flatmap(
    lambda ends: _mixed(st.sampled_from([2, 3]), [0, 1, 2.5, "3"]).map(
        lambda num: ends + [num]))

# Every field that sets the amount of work is always present and tiny
# (sample_size <= 20, replicates <= 4, at most 3 grid points per axis);
# the rest may be missing, wrong, out of range or huge.
_ALWAYS = {
    "sample_size": _mixed(st.sampled_from([2, 4, 6, 10, 20]),
                          [-2, 0, 1, 3, 4.0] + _HUGE[:1] + _WRONG),
    "replicates": _mixed(st.integers(2, 4),
                         [-1, 0, 1, 2.5] + _HUGE[:1] + _WRONG),
    "grid_axis1": _mixed(_GRID, [[0.0, 1.0], "grid", [0.0, 1.0, 10 ** 400]]),
    "grid_axis2": _mixed(_GRID, [[0.0, 1.0, 2, 3], [math.inf, 1.0, 2]]),
    "evt_m_values": _mixed(st.lists(st.integers(1, 50), max_size=3),
                           [[0], [-3], [1.5], "10", [True]]),
    "evt_nu_values": _mixed(st.lists(st.integers(1, 3), max_size=3),
                            [[0], [2.0], 2]),
}
_OPTIONAL = {
    "seed": _mixed(st.integers(-2 ** 70, 2 ** 70), [1.5] + _HUGE + _WRONG),
    "n_min": _mixed(st.integers(0, 3), [-1, 0.5] + _HUGE + _WRONG),
    "n_max": _mixed(st.integers(0, 9), [-1, 0.5] + _HUGE + _WRONG),
    "algorithms": _mixed(
        st.lists(st.sampled_from(["sequential", "greedy"]), max_size=2,
                 unique=True),
        ["greedy", ["bogus"], [1]]),
    "truth_known": _mixed(st.booleans(), [0, "yes", None]),
    "landscape_family": st.sampled_from(
        ["sine_singular", "linear_regular", "bogus", 3]),
    "landscape_truth": _mixed(st.lists(_REALS, min_size=2, max_size=2),
                              [[0.0], [math.inf, 0.9], [math.nan, 0.0],
                               "0.9", [0.0, 0.9, 1.0]]),
    "out_dir": st.sampled_from(["OUT", "FILE", "FILE/sub", 5]),
    "bogus_key": st.just(1),
}


@st.composite
def _configs(draw):
    # The oracle suite always simulates 20,000 chi-squared maxima of
    # m = 1000 (about 2 s), so it is drawn less often.
    command = draw(st.sampled_from(
        ["simulate", "sweep", "landscape", "evt-table"] * 3
        + ["oracle-suite"]))
    raw = {name: draw(value) for name, value in _ALWAYS.items()}
    for name in draw(st.sets(st.sampled_from(sorted(_OPTIONAL)))):
        raw[name] = draw(_OPTIONAL[name])
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
    @settings(max_examples=100, deadline=None)
    def test_main_ends_with_an_exit_code(self, case):
        command, raw = case
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "FILE").write_text("")
            places = {"OUT": tmp / "out", "FILE": tmp / "FILE",
                      "FILE/sub": tmp / "FILE" / "sub"}
            out = raw.get("out_dir", "OUT")
            raw = dict(raw, out_dir=str(places[out]) if out in places
                       else out)
            path = tmp / "config.json"
            path.write_text(json.dumps(raw))
            code = main([command, "--config", str(path)])
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_NUMERICAL, EXIT_ORACLE)
