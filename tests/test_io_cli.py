import json
import math

import numpy as np
import pytest

import corr2phase as c2p
from corr2phase import cli, io
from corr2phase.errors import HeaderMismatch, ParseError

# Spot values from the exact-rational oracle for the six-unit
# population, used to check CLI output after its 12-digit rounding.
ORACLE_SPOTS = {
    "rho_yx": 0.7050239879106326,
    "mean_y": 4.0,
    "S2_x": 6.8,
    "d_030": 0.44479485022066195,
    "d_130": 0.8709119850660755,
}
ENUM_MEAN_R = 0.7777180587355177


def run_cli(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPopulationCsv:
    def test_load_fixture(self, six_csv_path, six_frame):
        frame = io.load_population_csv(six_csv_path)
        assert np.array_equal(frame.y, six_frame.y)
        assert np.array_equal(frame.x, six_frame.x)
        assert np.array_equal(frame.z, six_frame.z)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("y,x,z\n1,2,1\n\n2,1,3\n3,4,2\n4,3,5\n\n")
        assert io.load_population_csv(path).N == 4

    def test_header_spacing_tolerated(self, tmp_path):
        path = tmp_path / "spaced.csv"
        path.write_text("y, x, z\n1,2,1\n2,1,3\n3,4,2\n4,3,5\n")
        assert io.load_population_csv(path).N == 4

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(HeaderMismatch, match=":1:"):
            io.load_population_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(HeaderMismatch, match="empty"):
            io.load_population_csv(path)

    def test_short_row_reports_line(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("y,x,z\n1,2,1\n3,4\n")
        with pytest.raises(ParseError, match=":3:"):
            io.load_population_csv(path)

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("y,x,z\n1,2,1\n2,oops,3\n")
        with pytest.raises(ParseError, match=":3:"):
            io.load_population_csv(path)


class TestParamsJson:
    def test_load_fixture(self, published_params):
        assert published_params["N"] == 80
        assert published_params["rho_yx"] == 0.9136

    def test_round_trip(self, tmp_path, published_params):
        path = tmp_path / "params.json"
        io.save_params_json(published_params, path)
        assert io.load_params_json(path) == published_params

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "n": 10,\n  oops\n}\n')
        with pytest.raises(ParseError, match=":3:"):
            io.load_params_json(path)

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ParseError, match="object"):
            io.load_params_json(path)


class TestRenderReport:
    def test_schema_tag_and_sorted_keys(self):
        text = io.render_report({"zeta": 1, "alpha": 2})
        doc = json.loads(text)
        assert doc["schema"] == 1
        assert list(doc) == sorted(doc)

    def test_deterministic_for_equal_content(self):
        assert io.render_report({"a": 1.5, "b": [2.5, {"c": 3.5}]}) == io.render_report(
            {"b": [2.5, {"c": 3.5}], "a": 1.5}
        )

    def test_twelve_significant_digits(self):
        text = io.render_report({"value": 0.12345678901234567})
        assert json.loads(text)["value"] == 0.123456789012

    def test_short_floats_unchanged(self):
        assert json.loads(io.render_report({"value": 0.25}))["value"] == 0.25

    def test_nonfinite_becomes_null(self):
        doc = json.loads(
            io.render_report({"a": math.nan, "b": math.inf, "c": [-math.inf]})
        )
        assert doc["a"] is None and doc["b"] is None and doc["c"] == [None]

    def test_bools_not_treated_as_numbers(self):
        doc = json.loads(io.render_report({"flag": True, "n": 7}))
        assert doc["flag"] is True
        assert doc["n"] == 7


class TestMomentsCommand:
    def test_oracle_spot_values(self, six_csv_path, capsys):
        code, out, _ = run_cli(["moments", str(six_csv_path)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "moments"
        for key, expect in ORACLE_SPOTS.items():
            assert doc[key] == pytest.approx(expect, rel=1e-11), key

    def test_out_file_matches_stdout(self, six_csv_path, tmp_path, capsys):
        code, out, _ = run_cli(["moments", str(six_csv_path)], capsys)
        target = tmp_path / "moments.json"
        code2, _, _ = run_cli(
            ["moments", str(six_csv_path), "--out", str(target)], capsys
        )
        assert code == code2 == 0
        assert target.read_text() == out

    def test_missing_file_is_data_error(self, capsys):
        code, _, err = run_cli(["moments", "no-such-file.csv"], capsys)
        assert code == 1
        assert "error:" in err


class TestEfficiencyCommand:
    def test_published_and_computed_side_by_side(self, capsys):
        code, out, _ = run_cli(
            [
                "efficiency",
                "--params",
                "fixtures/murthy67.json",
                "--delta310-from-delta300",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["published"] == {"r": 100, "hd": 129.147, "td": 305.441}
        assert doc["pre_td"] == pytest.approx(100.31970061904133, rel=1e-11)
        assert doc["pre_hd"] == pytest.approx(100.19289136970629, rel=1e-11)
        notes = "\n".join(doc["notes"])
        assert "not reproducible" in notes
        assert "d_310 not supplied" in notes

    def test_sizes_default_from_params_file(self, capsys):
        code, out, _ = run_cli(
            [
                "efficiency",
                "--params",
                "fixtures/murthy67.json",
                "--delta310-from-delta300",
            ],
            capsys,
        )
        doc = json.loads(out)
        assert doc["inputs"]["n"] == 10
        assert doc["inputs"]["n1"] == 25

    def test_missing_substitution_flag_fails(self, capsys):
        code, _, err = run_cli(
            ["efficiency", "--params", "fixtures/murthy67.json"], capsys
        )
        assert code == 1
        assert "d_310" in err

    def test_population_source(self, six_csv_path, capsys):
        code, out, _ = run_cli(
            ["efficiency", "--pop", str(six_csv_path), "--n", "3", "--n1", "4"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["pre_td"] >= doc["pre_hd"] >= 100.0
        assert "published" not in doc

    def test_substitution_flag_requires_params(self, six_csv_path, capsys):
        code, _, _ = run_cli(
            [
                "efficiency",
                "--pop",
                str(six_csv_path),
                "--n",
                "3",
                "--n1",
                "4",
                "--delta310-from-delta300",
            ],
            capsys,
        )
        assert code == 2


class TestEstimateCommand:
    BASE = ["estimate", "--pop", "fixtures/sixunit.csv", "--n", "3", "--n1", "4"]

    def test_default_parameter_free_kinds(self, capsys):
        code, out, _ = run_cli(self.BASE + ["--seed", "1"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert set(doc["estimates"]) == set(c2p.PARAMETER_FREE_KINDS)
        assert doc["errors"] == {}
        assert doc["clamp"] is False

    def test_failed_estimators_reported_not_fatal(self, capsys):
        # Seed 4 breaks the inverse adjustment's denominator.
        code, out, _ = run_cli(self.BASE + ["--seed", "4"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert "td-star:inverse" in doc["errors"]
        assert "SingularDenominator" in doc["errors"]["td-star:inverse"]
        assert "td-star:inverse" not in doc["estimates"]

    def test_clamp_records_labels(self, capsys):
        code, out, _ = run_cli(self.BASE + ["--seed", "0", "--clamp"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert "chain-ratio" in doc["clamped"]
        assert doc["estimates"]["chain-ratio"] == 1.0
        for value in doc["estimates"].values():
            assert abs(value) <= 1.0

    def test_explicit_estimators_only(self, capsys):
        code, out, _ = run_cli(
            self.BASE
            + ["--seed", "1", "--estimator", "sample-r", "--estimator", "t-linear:0,0,0,0"],
            capsys,
        )
        doc = json.loads(out)
        assert set(doc["estimates"]) == {"sample-r", "t-linear:0.0,0.0,0.0,0.0"}
        values = list(doc["estimates"].values())
        assert values[0] == values[1]

    def test_statistics_block_present(self, capsys):
        code, out, _ = run_cli(self.BASE + ["--seed", "1"], capsys)
        doc = json.loads(out)
        stats = doc["statistics"]
        assert stats["n"] == 3 and stats["n1"] == 4
        for key in ("r", "u", "v", "w", "a"):
            assert math.isfinite(stats[key])

    def test_infeasible_design_is_data_error(self, capsys):
        code, _, err = run_cli(
            ["estimate", "--pop", "fixtures/sixunit.csv", "--n", "3", "--n1", "7", "--seed", "1"],
            capsys,
        )
        assert code == 1
        assert "error:" in err


class TestSimulateCommand:
    BASE = [
        "simulate",
        "--pop",
        "fixtures/sixunit.csv",
        "--n",
        "3",
        "--n1",
        "4",
        "--estimator",
        "sample-r",
        "--reps",
        "500",
        "--seed",
        "5",
    ]

    def test_repeat_runs_byte_identical(self, capsys):
        code1, out1, _ = run_cli(self.BASE, capsys)
        code2, out2, _ = run_cli(self.BASE, capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_worker_count_invisible_in_output(self, capsys):
        _, out1, _ = run_cli(self.BASE, capsys)
        _, out8, _ = run_cli(self.BASE + ["--workers", "8"], capsys)
        assert out1 == out8

    def test_report_contents(self, capsys):
        code, out, _ = run_cli(self.BASE, capsys)
        doc = json.loads(out)
        assert doc["kind"] == "simulate"
        assert doc["design"] == {"N": 6, "n1": 4, "n": 3}
        assert doc["reps_requested"] == 500
        assert doc["reps_used"] + doc["reps_skipped"] == 500
        assert math.isfinite(doc["mean_estimate"])
        assert doc["analytic_variance"] > 0.0

    def test_missing_estimator_is_usage_error(self, capsys):
        code, _, _ = run_cli(self.BASE[:-4], capsys)
        assert code == 2

    def test_unknown_estimator_is_usage_error(self, capsys):
        argv = list(self.BASE)
        argv[argv.index("sample-r")] = "bogus"
        code, _, _ = run_cli(argv, capsys)
        assert code == 2


class TestEnumerateCommand:
    def test_frozen_mean(self, capsys):
        code, out, _ = run_cli(
            [
                "enumerate",
                "--pop",
                "fixtures/sixunit.csv",
                "--n",
                "3",
                "--n1",
                "4",
                "--estimator",
                "sample-r",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["pairs_total"] == 60
        assert doc["mean_estimate"] == pytest.approx(ENUM_MEAN_R, rel=1e-11)

    def test_cap_is_data_error(self, capsys):
        code, _, err = run_cli(
            [
                "enumerate",
                "--pop",
                "fixtures/sixunit.csv",
                "--n",
                "3",
                "--n1",
                "4",
                "--estimator",
                "sample-r",
                "--cap",
                "10",
            ],
            capsys,
        )
        assert code == 1
        assert "budget" in err


class TestTopLevel:
    def test_unknown_command_is_usage_error(self, capsys):
        code, _, _ = run_cli(["nonsense"], capsys)
        assert code == 2

    @pytest.mark.parametrize("command", ["estimate", "simulate"])
    @pytest.mark.parametrize("seed", ["-5", "18446744073709551619"])
    def test_seed_outside_64_bits_is_data_error(self, command, seed, capsys):
        argv = [command, "--pop", "fixtures/sixunit.csv", "--n", "3", "--n1", "4"]
        if command == "simulate":
            argv += ["--estimator", "sample-r", "--reps", "10"]
        code, out, err = run_cli(argv + ["--seed", seed], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: seed must lie in [0, 2**64)")

    def test_overflowing_aggregate_is_data_error(self, tmp_path, capsys):
        frame = c2p.random_population(16, seed=3)
        path = tmp_path / "pop.csv"
        table = np.column_stack((frame.y, frame.x, frame.z)).tolist()
        path.write_text("y,x,z\n" + "".join(f"{y!r},{x!r},{z!r}\n" for y, x, z in table))
        argv = ["enumerate", "--pop", str(path), "--n1", "8", "--n", "4",
                "--estimator", "td-star:power"]
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "overflows" in err
