import contextlib
import json
import math
import os
import warnings
from io import StringIO

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_not_utf8_is_parse_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"y,x,z\n1,2,1\n2,\xff,3\n")
        with pytest.raises(ParseError, match="latin1.csv: not UTF-8"):
            io.load_population_csv(path)

    def test_oversized_field_is_parse_error(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("y,x,z\n1,2,1\n" + "1" * 131073 + ",2,3\n")
        with pytest.raises(ParseError, match="wide.csv:3: field larger"):
            io.load_population_csv(path)


# Characters (and words) the differential test builds CSV text from:
# every separator, line end, whitespace, quote, sign, exponent and digit
# spelling on which np.loadtxt and csv + float() might disagree.
CSV_ALPHABET = list(
    "0123456789,\n\r \t\x0b\x0c\x1c\u2028\xa0\"_.e+-#\u0661\x00"
) + ["nan", "inf"]
CSV_NOISE = st.lists(st.sampled_from(CSV_ALPHABET), max_size=12).map("".join)
CSV_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**20), 10**20).map(str),
)
CSV_ROW = st.builds(
    lambda fields, end: ",".join(fields) + end,
    st.lists(CSV_NUMBER, min_size=3, max_size=3),
    st.sampled_from(["\n", "\r\n", "\r"]),
)
CSV_HEADER = st.sampled_from(["y,x,z\n", " y , x ,z\r\n", "y,x,z\r", '"y",x,z\n', "y,x\n"])


def insert_noise(header, rows, edits):
    """A population file with noise from CSV_ALPHABET spliced in."""
    text = header + "".join(rows)
    for at, noise in edits:
        at %= len(text) + 1
        text = text[:at] + noise + text[at:]
    return text


CSV_TEXT = st.one_of(
    st.builds(
        insert_noise,
        CSV_HEADER,
        st.lists(CSV_ROW, max_size=8),
        st.lists(st.tuples(st.integers(0, 10**6), CSV_NOISE), max_size=3),
    ),
    st.builds(lambda header, noise: header + noise, CSV_HEADER, CSV_NOISE),
)


def load_outcome(load, path):
    """What a loader returns, as comparable values, or what it raises."""
    try:
        frame = load(path)
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)
    return [(np.signbit(col).tolist(), col.tolist()) for col in (frame.y, frame.x, frame.z)]


def load_by_line(path):
    """load_population_csv as defined by the line-by-line reader alone."""
    y, x, z = io._parse_by_line(path)
    return c2p.PopulationFrame(y=y, x=x, z=z)


class TestVectorizedParse:
    """The vectorized pass agrees with the line-by-line reader, its specification."""

    @given(text=CSV_TEXT)
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_line_reader(self, text, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "differential.csv"
        path.write_bytes(text.encode("utf-8"))
        fast = io._parse_vectorized(path)
        if fast is not None:
            spec = io._parse_by_line(path)
            for got, want in zip(fast, spec):
                assert got.dtype == want.dtype == np.float64
                assert np.array_equal(got, want, equal_nan=True)
                assert np.array_equal(np.signbit(got), np.signbit(want))
        assert load_outcome(io.load_population_csv, path) == load_outcome(load_by_line, path)

    @pytest.mark.parametrize(
        "name, text, vectorized",
        [
            ("crlf", "y,x,z\r\n1,2,1\r\n2,1,3\r\n3,4,2\r\n4,3,5\r\n", True),
            ("lone_cr", "y,x,z\r1,2,1\r2,1,3\r3,4,2\r4,3,5\r", True),
            ("quoted", 'y,x,z\n"1",2,1\n2,"1",3\n3,4,2\n4,3,"5"\n', False),
            ("whitespace_line", "y,x,z\n1,2,1\n \n2,1,3\n3,4,2\n4,3,5\n", False),
        ],
    )
    def test_line_ends_and_quotes(self, tmp_path, name, text, vectorized):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(text.encode("utf-8"))
        assert (io._parse_vectorized(path) is not None) == vectorized
        frame = io.load_population_csv(path)
        assert frame.y.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert frame.x.tolist() == [2.0, 1.0, 4.0, 3.0]
        assert frame.z.tolist() == [1.0, 3.0, 2.0, 5.0]

    @pytest.mark.parametrize(
        "name, text, error, message",
        [
            ("header_only", "y,x,z\n", c2p.InvalidParameter, "at least 4 units, got 0"),
            # float() does not strip ASCII separators; np.loadtxt would
            ("separator", "y,x,z\n1\x1c,2,1\n2,1,3\n3,4,2\n4,3,5\n", ParseError,
             "separator.csv:2: non-numeric value"),
            ("long_header", "y" + " " * 131073 + ",x,z\n1,2,1\n2,1,3\n3,4,2\n4,3,5\n",
             ParseError, "long_header.csv:1: field larger than field limit"),
        ],
    )
    def test_declined_files_fail_as_before(self, tmp_path, name, text, error, message):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert io._parse_vectorized(path) is None
            with pytest.raises(error, match=message):
                io.load_population_csv(path)
        assert caught == []

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_is_read_once(self, six_csv_path, six_frame):
        read_end, write_end = os.pipe()
        try:
            with open(six_csv_path, "rb") as src:
                os.write(write_end, src.read())
            os.close(write_end)
            frame = io.load_population_csv(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        assert np.array_equal(frame.y, six_frame.y)
        assert np.array_equal(frame.z, six_frame.z)

    def test_generated_population_bit_identical(self, tmp_path):
        frame = c2p.synthetic_population(5000, 3)
        path = tmp_path / "synthetic.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("y,x,z\n")
            fh.writelines(f"{y!r},{x!r},{z!r}\n" for y, x, z in zip(
                frame.y.tolist(), frame.x.tolist(), frame.z.tolist()))
        fast = io._parse_vectorized(path)
        assert fast is not None
        for got, want, orig in zip(fast, io._parse_by_line(path), (frame.y, frame.x, frame.z)):
            assert got.tobytes() == want.tobytes() == orig.tobytes()

    def test_fixture_bit_identical(self, six_csv_path):
        fast = io._parse_vectorized(six_csv_path)
        assert fast is not None
        for got, want in zip(fast, io._parse_by_line(six_csv_path)):
            assert got.tobytes() == want.tobytes()


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

    def test_not_utf8_is_parse_error(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"n": "\xff"}')
        with pytest.raises(ParseError, match="latin1.json: not UTF-8"):
            io.load_params_json(path)

    def test_deep_nesting_is_parse_error(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ParseError, match="deep.json: JSON nested too deeply"):
            io.load_params_json(path)


class TestMalformedInputFuzz:
    """Random bytes as input files: exit 0 or 1, never an exception."""

    @staticmethod
    def run_quietly(argv):
        # capsys is function-scoped, which Hypothesis rejects across examples
        out, err = StringIO(), StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return cli.main(argv)

    @given(
        data=st.one_of(
            st.binary(max_size=300),
            st.binary(max_size=300).map(lambda tail: b"y,x,z\n" + tail),
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_moments_csv(self, data, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "fuzz.csv"
        path.write_bytes(data)
        assert self.run_quietly(["moments", str(path)]) in (0, 1)

    @given(data=st.binary(max_size=300))
    @settings(max_examples=150, deadline=None)
    def test_efficiency_params(self, data, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "fuzz.json"
        path.write_bytes(data)
        argv = ["efficiency", "--params", str(path), "--n", "3", "--n1", "4"]
        assert self.run_quietly(argv) in (0, 1)


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

    def test_overflowing_power_reported_not_fatal(self, capsys):
        argv = self.BASE + ["--seed", "1", "--estimator", "t-power:5000,0,0,0"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        error = json.loads(out)["errors"]["t-power:5000.0,0.0,0.0,0.0"]
        assert error.startswith("NonFiniteEstimate")

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

    def test_rep_beyond_stream_is_data_error(self, capsys):
        argv = ["estimate", "--pop", "fixtures/sixunit.csv", "--n", "3", "--n1", "4",
                "--seed", "1"]
        code, out, _ = run_cli(argv + ["--rep", "18446744073709551614"], capsys)
        assert code == 0 and json.loads(out)["kind"] == "estimate"
        code, out, err = run_cli(argv + ["--rep", "18446744073709551615"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: replications must lie in")

    def test_reps_beyond_memory_is_data_error(self, capsys):
        argv = ["simulate", "--pop", "fixtures/sixunit.csv", "--n", "3", "--n1", "4",
                "--estimator", "sample-r", "--seed", "1", "--reps", "1000000000000000000"]
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "do not fit in memory" in err

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

    @pytest.mark.parametrize("command", ["simulate", "enumerate"])
    @pytest.mark.parametrize("budget", ["nan", "-0.5"])
    def test_skip_fraction_out_of_range_is_data_error(self, command, budget, capsys):
        argv = [command, "--pop", "fixtures/sixunit.csv", "--n", "3", "--n1", "4",
                "--estimator", "td-star:inverse", "--max-skip-fraction", budget]
        if command == "simulate":
            argv += ["--reps", "200", "--seed", "1"]
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: max_skip_fraction must lie in [0, 1]")

    def test_full_skip_fraction_accepted(self, capsys):
        argv = ["enumerate", "--pop", "fixtures/sixunit.csv", "--n", "3", "--n1", "4",
                "--estimator", "td-star:inverse", "--max-skip-fraction", "1.0"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert json.loads(out)["pairs_skipped"] == 5

    @pytest.mark.parametrize("command", ["moments", "efficiency", "simulate"])
    @pytest.mark.parametrize("scale, name", [(1e200, "S2_x"), (1e-200, "mu_020")])
    def test_float64_edge_is_data_error(self, six_frame, tmp_path, command, scale,
                                        name, capsys):
        path = tmp_path / "edge.csv"
        columns = (six_frame.y, six_frame.x * scale, six_frame.z)
        rows = zip(*(column.tolist() for column in columns))
        path.write_text("y,x,z\n" + "".join(f"{y!r},{x!r},{z!r}\n" for y, x, z in rows))
        argv = {
            "moments": ["moments", str(path)],
            "efficiency": ["efficiency", "--pop", str(path), "--n", "3", "--n1", "4"],
            "simulate": ["simulate", "--pop", str(path), "--n", "3", "--n1", "4",
                         "--estimator", "sample-r", "--reps", "10", "--seed", "1"],
        }[command]
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {name}")

    @pytest.mark.parametrize(
        "scale, name",
        [(1e100, "sample d_040"), (1e-100, "sample d_040"), (1e200, "sample s2_x_first")],
    )
    def test_float64_edge_estimate_is_data_error(self, six_frame, tmp_path, scale,
                                                 name, capsys):
        path = tmp_path / "edge.csv"
        columns = (six_frame.y, six_frame.x * scale, six_frame.z)
        rows = zip(*(column.tolist() for column in columns))
        path.write_text("y,x,z\n" + "".join(f"{y!r},{x!r},{z!r}\n" for y, x, z in rows))
        argv = ["estimate", "--pop", str(path), "--n", "3", "--n1", "4", "--seed", "1"]
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {name} is not finite")

    def test_design_size_beyond_float64_is_data_error(self, capsys):
        argv = ["efficiency", "--params", "fixtures/murthy67.json",
                "--delta310-from-delta300", "--n", str(10**400), "--n1", str(10**401)]
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: n has 401 digits, beyond float64's range")


REPO_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# Command lines whose stdout, run from the repository root, is frozen in
# tests/golden/<name>.json.
GOLDEN_RUNS = {
    "moments": ["moments", "fixtures/sixunit.csv"],
    "efficiency_pop": ["efficiency", "--pop", "fixtures/sixunit.csv", "--n", "3", "--n1", "4"],
    "efficiency_params": [
        "efficiency", "--params", "fixtures/murthy67.json", "--delta310-from-delta300",
    ],
    "estimate": ["estimate", "--pop", "fixtures/sixunit.csv", "--n", "3", "--n1", "4", "--seed", "1"],
    "simulate": [
        "simulate", "--pop", "fixtures/sixunit.csv", "--n", "3", "--n1", "4",
        "--estimator", "td-star:linear", "--reps", "500", "--seed", "5",
    ],
    "enumerate": [
        "enumerate", "--pop", "fixtures/sixunit.csv", "--n", "3", "--n1", "4",
        "--estimator", "td-star:linear",
    ],
}


class TestGoldenReports:
    """CLI reports on fixtures/ stay byte-identical."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_report_is_byte_identical(self, name, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        code, out, err = run_cli(GOLDEN_RUNS[name], capsys)
        assert code == 0, err
        with open(os.path.join(GOLDEN_DIR, f"{name}.json"), encoding="utf-8", newline="") as fh:
            assert out == fh.read()
