import contextlib
import copy
import gzip
import json
import math
import os
import re
import struct
import subprocess
import sys
import urllib.request
import warnings
from fractions import Fraction
from io import StringIO
from pathlib import Path
from unittest import mock

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
# spelling on which the block kernel and csv + float() might disagree.
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


def vectorized(path):
    """What the block kernel makes of a file: its columns, or None."""
    with open(path, "rb") as fh:
        return io._parse_vectorized(fh)


class TestVectorizedParse:
    """The vectorized pass agrees with the line-by-line reader, its specification."""

    @given(text=CSV_TEXT, suffix=st.sampled_from([".csv", ".txt", "", ".gz", ".BZ2"]))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_line_reader(self, text, suffix, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / f"differential{suffix}"
        path.write_bytes(text.encode("utf-8"))
        fast = vectorized(path)
        if fast is not None:
            spec = io._parse_by_line(path)
            for got, want in zip(fast, spec):
                assert got.dtype == want.dtype == np.float64
                assert np.array_equal(got, want, equal_nan=True)
                assert np.array_equal(np.signbit(got), np.signbit(want))
        with mock.patch.object(io, "_SMALL_FILE", 0):  # so that small files take the kernel
            assert load_outcome(io.load_population_csv, path) == load_outcome(load_by_line, path)

    @pytest.mark.parametrize(
        "name, text, kernel",
        [
            ("crlf", "y,x,z\r\n1,2,1\r\n2,1,3\r\n3,4,2\r\n4,3,5\r\n", True),
            ("lone_cr", "y,x,z\r1,2,1\r2,1,3\r3,4,2\r4,3,5\r", True),
            ("quoted", 'y,x,z\n"1",2,1\n2,"1",3\n3,4,2\n4,3,"5"\n', False),
            ("whitespace_line", "y,x,z\n1,2,1\n \n2,1,3\n3,4,2\n4,3,5\n", False),
        ],
    )
    def test_line_ends_and_quotes(self, tmp_path, name, text, kernel):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(text.encode("utf-8"))
        assert (vectorized(path) is not None) == kernel
        frame = io.load_population_csv(path)
        assert frame.y.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert frame.x.tolist() == [2.0, 1.0, 4.0, 3.0]
        assert frame.z.tolist() == [1.0, 3.0, 2.0, 5.0]

    @pytest.mark.parametrize(
        "name, text, error, message",
        [
            ("header_only", "y,x,z\n", c2p.InvalidParameter, "at least 4 units, got 0"),
            # float() does not strip ASCII separators
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
            assert vectorized(path) is None
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

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_takes_the_kernel(self, tmp_path, monkeypatch):
        frame = c2p.synthetic_population(300, 4)
        text = "y,x,z\n" + "".join(f"{y!r},{x!r},{z!r}\n" for y, x, z in zip(
            frame.y.tolist(), frame.x.tolist(), frame.z.tolist()))
        assert len(text) > io._SMALL_FILE
        monkeypatch.setattr(io, "_parse_by_line", None)  # only the kernel can read it
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, text.encode())
            os.close(write_end)
            got = io.load_population_csv(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        for col, want in zip((got.y, got.x, got.z), (frame.y, frame.x, frame.z)):
            assert col.tobytes() == want.tobytes()

    def test_small_files_go_to_the_line_reader(self, six_csv_path, six_frame, monkeypatch):
        assert os.path.getsize(six_csv_path) < io._SMALL_FILE
        monkeypatch.setattr(io, "_parse_vectorized", None)
        assert io.load_population_csv(six_csv_path).x.tobytes() == six_frame.x.tobytes()

    @pytest.mark.parametrize("name", ["pop.gz", "pop.GZ", "pop.csv.bz2", "pop.xz", "pop.lzma"])
    def test_compressed_names_go_to_the_line_reader(self, six_csv_path, tmp_path, name):
        # a decompressing reader would take this file for compressed; it holds plain text
        path = tmp_path / name
        path.write_bytes(Path(six_csv_path).read_bytes())
        assert load_outcome(io.load_population_csv, path) == load_outcome(load_by_line, path)
        assert load_outcome(io.load_population_csv, path) == load_outcome(
            io.load_population_csv, six_csv_path)

    def test_gzip_file_is_not_utf8(self, six_csv_path, tmp_path):
        path = tmp_path / "pop.csv.gz"
        path.write_bytes(gzip.compress(Path(six_csv_path).read_bytes()))
        with pytest.raises(ParseError, match="pop.csv.gz: not UTF-8 text"):
            io.load_population_csv(path)

    def test_url_like_name_is_read_locally(self, six_csv_path, tmp_path, monkeypatch):
        def no_network(*args, **kwargs):
            raise AssertionError("the population file was taken for a URL")

        monkeypatch.setattr(urllib.request, "urlopen", no_network)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "http:" / "host").mkdir(parents=True)
        (tmp_path / "http:" / "host" / "pop.csv").write_bytes(Path(six_csv_path).read_bytes())
        # where numpy caches http://host/pop.csv: read only if the name is a URL
        (tmp_path / "host").mkdir()
        (tmp_path / "host" / "pop.csv").write_text("y,x,z\n9,9,9\n8,8,8\n7,7,7\n6,6,6\n")
        name = "http://host/pop.csv"
        fast = vectorized(name)
        assert fast is not None
        for got, want in zip(fast, io._parse_by_line(name)):
            assert got.tobytes() == want.tobytes()
        assert load_outcome(io.load_population_csv, name) == load_outcome(
            io.load_population_csv, six_csv_path)

    def test_dot_dot_after_a_link_names_the_file_opened(self, six_csv_path, tmp_path,
                                                         monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "data" / "deep").mkdir(parents=True)
        (tmp_path / "data" / "pop.csv").write_bytes(Path(six_csv_path).read_bytes())
        os.symlink(tmp_path / "data" / "deep", tmp_path / "link")
        # what os.path.abspath("link/../pop.csv") names
        (tmp_path / "pop.csv").write_text("y,x,z\n9,9,9\n8,8,8\n7,7,7\n6,6,6\n")
        name = "link/../pop.csv"
        fast = vectorized(name)
        assert fast is not None
        for got, want in zip(fast, io._parse_by_line(name)):
            assert got.tobytes() == want.tobytes()
        assert load_outcome(io.load_population_csv, name) == load_outcome(
            io.load_population_csv, six_csv_path)

    def test_generated_population_bit_identical(self, tmp_path):
        frame = c2p.synthetic_population(5000, 3)
        path = tmp_path / "synthetic.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("y,x,z\n")
            fh.writelines(f"{y!r},{x!r},{z!r}\n" for y, x, z in zip(
                frame.y.tolist(), frame.x.tolist(), frame.z.tolist()))
        fast = vectorized(path)
        assert fast is not None
        for got, want, orig in zip(fast, io._parse_by_line(path), (frame.y, frame.x, frame.z)):
            assert got.tobytes() == want.tobytes() == orig.tobytes()

    def test_fixture_bit_identical(self, six_csv_path):
        fast = vectorized(six_csv_path)
        assert fast is not None
        for got, want in zip(fast, io._parse_by_line(six_csv_path)):
            assert got.tobytes() == want.tobytes()


def float_from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# Bit patterns at the ends of the float64 range: zero, the smallest and
# largest subnormals, the smallest normal, the largest finite, infinity.
FLOAT_EDGES = [0, 1, 2**52 - 1, 2**52, 0x7FEFFFFFFFFFFFFF, 0x7FF0000000000000]
FLOAT_TEXT = st.builds(
    lambda bits, negative, spell: spell(float_from_bits(bits | negative << 63)),
    st.integers(0, 2**63 - 1) | st.sampled_from(FLOAT_EDGES),
    st.integers(0, 1),
    st.sampled_from([repr, "{:.17g}".format, "{:.18e}".format]),
)


@st.composite
def digit_text(draw):
    """1 to 25 digits, the dot anywhere or absent, a sign and an exponent maybe."""
    zeros = draw(st.sampled_from(["", "0", "000"]))
    digits = zeros + draw(st.text("0123456789", min_size=1, max_size=25 - len(zeros)))
    point = draw(st.none() | st.integers(0, len(digits)))
    if point is not None:
        digits = digits[:point] + "." + digits[point:]
    exp = draw(st.none() | st.integers(-30, 30))
    if exp is not None:
        spell = draw(st.sampled_from(["{}", "{:+d}", "{:03d}"]))
        digits += draw(st.sampled_from("eE")) + spell.format(exp)
    return draw(st.sampled_from(["", "-", "+"])) + digits


# float64 ties: halves above 2**52, and integers from 2**53, the odd ones ties
TIE_TEXT = st.one_of(
    st.integers(0, 2**52 - 1).map(lambda j: f"{2**52 + j}.5"),
    st.builds("{}{}".format, st.integers(2**53, 10**19), st.sampled_from(["", ".0"])),
)
PAD = st.sampled_from(["", "", "", " ", "\t", "  "])
POPULATION_ROW = st.builds(
    lambda fields, pads, end, blank: ",".join(
        left + field + right for field, (left, right) in zip(fields, pads)) + end + blank,
    st.lists(FLOAT_TEXT | digit_text() | TIE_TEXT, min_size=3, max_size=3),
    st.lists(st.tuples(PAD, PAD), min_size=3, max_size=3),
    st.sampled_from(["\n", "\r\n", "\r"]),
    st.sampled_from(["", "", "", "\n", "\r\n", "\r", "\n\n"]),
)
POPULATION_TEXT = st.builds(
    lambda rows, open_end: "y,x,z\n" + "".join(rows).rstrip("\r\n" if open_end else ""),
    st.lists(POPULATION_ROW, min_size=1, max_size=30),
    st.booleans(),
)


class TestDecimalKernel:
    """The block kernel reads every number float() reads to the same bits."""

    @given(text=POPULATION_TEXT, block=st.integers(1, 400))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_line_reader_bit_for_bit(self, text, block, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "decimal.csv"
        path.write_bytes(text.encode("ascii"))
        spec = [col.tobytes() for col in io._parse_by_line(path)]
        fast = vectorized(path)
        with mock.patch.object(io, "_WIDE_POW10", None):
            narrow = vectorized(path)
        with mock.patch.object(io, "_BLOCK", block):
            small = vectorized(path)
        # a block longer than every line holds a line end
        if block > max(map(len, re.split("\r\n|\r|\n", text))):
            assert small is not None
        for got in [fast, narrow] if small is None else [fast, narrow, small]:
            assert got is not None
            assert all(col.dtype == np.float64 and col.flags.c_contiguous for col in got)
            assert [col.tobytes() for col in got] == spec
        with mock.patch.object(io, "_SMALL_FILE", 0):
            assert load_outcome(io.load_population_csv, path) == load_outcome(load_by_line, path)

    @pytest.mark.parametrize("line", [
        ",1,2,3", "1,2,3,", "1,,3", " ,2,3", "1-2,3,4", "1e5e5,2,3", "1.2.3,2,3",
        "+-1,2,3", "1e+-5,2,3", "1e5+,2,3", "- 1,2,3", "1e5 5,2,3", "0x10,2,3", "1,2,3\x00",
        "1 ,2 , 3", "\t-1.5e-3\t,+2.,.5", "\u0661,2,3", "1_000,2,3", "-0,-0.0,+0e9",
        "inf,2,3", "1e400,1e-400,2", "00000000000000000000000001.5,2,3",
    ])
    def test_odd_fields_match_the_line_reader(self, tmp_path, line):
        path = tmp_path / "odd.csv"
        path.write_bytes(("y,x,z\n" + line + "\n1,2,1\n2,1,3\n3,4,2\n4,3,5\n").encode())
        fast = vectorized(path)
        if fast is not None:
            assert [col.tobytes() for col in fast] == [
                col.tobytes() for col in io._parse_by_line(path)]
        with mock.patch.object(io, "_SMALL_FILE", 0):
            assert load_outcome(io.load_population_csv, path) == load_outcome(load_by_line, path)

    @pytest.mark.parametrize("scale, power", [(-41, 15), (-84, 28), (-87, 29), (100, -28)])
    def test_near_ties_round_once(self, tmp_path, scale, power):
        # Decimals m * 10**-power (m of 19 digits) within half a 64-bit unit
        # of a float64 tie (2**53 + 2j + 1) * 2**scale: a long double rounds
        # them onto the tie, float() to the double on their own side. 10**28
        # and 10**29 are beyond the long double's exact powers.
        texts = []
        for j in range(90):
            tie = (2**53 + 2 * j + 1) * Fraction(2) ** scale
            m = round(tie * Fraction(10) ** power)
            assert m != tie * Fraction(10) ** power and len(str(m)) == 19
            texts.append(f"{m}e{-power}")
        path = tmp_path / "ties.csv"
        path.write_text("y,x,z\n" + "".join(
            ",".join(texts[i:i + 3]) + "\n" for i in range(0, len(texts), 3)))
        want = np.array([float(t) for t in texts]).reshape(-1, 3).T
        for got in (vectorized(path), io._parse_by_line(path)):
            assert [col.tobytes() for col in got] == [col.tobytes() for col in want]

    @pytest.mark.parametrize("blocks", [1, 3, 250])
    def test_lines_across_blocks(self, tmp_path, monkeypatch, blocks):
        # blocks cut inside fields, numbers and CRLF pairs read as one file
        frame = c2p.synthetic_population(400, 2)
        rows = [f"{y!r},{x!r},{z!r}" for y, x, z in zip(
            frame.y.tolist(), frame.x.tolist(), frame.z.tolist())]
        path = tmp_path / "blocks.csv"
        path.write_bytes(("y,x,z\r\n" + "\r\n".join(rows)).encode())
        monkeypatch.setattr(io, "_BLOCK", path.stat().st_size // blocks + 3)
        got = vectorized(path)
        assert [col.tobytes() for col in got] == [
            col.tobytes() for col in (frame.y, frame.x, frame.z)]

    def test_line_longer_than_a_block_goes_to_the_line_reader(self, tmp_path, monkeypatch):
        path = tmp_path / "long.csv"
        path.write_text("y,x,z\n1,2,3\n" + " " * 64 + "4,5,6\n2,1,1\n5,1,2\n")
        monkeypatch.setattr(io, "_BLOCK", 48)
        assert vectorized(path) is None
        assert io.load_population_csv(path).x.tolist() == [2.0, 5.0, 1.0, 1.0]


class TestParamsJson:
    def test_load_fixture(self, published_params):
        assert published_params["N"] == 80
        assert published_params["rho_yx"] == 0.9136

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

    def test_integer_beyond_conversion_limit_is_parse_error(self, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"N": ' + "1" * 5000 + "}")
        with pytest.raises(ParseError, match="long.json: an integer has too many digits"):
            io.load_params_json(path)


def _run_argv(argv):
    """cli.main on argv with captured output: (exit code, stdout, stderr).

    capsys is function-scoped, which Hypothesis rejects across examples.
    """
    out, err = StringIO(), StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestMalformedInputFuzz:
    """Random bytes as input files: exit 0 or 1, never an exception."""

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
        assert _run_argv(["moments", str(path)])[0] in (0, 1)

    @given(data=st.binary(max_size=300))
    @settings(max_examples=150, deadline=None)
    def test_efficiency_params(self, data, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "fuzz.json"
        path.write_bytes(data)
        argv = ["efficiency", "--params", str(path), "--n", "3", "--n1", "4"]
        assert _run_argv(argv)[0] in (0, 1)


def _unit_column(size):
    return st.lists(st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 3.0]),
                    min_size=size, max_size=size)


def _centered(values):
    mean = sum(values) / len(values)
    return [v - mean for v in values]


def _scaled(shape, exponents):
    scale = st.integers(-exponents, exponents).map(lambda k: 10.0**k)
    return st.builds(lambda values, c: [v * c for v in values], shape, scale)


def _bad_column(size):
    """Tied, zero-mean, constant or float64-edge values, scaled by 10**k.

    Two draws in three are tied or zero-mean values at a moderate scale,
    so that a fair share of frames get a moment table.
    """
    plain = st.one_of(_unit_column(size), _unit_column(size).map(_centered))
    edge = st.one_of(
        plain,
        st.sampled_from([-1.0, 0.0, 2.0]).map(lambda v: [v] * size),
        st.lists(st.sampled_from([1.7e308, -1.7e308, 1.0e308, 1.0]),
                 min_size=size, max_size=size),
    )
    return st.one_of(_scaled(plain, 50), _scaled(plain, 50), _scaled(edge, 300))


BAD_POPULATION = st.integers(5, 7).flatmap(
    lambda size: st.tuples(_bad_column(size), _bad_column(size), _bad_column(size))
)


class TestSameFailureEverywhere:
    """Every command on a bad population: exit 0 or 1, and one error for one table."""

    DESIGN = ["--n", "3", "--n1", "4"]

    @given(columns=BAD_POPULATION)
    @settings(max_examples=120, deadline=None)
    def test_commands_agree(self, columns, tmp_path_factory):
        path = str(tmp_path_factory.getbasetemp() / "bad.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("y,x,z\n")
            fh.writelines(f"{y!r},{x!r},{z!r}\n" for y, x, z in zip(*columns))
        argvs = {
            "moments": ["moments", path],
            "efficiency": ["efficiency", "--pop", path, *self.DESIGN],
            "estimate": ["estimate", "--pop", path, *self.DESIGN, "--seed", "3"],
            "simulate": ["simulate", "--pop", path, *self.DESIGN,
                         "--estimator", "td-star:linear", "--reps", "20", "--seed", "3"],
            "enumerate": ["enumerate", "--pop", path, *self.DESIGN,
                          "--estimator", "td-star:linear"],
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                c2p.population_moments(io.load_population_csv(path))
                table_error = None
            except c2p.Corr2PhaseError as exc:
                table_error = f"error: {exc}"
            for command, argv in argvs.items():
                code, _, err = _run_argv(argv)
                assert code in (0, 1), command
                if table_error is not None:
                    assert code == 1, command
                    assert err.splitlines()[0] == table_error, command


def _assert_clean_exit(code, err):
    assert code in (0, 1, 2)
    if code == 1:
        assert err.startswith("error:"), err
    elif code == 2:
        assert err.startswith("usage:"), err


ARITY = {"gen-power": 4, "t-power": 4, "t-linear": 4, "difference": 4, "h-power": 2,
         "h-linear": 2}
ODD_CONSTANT = st.one_of(
    st.floats(-3, 3).map(repr),
    st.sampled_from(["inf", "-inf", "nan", "1e400", "-1e400", "1e308", "5e-324", "-0",
                     "", "abc", "0x10", "1_0", " 2 "]),
)
ODD_LABEL = st.one_of(
    st.sampled_from(["sample-r", "chain-ratio", "td-star:power", "td-star:product",
                     "td-star:linear", "td-star:ratio", "td-star:inverse"]),
    st.sampled_from(sorted(ARITY)).flatmap(lambda kind: st.builds(
        lambda constants: kind + ":" + ",".join(constants),
        st.lists(ODD_CONSTANT, min_size=ARITY[kind], max_size=ARITY[kind]))),
    st.builds(lambda kind, constants: kind + ":" + ",".join(constants),
              st.sampled_from(sorted(ARITY) + ["td-star", "mystery", "sample-r", ""]),
              st.lists(ODD_CONSTANT, max_size=5)),
)
SIZE = st.one_of(st.integers(-2, 14),
                 st.sampled_from(["1" + "0" * 30, "2.5", "x"])).map(str)
# half the designs nest, n <= n1 <= 6
DESIGN = st.one_of(
    st.integers(2, 6).flatmap(lambda n1: st.tuples(st.integers(2, n1), st.just(n1)))
    .map(lambda sizes: tuple(map(str, sizes))),
    st.tuples(SIZE, SIZE),
)
SEED = st.one_of(st.integers(0, 50), st.integers(-3, 50),
                 st.sampled_from([2**64 - 1, 2**64, 2**70])).map(str)
BUDGET = st.one_of(st.sampled_from(["0.01", "1"]),
                   st.sampled_from(["0", "0.5", "1.5", "-0.1", "nan", "inf", "x"]))


@st.composite
def _odd_argv(draw, populations):
    """argv for one of the five commands with odd labels, sizes, seeds,
    reps, workers, --rep and skip budgets."""
    command = draw(st.sampled_from(["moments", "efficiency", "estimate", "simulate",
                                    "enumerate"]))
    pop = draw(st.sampled_from(populations))
    if command == "moments":
        return [command, pop]
    n, n1 = draw(DESIGN)
    design = ["--n", n, "--n1", n1]
    if command == "efficiency":
        if draw(st.booleans()):
            return [command, "--pop", pop, *design]
        flag = ["--delta310-from-delta300"] if draw(st.booleans()) else []
        sizes = design if draw(st.booleans()) else []
        return [command, "--params", os.path.join("fixtures", "murthy67.json"), *flag,
                *sizes]
    argv = [command, "--pop", pop, *design]
    if command == "estimate":
        argv += ["--seed", draw(SEED)]
        if draw(st.booleans()):
            argv += ["--rep", draw(SEED)]
        for label in draw(st.lists(ODD_LABEL, max_size=2)):
            argv += ["--estimator", label]
        return argv
    argv += ["--estimator", draw(ODD_LABEL),
             "--max-skip-fraction", draw(BUDGET)]
    if command == "simulate":
        argv += ["--reps", draw(st.one_of(st.integers(1, 30), st.integers(-1, 30),
                                          st.just(10**18)).map(str)),
                 "--seed", draw(SEED),
                 "--workers", draw(st.sampled_from(["1", "2", "-1", "0", "64"]))]
    else:
        argv += ["--cap", draw(st.sampled_from(["2000000", "0", "100"]))]
    return argv


class TestArgumentFuzz:
    """Odd arguments and parameter files: exit 0, 1 or 2, never an
    escaped exception, and a failure says error: or prints the usage."""

    @pytest.fixture(scope="class")
    def populations(self, tmp_path_factory):
        frame = c2p.random_population(12, seed=7)
        path = tmp_path_factory.mktemp("fuzz") / "twelve.csv"
        path.write_text("y,x,z\n" + "".join(
            f"{y!r},{x!r},{z!r}\n"
            for y, x, z in zip(frame.y.tolist(), frame.x.tolist(), frame.z.tolist())))
        paths = [os.path.join("fixtures", "sixunit.csv"), str(path)]
        # a population that does not load would stop every command at the CSV
        for pop in paths:
            io.load_population_csv(pop)
        return paths

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_argv(self, populations, data):
        code, _, err = _run_argv(data.draw(_odd_argv(populations)))
        _assert_clean_exit(code, err)

    ODD_VALUES = [None, True, False, "x", [], [1.0], {}, {"r": 1}, math.inf, -math.inf,
                  math.nan, 1e308, -1e308, 2**70, 10**400]

    @given(data=st.data(), flag=st.booleans(), sizes=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_params_file(self, published_params, data, flag, sizes, tmp_path_factory):
        keys = sorted(published_params) + ["published_pre.r", "published_pre.hd",
                                           "published_pre.td"]
        edits = data.draw(st.lists(
            st.tuples(st.sampled_from(keys), st.sampled_from(self.ODD_VALUES)),
            min_size=1, max_size=3,
        ))
        doc = json.loads(json.dumps(published_params))
        for key, shared in edits:
            value = copy.deepcopy(shared)  # a shared {} could come to hold itself
            head, _, sub = key.partition(".")
            if sub and isinstance(doc.get(head), dict):
                doc[head][sub] = value
            else:
                doc[head] = value
        path = tmp_path_factory.getbasetemp() / "mutated.json"
        path.write_text(json.dumps(doc))
        argv = ["efficiency", "--params", str(path)]
        argv += ["--delta310-from-delta300"] if flag else []
        argv += ["--n", "10", "--n1", "25"] if sizes else []
        code, _, err = _run_argv(argv)
        _assert_clean_exit(code, err)


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

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"published_pre": 5}, "published PRE values must be an object of numbers, got 5"),
            ({"published_pre": [100]}, "published PRE values must be an object of numbers"),
            ({"published_pre": {"td": "305"}}, "published PRE[td] must be a number, got '305'"),
            ({"published_pre": {"hd": True}}, "published PRE[hd] must be a number, got True"),
            ({"published_pre": {"hd": math.inf}}, "published PRE[hd] must be finite"),
            ({"published_pre": {"r": 10**400}}, "published PRE[r] must be finite"),
            ({"d_003": 1e308}, "d_004 < d_003^2 + 1; no distribution has such a moment pair"),
            ({"d_030": -1e308}, "d_040 < d_030^2 + 1; no distribution has such a moment pair"),
        ],
    )
    def test_bad_params_are_data_errors(self, edit, message, published_params, tmp_path,
                                        capsys):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({**published_params, **edit}))
        argv = ["efficiency", "--params", str(path), "--delta310-from-delta300"]
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {message}")

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

    def test_first_phase_beyond_population_rejected(self, six_csv_path, capsys):
        # simulate, enumerate and estimate reject this design as well
        code, out, err = run_cli(
            ["efficiency", "--pop", str(six_csv_path), "--n", "3", "--n1", "7"], capsys
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: need n1 <= N, got n1=7, N=6")
        code, _, _ = run_cli(
            ["efficiency", "--pop", str(six_csv_path), "--n", "3", "--n1", "6"], capsys
        )
        assert code == 0

    def test_params_first_phase_beyond_population_rejected(self, tmp_path, capsys):
        with open(os.path.join(REPO_ROOT, "fixtures", "murthy67.json")) as fh:
            doc = json.load(fh)
        doc["N"] = 24  # below the document's n1 = 25
        path = tmp_path / "small_n.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(
            ["efficiency", "--params", str(path), "--delta310-from-delta300"], capsys
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: need n1 <= N, got n1=25, N=24")
        code, _, _ = run_cli(
            ["efficiency", "--params", str(path), "--delta310-from-delta300",
             "--n", "10", "--n1", "24"],
            capsys,
        )
        assert code == 0

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

    def test_known_z_moments_fail_as_in_simulate(self, tmp_path, capsys):
        # estimate reads the known z moments from the population table, as
        # simulate does, instead of recomputing them with np.var, which
        # overflowed with a RuntimeWarning here
        path = tmp_path / "bigz.csv"
        path.write_text("y,x,z\n1,2,1e200\n2,3,-1e200\n3,1,2e200\n4,5,-2e200\n5,4,1.5e200\n")
        design = ["--pop", str(path), "--n", "3", "--n1", "4", "--seed", "1"]
        simulate = run_cli(["simulate", *design, "--estimator", "sample-r", "--reps", "5"],
                           capsys)
        estimate = run_cli(["estimate", *design], capsys)
        assert simulate[:2] == estimate[:2] == (1, "")
        first_line = "error: S2_z is not finite in float64; rescale the data"
        assert simulate[2].splitlines()[0] == estimate[2].splitlines()[0] == first_line

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

    def test_second_phase_table_beyond_memory_is_data_error(self, tmp_path, capsys):
        frame = c2p.synthetic_population(60, 1)
        path = tmp_path / "pop60.csv"
        path.write_text("y,x,z\n" + "".join(
            f"{y!r},{x!r},{z!r}\n"
            for y, x, z in zip(frame.y.tolist(), frame.x.tolist(), frame.z.tolist())))
        argv = ["enumerate", "--pop", str(path), "--n1", "30", "--n", "15",
                "--estimator", "sample-r", "--cap", str(10**30)]
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert err == "error: the 53194089192720 second-phase sets do not fit in memory\n"

    def test_pair_count_too_long_to_print_is_data_error(self, tmp_path):
        # 5415 digits of pairs: past Python's 4300-digit limit for str(int)
        path = tmp_path / "wide.csv"
        rows = (f"{i % 7 + 1},{i % 5 + 1},{i % 3 + 1}\n" for i in range(12_000))
        path.write_text("y,x,z\n" + "".join(rows))
        src = os.path.dirname(os.path.dirname(os.path.abspath(c2p.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        argv = ["enumerate", "--pop", str(path), "--n1", "6000", "--n", "3000", "--estimator", "sample-r"]
        proc = subprocess.run([sys.executable, "-m", "corr2phase.cli", *argv],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert proc.stderr == "error: about 10^5414.4 two-phase pairs exceed the budget of 2000000\n"
        assert proc.stdout == ""


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

    @pytest.mark.parametrize("command", ["estimate", "simulate", "enumerate"])
    @pytest.mark.parametrize("constant", ["inf", "nan", "1e400"])
    def test_nonfinite_estimator_constant_is_usage_error(self, command, constant, capsys):
        # as a wrong count of constants is
        label = f"t-linear:{constant},1,1,1"
        argv = [command, "--pop", "fixtures/sixunit.csv", "--n", "2", "--n1", "4",
                "--estimator", label]
        argv += {"estimate": ["--seed", "1"], "simulate": ["--reps", "5", "--seed", "1"],
                 "enumerate": []}[command]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"usage: corr2phase {command}")
        assert err.splitlines()[-1] == (
            f"corr2phase {command}: error: argument --estimator: "
            f"bad constant in {label!r}: constants must be finite"
        )

    def test_rep_beyond_stream_is_data_error(self, capsys):
        # estimate names its own argument at both ends of the stream
        argv = ["estimate", "--pop", "fixtures/sixunit.csv", "--n", "3", "--n1", "4",
                "--seed", "1"]
        for last in ("0", "18446744073709551614"):
            code, out, _ = run_cli(argv + ["--rep", last], capsys)
            assert code == 0 and json.loads(out)["kind"] == "estimate"
        for rep in ("-1", "18446744073709551615"):
            code, out, err = run_cli(argv + ["--rep", rep], capsys)
            assert code == 1
            assert out == ""
            assert err == f"error: rep must lie in [0, 2**64 - 1), got {rep}\n"

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

    @pytest.mark.parametrize(
        "args, message",
        [
            (["enumerate", "--n1", "6", "--n", "2", "--estimator", "td-star:linear",
              "--max-skip-fraction", "1"],
             "all 15 pairs were skipped: {'singular_plugin_constants': 15}"),
            (["enumerate", "--n1", "4", "--n", "3", "--estimator", "td-star:inverse"],
             "5 of 60 pairs skipped (8.33% > 1.00% allowed): {'singular_denominator': 5}"),
            (["simulate", "--n1", "6", "--n", "2", "--estimator", "td-star:linear",
              "--reps", "20", "--seed", "1", "--max-skip-fraction", "1"],
             "all 20 replications were skipped: {'singular_plugin_constants': 20}"),
            (["simulate", "--n1", "4", "--n", "3", "--estimator", "td-star:inverse",
              "--reps", "40", "--seed", "1"],
             "6 of 40 replications skipped (15.00% > 1.00% allowed): "
             "{'singular_denominator': 6}"),
        ],
        ids=["enumerate-all", "enumerate-budget", "simulate-all", "simulate-budget"],
    )
    def test_skip_errors_count_what_the_command_runs(self, args, message, capsys):
        code, out, err = run_cli(args + ["--pop", "fixtures/sixunit.csv"], capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    def test_full_skip_fraction_accepted(self, capsys):
        argv = ["enumerate", "--pop", "fixtures/sixunit.csv", "--n", "3", "--n1", "4",
                "--estimator", "td-star:inverse", "--max-skip-fraction", "1.0"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert json.loads(out)["pairs_skipped"] == 5

    @pytest.mark.parametrize(
        "command", ["moments", "efficiency", "estimate", "simulate", "enumerate"]
    )
    @pytest.mark.parametrize(
        "scale, name",
        [(1e200, "S2_x"), (1e-200, "mu_020"), (1e100, "d_040"), (1e-100, "d_040")],
    )
    def test_float64_edge_is_data_error(self, six_frame, tmp_path, command, scale,
                                        name, capsys):
        path = tmp_path / "edge.csv"
        columns = (six_frame.y, six_frame.x * scale, six_frame.z)
        rows = zip(*(column.tolist() for column in columns))
        path.write_text("y,x,z\n" + "".join(f"{y!r},{x!r},{z!r}\n" for y, x, z in rows))
        design = ["--n", "3", "--n1", "4"]
        argv = {
            "moments": ["moments", str(path)],
            "efficiency": ["efficiency", "--pop", str(path), *design],
            "estimate": ["estimate", "--pop", str(path), *design, "--seed", "1"],
            "simulate": ["simulate", "--pop", str(path), *design,
                         "--estimator", "sample-r", "--reps", "10", "--seed", "1"],
            "enumerate": ["enumerate", "--pop", str(path), *design,
                          "--estimator", "sample-r"],
        }[command]
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {name}")

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


class TestReadme:
    def test_quickstart_runs_as_written(self, capsys):
        with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as fh:
            blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
        assert len(blocks) == 1
        exec(compile(blocks[0], "README.md", "exec"), {})
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 5
        assert all(math.isfinite(float(v)) for line in printed for v in line.split())
