"""File formats and report rendering.

Population CSV: header exactly `y,x,z`, then one row of three numbers
per unit. A line-by-line reader (csv + float()) defines the format and
locates errors; a block kernel reads the same files to the same float64
bits in a few numpy passes per field, and hands anything it cannot read
with certainty to that reader. Parameter JSON: one flat object whose
keys moments_from_params understands. Reports: JSON with schema 1, keys
sorted, floats rounded to 12 significant digits, non-finite numbers
rendered as null; byte stability of a report given identical inputs is
part of the contract.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
from dataclasses import asdict
from io import BytesIO, TextIOWrapper
from typing import Mapping

import numpy as np

from .analytics import VarianceReport
from .errors import HeaderMismatch, ParseError
from .montecarlo import EnumerationResult, SimulationResult
from .moments import MomentSet, PopulationFrame, moments_to_params
from .sampling import SampleStatistics, TwoPhaseSample

REPORT_SCHEMA = 1


def _not_utf8(path: str | os.PathLike, exc: UnicodeDecodeError) -> ParseError:
    return ParseError(f"{path}: not UTF-8 text ({exc.reason})")


# Bytes read and parsed at a time. Each block is cut after its last line
# end and the rest carried into the next; a line longer than a block
# goes to the line reader. Beyond a full block the buffer has room for
# the line end a file may lack and for the 8-byte words read from any
# digit run, up to 24 bytes past its start.
_BLOCK = 1 << 17
_PAD = 32
# Files shorter than this go straight to the line reader: on about 60
# rows or fewer it costs less than the kernel's hundred-odd numpy calls.
_SMALL_FILE = 1 << 12

# 10**k: exact as float64 for k <= 22 (Clinger's fast path), as uint64
# for k <= 19.
_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_U64 = np.array([10**k for k in range(20)], np.uint64)

# For chunk c of a run of n <= 24 digits, k = min(max(n - 8c, 0), 8) of
# its digits are in the 8-byte word at offset 8c: the left shift that
# keeps just them (64 clears the word), and 10**k.
_k = np.clip(np.arange(25) - 8 * np.arange(3)[:, None], 0, 8)
_CHUNK_SHIFT = (64 - 8 * _k).astype(np.uint64)
_CHUNK_SCALE = (10**_k).astype(np.uint64)
del _k


def _exact_long_double_powers() -> np.ndarray | None:
    """The powers of ten exact in np.longdouble, or None if it cannot round once.

    Only an x87 extended (64-bit significand) or IEEE quad (113-bit)
    long double stored in 16 little-endian bytes qualifies, and only if
    its arithmetic keeps 64 bits (the probe). 10**k is exact while 5**k
    fits in the significand.
    """
    info = np.finfo(np.longdouble)
    big = np.longdouble(2**63)
    if (info.nmant not in (63, 112) or info.dtype.itemsize != 16
            or sys.byteorder != "little" or (big + 1) - big != 1):
        return None
    powers = [np.longdouble(1)]
    while 5 ** len(powers) < 2 ** (info.nmant + 1):
        powers.append(powers[-1] * 10)
    return np.array(powers)


_WIDE_POW10 = _exact_long_double_powers()
# The low significand bits a long double drops on rounding to float64,
# and their pattern when it lies exactly halfway between two doubles: 11
# or 60 bits, within its low 8 bytes.
_DROPPED = (1 << np.finfo(np.longdouble).nmant - 52) - 1
_HALFWAY = (_DROPPED + 1) >> 1


def _digits(words: np.ndarray, at: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The count-digit numbers at byte offsets at, as uint64 (count <= 19).

    Eight digits at a time are one little-endian word, shifted so that
    the bytes beyond the count fall out and zero bytes stand before the
    digits, then combined pairwise (8 -> 4 -> 2 -> 1 numbers).
    """
    value = np.zeros(len(at), np.uint64)
    for chunk in range((int(count.max(initial=0)) + 7) // 8):
        w = words[at + 8 * chunk] << _CHUNK_SHIFT[chunk][count]
        w = (w & 0x0F0F0F0F0F0F0F0F) * 2561 >> 8
        w = (w & 0x00FF00FF00FF00FF) * 6553601 >> 16
        w = (w & 0x0000FFFF0000FFFF) * 42949672960001 >> 32
        value = value * _CHUNK_SCALE[chunk][count] + w
    return value


def _scale(mant: np.ndarray, q: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """mant * 10**q rounded once, given powers[k] = 10**k exactly; mant is overwritten."""
    p = powers[np.abs(q)]
    np.divide(mant, p, out=mant, where=q < 0)
    np.multiply(mant, p, out=mant, where=q > 0)
    return mant


def _field_values(buf: np.ndarray, words: np.ndarray, tok: np.ndarray, byte: np.ndarray,
                  start: np.ndarray, end: np.ndarray, lo: np.ndarray,
                  hi: np.ndarray) -> np.ndarray | None:
    """The float64 values of the fields buf[start:end], or None if float() rejects one.

    tok holds the offsets of the non-digit bytes of buf in order, byte
    their values; a field's own are tok[lo:hi], and tok[hi] is the
    separator after it (lo and hi are overwritten). A field of the form
    [+-]digits[.digits][(e|E)[+-]digits], with spaces or tabs around it
    and at most 19 mantissa digits, is M * 10**q with M those digits read
    as one integer. It is rounded once in float64 when M <= 2**53 and
    |q| <= 22 (Clinger), else once in a long double with a 64-bit or
    wider significand, then to float64: the correctly rounded value
    unless the long double lies halfway between two doubles. Halfway
    values, all other fields, and wide mantissas where there is no such
    long double go to float().
    """
    s, e = start, end
    blank = (byte == 32) | (byte == 9)
    if blank.any():
        s, e = start.copy(), end.copy()
        idx = np.flatnonzero(blank[lo])
        while idx.size:
            t = lo[idx]
            idx = idx[(t < hi[idx]) & (tok[t] == s[idx]) & blank[t]]
            s[idx] += 1
            lo[idx] += 1
        idx = np.flatnonzero(blank[hi - 1])
        while idx.size:
            t = hi[idx] - 1
            idx = idx[(t >= lo[idx]) & (tok[t] == e[idx] - 1) & blank[t]]
            e[idx] -= 1
            hi[idx] -= 1
    # tok[hi] is now at e and is no digit, dot, e, E or sign
    sign = (byte == 43) | (byte == 45)
    neg = None
    if sign.any():
        signed = sign[lo] & (tok[lo] == s)
        neg = signed & (byte[lo] == 45)
        s = s + signed
        lo = lo + signed
    # then digits, a dot, digits, an e or E, a sign right after it, digits
    point = tok[lo]
    dot = byte[lo] == 46
    k = lo + dot
    n_int = point - s
    n_frac = tok[k] - point - dot
    q = -n_frac
    exp = (byte | 32) == 101
    if exp.any():
        has_e = exp[k]
        epos = tok[k]
        k = k + has_e
        exp_signed = has_e & sign[k] & (tok[k] == epos + 1)
        exp_neg = exp_signed & (byte[k] == 45)
        k = k + exp_signed
        n_exp = (e - epos - 1 - exp_signed) * has_e
        fits = (k == hi) & (n_exp >= has_e) & (n_exp <= 8)
        x = _digits(words, epos + 1 + exp_signed, n_exp * fits).astype(np.int64)
        q += x - 2 * x * exp_neg
    else:
        fits = k == hi
    fits &= (n_int >= 1) & (n_frac >= dot) & (n_int + n_frac <= 19)
    n_frac *= fits
    mant = (_digits(words, s, n_int * fits) * _POW10_U64[n_frac]
            + _digits(words, point + 1, n_frac))

    values = np.empty(len(start))
    done = fits & (mant <= 2**53) & (q >= -22) & (q <= 22)
    fast = np.flatnonzero(done)
    values[fast] = _scale(mant[fast].astype(np.float64), q[fast], _POW10)
    if _WIDE_POW10 is not None:
        wide = np.flatnonzero(fits & ~done & (np.abs(q) < len(_WIDE_POW10)))
        exact = _scale(mant[wide].astype(np.longdouble), q[wide], _WIDE_POW10)
        values[wide] = exact
        done[wide] = exact.view(np.uint64)[::2] & _DROPPED != _HALFWAY
    if neg is not None:
        np.negative(values, out=values, where=neg)
    for i in np.flatnonzero(~done).tolist():
        try:
            values[i] = float(buf[start[i]:end[i]].tobytes().decode("utf-8"))
        except ValueError:  # UnicodeDecodeError is a ValueError
            return None
    return values


def _read_block(fh, view: memoryview, held: int) -> int:
    """Fill view[held:_BLOCK] from fh as far as it goes; the bytes now held."""
    while held < _BLOCK:
        got = fh.readinto(view[held:_BLOCK])
        if not got:
            break
        held += got
    return held


def _header_ok(raw: bytes, limit: int) -> bool:
    # what _parse_by_line accepts from an unquoted first line
    try:
        names = raw.decode("utf-8").split(",")
    except UnicodeDecodeError:
        return False
    return max(map(len, names)) <= limit and [h.strip() for h in names] == ["y", "x", "z"]


def _three_fields(line_end: np.ndarray) -> bool:
    # whether separators that end lines (True) and commas come as , , end
    return len(line_end) % 3 == 0 and bool(
        (line_end.reshape(-1, 3) == (False, False, True)).all())


def _block_values(buf: np.ndarray, words: np.ndarray, tok: np.ndarray, byte: np.ndarray,
                  line_end: np.ndarray, first: int, start: int, cut: int,
                  limit: int) -> np.ndarray | None:
    """The values of the lines from buf[start] to tok[cut], a line end, row by row.

    tok[first:cut + 1] are their non-digit bytes. None if a line other
    than an empty one does not hold three fields, if a field is longer
    than limit, or if _field_values declines one.
    """
    sep = np.flatnonzero(line_end[first:cut + 1] | (byte[first:cut + 1] == 44)) + first
    if not sep.size:
        return np.empty(0)
    at, le = tok[sep], line_end[sep]
    begin = np.concatenate(([start], at[:-1] + 1))
    lo = np.concatenate(([first], sep[:-1] + 1))
    if not _three_fields(le):
        keep = (begin != at) | ~le | ~np.concatenate(([True], le[:-1]))
        sep, at, le, begin, lo = sep[keep], at[keep], le[keep], begin[keep], lo[keep]
        if not _three_fields(le):
            return None
    if (at - begin > limit).any():
        return None
    return _field_values(buf, words, tok, byte, begin, at, lo, sep)


def _parse_vectorized(fh) -> tuple[np.ndarray, ...] | None:
    """The y, x and z columns of a population file, or None.

    fh is a seekable binary handle, read from its start in blocks of
    _BLOCK bytes. Fields are split at commas and at LF, CR or CRLF line
    ends, empty lines are skipped, and _field_values converts the fields
    of each block straight into contiguous columns. It returns None, so
    that _parse_by_line decides, whenever a field is one that float()
    rejects (a quote, an empty or whitespace-only field, text that is not
    UTF-8), a field is longer than csv.field_size_limit(), a line is
    longer than a block, the first line is not an unquoted y,x,z header,
    a line does not hold three fields or there is no data row. What it
    does accept, _parse_by_line reads to the same float64 values.
    """
    limit = csv.field_size_limit()
    size = fh.seek(0, os.SEEK_END)
    fh.seek(0)
    buf = np.zeros(_BLOCK + _PAD, np.uint8)
    view = memoryview(buf)
    words = np.ndarray((_BLOCK + _PAD - 7,), "<u8", buf, strides=(1,))
    nondigit = np.empty(_BLOCK + 1, np.bool_)
    columns = [np.empty(0) for _ in range(3)]
    header = True
    rows = held = 0
    while True:
        end = _read_block(fh, view, held)
        last = end < _BLOCK
        if last and (end == 0 or buf[end - 1] not in (10, 13)):
            buf[end] = 10  # the line end the file lacks
            end += 1
        digit = nondigit[:end].view(np.uint8)  # the byte's digit value, if below 10
        np.subtract(buf[:end], 48, out=digit)
        np.greater(digit, 9, out=nondigit[:end])
        tok = np.flatnonzero(nondigit[:end])
        byte = buf[tok]
        line_end = (byte == 10) | (byte == 13)
        if not line_end.any():
            return None  # a line longer than a block
        cut = len(tok) - 1 - int(line_end[::-1].argmax())
        first = start = 0
        if header:
            first = int(line_end.argmax()) + 1
            start = tok[first - 1] + 1
            if not _header_ok(buf[:start - 1].tobytes(), limit):
                return None
            header = False
        values = _block_values(buf, words, tok, byte, line_end, first, start, cut, limit)
        if values is None:
            return None
        new = len(values) // 3
        stop = tok[cut] + 1
        if rows + new > len(columns[0]):
            # the rows still unread at this block's bytes per row, and 1/16 more
            room = rows + new + new * max(size - fh.tell(), 0) * 17 // (stop * 16) + 1
            for col in columns:
                col.resize(room, refcheck=False)
        for j, col in enumerate(columns):
            col[rows:rows + new] = values[j::3]
        rows += new
        if last:
            break
        held = end - stop
        buf[:held] = buf[stop:end]
    if not rows:
        return None
    for col in columns:
        col.resize(rows, refcheck=False)
    return tuple(columns)


def _parse_by_line(path: str | os.PathLike, fh=None) -> tuple[np.ndarray, ...]:
    """The y, x and z columns of a population file, read line by line.

    This reader defines the accepted format and reports the line of the
    first problem. Text that is not UTF-8 and fields longer than the csv
    module's limit are ParseErrors like any other malformed content. It
    reads fh, a binary handle at the start of the file, if given, and
    names path in its messages.
    """
    if fh is None:
        with open(path, "rb") as fh:
            return _parse_by_line(path, fh)
    ys: list[float] = []
    xs: list[float] = []
    zs: list[float] = []
    text = TextIOWrapper(fh, encoding="utf-8", newline="")
    try:
        reader = csv.reader(text)
        try:
            header = next(reader, None)
            if header is None:
                raise HeaderMismatch(f"{path}: empty file, expected header y,x,z")
            if [h.strip() for h in header] != ["y", "x", "z"]:
                raise HeaderMismatch(
                    f"{path}:1: header must be exactly 'y,x,z', "
                    f"got {','.join(header)!r}"
                )
            for lineno, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != 3:
                    raise ParseError(
                        f"{path}:{lineno}: expected 3 comma-separated values, "
                        f"got {len(row)}"
                    )
                try:
                    values = [float(field) for field in row]
                except ValueError:
                    raise ParseError(
                        f"{path}:{lineno}: non-numeric value in {row!r}"
                    ) from None
                ys.append(values[0])
                xs.append(values[1])
                zs.append(values[2])
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from None
        except csv.Error as exc:
            raise ParseError(f"{path}:{reader.line_num}: {exc}") from None
    finally:
        text.detach()  # leave fh open for its owner
    return np.asarray(ys), np.asarray(xs), np.asarray(zs)


def load_population_csv(path: str | os.PathLike) -> PopulationFrame:
    """Read a population file, reporting the line of the first problem.

    The file is a header `y,x,z` (spaces around the names allowed), then
    one row of three comma-separated numbers per unit, as the csv module
    splits it and float() reads each field. Blank and whitespace-only
    lines are skipped; LF, CRLF and lone CR all end a line; a quoted
    field is read without its quotes. Text that is not UTF-8 and fields
    longer than csv.field_size_limit() are ParseErrors like any other
    malformed content.

    The file is opened once. Unless it is shorter than _SMALL_FILE,
    _parse_vectorized reads it in blocks and converts every field of the
    form [+-]digits[.digits][(e|E)[+-]digits] (spaces or tabs around it
    allowed) exactly, handing the others to float(). Anything it does
    not accept with certainty (quotes, fields float() rejects,
    whitespace-only lines, overlong fields or lines) sends the file,
    from the bytes already read, to the line-by-line reader, which
    yields the same values or the located error. A pipe is read into
    memory first, so it takes the same route.
    """
    with open(path, "rb") as raw:
        fh = raw if raw.seekable() else BytesIO(raw.read())
        columns = None
        if fh.seek(0, os.SEEK_END) >= _SMALL_FILE:
            columns = _parse_vectorized(fh)
        if columns is None:
            fh.seek(0)
            columns = _parse_by_line(path, fh)
    y, x, z = columns
    return PopulationFrame(y=y, x=x, z=z)


def load_params_json(path: str | os.PathLike) -> dict:
    """Read a flat parameter document; structural validation only.

    Semantic validation (key names, ranges, consistency) happens in
    moments_from_params so that library callers constructing dicts get
    the same checks. Text that is not UTF-8, nesting too deep for the
    parser and integers longer than Python converts are ParseErrors.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}:{exc.lineno}: {exc.msg}") from None
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from None
        except RecursionError:
            raise ParseError(f"{path}: JSON nested too deeply") from None
        except ValueError:  # Python's limit on the digits of an int
            raise ParseError(f"{path}: an integer has too many digits") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    return doc


def _round_floats(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return None
        return float(format(obj, ".12g"))
    if isinstance(obj, dict):
        return {str(k): _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def render_report(doc: Mapping[str, object]) -> str:
    """Serialize a report: schema tag, sorted keys, 12 significant digits."""
    body = dict(doc)
    body["schema"] = REPORT_SCHEMA
    return json.dumps(_round_floats(body), indent=2, sort_keys=True) + "\n"


def moments_doc(m: MomentSet) -> dict:
    doc = {"kind": "moments"}
    doc.update(moments_to_params(m))
    doc["notes"] = list(m.notes)
    return doc


def efficiency_doc(report: VarianceReport, source: str | None = None) -> dict:
    inputs: dict[str, object] = {"n": report.n, "n1": report.n1}
    if source is not None:
        inputs["source"] = source
    doc: dict[str, object] = {
        "kind": "efficiency",
        "inputs": inputs,
        "var_r": report.var_r,
        "var_hd_min": report.var_hd_min,
        "var_td_min": report.var_td_min,
        "gap": report.gap,
        "pre_hd": report.pre_hd,
        "pre_td": report.pre_td,
        "notes": list(report.interpretation_notes),
    }
    if report.published is not None:
        doc["published"] = dict(report.published)
    return doc


def statistics_doc(stats: SampleStatistics) -> dict:
    doc = asdict(stats)
    doc.pop("delta_hat")
    return doc


def estimate_doc(
    sample: TwoPhaseSample,
    stats: SampleStatistics,
    estimates: Mapping[str, float],
    errors: Mapping[str, str],
    clamp: bool,
    clamped_labels: list[str],
) -> dict:
    return {
        "kind": "estimate",
        "design": asdict(sample.design),
        "seed": sample.seed,
        "rep": sample.rep,
        "statistics": statistics_doc(stats),
        "estimates": dict(estimates),
        "errors": dict(errors),
        "clamp": bool(clamp),
        "clamped": list(clamped_labels),
    }


def simulation_doc(result: SimulationResult) -> dict:
    return {"kind": "simulate", **asdict(result)}


def enumeration_doc(result: EnumerationResult) -> dict:
    return {"kind": "enumerate", **asdict(result)}
