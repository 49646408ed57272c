"""File formats and report rendering.

Population CSV: header exactly `y,x,z`, then one row of three numbers
per unit. Parameter JSON: one flat object whose keys moments_from_params
understands. Reports: JSON with schema 1, keys sorted, floats rounded
to 12 significant digits, non-finite numbers rendered as null; byte
stability of a report given identical inputs is part of the contract.
"""

from __future__ import annotations

import csv
import json
import math
import os
import stat
import warnings
from dataclasses import asdict
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


# ASCII file, group, record and unit separators: np.loadtxt strips them
# from a field as whitespace, float() rejects them.
_SEPARATORS = "\x1c\x1d\x1e\x1f"

# Suffixes on which numpy's file opener decompresses the file it names
# (np.lib._datasource._file_openers), here in lower case.
_COMPRESSED = {".gz", ".bz2", ".xz", ".lzma"}


def _plain_text(fh, limit: int) -> bool:
    """Whether fh has no ASCII separator and no line longer than limit.

    Blocks of at most limit characters leave only the line open across
    blocks to count. Text that is not UTF-8 raises UnicodeDecodeError.
    """
    size = max(1, min(1 << 16, limit))
    open_line = 0
    while block := fh.read(size):
        if any(ch in block for ch in _SEPARATORS):
            return False
        ends = block.replace("\r", "\n")
        first = ends.find("\n")
        if open_line + (len(block) if first < 0 else first) > limit:
            return False
        open_line = open_line + len(block) if first < 0 else len(block) - 1 - ends.rfind("\n")
    return True


def _regular_file(path: str | os.PathLike) -> bool:
    # a pipe or a device may not give its text a second time, so only a
    # regular file may be read by both parsers
    try:
        return stat.S_ISREG(os.stat(path).st_mode)
    except (OSError, ValueError):
        return False


def _parse_vectorized(path: str | os.PathLike) -> tuple[np.ndarray, ...] | None:
    """The y, x and z columns of a plain population file, or None.

    One checking pass, then np.loadtxt reads the file in blocks from its
    absolute name, which numpy never takes for a URL; os.path.abspath
    would also drop a ".." after a symbolic link and name another file.
    It returns None, so that _parse_by_line decides, whenever the file
    may need anything beyond unquoted comma-separated numbers: a name
    numpy would decompress, a header other than y,x,z (a quoted one
    included), an ASCII separator character anywhere, a line longer than
    the csv field limit, text that is not UTF-8, a field numpy cannot
    read (quotes, underscores, non-ASCII digits, an empty or
    whitespace-only field), no data rows (loadtxt warns) or rows that
    are not three wide. What it does accept, _parse_by_line reads to the
    same float64 values.
    """
    name = os.fsdecode(path)
    if not os.path.isabs(name):
        name = os.path.join(os.getcwd(), name)
    if os.path.splitext(name)[1].lower() in _COMPRESSED:
        return None
    try:
        with open(name, newline="", encoding="utf-8") as fh:
            if not _plain_text(fh, csv.field_size_limit()):
                return None
            fh.seek(0)
            if [h.strip() for h in fh.readline().split(",")] != ["y", "x", "z"]:
                return None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(name, delimiter=",", comments=None, dtype=np.float64,
                               ndmin=2, skiprows=1, encoding="utf-8")
    except (ValueError, Warning):  # UnicodeDecodeError is a ValueError
        return None
    return tuple(table.T) if table.shape[1] == 3 else None


def _parse_by_line(path: str | os.PathLike) -> tuple[np.ndarray, ...]:
    """The y, x and z columns of a population file, read line by line.

    This reader defines the accepted format and reports the line of the
    first problem. Text that is not UTF-8 and fields longer than the csv
    module's limit are ParseErrors like any other malformed content.
    """
    ys: list[float] = []
    xs: list[float] = []
    zs: list[float] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
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

    A plain regular file is read by np.loadtxt in blocks after one
    checking pass. Anything that path cannot read with certainty
    (compressed-looking names, quotes, underscores or non-ASCII digits
    in numbers, whitespace-only lines, errors of any kind) goes to the
    line-by-line reader, which yields the same values or the located
    error.
    """
    columns = _parse_vectorized(path) if _regular_file(path) else None
    if columns is None:
        columns = _parse_by_line(path)
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


def save_params_json(doc: Mapping[str, object], path: str | os.PathLike) -> None:
    """Write a parameter document losslessly (full float precision)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
