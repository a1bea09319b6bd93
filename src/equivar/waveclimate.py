"""Eight-direction ocean-area probability tables, their indicator reports, and
the package's one input reader.

Every input file the CLI takes, an area table or a single probability
vector (``read_vector``), is decoded here, under one policy: UTF-8 text
(one leading byte-order mark is skipped, in bytes, text and files alike),
JSON through one loader, and one number check per format. In JSON only
numbers are probabilities (not booleans, strings or null). Every failure
is a typed ``ParseError``, and one about a value names its row or entry in
its message (the exception carries no ``row`` attribute).

Ingests area tables in the shape of the Global Wave Statistics annual
wind-wave direction compilations: one row per ocean area, eight
probabilities over the principal compass directions N, NE, E, SE, S, SW,
W, NW. Observed tables are typically incomplete (probabilities summing to
slightly under 1); values are carried exactly as printed and never
renormalized, because the equivalent-number indicators deliberately expose
that missing mass.

A small sample table ships with the package: two observed areas (A64,
eastern Pacific, strongly directional; A86, South Pacific, nearly uniform)
plus three synthetic areas (SYN1..SYN3) added for ranking tests.
"""

from __future__ import annotations

import io
import json
import os
import reprlib
from collections import namedtuple
from collections.abc import Iterable, Sequence

from .errors import (
    BadFieldCount,
    DuplicateAreaId,
    EmptyInput,
    MalformedHeader,
    NonNumericProbability,
    ParseError,
    UnknownArea,
    ValidationFailure,
)
from .indicators import Distribution, analyze

__all__ = [
    "DIRECTION_LABELS",
    "BEARINGS_DEG",
    "CSV_HEADER",
    "RANK_KEYS",
    "AreaRecord",
    "AreaIndicatorReport",
    "ChartRow",
    "parse_area_table",
    "read_vector",
    "format_area_table",
    "area_report",
    "rank_areas",
    "rose_data",
    "chart_data",
    "find_area",
    "sample_table_path",
]

DIRECTION_LABELS = ("N", "NE", "E", "SE", "S", "SW", "W", "NW")
BEARINGS_DEG = (0.0, 45.0, 90.0, 135.0, 180.0, 225.0, 270.0, 315.0)
CSV_HEADER = "area,dN,dNE,dE,dSE,dS,dSW,dW,dNW"

# Characters an area id may not hold: each would break a row of the chart
# CSV or of an area table's CSV, which write ids unquoted. They are the
# comma, the double quote, the C0, DEL and C1 control characters, and the
# line and paragraph separators, where str.splitlines ends a CSV row too.
_ROW_BREAKING = frozenset(
    ',"\u2028\u2029' + "".join(map(chr, [*range(0x20), *range(0x7F, 0xA0)]))
)

# Report field backing each ranking key.
RANK_KEYS = {
    "d": "equiv_number_d",
    "f": "avg_number_f",
    "cv_rel": "cv_rel",
    "h_rel": "entropy_rel",
}


class AreaRecord(namedtuple("AreaRecord", "area_id directions region")):
    """One ocean area: identifier plus its 8-direction probability vector.

    Validated on construction, copying and unpickling: the id must be one
    both table readers return as it is, and the region a string or None,
    which the JSON table gives back as it is (the readers leave both checks
    to it); an unlabelled vector is given DIRECTION_LABELS.
    """

    __slots__ = ()

    def __new__(cls, area_id: str, directions: Distribution, region: str | None = None):
        # Not-a-string first, so that a falsy id such as 0 is not called empty.
        if not isinstance(area_id, str) or area_id != area_id.strip():
            raise ValidationFailure(
                f"area id {area_id!r} must be a string with no surrounding whitespace"
            )
        if not area_id:
            raise ValidationFailure("empty area id")
        if not _writable_id(area_id):
            raise ValidationFailure(
                f"area id {area_id!r} holds a comma, a double quote, "
                "a control character, a line separator or a lone surrogate"
            )
        if not (region is None or isinstance(region, str)):
            # reprlib cuts a long or deep array or object from a JSON table short.
            raise ValidationFailure(
                f"area {area_id!r} region must be a string or None, got {reprlib.repr(region)}"
            )
        if directions.n != 8:
            raise BadFieldCount(f"area {area_id!r} has {directions.n} directions, need 8")
        if directions.labels is None:
            directions = Distribution(directions.probs, DIRECTION_LABELS)
        elif directions.labels != DIRECTION_LABELS:
            raise ValidationFailure(
                f"area {area_id!r} labels must be {','.join(DIRECTION_LABELS)}"
            )
        return super().__new__(cls, area_id, directions, region)

    @classmethod
    def _make(cls, iterable):
        # Through __new__, so that _replace validates too.
        return cls(*iterable)


class AreaIndicatorReport(namedtuple("AreaIndicatorReport", "area_id report")):
    """Indicator report tagged with the area it describes."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {"area_id": self.area_id, "report": self.report.to_dict()}


class ChartRow(namedtuple("ChartRow", "area_id p_total cv_rel h_rel d f g")):
    """One per-area line of the plottable indicator table."""

    __slots__ = ()


def _decode(data: bytes | str | io.IOBase) -> str:
    text = data.read() if hasattr(data, "read") else data
    if isinstance(text, str):
        return text.removeprefix("\ufeff")  # as utf-8-sig skips it in bytes
    if not isinstance(text, (bytes, bytearray)):
        raise ParseError(f"input must be bytes, text or a file, not {type(data).__name__}")
    try:
        return text.decode("utf-8-sig")  # a leading byte-order mark is skipped
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not valid UTF-8: {exc}") from None


def _load_json(text: str):
    try:
        return json.loads(text)
    # ValueError also covers an over-long integer literal
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None


def _read(data: bytes | str | io.IOBase, format: str, from_csv, from_json):
    """Decode ``data`` and pass it to the reader of its format."""
    text = _decode(data)
    if format == "csv":
        return from_csv(text)
    if format == "json":
        return from_json(_load_json(text))
    raise ParseError(f"unknown format {format!r}, expected 'csv' or 'json'")


def _shown(value) -> str:
    # An array or object is named, not printed: it may nest deeper than
    # json.dumps can follow.
    if isinstance(value, (list, dict)):
        return "an array" if isinstance(value, list) else "an object"
    return json.dumps(value)


def _json_number(value, where: str) -> float:
    """A JSON number as a float; booleans, strings and null are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise NonNumericProbability(f"{where} is not a number: {_shown(value)}")
    try:
        return float(value)
    except OverflowError:
        raise NonNumericProbability(f"{where} is past the float range") from None


def _csv_number(field: str, where: str, kind: type = float) -> float | int:
    """A CSV field as a float: what ``float()`` reads, but in ASCII and without ``_``.

    With ``kind=int`` it reads an integer under the same policy, for the
    CLI's integer flags.
    """
    try:
        if "_" in field or not field.isascii():
            raise ValueError
        return kind(field)
    except ValueError:
        raise NonNumericProbability(f"{where} is not a number: {field.strip()!r}") from None


def _json_array(doc: dict, key: str) -> list:
    value = doc[key]
    if not isinstance(value, list):
        raise ParseError(f"JSON {key!r} is not an array: {_shown(value)}")
    return value


def _vector_csv(text: str) -> tuple[list[float], None]:
    probs: list[float] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        for field in line.split(","):
            where = f"row {lineno}: probability {len(probs)}"
            probs.append(_csv_number(field, where))
    return probs, None


def _vector_json(doc) -> tuple[list[float], list[str] | None]:
    if isinstance(doc, list):
        doc = {"probs": doc}
    elif not (isinstance(doc, dict) and "probs" in doc):
        raise ParseError("JSON input must be an array or an object with 'probs'")
    probs = [
        _json_number(v, f"JSON probability {i}") for i, v in enumerate(_json_array(doc, "probs"))
    ]
    labels = doc.get("labels")
    if labels is not None:
        labels = [str(s) for s in _json_array(doc, "labels")]
    return probs, labels


def read_vector(
    data: bytes | str | io.IOBase, format: str = "csv"
) -> tuple[list[float], list[str] | None]:
    """Read one probability vector and its labels (or None) from CSV or JSON.

    CSV input is comma-separated numbers; several lines are concatenated in
    order. JSON input is an array of numbers, or an object whose ``probs``
    is one, with an optional ``labels`` array. Every diagnostic names the
    offending entry.
    """
    return _read(data, format, _vector_csv, _vector_json)


def _writable_id(area_id: str) -> bool:
    """Whether an id can be written into a CSV row unquoted, as UTF-8."""
    try:
        area_id.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate
        return False
    return _ROW_BREAKING.isdisjoint(area_id)


def _add_area(
    records: dict[str, AreaRecord], where: str, area_id: str, values, number,
    region: str | None = None,
) -> None:
    """Record one table row: its 8 values read by ``number``, its id checked by AreaRecord."""
    if area_id in records:
        raise DuplicateAreaId(f"{where}: duplicate area {area_id!r}")
    probs = [number(value, f"{where}: d{label}") for label, value in zip(DIRECTION_LABELS, values)]
    try:
        dist = Distribution(probs, DIRECTION_LABELS)
    except ValidationFailure as exc:
        raise type(exc)(f"{where}: {exc}") from None
    try:
        records[area_id] = AreaRecord(area_id=area_id, directions=dist, region=region)
    except ValidationFailure as exc:  # the id's or the region's fault
        raise ParseError(f"{where}: {exc}") from None


def _parse_csv(text: str) -> list[AreaRecord]:
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        got = lines[0] if lines else "<empty input>"
        raise MalformedHeader(f"header must be {CSV_HEADER!r}, got {got!r}")
    records: dict[str, AreaRecord] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 9:
            raise BadFieldCount(f"row {lineno}: expected 9 fields, got {len(fields)}")
        _add_area(records, f"row {lineno}", fields[0].strip(), fields[1:], _csv_number)
    return list(records.values())


def _parse_json(doc) -> list[AreaRecord]:
    if not isinstance(doc, list):
        raise ParseError("JSON input must be an array of area objects")
    records: dict[str, AreaRecord] = {}
    for idx, entry in enumerate(doc, start=1):
        if not isinstance(entry, dict) or "area" not in entry or "directions" not in entry:
            raise BadFieldCount(f"entry {idx}: need an object with 'area' and 'directions'")
        directions = entry["directions"]
        if not isinstance(directions, list) or len(directions) != 8:
            raise BadFieldCount(f"entry {idx}: 'directions' must hold 8 numbers")
        area_id = entry["area"]
        if not isinstance(area_id, str):
            raise ParseError(f"entry {idx}: area id is not a string: {_shown(area_id)}")
        _add_area(
            records, f"entry {idx}", area_id.strip(), directions, _json_number,
            entry.get("region"),
        )
    return list(records.values())


def parse_area_table(
    data: bytes | str | io.IOBase, format: str = "csv"
) -> list[AreaRecord]:
    """Parse an area table from CSV or JSON bytes, text or a file, in file order.

    CSV input must start with the exact header ``area,dN,dNE,dE,dSE,dS,dSW,
    dW,dNW`` and carry one area per line (LF or CRLF). JSON input is an
    array of objects with keys ``area`` and ``directions`` (8 numbers,
    N through NW), plus an optional ``region``. Duplicate area ids are
    rejected; every diagnostic names its row.
    """
    return _read(data, format, _parse_csv, _parse_json)


def format_area_table(records: Sequence[AreaRecord], format: str = "csv") -> str:
    """Serialize records back to table text that the same format's parser reads back.

    Probabilities are written with repr (shortest digits that reparse to
    the identical float), so ids and probabilities survive a
    parse/serialize/parse cycle bit for bit. The JSON form keeps every
    record whole, regions included; the CSV form has no region column, so
    its records come back with region None.
    """
    if format == "csv":
        lines = [CSV_HEADER]
        for rec in records:
            lines.append(
                ",".join([rec.area_id] + [repr(p) for p in rec.directions.probs])
            )
        return "\n".join(lines) + "\n"
    if format == "json":
        out = []
        for rec in records:
            entry: dict = {"area": rec.area_id, "directions": list(rec.directions.probs)}
            if rec.region is not None:
                entry["region"] = rec.region
            out.append(entry)
        return json.dumps(out, indent=2) + "\n"
    raise ParseError(f"unknown format {format!r}, expected 'csv' or 'json'")


def area_report(record: AreaRecord) -> AreaIndicatorReport:
    """Full indicator report for one area."""
    return AreaIndicatorReport(area_id=record.area_id, report=analyze(record.directions))


def _reports(areas: Iterable[AreaRecord | AreaIndicatorReport]) -> list[AreaIndicatorReport]:
    """Reports of the given areas, analyzing only the ones not yet reported."""
    return [a if isinstance(a, AreaIndicatorReport) else area_report(a) for a in areas]


def rank_areas(
    areas: Sequence[AreaRecord | AreaIndicatorReport], key: str
) -> list[AreaIndicatorReport]:
    """Rank areas descending by one indicator (d, f, cv_rel, or h_rel).

    Takes records or their already computed reports. Ties break by area id
    ascending, so the ordering is deterministic.
    """
    if not isinstance(key, str) or key not in RANK_KEYS:  # [] or {} is unhashable
        raise ParseError(f"unknown rank key {key!r}, expected one of {sorted(RANK_KEYS)}")
    if not areas:
        raise EmptyInput("no areas to rank")
    field = RANK_KEYS[key]
    return sorted(_reports(areas), key=lambda ar: (-getattr(ar.report, field), ar.area_id))


def rose_data(record: AreaRecord) -> list[tuple[float, float]]:
    """(bearing_degrees, probability) pairs for the 8 spokes, N first.

    Bearings run 0, 45, ..., 315 clockwise from north; probabilities are
    copied unchanged (no renormalization).
    """
    return list(zip(BEARINGS_DEG, record.directions.probs))


def chart_data(areas: Iterable[AreaRecord | AreaIndicatorReport]) -> list[ChartRow]:
    """Per-area indicator table for external plotting, sorted by area id.

    Takes records or their already computed reports.
    """
    reports = _reports(areas)
    if not reports:
        raise EmptyInput("no areas to chart")
    rows = []
    for ar in sorted(reports, key=lambda r: r.area_id):
        rep = ar.report
        rows.append(
            ChartRow(
                area_id=ar.area_id,
                p_total=rep.p_total,
                cv_rel=rep.cv_rel,
                h_rel=rep.entropy_rel,
                d=rep.equiv_number_d,
                f=rep.avg_number_f,
                g=rep.equiv_number_g,
            )
        )
    return rows


def find_area(records: Sequence[AreaRecord], area_id: str) -> AreaRecord:
    """Look up one area by id; raises UnknownArea when absent."""
    for rec in records:
        if rec.area_id == area_id:
            return rec
    raise UnknownArea(f"area {area_id!r} not found in table")


def sample_table_path() -> str:
    """Filesystem path of the bundled sample area table (CSV)."""
    return os.path.join(os.path.dirname(__file__), "data", "gws_sample.csv")
