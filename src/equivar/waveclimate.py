"""Eight-direction ocean-area probability tables and their indicator reports.

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

import json
from dataclasses import dataclass
from importlib import resources
from typing import IO, Iterable, NamedTuple, Sequence

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
from .indicators import Distribution, IndicatorReport, analyze
from .distributions import from_probabilities

__all__ = [
    "DIRECTION_LABELS",
    "BEARINGS_DEG",
    "CSV_HEADER",
    "RANK_KEYS",
    "AreaRecord",
    "AreaIndicatorReport",
    "ChartRow",
    "parse_area_table",
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

# Report field backing each ranking key.
RANK_KEYS = {
    "d": "equiv_number_d",
    "f": "avg_number_f",
    "cv_rel": "cv_rel",
    "h_rel": "entropy_rel",
}


@dataclass(frozen=True)
class AreaRecord:
    """One ocean area: identifier plus its 8-direction probability vector."""

    area_id: str
    directions: Distribution
    region: str | None = None

    def __post_init__(self) -> None:
        if not self.area_id:
            raise ValidationFailure("area id must be non-empty")
        if self.directions.n != 8:
            raise BadFieldCount(
                f"area {self.area_id!r} has {self.directions.n} directions, need 8"
            )
        if self.directions.labels is None:
            object.__setattr__(
                self,
                "directions",
                Distribution(self.directions.probs, DIRECTION_LABELS),
            )
        elif self.directions.labels != DIRECTION_LABELS:
            raise ValidationFailure(
                f"area {self.area_id!r} labels must be {','.join(DIRECTION_LABELS)}"
            )


@dataclass(frozen=True)
class AreaIndicatorReport:
    """Indicator report tagged with the area it describes."""

    area_id: str
    report: IndicatorReport

    def to_dict(self) -> dict:
        return {"area_id": self.area_id, "report": self.report.to_dict()}


class ChartRow(NamedTuple):
    """One per-area line of the plottable indicator table."""

    area_id: str
    p_total: float
    cv_rel: float
    h_rel: float
    d: float
    f: float
    g: float


def _decode(data: bytes | str | IO[bytes]) -> str:
    if isinstance(data, str):
        return data
    if isinstance(data, (bytes, bytearray)):
        raw = bytes(data)
    else:
        raw = data.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not valid UTF-8: {exc}") from None


def _parse_csv(text: str) -> list[AreaRecord]:
    lines = text.splitlines()
    if not lines or lines[0].strip("\r") != CSV_HEADER:
        got = lines[0].strip("\r") if lines else "<empty input>"
        raise MalformedHeader(f"header must be {CSV_HEADER!r}, got {got!r}", row=1)
    records: list[AreaRecord] = []
    seen: set[str] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip("\r")
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 9:
            raise BadFieldCount(
                f"row {lineno}: expected 9 fields, got {len(fields)}", row=lineno
            )
        area_id = fields[0].strip()
        if not area_id:
            raise ParseError(f"row {lineno}: empty area id", row=lineno)
        if area_id in seen:
            raise DuplicateAreaId(f"row {lineno}: duplicate area {area_id!r}", row=lineno)
        probs = []
        for label, field in zip(DIRECTION_LABELS, fields[1:]):
            try:
                probs.append(float(field))
            except ValueError:
                raise NonNumericProbability(
                    f"row {lineno}: d{label} is not a number: {field!r}", row=lineno
                ) from None
        try:
            dist = from_probabilities(probs, DIRECTION_LABELS)
        except ValidationFailure as exc:
            raise type(exc)(f"row {lineno}: {exc}") from None
        records.append(AreaRecord(area_id=area_id, directions=dist))
        seen.add(area_id)
    return records


def _parse_json(text: str) -> list[AreaRecord]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, list):
        raise ParseError("JSON input must be an array of area objects")
    records: list[AreaRecord] = []
    seen: set[str] = set()
    for idx, entry in enumerate(doc, start=1):
        if not isinstance(entry, dict) or "area" not in entry or "directions" not in entry:
            raise BadFieldCount(
                f"entry {idx}: need an object with 'area' and 'directions'", row=idx
            )
        area_id = str(entry["area"]).strip()
        if not area_id:
            raise ParseError(f"entry {idx}: empty area id", row=idx)
        if area_id in seen:
            raise DuplicateAreaId(f"entry {idx}: duplicate area {area_id!r}", row=idx)
        directions = entry["directions"]
        if not isinstance(directions, list) or len(directions) != 8:
            raise BadFieldCount(
                f"entry {idx}: 'directions' must hold 8 numbers", row=idx
            )
        for label, value in zip(DIRECTION_LABELS, directions):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise NonNumericProbability(
                    f"entry {idx}: d{label} is not a number: {value!r}", row=idx
                )
        region = entry.get("region")
        try:
            dist = from_probabilities([float(v) for v in directions], DIRECTION_LABELS)
        except ValidationFailure as exc:
            raise type(exc)(f"entry {idx}: {exc}") from None
        records.append(
            AreaRecord(
                area_id=area_id,
                directions=dist,
                region=None if region is None else str(region),
            )
        )
        seen.add(area_id)
    return records


def parse_area_table(data: bytes | str | IO[bytes], format: str = "csv") -> list[AreaRecord]:
    """Parse an area table from CSV or JSON bytes/text, in file order.

    CSV input must start with the exact header ``area,dN,dNE,dE,dSE,dS,dSW,
    dW,dNW`` and carry one area per line (LF or CRLF). JSON input is an
    array of objects with keys ``area`` and ``directions`` (8 numbers,
    N through NW), plus an optional ``region``. Duplicate area ids are
    rejected; every diagnostic names its row.
    """
    text = _decode(data)
    if format == "csv":
        return _parse_csv(text)
    if format == "json":
        return _parse_json(text)
    raise ParseError(f"unknown format {format!r}, expected 'csv' or 'json'")


def format_area_table(records: Sequence[AreaRecord], format: str = "csv") -> str:
    """Serialize records back to table text; parse(format(parse(x))) round-trips.

    Probabilities are written with repr (shortest digits that reparse to
    the identical float), so a parse/serialize/parse cycle is lossless.
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
    if key not in RANK_KEYS:
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
    return str(resources.files("equivar").joinpath("data/gws_sample.csv"))
