"""Command-line front end: analyze vectors, sweep binomials, process area tables, run oracles.

Exit codes follow one contract everywhere: 0 success, 1 an oracle check
failed, 2 data or validation error, 64 usage error. Every JSON output is
wrapped in an envelope (tool_version, command, generated_at, payload);
CSV outputs carry the same metadata as ``#`` comment lines. Outputs
default to stdout; ``-`` as a path also means stdout. ``--no-timestamp``
drops the generated_at field so outputs are byte-stable for golden tests.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from typing import Sequence

from . import __version__
from .errors import EquivarError, ParameterOutOfRange
from .distributions import from_probabilities, sweep_binomial
from .indicators import analyze
from .oracle import cross_check_report, mc_max_variance, verify_sum_squares_bounds
from .waveclimate import (
    DIRECTION_LABELS,
    RANK_KEYS,
    area_report,
    chart_data,
    find_area,
    parse_area_table,
    rank_areas,
    rose_data,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_DATA_ERROR = 2
EXIT_USAGE = 64

PROG = "equivar"


class _UsageError(Exception):
    pass


class _DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # route argparse's own failures through the exit-64 path
    def error(self, message):
        raise _UsageError(message)


def _fmt(x: float) -> str:
    """Fixed 12-significant-digit formatting for CSV cells."""
    return format(x, ".12g")


def _utc_now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _envelope(command: str, payload, no_timestamp: bool) -> dict:
    env = {"tool_version": __version__, "command": command}
    if not no_timestamp:
        env["generated_at"] = _utc_now()
    env["payload"] = payload
    return env


def _csv_comments(command: str, no_timestamp: bool) -> list[str]:
    lines = [f"# tool_version: {__version__}", f"# command: {command}"]
    if not no_timestamp:
        lines.append(f"# generated_at: {_utc_now()}")
    return lines


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_json(path: str | None, command: str, payload, no_timestamp: bool) -> None:
    doc = _envelope(command, payload, no_timestamp)
    _write_text(path, json.dumps(doc, indent=2) + "\n")


def _write_csv(
    path: str | None,
    command: str,
    header: str,
    rows: Sequence[str],
    no_timestamp: bool,
) -> None:
    lines = _csv_comments(command, no_timestamp) + [header] + list(rows)
    _write_text(path, "\n".join(lines) + "\n")


def _read_input(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise _DataError(f"cannot open input: {exc}") from None


def _probs_from_file(raw: bytes, fmt: str) -> tuple[list[float], list[str] | None]:
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _DataError(f"input is not valid UTF-8: {exc}") from None
    if fmt == "json":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise _DataError(f"invalid JSON: {exc}") from None
        if isinstance(doc, list):
            return [float(v) for v in doc], None
        if isinstance(doc, dict) and "probs" in doc:
            labels = doc.get("labels")
            return (
                [float(v) for v in doc["probs"]],
                None if labels is None else [str(s) for s in labels],
            )
        raise _DataError("JSON input must be an array or an object with 'probs'")
    # csv: comma-separated values; multiple lines are concatenated in order
    values: list[float] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        for field in line.split(","):
            try:
                values.append(float(field))
            except ValueError:
                raise _DataError(
                    f"row {lineno}: not a number: {field.strip()!r}"
                ) from None
    return values, None


# ----------------------------------------------------------------------
# subcommands

def _cmd_analyze(args) -> int:
    if (args.probs is None) == (args.input is None):
        raise _UsageError("give exactly one input source: --probs or --input")
    if args.probs is not None:
        values, labels = args.probs, None
    else:
        values, labels = _probs_from_file(_read_input(args.input), args.format)
    report = analyze(from_probabilities(values, labels))
    _write_json(args.output, "analyze", report.to_dict(), args.no_timestamp)
    return EXIT_OK


def _cmd_binomial_sweep(args) -> int:
    try:
        ns = [int(tok) for tok in args.n.split(",") if tok.strip()]
    except ValueError:
        raise _UsageError(f"--n must be a comma-separated integer list, got {args.n!r}")
    if not ns or any(n < 1 for n in ns):
        raise _UsageError("--n entries must be >= 1")
    if args.p_steps < 2:
        raise _UsageError("--p-steps must be >= 2")
    points = sweep_binomial(ns, args.p_steps)
    rows = [
        ",".join(
            [
                str(pt.n),
                _fmt(pt.p),
                _fmt(pt.report.cv),
                _fmt(pt.report.cv_rel),
                _fmt(pt.report.entropy_bits),
                _fmt(pt.report.avg_number_f),
                _fmt(pt.report.equiv_number_d),
                _fmt(pt.report.equiv_number_g),
            ]
        )
        for pt in points
    ]
    _write_csv(
        args.output,
        "binomial-sweep",
        "n,p,cv,cv_rel,entropy_bits,f,d,g",
        rows,
        args.no_timestamp,
    )
    return EXIT_OK


def _cmd_gws(args) -> int:
    records = parse_area_table(_read_input(args.input), args.format)
    # Analyze each area once; the ranking and the chart both read these.
    reports = [area_report(rec) for rec in records]
    ranked = reports if args.rank is None else rank_areas(reports, args.rank)
    _write_json(
        args.report, "gws", [ar.to_dict() for ar in ranked], args.no_timestamp
    )
    if args.chart is not None:
        rows = [
            ",".join(
                [
                    row.area_id,
                    _fmt(row.p_total),
                    _fmt(row.cv_rel),
                    _fmt(row.h_rel),
                    _fmt(row.d),
                    _fmt(row.f),
                    _fmt(row.g),
                ]
            )
            for row in chart_data(reports)
        ]
        _write_csv(
            args.chart,
            "gws",
            "area_id,p_total,cv_rel,h_rel,d,f,g",
            rows,
            args.no_timestamp,
        )
    return EXIT_OK


def _cmd_rose(args) -> int:
    records = parse_area_table(_read_input(args.input), "csv")
    record = find_area(records, args.area)
    rows = [
        f"{_fmt(bearing)},{label},{_fmt(prob)}"
        for (bearing, prob), label in zip(rose_data(record), DIRECTION_LABELS)
    ]
    _write_csv(
        args.output, "rose", "bearing_deg,direction,probability", rows, args.no_timestamp
    )
    return EXIT_OK


def _cmd_oracle(args) -> int:
    if args.check == "max-variance":
        if args.n is None or args.p_total is None:
            raise _UsageError("--check max-variance needs --n and --p-total")
        if args.probs is not None:
            raise _UsageError("--probs does not apply to --check max-variance")
        try:
            result = mc_max_variance(args.n, args.p_total, args.trials, args.seed)
        except ParameterOutOfRange as exc:
            raise _UsageError(str(exc)) from None
    else:
        if args.probs is None:
            raise _UsageError(f"--check {args.check} needs --probs")
        if args.n is not None or args.p_total is not None:
            raise _UsageError(f"--n/--p-total do not apply to --check {args.check}")
        dist = from_probabilities(args.probs)
        if args.check == "bounds":
            result = verify_sum_squares_bounds(dist)
        else:
            result = cross_check_report(dist)
    _write_json(args.output, "oracle", result.to_dict(), args.no_timestamp)
    return EXIT_OK if result.passed else EXIT_CHECK_FAILED


# ----------------------------------------------------------------------
# parser

def build_parser() -> _Parser:
    parser = _Parser(
        prog=PROG,
        description=(
            "Variability and uncertainty indicators of discrete probability "
            "distributions: coefficient of variation, entropy, and the "
            "equivalent numbers F, D, and G."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"{PROG} {__version__}"
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit generated_at from outputs (byte-stable golden output)",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser(
        "analyze",
        parents=[common],
        help="compute all indicators of one probability vector",
        description=(
            "Compute every indicator of one probability vector and emit the "
            "report as enveloped JSON. Give the vector either as repeated "
            "--probs flags or as a file (--input with --format)."
        ),
    )
    p.add_argument("--probs", type=float, action="append", metavar="P",
                   help="one outcome probability; repeat per outcome")
    p.add_argument("--input", metavar="FILE",
                   help="read the vector from FILE instead of --probs")
    p.add_argument("--format", choices=["csv", "json"], default="csv",
                   help="input file format (default csv: comma-separated values)")
    p.add_argument("--output", metavar="FILE", help="write here instead of stdout")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser(
        "binomial-sweep",
        parents=[common],
        help="indicator curves of B(n, p) over a p grid",
        description=(
            "Analyze the binomial family B(n, p) for each n over a uniform "
            "p grid from 0 to 1 and emit one CSV row per grid cell."
        ),
    )
    p.add_argument("--n", required=True, metavar="LIST",
                   help="comma-separated trial counts, e.g. 1,2,5,10,50")
    p.add_argument("--p-steps", type=int, required=True, metavar="K",
                   help="number of grid points including both endpoints (>= 2)")
    p.add_argument("--output", metavar="FILE", help="write here instead of stdout")
    p.set_defaults(func=_cmd_binomial_sweep)

    p = sub.add_parser(
        "gws",
        parents=[common],
        help="per-area indicator reports from an 8-direction area table",
        description=(
            "Read an 8-direction area table (CSV or JSON), report every "
            "indicator per area as enveloped JSON, and optionally emit a "
            "plottable per-area CSV (--chart, always sorted by area id). "
            "--rank orders the JSON report by one indicator, descending."
        ),
    )
    p.add_argument("--input", required=True, metavar="FILE", help="area table to read")
    p.add_argument("--format", choices=["csv", "json"], default="csv",
                   help="input format (default csv)")
    p.add_argument("--report", metavar="FILE",
                   help="per-area JSON report destination (default stdout)")
    p.add_argument("--chart", metavar="FILE",
                   help="also write the per-area indicator table as CSV")
    p.add_argument("--rank", choices=sorted(RANK_KEYS),
                   help="order the report by this indicator, descending")
    p.set_defaults(func=_cmd_gws)

    p = sub.add_parser(
        "rose",
        parents=[common],
        help="wind-rose spokes (bearing, direction, probability) of one area",
        description=(
            "Emit the 8 wind-rose spokes of one area as CSV rows "
            "bearing_deg,direction,probability with bearings 0..315."
        ),
    )
    p.add_argument("--input", required=True, metavar="FILE", help="area table (CSV)")
    p.add_argument("--area", required=True, metavar="ID", help="area id to extract")
    p.add_argument("--output", metavar="FILE", help="write here instead of stdout")
    p.set_defaults(func=_cmd_rose)

    p = sub.add_parser(
        "oracle",
        parents=[common],
        help="run an independent validation check",
        description=(
            "Run one independent validation check and emit its result as "
            "enveloped JSON. max-variance samples the scaled simplex for "
            "variances above the analytic cap (needs --n, --p-total); "
            "bounds checks 1/N <= sum(p^2) <= 1 on a complete vector "
            "(needs --probs); cross recomputes a full report along "
            "independent arithmetic paths (needs --probs). Exit code 1 "
            "means the check failed; 0 means it passed."
        ),
    )
    p.add_argument("--check", required=True,
                   choices=["max-variance", "bounds", "cross"],
                   help="which validation to run")
    p.add_argument("--n", type=int, metavar="N", help="vector length (max-variance)")
    p.add_argument("--p-total", type=float, metavar="T",
                   help="total probability of sampled vectors (max-variance)")
    p.add_argument("--trials", type=int, default=100000, metavar="K",
                   help="Monte-Carlo sample count (default 100000)")
    p.add_argument("--seed", type=int, default=0, metavar="S",
                   help="random seed, recorded in the result (default 0)")
    p.add_argument("--probs", type=float, action="append", metavar="P",
                   help="one outcome probability; repeat per outcome (bounds/cross)")
    p.add_argument("--output", metavar="FILE", help="write here instead of stdout")
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"{PROG}: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _DataError as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    except EquivarError as exc:
        print(f"{PROG}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    except OSError as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
