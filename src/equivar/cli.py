"""Command-line front end: analyze vectors, sweep binomials, process area tables, run oracles.

Exit codes follow one contract everywhere: 0 success, 1 an oracle check
failed, 2 data, validation, memory or write error, 64 usage error. Every JSON output is
wrapped in an envelope (tool_version, command, generated_at, payload);
CSV outputs carry the same metadata as ``#`` comment lines. The envelope
is built once per run, so every output of one run carries the same one,
stamped when the command starts. Outputs default to stdout; ``-`` as a
path also means stdout. ``--no-timestamp`` drops the generated_at field
so outputs are byte-stable for golden tests.

Every command runs in one order: ``main`` reads the ``--input`` file, the
command builds every output as text and writes nothing, and ``main`` then
writes the outputs in the order listed. So a run that fails before the
write leaves no output; an output that cannot be opened or written exits 2
and leaves the earlier ones written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections.abc import Sequence

from . import __version__
from .errors import EquivarError, ParameterOutOfRange, ZeroSize
from .indicators import Distribution, analyze
from .waveclimate import (
    DIRECTION_LABELS,
    RANK_KEYS,
    ChartRow,
    _csv_number,
    area_report,
    chart_data,
    find_area,
    parse_area_table,
    rank_areas,
    read_vector,
    rose_data,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_DATA_ERROR = 2
EXIT_USAGE = 64

PROG = "equivar"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # route argparse's own failures through the exit-64 path
    def error(self, message):
        raise _UsageError(message)


def _metadata(args) -> dict:
    """The envelope every output of this run carries."""
    meta = {"tool_version": __version__, "command": args.command}
    if not args.no_timestamp:
        meta["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return meta


def _to_devnull(stream) -> None:
    """Point the fd of a stream whose write failed at os.devnull.

    The text is still buffered, and the flush at exit would fail again and
    set the exit status to 120.
    """
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        if sys.stdout is None:  # fd 1 was closed when the interpreter started
            raise OSError("cannot write output: stdout is closed")
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            _to_devnull(sys.stdout)
            raise OSError(f"cannot write output: {exc}") from None
        return
    try:
        fh = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise OSError(f"cannot open output: {exc}") from None
    try:
        with fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write output: {exc}") from None


def _nonfinite_as_strings(obj):
    """A copy of a JSON document with each non-finite float spelled as a string."""
    if isinstance(obj, float) and not math.isfinite(obj):
        if math.isnan(obj):
            return "NaN"
        return "Infinity" if obj > 0.0 else "-Infinity"
    if isinstance(obj, dict):
        return {k: _nonfinite_as_strings(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_nonfinite_as_strings(v) for v in obj]
    return obj


def _json(meta: dict, payload) -> str:
    # Strict JSON has no infinity or NaN; such fields become the strings
    # "Infinity", "-Infinity" and "NaN".
    doc = _nonfinite_as_strings({**meta, "payload": payload})
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _csv(meta: dict, header: str, rows: Sequence[tuple]) -> str:
    # The one place a CSV cell is formatted: floats to 12 significant digits.
    lines = [f"# {key}: {value}" for key, value in meta.items()]
    lines.append(header)
    lines += [
        ",".join([format(cell, ".12g") if isinstance(cell, float) else str(cell) for cell in row])
        for row in rows
    ]
    return "\n".join(lines) + "\n"


# Flag types: each reads its value as a CSV cell is read (ASCII, no ``_``),
# and argparse names the type in the usage error of a value it refuses.
def probability(text: str) -> float:
    """A --probs or --p-total value: what ``float()`` takes."""
    return _csv_number(text, "probability")


def integer(text: str) -> int:
    """An integer flag's value: what ``int()`` takes."""
    return _csv_number(text, "integer", int)


def integer_list(text: str) -> list[int]:
    """A comma-separated list of integers; blank entries are skipped, but one must remain."""
    values = [integer(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ValueError("no integer in the list")
    return values


# ----------------------------------------------------------------------
# subcommands: each maps (args, meta, the --input file's bytes or None) to
# (exit code, [(destination, text), ...]) and writes nothing itself.

def _cmd_analyze(args, meta: dict, data: bytes | None):
    values, labels = (args.probs, None) if data is None else read_vector(data, args.format)
    report = analyze(Distribution(values, labels))
    return EXIT_OK, [(args.output, _json(meta, report.to_dict()))]


def _cmd_binomial_sweep(args, meta: dict, data: None):
    # Imported by the one command that uses it, so the others never load it.
    from .distributions import sweep_binomial

    rows = [
        (pt.n, pt.p, pt.report.cv, pt.report.cv_rel, pt.report.entropy_bits,
         pt.report.avg_number_f, pt.report.equiv_number_d, pt.report.equiv_number_g)
        for pt in sweep_binomial(args.n, args.p_steps)
    ]
    return EXIT_OK, [(args.output, _csv(meta, "n,p,cv,cv_rel,entropy_bits,f,d,g", rows))]


def _cmd_gws(args, meta: dict, data: bytes):
    records = parse_area_table(data, args.format)
    # Analyze each area once; the ranking and the chart both read these.
    reports = [area_report(rec) for rec in records]
    ranked = reports if args.rank is None else rank_areas(reports, args.rank)
    outputs = [(args.report, _json(meta, [ar.to_dict() for ar in ranked]))]
    if args.chart is not None:
        outputs.append((args.chart, _csv(meta, ",".join(ChartRow._fields), chart_data(reports))))
    return EXIT_OK, outputs


def _cmd_rose(args, meta: dict, data: bytes):
    record = find_area(parse_area_table(data, "csv"), args.area)
    rows = [(deg, label, p) for (deg, p), label in zip(rose_data(record), DIRECTION_LABELS)]
    return EXIT_OK, [(args.output, _csv(meta, "bearing_deg,direction,probability", rows))]


def _cmd_oracle(args, meta: dict, data: None):
    # As for sweep_binomial: only this command loads the oracle.
    from .oracle import cross_check_report, mc_max_variance, verify_sum_squares_bounds

    if args.check == "max-variance":
        if args.n is None or args.p_total is None:
            raise _UsageError("--check max-variance needs --n and --p-total")
        if args.probs is not None:
            raise _UsageError("--probs does not apply to --check max-variance")
        trials = 100000 if args.trials is None else args.trials
        seed = 0 if args.seed is None else args.seed
        result = mc_max_variance(args.n, args.p_total, trials, seed)
    else:
        if args.probs is None:
            raise _UsageError(f"--check {args.check} needs --probs")
        if args.n is not None or args.p_total is not None:
            raise _UsageError(f"--n/--p-total do not apply to --check {args.check}")
        if args.trials is not None or args.seed is not None:
            raise _UsageError(f"--trials/--seed do not apply to --check {args.check}")
        dist = Distribution(args.probs)
        if args.check == "bounds":
            result = verify_sum_squares_bounds(dist)
        else:
            result = cross_check_report(dist)
    code = EXIT_OK if result.passed else EXIT_CHECK_FAILED
    return code, [(args.output, _json(meta, result.to_dict()))]


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
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--probs", type=probability, action="append", metavar="P",
                        help="one outcome probability; repeat per outcome")
    source.add_argument("--input", metavar="FILE",
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
    p.add_argument("--n", type=integer_list, required=True, metavar="LIST",
                   help="comma-separated trial counts, e.g. 1,2,5,10,50")
    p.add_argument("--p-steps", type=integer, required=True, metavar="K",
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
    p.add_argument("--n", type=integer, metavar="N", help="vector length (max-variance)")
    p.add_argument("--p-total", type=probability, metavar="T",
                   help="total probability of sampled vectors (max-variance)")
    p.add_argument("--trials", type=integer, metavar="K",
                   help="Monte-Carlo sample count (default 100000)")
    p.add_argument("--seed", type=integer, metavar="S",
                   help="random seed, recorded in the result (default 0)")
    p.add_argument("--probs", type=probability, action="append", metavar="P",
                   help="one outcome probability; repeat per outcome (bounds/cross)")
    p.add_argument("--output", metavar="FILE", help="write here instead of stdout")
    p.set_defaults(func=_cmd_oracle)

    return parser


def _fail(code: int, message: str) -> int:
    """Print ``equivar: message`` on stderr and return code.

    A closed or failing stderr loses the line, not the exit code.
    """
    if sys.stderr is not None:  # None when fd 2 was closed at start
        try:
            print(f"{PROG}: {message}", file=sys.stderr)
        except OSError:
            _to_devnull(sys.stderr)
    return code


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        meta, data = _metadata(args), None
        if getattr(args, "input", None) is not None:
            try:
                with open(args.input, "rb") as fh:
                    data = fh.read()
            except OSError as exc:
                raise OSError(f"cannot open input: {exc}") from None
        code, outputs = args.func(args, meta, data)
        for path, text in outputs:
            _write_text(path, text)
        return code
    # Only flag values reach the library parameters that raise these two
    # (n, p_steps, p_total, trials, seed): a grid p is always in range, and
    # validating a vector raises neither. So each names a flag value.
    except (_UsageError, ParameterOutOfRange, ZeroSize) as exc:
        return _fail(EXIT_USAGE, f"usage error: {exc}")
    except EquivarError as exc:
        return _fail(EXIT_DATA_ERROR, f"{type(exc).__name__}: {exc}")
    except OSError as exc:
        return _fail(EXIT_DATA_ERROR, str(exc))
    except MemoryError as exc:
        return _fail(EXIT_DATA_ERROR, f"out of memory: {str(exc) or 'an allocation failed'}")


if __name__ == "__main__":
    sys.exit(main())
