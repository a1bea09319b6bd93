"""End-to-end tests of the command-line interface and its exit-code contract."""

import csv
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equivar import analyze, cli, errors, sample_table_path, sweep_binomial, waveclimate
from equivar.cli import main

RFC3339 = re.compile(r"^\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z$")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def payload_of(out: str) -> dict:
    doc = json.loads(out)
    assert set(doc) >= {"tool_version", "command", "payload"}
    return doc["payload"]


def strict_payload(out: str) -> dict:
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(out, parse_constant=reject)["payload"]


def csv_rows(out: str) -> list[str]:
    return [line for line in out.splitlines() if line and not line.startswith("#")]


# ----------------------------------------------------------------------
# analyze


def test_analyze_fair_coin(capsys):
    code, out, _ = run(capsys, "analyze", "--probs", "0.5", "--probs", "0.5")
    assert code == 0
    body = payload_of(out)
    assert body["entropy_bits"] == 1.0
    assert body["equiv_number_d"] == 2.0
    expected_keys = [
        "n_outcomes", "p_total", "p_mean", "variance", "ref_variance", "cv",
        "cv_rel", "entropy_bits", "entropy_rel", "avg_number_f",
        "equiv_number_d", "equiv_number_g", "duality_residual",
    ]
    assert list(body) == expected_keys


def test_analyze_rejects_overfull_vector(capsys):
    code, _, err = run(capsys, "analyze", "--probs", "0.7", "--probs", "0.4")
    assert code == 2
    assert "SumExceedsOne" in err
    assert len(err.strip().splitlines()) == 1


def test_analyze_degenerate_three(capsys):
    code, out, _ = run(
        capsys, "analyze", "--probs", "1", "--probs", "0", "--probs", "0"
    )
    assert code == 0
    body = payload_of(out)
    assert body["equiv_number_g"] == 3.0
    assert body["avg_number_f"] == 1.0


def test_analyze_from_csv_file(capsys, tmp_path):
    f = tmp_path / "dist.csv"
    f.write_text("0.25,0.5,0.25\n")
    code, out, _ = run(capsys, "analyze", "--input", str(f))
    assert code == 0
    assert payload_of(out)["n_outcomes"] == 3


def test_analyze_from_json_file(capsys, tmp_path):
    f = tmp_path / "dist.json"
    f.write_text(json.dumps({"probs": [0.5, 0.5], "labels": ["H", "T"]}))
    code, out, _ = run(capsys, "analyze", "--input", str(f), "--format", "json")
    assert code == 0
    assert payload_of(out)["equiv_number_d"] == 2.0
    # a bare JSON array works too
    f.write_text("[0.25, 0.5, 0.25]")
    code, out, _ = run(capsys, "analyze", "--input", str(f), "--format", "json")
    assert code == 0
    assert payload_of(out)["n_outcomes"] == 3


@pytest.mark.parametrize(
    "text, error, entry, fmt",
    [
        ('["abc"]', "NonNumericProbability", "probability 0", "json"),
        ('{"probs": 5}', "ParseError", "'probs'", "json"),
        ("[0.5, null]", "NonNumericProbability", "probability 1", "json"),
        ('{"probs": [0.5], "labels": 5}', "ParseError", "'labels'", "json"),
        ("[1" + "0" * 400 + "]", "NonNumericProbability", "probability 0", "json"),
        ("[" * 100_000 + "]" * 100_000, "ParseError", "invalid JSON", "json"),
        ('["0.5"]', "NonNumericProbability", "probability 0", "json"),
        ("[true]", "NonNumericProbability", "probability 0", "json"),
        ('{"probs": "1"}', "ParseError", "'probs' is not an array", "json"),
        ('{"probs": [0.5, 0.5], "labels": "ab"}', "ParseError", "'labels' is not an array", "json"),
        ("0.25,abc\n", "NonNumericProbability", "row 1", "csv"),
        ("0.2_5,0.7_5\n", "NonNumericProbability", "row 1: probability 0", "csv"),
        ("0.5,\u0660.\u0665\n", "NonNumericProbability", "row 1: probability 1", "csv"),
    ],
    ids=[
        "string",
        "probs-number",
        "null",
        "labels-number",
        "int-past-float-range",
        "nested-too-deep",
        "numeric-string",
        "boolean",
        "probs-string",
        "labels-string",
        "csv-not-a-number",
        "csv-underscore",
        "csv-arabic-indic-digits",
    ],
)
def test_analyze_rejects_malformed_json_entries(capsys, tmp_path, text, error, entry, fmt):
    f = tmp_path / f"dist.{fmt}"
    f.write_text(text)
    code, out, err = run(capsys, "analyze", "--input", str(f), "--format", fmt)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(f"equivar: {error}: ") and entry in err


@pytest.mark.parametrize("cell", ["nan", "inf", "1e400"])
def test_csv_non_finite_numbers_are_read_and_refused_by_validation(capsys, tmp_path, cell):
    f = tmp_path / "dist.csv"
    f.write_text(f"0.5,{cell}\n")
    code, out, err = run(capsys, "analyze", "--input", str(f))
    assert code == 2 and out == ""
    assert err.startswith("equivar: NonFinite: probability 1 is ") and err.count("\n") == 1
    f.write_text(f"{waveclimate.CSV_HEADER}\nA1,{cell},0,0,0,0,0,0,0\n")
    code, out, err = run(capsys, "gws", "--input", str(f))
    assert code == 2 and out == ""
    assert err.startswith("equivar: NonFinite: row 2: ") and err.count("\n") == 1


def test_lone_surrogate_area_id_is_one_error_line_from_a_real_process(tmp_path):
    # Written to a real stdout, such an id could not be encoded as UTF-8.
    f = tmp_path / "areas.json"
    f.write_text(json.dumps([{"area": "\ud800", "directions": [0.1] * 8}]))
    proc = subprocess.run(
        [sys.executable, "-m", "equivar", "gws", "--input", str(f), "--format", "json",
         "--chart", "-", "--no-timestamp"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("equivar: ParseError: entry 1: area id ")
    assert proc.stderr.count("\n") == 1


def test_non_utf8_input_is_the_same_parse_error_everywhere(capsys, tmp_path):
    f = tmp_path / "latin1.csv"
    f.write_bytes("0.5,0.5 # \xe9t\xe9\n".encode("latin-1"))
    lines = []
    for argv in (["analyze"], ["analyze", "--format", "json"], ["gws"], ["gws", "--format", "json"]):
        code, out, err = run(capsys, *argv, "--input", str(f))
        assert code == 2 and out == ""
        lines.append(err)
    assert len(set(lines)) == 1
    assert lines[0].startswith("equivar: ParseError: input is not valid UTF-8: ")
    assert lines[0].count("\n") == 1


def test_deep_nesting_at_the_json_limit_is_one_error_line(capsys, tmp_path):
    # A value nested just shallower than json.loads can go must not be
    # printed in an error: json.dumps would run out of stack on it.
    f = tmp_path / "deep.json"

    def decoded(command, text):
        f.write_text(text)
        code, out, err = run(capsys, command, "--input", str(f), "--format", "json")
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith("equivar: ")
        return "invalid JSON" not in err

    cases = [
        ("analyze", lambda a, o: f'{{"probs": {o}}}'),
        ("analyze", lambda a, o: f'{{"probs": [{a}]}}'),
        ("analyze", lambda a, o: f'{{"probs": [0.5, 0.5], "labels": {o}}}'),
        ("gws", lambda a, o: f'[{{"area": "A1", "directions": [{a}, 0, 0, 0, 0, 0, 0, 0]}}]'),
        ("gws", lambda a, o: f"[{o}]"),
    ]
    depth = sys.getrecursionlimit()  # down to the deepest array main() decodes
    while not decoded("analyze", "[" * depth + "]" * depth):
        depth -= 1
    for d in range(depth, depth - 6, -1):
        array, obj = "[" * d + "]" * d, '{"a": ' * d + "0" + "}" * d
        for command, make in cases:
            decoded(command, make(array, obj))


# Inputs for the fuzz test below: arbitrary bytes and JSON, plus JSON and
# CSV in the shapes the readers expect (probabilities of at most 1/8, so
# eight of them can make a valid area), each part of which may be wrong.
_SMALL = st.floats(0, 0.125)
_JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
_JSON_ANY = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=9) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=20,
)
_AREA_IDS = st.sampled_from(["A1", "A2", " A1", ""])
# Any code point, lone surrogates included (JSON escapes them; CSV input
# cannot hold them as UTF-8, so there they make the file invalid).
_ANY_CHAR = st.characters(exclude_categories=()) | st.characters(
    min_codepoint=0xD800, max_codepoint=0xDFFF
)
_UNICODE_IDS = st.text(_ANY_CHAR, max_size=4)
_JSON_DOCS = st.one_of(
    _JSON_ANY,
    st.lists(_SMALL | _JSON_SCALARS, max_size=9),
    st.fixed_dictionaries(
        {"probs": st.lists(_SMALL, max_size=9) | _JSON_ANY},
        optional={"labels": st.lists(st.text(max_size=2), max_size=9) | _JSON_ANY},
    ),
    st.lists(
        st.fixed_dictionaries(
            {
                "area": _AREA_IDS | _JSON_SCALARS | _UNICODE_IDS,
                "directions": st.lists(_SMALL, min_size=8, max_size=8) | _JSON_ANY,
            },
            optional={"region": _JSON_SCALARS},
        ),
        max_size=3,
    ),
)
_CSV_CELLS = _SMALL.map(repr) | st.sampled_from(["", " ", "x", "nan", "-0.1", "1e400", "1_0"])
_CSV_ROWS = st.builds(
    lambda area, cells: ",".join(area + cells),
    st.lists(_AREA_IDS | _UNICODE_IDS, max_size=1),
    st.lists(_SMALL.map(repr), min_size=8, max_size=8) | st.lists(_CSV_CELLS, max_size=9),
)
_CSV_TEXT = st.builds(
    lambda header, rows: "\n".join(header + rows) + "\n",
    st.sampled_from([[], [waveclimate.CSV_HEADER]]),
    st.lists(_CSV_ROWS, max_size=3),
)
_INPUTS = (
    st.binary(max_size=64)
    | _JSON_DOCS.map(lambda doc: json.dumps(doc).encode())
    | _CSV_TEXT.map(lambda text: text.encode("utf-8", "surrogatepass"))
    | st.lists(_SMALL.map(repr), min_size=1, max_size=8).map(lambda c: ",".join(c).encode())
)
_FUZZED_COMMANDS = [
    ["analyze", "--format", "csv"],
    ["analyze", "--format", "json"],
    ["gws", "--format", "csv", "--rank", "d", "--chart", "-"],
    ["gws", "--format", "json", "--rank", "d", "--chart", "-"],
    ["rose", "--area", "A1"],
]


def assert_chart_parses_back(out: str) -> list[str]:
    """The chart CSV after the JSON report holds the report's ids, 7 columns a
    row; returns the ids."""
    report, chart = out.split("# tool_version", 1)
    ids = sorted(entry["area_id"] for entry in json.loads(report)["payload"])
    body = chart.split("\narea_id,p_total,cv_rel,h_rel,d,f,g\n", 1)[1]
    rows = list(csv.reader(io.StringIO(body)))
    assert [row[0] for row in rows] == ids
    assert all(len(row) == 7 for row in rows)
    return ids


@settings(max_examples=100, deadline=None)
@given(data=_INPUTS)
def test_any_input_file_exits_0_or_one_typed_error_line(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzzed-input"
    path.write_bytes(data)
    for argv in _FUZZED_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([*argv, "--input", str(path), "--no-timestamp"])
        if code == 0:
            assert err.getvalue() == ""
            if argv[0] == "gws":
                assert_chart_parses_back(out.getvalue())
            continue
        assert code == 2 and out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and err.getvalue().endswith("\n"), lines
        name = re.match(r"equivar: (\w+): ", lines[0])
        assert name and issubclass(getattr(errors, name[1]), errors.EquivarError), lines


@settings(max_examples=150, deadline=None)
@given(ids=st.lists(_UNICODE_IDS | _AREA_IDS, min_size=1, max_size=3))
# Two code units of a surrogate pair: JSON escapes them, and reading the
# escapes back gives the one code point U+10000, as the JSON spec says.
@example(ids=["\ud800\udc00"])
def test_any_accepted_area_id_round_trips_through_the_chart(tmp_path_factory, ids):
    path = tmp_path_factory.getbasetemp() / "unicode-ids.json"
    path.write_text(json.dumps([{"area": i, "directions": [0.125] * 8} for i in ids]))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["gws", "--input", str(path), "--format", "json", "--chart", "-",
                     "--no-timestamp"])
    if code == 0:
        want = sorted(json.loads(json.dumps(i)).strip() for i in ids)
        assert assert_chart_parses_back(out.getvalue()) == want
    else:
        assert code == 2 and out.getvalue() == ""
        assert re.match(r"equivar: (ParseError|DuplicateAreaId): entry \d+: ", err.getvalue())


def test_infinite_fields_are_strict_json(capsys):
    code, out, _ = run(
        capsys, "analyze", "--probs", "1e-320", "--probs", "1e-320", "--no-timestamp"
    )
    assert code == 0
    body = strict_payload(out)
    assert body["equiv_number_d"] == "Infinity"
    assert body["avg_number_f"] == "Infinity"
    assert body["equiv_number_g"] == 1.0


def test_json_writer_spells_every_non_finite_float(capsys):
    payload = [
        {"a": math.nan, "b": -math.inf, "c": math.inf},
        {"a": 0.5, "b": "NaN", "c": 3},
        (math.inf, 1.5),
    ]
    cli._write_json(None, {"tool_version": cli.__version__, "command": "gws"}, payload)
    doc = json.loads(capsys.readouterr().out)
    assert doc["payload"] == [
        {"a": "NaN", "b": "-Infinity", "c": "Infinity"},
        {"a": 0.5, "b": "NaN", "c": 3},
        ["Infinity", 1.5],
    ]


def test_finite_json_output_is_unchanged(capsys):
    payload = {"x": [0.1, 1e-320, 2.0], "y": {"z": -0.0}}
    meta = {"tool_version": cli.__version__, "command": "analyze"}
    cli._write_json(None, meta, payload)
    doc = {**meta, "payload": payload}
    assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"


def test_analyze_requires_exactly_one_source(capsys, tmp_path):
    code, _, err = run(capsys, "analyze")
    assert code == 64
    f = tmp_path / "d.csv"
    f.write_text("0.5,0.5\n")
    code, _, err = run(capsys, "analyze", "--probs", "0.5", "--input", str(f))
    assert code == 64
    assert "usage error" in err


def test_analyze_writes_output_file(capsys, tmp_path):
    dest = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "analyze", "--probs", "0.5", "--probs", "0.5",
        "--output", str(dest), "--no-timestamp",
    )
    assert code == 0 and out == ""
    assert json.loads(dest.read_text())["payload"]["avg_number_f"] == 2.0


# ----------------------------------------------------------------------
# binomial-sweep


def test_sweep_small(capsys):
    code, out, _ = run(
        capsys, "binomial-sweep", "--n", "1", "--p-steps", "3", "--no-timestamp"
    )
    assert code == 0
    rows = csv_rows(out)
    assert rows[0] == "n,p,cv,cv_rel,entropy_bits,f,d,g"
    assert len(rows) == 1 + 3
    middle = rows[2].split(",")
    assert middle[0] == "1" and middle[1] == "0.5"
    assert middle[5] == "2"  # f


def test_sweep_full_grid(capsys):
    code, out, _ = run(
        capsys, "binomial-sweep", "--n", "1,2,5,10,50", "--p-steps", "101",
        "--no-timestamp",
    )
    assert code == 0
    assert len(csv_rows(out)) == 1 + 505


def test_sweep_past_float_coefficients(capsys):
    # C(1100, k) exceeds the float range near the mode.
    code, out, err = run(
        capsys, "binomial-sweep", "--n", "1100", "--p-steps", "5", "--no-timestamp"
    )
    assert code == 0 and err == ""
    rows = [r.split(",") for r in csv_rows(out)[1:]]
    assert len(rows) == 5
    assert all(math.isfinite(float(cell)) for row in rows for cell in row)
    d_half = float(next(row for row in rows if row[1] == "0.5")[6])
    want = Fraction(4**1100, math.comb(2200, 1100))
    assert abs(Fraction(d_half) - want) <= Fraction(1, 10**11) * want


@pytest.mark.parametrize(
    "argv",
    [
        ("binomial-sweep", "--n", "0", "--p-steps", "3"),
        ("binomial-sweep", "--n", "1", "--p-steps", "1"),
        ("binomial-sweep", "--n", "abc", "--p-steps", "3"),
        ("binomial-sweep", "--p-steps", "3"),
        ("binomial-sweep", "--n", ",", "--p-steps", "3"),
        ("binomial-sweep", "--n", "5,0", "--p-steps", "3"),
    ],
)
def test_sweep_usage_errors(capsys, argv):
    code, _, _ = run(capsys, *argv)
    assert code == 64


# ----------------------------------------------------------------------
# gws


def test_gws_rank_by_d(capsys):
    code, out, _ = run(
        capsys, "gws", "--input", sample_table_path(), "--rank", "d",
        "--no-timestamp",
    )
    assert code == 0
    ids = [entry["area_id"] for entry in payload_of(out)]
    assert ids.index("A86") < ids.index("A64")
    assert ids == sorted(
        ids,
        key=lambda a: -next(
            e["report"]["equiv_number_d"] for e in payload_of(out) if e["area_id"] == a
        ),
    )


def test_gws_report_golden_values(capsys):
    code, out, _ = run(capsys, "gws", "--input", sample_table_path(), "--no-timestamp")
    assert code == 0
    reports = {e["area_id"]: e["report"] for e in payload_of(out)}
    a64, a86 = reports["A64"], reports["A86"]
    assert abs(a64["equiv_number_d"] - 2.33) <= 0.01
    assert abs(a64["avg_number_f"] - 3.01) <= 0.02
    assert abs(a86["equiv_number_d"] - 8.32) <= 0.01
    assert abs(a86["entropy_bits"] - 3.03) <= 0.01


def test_gws_chart_file(capsys, tmp_path):
    report = tmp_path / "report.json"
    chart = tmp_path / "chart.csv"
    code, out, _ = run(
        capsys, "gws", "--input", sample_table_path(),
        "--report", str(report), "--chart", str(chart), "--no-timestamp",
    )
    assert code == 0 and out == ""
    rows = csv_rows(chart.read_text())
    assert rows[0] == "area_id,p_total,cv_rel,h_rel,d,f,g"
    ids = [r.split(",")[0] for r in rows[1:]]
    assert ids == sorted(ids)  # chart is always area-sorted


@pytest.mark.parametrize("rank", [[], ["--rank", "d"]], ids=["unranked", "ranked"])
def test_gws_chart_of_an_empty_table_writes_nothing(capsys, tmp_path, rank):
    table, report = tmp_path / "empty.csv", tmp_path / "report.json"
    table.write_text("area,dN,dNE,dE,dSE,dS,dSW,dW,dNW\n")
    for dest in ([], ["--report", str(report)]):
        code, out, err = run(capsys, "gws", "--input", str(table), *dest, *rank,
                             "--chart", str(tmp_path / "chart.csv"), "--no-timestamp")
        assert code == 2 and out == "" and "EmptyInput" in err
    assert list(tmp_path.iterdir()) == [table]


def test_gws_json_input(capsys, tmp_path):
    doc = [{"area": "A64", "directions": [0.0042, 0.0098, 0.1151, 0.6081,
                                          0.2110, 0.0234, 0.0049, 0.0033]}]
    f = tmp_path / "areas.json"
    f.write_text(json.dumps(doc))
    code, out, _ = run(
        capsys, "gws", "--input", str(f), "--format", "json", "--no-timestamp"
    )
    assert code == 0
    assert payload_of(out)[0]["report"]["p_total"] == 0.9798


def test_gws_analyzes_each_area_once(capsys, tmp_path, monkeypatch):
    calls = []

    def counted(dist):
        calls.append(dist)
        return analyze(dist)

    monkeypatch.setattr(waveclimate, "analyze", counted)
    report, chart = tmp_path / "report.json", tmp_path / "chart.csv"
    code, _, _ = run(
        capsys, "gws", "--input", sample_table_path(), "--rank", "d",
        "--report", str(report), "--chart", str(chart), "--no-timestamp",
    )
    assert code == 0
    n_areas = len(csv_rows(chart.read_text())) - 1
    assert n_areas == 5 and len(calls) == n_areas


def test_gws_missing_file(capsys):
    code, _, err = run(capsys, "gws", "--input", "/no/such/file.csv")
    assert code == 2
    assert "cannot open input" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--probs", "1", "--output"],
        ["binomial-sweep", "--n", "2", "--p-steps", "3", "--output"],
        ["gws", "--input", sample_table_path(), "--report"],
        ["rose", "--input", sample_table_path(), "--area", "A64", "--output"],
        ["oracle", "--check", "bounds", "--probs", "1", "--output"],
    ],
    ids=lambda argv: argv[0],
)
def test_an_output_that_cannot_be_opened_says_so(capsys, tmp_path, argv):
    missing = tmp_path / "no-such-dir" / "out"
    code, out, err = run(capsys, *argv, str(missing))
    assert (code, out) == (2, "")
    assert err == f"equivar: cannot open output: [Errno 2] No such file or directory: '{missing}'\n"


# A write failure is one line and exit 2. Unbuffered (PYTHONUNBUFFERED), the
# write itself fails; buffered, the flush does, and the text it leaves
# behind must not fail again at exit, which would set the status to 120.
_ENOSPC = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"


def _buffered_run(argv, **kwargs):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run(argv, stderr=subprocess.PIPE, text=True, env=env, **kwargs)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--probs", "0.5", "--probs", "0.5"],
        ["binomial-sweep", "--n", "3", "--p-steps", "3"],
        ["analyze", "--probs", "0.5", "--probs", "0.5", "--output", "/dev/full"],
    ],
    ids=["analyze", "binomial-sweep", "output-file"],
)
def test_a_failed_write_is_one_line_and_exit_2(argv):
    with open("/dev/full", "w") as full:
        proc = _buffered_run([sys.executable, "-m", "equivar", *argv, "--no-timestamp"], stdout=full)
    assert (proc.returncode, proc.stderr) == (2, f"equivar: cannot write output: {_ENOSPC}\n")


@pytest.mark.skipif(os.name != "posix", reason="closes fd 1 with sh")
def test_a_closed_stdout_is_one_line_and_exit_2():
    proc = _buffered_run(
        ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "equivar",
         "analyze", "--probs", "0.5", "--probs", "0.5", "--no-timestamp"],
    )
    # With fd 1 closed at start CPython sets sys.stdout to None; a stream
    # left on a closed fd would fail its write with EBADF. Either is one line.
    assert proc.returncode == 2
    assert proc.stderr.startswith("equivar: cannot write output: ") and proc.stderr.count("\n") == 1


# With fd 2 closed the diagnostic cannot be printed, and the failed write
# must not turn the exit code into 1 (an oracle check failed) or 120.
@pytest.mark.skipif(os.name != "posix", reason="closes fd 2 with sh")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv, code",
    [
        (["analyze", "--probs", "2"], 2),
        (["analyze", "--probs", "0.5", "--bogus"], 64),
        (["binomial-sweep", "--n", "0", "--p-steps", "3"], 64),
        (["analyze", "--probs", "0.5", "--probs", "0.5", "--no-timestamp"], 0),
    ],
    ids=["data-error", "usage-error", "parameter-error", "ok"],
)
def test_a_closed_stderr_keeps_the_exit_code(argv, code, unbuffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.run(
        ["sh", "-c", 'exec "$@" 2>&-', "sh", sys.executable, "-m", "equivar", *argv],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    assert proc.returncode == code
    assert (proc.stdout == "") == (code != 0)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_failed_write_with_a_closed_stderr_is_exit_2():
    with open("/dev/full", "w") as full:
        proc = _buffered_run(
            ["sh", "-c", 'exec "$@" 2>&-', "sh", sys.executable, "-m", "equivar",
             "analyze", "--probs", "0.5", "--probs", "0.5", "--no-timestamp"],
            stdout=full,
        )
    assert proc.returncode == 2


def test_gws_chart_that_cannot_be_opened_still_leaves_the_report(capsys, tmp_path):
    report, chart = tmp_path / "r.json", tmp_path / "no-such-dir" / "c.csv"
    code, out, err = run(
        capsys, "gws", "--input", sample_table_path(),
        "--report", str(report), "--chart", str(chart), "--no-timestamp",
    )
    assert (code, out) == (2, "")
    assert err.startswith("equivar: cannot open output: ")
    assert str(chart) in err
    assert len(payload_of(report.read_text())) > 0


def test_gws_parse_error_names_row(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("area,dN,dNE,dE,dSE,dS,dSW,dW,dNW\nA1,0.1,0.1\n")
    code, _, err = run(capsys, "gws", "--input", str(bad))
    assert code == 2
    assert "row 2" in err


# ----------------------------------------------------------------------
# rose


def test_rose_a64(capsys):
    code, out, _ = run(
        capsys, "rose", "--input", sample_table_path(), "--area", "A64",
        "--no-timestamp",
    )
    assert code == 0
    rows = csv_rows(out)
    assert rows[0] == "bearing_deg,direction,probability"
    assert len(rows) == 1 + 8
    assert "135,SE,0.6081" in rows


def test_rose_a86_max_spoke(capsys):
    code, out, _ = run(
        capsys, "rose", "--input", sample_table_path(), "--area", "A86",
        "--no-timestamp",
    )
    assert code == 0
    spokes = [r.split(",") for r in csv_rows(out)[1:]]
    top = max(spokes, key=lambda s: float(s[2]))
    assert top == ["270", "W", "0.1489"]


def test_rose_unknown_area(capsys):
    code, _, err = run(
        capsys, "rose", "--input", sample_table_path(), "--area", "A99"
    )
    assert code == 2
    assert "UnknownArea" in err


# ----------------------------------------------------------------------
# CSV bytes: each expected text is built from library calls, with str()
# for integers and 12 significant digits for floats.


def _csv_text(command, header, rows):
    lines = [f"# tool_version: {cli.__version__}", f"# command: {command}", header]
    lines += [",".join(row) for row in rows]
    return "\n".join(lines) + "\n"


def _g12(x):
    return format(x, ".12g")


def test_sweep_csv_bytes_match_the_library(capsys):
    ns = [1, 2, 5, 10, 50, 1100]
    code, out, _ = run(
        capsys, "binomial-sweep", "--n", ",".join(map(str, ns)), "--p-steps", "11",
        "--no-timestamp",
    )
    rows = [
        [str(pt.n), *map(_g12, (pt.p, r.cv, r.cv_rel, r.entropy_bits,
                                r.avg_number_f, r.equiv_number_d, r.equiv_number_g))]
        for pt in sweep_binomial(ns, 11)
        for r in [pt.report]
    ]
    assert code == 0
    assert out == _csv_text("binomial-sweep", "n,p,cv,cv_rel,entropy_bits,f,d,g", rows)


def test_rose_csv_bytes_match_the_library(capsys):
    with open(sample_table_path(), "rb") as fh:
        records = waveclimate.parse_area_table(fh.read())
    for rec in records:
        code, out, _ = run(
            capsys, "rose", "--input", sample_table_path(), "--area", rec.area_id,
            "--no-timestamp",
        )
        rows = [
            [_g12(bearing), label, _g12(p)]
            for bearing, label, p in zip(
                waveclimate.BEARINGS_DEG, waveclimate.DIRECTION_LABELS, rec.directions.probs
            )
        ]
        assert code == 0
        assert out == _csv_text("rose", "bearing_deg,direction,probability", rows)


# ----------------------------------------------------------------------
# oracle


def test_oracle_max_variance(capsys):
    code, out, _ = run(
        capsys, "oracle", "--check", "max-variance", "--n", "3",
        "--p-total", "1", "--trials", "100000", "--seed", "42", "--no-timestamp",
    )
    assert code == 0
    body = payload_of(out)
    assert body["value_found"] <= 0.2223
    assert body["seed"] == 42 and body["trials"] == 100000


def test_oracle_max_variance_defaults_trials_and_seed(capsys):
    code, out, _ = run(
        capsys, "oracle", "--check", "max-variance", "--n", "3", "--p-total", "1",
        "--no-timestamp",
    )
    assert code == 0
    body = payload_of(out)
    assert body["trials"] == 100000 and body["seed"] == 0


def test_oracle_bounds_uniform(capsys):
    code, out, _ = run(
        capsys, "oracle", "--check", "bounds",
        *sum((["--probs", "0.25"] for _ in range(4)), []), "--no-timestamp",
    )
    assert code == 0
    assert "at lower bound" in payload_of(out)["target"]


def test_oracle_cross_a64(capsys):
    probs = ["0.0042", "0.0098", "0.1151", "0.6081",
             "0.2110", "0.0234", "0.0049", "0.0033"]
    argv = ["oracle", "--check", "cross", "--no-timestamp"]
    for p in probs:
        argv += ["--probs", p]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert payload_of(out)["residual"] <= 1e-12


def test_oracle_cross_where_the_float_sums_underflow(capsys):
    code, out, err = run(
        capsys, "oracle", "--check", "cross", "--probs", "1e-200", "--probs", "1e-200",
        "--no-timestamp",
    )
    assert code == 0 and err == ""
    assert strict_payload(out)["residual"] <= 1e-12


# Exit code of the cross check per vector: 1 where analyze's own entropy
# terms p * log2 p are all subnormal and lose digits, 0 where it is exact.
_SUBNORMAL_CROSS_EXIT = {
    ("5e-324",): 0,
    ("5e-324", "0", "0"): 0,
    ("3e-320", "1e-320"): 1,
    ("1e-320", "1e-320"): 1,
}


@pytest.mark.parametrize("probs", list(_SUBNORMAL_CROSS_EXIT))
def test_oracle_cross_on_subnormal_terms_ends_in_a_result(capsys, probs):
    argv = ["oracle", "--check", "cross", "--no-timestamp"]
    for p in probs:
        argv += ["--probs", p]
    code, out, err = run(capsys, *argv)
    assert code in (0, 1) and err == ""
    assert code == _SUBNORMAL_CROSS_EXIT[probs]
    body = strict_payload(out)
    assert (code == 0) == (body["residual"] != "Infinity" and body["residual"] <= 1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        ("oracle", "--check", "max-variance"),                      # missing flags
        ("oracle", "--check", "max-variance", "--n", "1", "--p-total", "1"),
        ("oracle", "--check", "bounds"),                            # missing probs
        ("oracle", "--check", "cross", "--n", "3"),                 # wrong flags
        ("oracle", "--check", "nonsense", "--n", "3"),
        ("oracle", "--check", "max-variance", "--n", "3", "--p-total", "1", "--trials", "0"),
        ("oracle", "--check", "max-variance", "--n", "3", "--p-total", "1", "--seed", "-1"),
        ("oracle", "--check", "max-variance", "--n", "3", "--p-total", "1", "--probs", "0.5"),
        ("oracle", "--check", "cross", "--probs", "0.5", "--probs", "0.5", "--n", "3"),
        ("oracle", "--check", "cross", "--probs", "0.5", "--probs", "0.5", "--seed", "7"),
        ("oracle", "--check", "bounds", "--probs", "0.5", "--probs", "0.5", "--trials", "3"),
    ],
)
def test_oracle_usage_errors(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 64
    assert err.startswith("equivar: usage error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [("--version",), ("--help",)]
    + [(cmd, "--help") for cmd in ("analyze", "binomial-sweep", "gws", "rose", "oracle")],
)
def test_help_and_version_screens_exit_0(capsys, argv):
    # A stray % in a help string would crash argparse's help formatting here.
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0
    out = capsys.readouterr().out
    if argv == ("--version",):
        assert out == "equivar 0.1.0\n"
    else:
        assert out.startswith("usage: equivar")


@pytest.mark.parametrize("cell", ["0.2_5", "\u0660.\u0665"], ids=["underscore", "arabic-indic-digits"])
@pytest.mark.parametrize("command", [("analyze",), ("oracle", "--check", "cross")])
def test_probs_flag_refuses_what_a_csv_cell_refuses(capsys, command, cell):
    code, out, err = run(capsys, *command, "--probs", cell, "--probs", "0.75")
    assert code == 64 and out == ""
    assert err == f"equivar: usage error: argument --probs: invalid probability value: {cell!r}\n"


_MAX_VARIANCE = ("oracle", "--check", "max-variance", "--n", "3", "--p-total", "1", "--trials", "100")


@pytest.mark.parametrize(
    "argv, flag, kind, value",
    [
        (("binomial-sweep", "--n", "1_0,\u0663", "--p-steps", "2"), "--n", "integer_list", "1_0,\u0663"),
        (("binomial-sweep", "--n", "3", "--p-steps", "1_1"), "--p-steps", "integer", "1_1"),
        (("oracle", "--check", "max-variance", "--n", "3", "--p-total", "0.9_5", "--seed", "\u0663"),
         "--p-total", "probability", "0.9_5"),
        (("oracle", "--check", "max-variance", "--n", "\u0663", "--p-total", "1"), "--n", "integer", "\u0663"),
        ((*_MAX_VARIANCE, "--seed", "\u0663"), "--seed", "integer", "\u0663"),
        ((*_MAX_VARIANCE, "--trials", "1_000"), "--trials", "integer", "1_000"),
    ],
    ids=["sweep-n", "p-steps", "p-total", "oracle-n", "seed", "trials"],
)
def test_numeric_flags_refuse_what_a_csv_cell_refuses(capsys, argv, flag, kind, value):
    code, out, err = run(capsys, *argv)
    assert code == 64 and out == ""
    assert err == f"equivar: usage error: argument {flag}: invalid {kind} value: {value!r}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("binomial-sweep", "--n", "0", "--p-steps", "3"), "need n >= 1, got 0"),
        (("binomial-sweep", "--n", "5,0", "--p-steps", "3"), "need n >= 1, got 0"),
        (("binomial-sweep", "--n", ",", "--p-steps", "3"),
         "argument --n: invalid integer_list value: ','"),
        (("binomial-sweep", "--n", "1", "--p-steps", "1"), "need p_steps >= 2, got 1"),
        ((*_MAX_VARIANCE[:4], "1", *_MAX_VARIANCE[5:]), "need n >= 2, got 1"),
        ((*_MAX_VARIANCE[:6], "0"), "need 0 < p_total <= 1, got 0.0"),
        ((*_MAX_VARIANCE, "--trials", "0"), "need trials >= 1, got 0"),
        ((*_MAX_VARIANCE, "--seed", "-1"), "need seed >= 0, got -1"),
        (("binomial-sweep", "--n", "3", "--p-steps", str(sys.maxsize)),
         f"need (number of n) * p_steps <= 1048576 cells, got 1 * {sys.maxsize}"),
        (("binomial-sweep", "--n", str(2**62), "--p-steps", "3"),
         f"need n <= 1048576 when 0 < p < 1, got {2**62}"),
        ((*_MAX_VARIANCE[:4], str(2**60), *_MAX_VARIANCE[5:]),
         f"need n * trials <= {2**60 - 1} values in one array, got {2**60} * 1"),
        ((*_MAX_VARIANCE[:8], "99999999999999999999"), "need trials <= 1000000000, got 99999999999999999999"),
    ],
    ids=["n-0", "n-5-0", "n-empty", "p-steps-1", "mc-n-1", "p-total-0", "trials-0", "seed-neg",
         "sweep-cells", "sweep-row", "mc-array-size", "mc-trials"],
)
def test_out_of_range_flag_values_are_usage_errors_naming_the_value(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 64 and out == ""
    assert err == f"equivar: usage error: {message}\n"


@pytest.mark.parametrize(
    "argv, plain",
    [
        (("binomial-sweep", "--n", " 1,+2,,05, ", "--p-steps", " 3"),
         ("binomial-sweep", "--n", "1,2,5", "--p-steps", "3")),
        ((*_MAX_VARIANCE[:6], "+0.5e0", "--trials", " 0100", "--seed", "+7 "),
         (*_MAX_VARIANCE[:6], "0.5", "--trials", "100", "--seed", "7")),
    ],
    ids=["binomial-sweep", "oracle"],
)
def test_numeric_flags_read_every_ascii_spelling_int_and_float_take(capsys, argv, plain):
    got, want = run(capsys, *argv, "--no-timestamp"), run(capsys, *plain, "--no-timestamp")
    assert got == want and got[0] == 0


def test_oracle_incomplete_bounds_is_data_error(capsys):
    code, _, err = run(
        capsys, "oracle", "--check", "bounds", "--probs", "0.5", "--probs", "0.25"
    )
    assert code == 2
    assert "IncompleteDistribution" in err


# ----------------------------------------------------------------------
# envelope and determinism


def test_envelope_carries_timestamp_by_default(capsys):
    _, out, _ = run(capsys, "analyze", "--probs", "1")
    doc = json.loads(out)
    assert doc["command"] == "analyze"
    assert RFC3339.match(doc["generated_at"])


def test_no_timestamp_output_is_byte_stable(capsys):
    argv = ("gws", "--input", sample_table_path(), "--rank", "f", "--no-timestamp")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second and "generated_at" not in first


SUBCOMMAND_ARGV = {
    "analyze": ["--probs", "1"],
    "binomial-sweep": ["--n", "1", "--p-steps", "2"],
    "gws": ["--input", sample_table_path()],
    "rose": ["--input", sample_table_path(), "--area", "A64"],
    "oracle": ["--check", "bounds", "--probs", "0.5", "--probs", "0.5"],
}


@pytest.mark.parametrize("command", SUBCOMMAND_ARGV)
def test_every_subcommand_names_itself_in_the_envelope(capsys, command):
    code, out, _ = run(capsys, command, *SUBCOMMAND_ARGV[command])
    assert code == 0
    if out.startswith("#"):
        assert f"# command: {command}" in out.splitlines()
    else:
        assert json.loads(out)["command"] == command


def test_every_output_of_one_run_carries_one_timestamp(capsys, tmp_path, monkeypatch):
    ticks = iter(range(1_000_000_000, 1_000_000_100))
    real_gmtime = cli.time.gmtime
    monkeypatch.setattr(cli.time, "gmtime", lambda *_: real_gmtime(next(ticks)))
    report, chart = tmp_path / "r.json", tmp_path / "c.csv"
    code, _, _ = run(
        capsys, "gws", "--input", sample_table_path(),
        "--report", str(report), "--chart", str(chart),
    )
    assert code == 0
    stamp = json.loads(report.read_text())["generated_at"]
    assert RFC3339.match(stamp)
    assert f"# generated_at: {stamp}" in chart.read_text().splitlines()


def test_csv_comment_header(capsys):
    _, out, _ = run(capsys, "binomial-sweep", "--n", "1", "--p-steps", "2")
    comments = [line for line in out.splitlines() if line.startswith("#")]
    assert any("tool_version" in c for c in comments)
    assert any("command: binomial-sweep" in c for c in comments)
    assert any("generated_at" in c for c in comments)


def test_unknown_command_is_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 64


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "equivar", "analyze", "--probs", "0.5",
         "--probs", "0.5", "--no-timestamp"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["payload"]["equiv_number_d"] == 2.0


# Modules a CLI start must not load: numpy serves only the Monte-Carlo
# oracle, the exact moments are integer arithmetic, the records need no
# dataclass machinery (dataclasses pulls in inspect), and the timestamp is
# formatted by time.strftime, so nothing needs datetime.
_UNLOADED_AT_START = ("numpy", "fractions", "dataclasses", "inspect", "datetime")


def test_cli_import_loads_neither_numpy_nor_fractions():
    # One fresh process checks every name; the list names any that loaded.
    code = (
        "import sys, equivar.cli; "
        f"print(*[m for m in {_UNLOADED_AT_START!r} if m in sys.modules])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_cli_import_on_a_plain_interpreter_loads_neither_typing_nor_importlib_resources():
    # Under -S no site module preloads them, so any load is equivar's own.
    code = (
        "import sys, equivar.cli; "
        "print(*[m for m in ('typing', 'importlib.resources') if m in sys.modules])"
    )
    # -S drops site-packages, so the child is told where this equivar lies.
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_timestamp_is_printed_by_a_fresh_process():
    # A fresh process holds only the modules the CLI itself imports.
    json_out, csv_out = (
        subprocess.run([sys.executable, "-m", "equivar", *argv],
                       capture_output=True, text=True, check=True).stdout
        for argv in (["analyze", "--probs", "1"],
                     ["binomial-sweep", "--n", "1", "--p-steps", "2"])
    )
    assert RFC3339.match(json.loads(json_out)["generated_at"])
    stamps = [line for line in csv_out.splitlines() if line.startswith("# generated_at: ")]
    assert len(stamps) == 1 and RFC3339.match(stamps[0].removeprefix("# generated_at: "))


@pytest.mark.parametrize(
    "argv, most",
    [
        (("binomial-sweep", "--n", "99999999999999999999", "--p-steps", "2"), sys.maxsize - 1),
        ((*_MAX_VARIANCE[:4], str(2**63), *_MAX_VARIANCE[5:]), sys.maxsize),
    ],
    ids=["binomial-sweep", "oracle"],
)
def test_a_size_past_the_index_range_is_a_usage_error(capsys, argv, most):
    code, out, err = run(capsys, *argv)
    assert code == 64 and out == ""
    assert err == f"equivar: usage error: need n <= {most}, got {argv[argv.index('--n') + 1]}\n"


@pytest.mark.parametrize("p_steps", [2**63, 10**20])
def test_p_steps_past_the_index_range_is_a_usage_error(capsys, p_steps):
    code, out, err = run(capsys, "binomial-sweep", "--n", "1", "--p-steps", str(p_steps))
    assert (code, out) == (64, "")
    assert err == f"equivar: usage error: need p_steps <= {sys.maxsize}, got {p_steps}\n"


@pytest.mark.parametrize(
    "exc, line",
    [
        (MemoryError(), "an allocation failed"),
        (MemoryError("Unable to allocate 8.00 TiB"), "Unable to allocate 8.00 TiB"),
    ],
    ids=["bare", "with-message"],
)
def test_running_out_of_memory_is_one_line_and_exit_2(capsys, monkeypatch, exc, line):
    def allocate(dist):
        raise exc

    monkeypatch.setattr(cli, "analyze", allocate)
    code, out, err = run(capsys, "analyze", "--probs", "1")
    assert (code, out, err) == (2, "", f"equivar: out of memory: {line}\n")
