"""End-to-end tests of the command-line interface and its exit-code contract."""

import json
import math
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from equivar import analyze, sample_table_path, waveclimate
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


@pytest.mark.parametrize(
    "argv",
    [
        ("oracle", "--check", "max-variance"),                      # missing flags
        ("oracle", "--check", "max-variance", "--n", "1", "--p-total", "1"),
        ("oracle", "--check", "bounds"),                            # missing probs
        ("oracle", "--check", "cross", "--n", "3"),                 # wrong flags
        ("oracle", "--check", "nonsense", "--n", "3"),
    ],
)
def test_oracle_usage_errors(capsys, argv):
    code, _, _ = run(capsys, *argv)
    assert code == 64


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


def test_cli_import_loads_neither_numpy_nor_fractions():
    # numpy is needed only by the Monte-Carlo oracle and the exact moments
    # are integer arithmetic, so a CLI start must load neither module.
    code = "import sys, equivar.cli; print('numpy' in sys.modules, 'fractions' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]
