"""Reference outputs of equivar 0.1.0, the commit this benchmark was defined on.

The benchmark's correctness gate compares every report field and every
output byte against this module, so a faster kernel passes only when it
changes no output bit. The formulas below are those of the 0.1.0
``indicators.analyze`` and of the ``gws``, ``rose`` and ``analyze`` writers,
kept here unchanged. Only the exact sums differ in method: 0.1.0 adds
``Fraction`` objects one by one, while :func:`exact_sums` adds integer
mantissas per binary exponent and builds one ``Fraction`` at the end. Both
give the same rational number, so every value rounded from it is the same.

This module imports nothing from equivar, so it stays fixed while the
package changes.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Sequence

DIRECTION_LABELS = ("N", "NE", "E", "SE", "S", "SW", "W", "NW")
BEARINGS_DEG = (0.0, 45.0, 90.0, 135.0, 180.0, 225.0, 270.0, 315.0)

_TWO_53 = float(1 << 53)


def exact_sums(probs: Sequence[float]) -> tuple[Fraction, Fraction]:
    """Sum and sum of squares of finite non-negative floats, as exact rationals."""
    acc: dict[int, int] = {}
    acc2: dict[int, int] = {}
    for p in probs:
        if p == 0.0:
            continue
        m, e = math.frexp(p)
        mant = int(m * _TWO_53)  # exact: p == mant * 2**(e - 53)
        e -= 53
        acc[e] = acc.get(e, 0) + mant
        acc2[2 * e] = acc2.get(2 * e, 0) + mant * mant
    return _scaled_sum(acc), _scaled_sum(acc2)


def _scaled_sum(acc: dict[int, int]) -> Fraction:
    if not acc:
        return Fraction(0)
    low = min(acc)
    total = sum(v << (e - low) for e, v in acc.items())
    return Fraction(total, 1 << -low) if low < 0 else Fraction(total << low)


def _to_float(x: Fraction) -> float:
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def shannon_entropy(probs: Sequence[float]) -> float:
    h = -math.fsum(p * math.log2(p) for p in probs if p > 0.0)
    return h + 0.0


def analyze(probs: Sequence[float]) -> dict:
    """The 0.1.0 indicator report of a valid vector with non-zero total, as a dict."""
    n = len(probs)
    s, s2 = exact_sums(probs)
    if s == 0:
        raise ValueError("zero total probability")

    p_total = float(s)
    cv2 = n * s2 / (s * s) - 1
    cv = math.sqrt(float(cv2))
    cv_rel = 0.0 if n == 1 else math.sqrt(float(cv2 / (n - 1)))

    h_bits = shannon_entropy(probs) / p_total
    h_rel = 0.0 if n == 1 else h_bits / math.log2(n)
    try:
        f = 2.0**h_bits
    except OverflowError:
        f = math.inf

    d_exact = 1 / s2
    rhs_exact = n / (s * s)
    d, g, rhs = _to_float(d_exact), float(1 + cv2), _to_float(rhs_exact)
    if math.isfinite(d * g) and math.isfinite(rhs):
        residual = abs(d * g - rhs) / rhs
    else:
        residual = float(abs(d_exact * (1 + cv2) / rhs_exact - 1))

    return {
        "n_outcomes": n,
        "p_total": p_total,
        "p_mean": float(s / n),
        "variance": float(s2 / n - (s / n) ** 2),
        "ref_variance": float(s * s * Fraction(n - 1, n * n)),
        "cv": cv,
        "cv_rel": cv_rel,
        "entropy_bits": h_bits,
        "entropy_rel": h_rel,
        "avg_number_f": f,
        "equiv_number_d": d,
        "equiv_number_g": g,
        "duality_residual": residual,
    }


def report_mismatch(got: dict, want: dict) -> str | None:
    """Name the first field whose value differs from the reference in any bit."""
    if list(got) != list(want):
        return f"fields {list(got)} != {list(want)}"
    for key, value in want.items():
        other = got[key]
        if type(other) is not type(value):
            return f"{key}: type {type(other).__name__} != {type(value).__name__}"
        if isinstance(value, float) and other.hex() != value.hex():
            return f"{key}: {other!r} != {value!r}"
        if other != value:
            return f"{key}: {other!r} != {value!r}"
    return None


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _json_doc(version: str, command: str, payload) -> bytes:
    doc = {"tool_version": version, "command": command, "payload": payload}
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def _csv_doc(version: str, command: str, header: str, rows: list[str]) -> bytes:
    lines = [f"# tool_version: {version}", f"# command: {command}", header, *rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def analyze_output(version: str, probs: Sequence[float]) -> bytes:
    """What ``equivar analyze --no-timestamp`` writes for this vector."""
    return _json_doc(version, "analyze", analyze(probs))


def gws_outputs(version: str, areas: Sequence[tuple[str, Sequence[float]]]) -> tuple[bytes, bytes]:
    """(report, chart) that ``equivar gws --rank d --chart C --no-timestamp`` writes."""
    reports = [(area_id, analyze(probs)) for area_id, probs in areas]
    ranked = sorted(reports, key=lambda ar: (-ar[1]["equiv_number_d"], ar[0]))
    report = _json_doc(
        version, "gws", [{"area_id": a, "report": r} for a, r in ranked]
    )
    rows = [
        ",".join(
            [
                a,
                _fmt(r["p_total"]),
                _fmt(r["cv_rel"]),
                _fmt(r["entropy_rel"]),
                _fmt(r["equiv_number_d"]),
                _fmt(r["avg_number_f"]),
                _fmt(r["equiv_number_g"]),
            ]
        )
        for a, r in sorted(reports, key=lambda ar: ar[0])
    ]
    chart = _csv_doc(version, "gws", "area_id,p_total,cv_rel,h_rel,d,f,g", rows)
    return report, chart


def rose_output(version: str, probs: Sequence[float]) -> bytes:
    """What ``equivar rose --no-timestamp`` writes for one area's directions."""
    rows = [
        f"{_fmt(bearing)},{label},{_fmt(p)}"
        for bearing, label, p in zip(BEARINGS_DEG, DIRECTION_LABELS, probs)
    ]
    return _csv_doc(version, "rose", "bearing_deg,direction,probability", rows)


def central_binomial_d(n: int) -> float:
    """D of B(n, 1/2), which is 4**n / C(2n, n) exactly, rounded once."""
    return float(Fraction(4**n, math.comb(2 * n, n)))
