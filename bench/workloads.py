"""The benchmark's four workloads: seeded inputs, one timed call per op, and the gate.

Every op runs twice, adjacently: once on the checkout's equivar (``src/``)
and once on the yardstick, a frozen copy of equivar 0.1.0 under
``bench/yardstick/``. ``Job.call`` takes the package to call as its
argument; only the checkout's result goes through the gate.

Every workload yields an endless stream of cycles of op specs
``(kind, payload)``, each cycle drawn from a random generator seeded by the
run's seed and the cycle index. A cycle holds every kind of op of the
workload (a shape and size, a band of n, a CLI call kind) a fixed number of
times, in seeded order, and runs measure whole cycles. So the seed changes
the values inside the ops but not the mix, and runs with different seeds
can be compared.

``prepare(spec)`` builds an op's inputs; only ``Job.call`` is timed; then
``Job.check`` classifies the result:

* ``ok``: the output passed the gate;
* ``known-defect``: the output is exactly the documented defect of
  equivar 0.1.0 on that input (binomial n >= 1030 overflows; three JSON
  inputs end in a traceback; a denormal vector prints a bare Infinity).
  A fix turns these into ``ok``;
* ``failed``: anything else. The run is then not correct.

Only ``ok`` ops add values, and the other two count as infinitely late.
``known_defect(spec)`` names the ops on which the yardstick, being 0.1.0,
shows a known defect; on the yardstick's side they count the same way.
"""

from __future__ import annotations

import importlib
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import count, cycle
from pathlib import Path
from random import Random
from time import perf_counter
from typing import Callable, Iterator

import reference

OK, DEFECT, FAILED = "ok", "known-defect", "failed"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Top-level package names: the checkout's equivar, and the yardstick copy as
# run.py imports it in process. Their CLI children both run ``-m equivar``.
CHECKOUT, YARDSTICK = "equivar", "equivar_yardstick"
PACKAGE_DIRS = {CHECKOUT: ROOT / "src", YARDSTICK: BENCH_DIR / "yardstick"}


def seeded_cycles(name: str, seed: int, make_cycle) -> Iterator[list]:
    for c in count():
        rng = Random(f"{name}:{seed}:{c}")
        cycle = make_cycle(rng, c)
        rng.shuffle(cycle)
        yield cycle


def mod(name: str, pkg: str = CHECKOUT):
    """A module of one package, looked up per call so that traced runs see the patched names."""
    return importlib.import_module(f"{pkg}.{name}")


def equivar_version() -> str:
    return importlib.import_module(CHECKOUT).__version__


@dataclass
class Job:
    """One prepared op: the timed call on a package and the gate applied to its result."""

    call: Callable[[str], object]
    check: Callable[[object, BaseException | None], tuple[str, str]]
    values: int
    # Optional untimed calls made after the op in traced runs only.
    probe: Callable[[object], None] | None = None


class Context:
    """Per-run state shared by the ops: temporary directory, tracer, child bookkeeping."""

    def __init__(self, tmp: Path, tracer=None):
        self.tmp = tmp
        self.tracer = tracer
        self.child_rss_kb = 0
        self.active_child: subprocess.Popen | None = None
        # Paired ops take turns at running the yardstick first.
        self.yardstick_first = cycle((True, False))
        self.env = {
            pkg: dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(d), os.environ.get("PYTHONPATH")])))
            for pkg, d in PACKAGE_DIRS.items()
        }


# ----------------------------------------------------------------------
# analyze-long


def long_vector(shape: str, wide: bool, n: int, seed: int) -> list[float]:
    """A probability vector of one of the four shapes, with a narrow or wide exponent range."""
    rng = Random(seed)
    if shape == "zipf":
        a = rng.uniform(0.8, 1.6)
        w = [(k + 1) ** -a for k in range(n)]
        rng.shuffle(w)
    else:
        w = [rng.uniform(0.5, 1.5) for _ in range(n)]
    if wide:
        # Spread the exponents down to ~1e-295 while staying normal floats.
        w = [x * 10.0 ** -rng.uniform(0.0, 290.0) for x in w]
    if shape == "zero-padded":
        zeros = n // 4
        w = w[: n - zeros] + [0.0] * zeros
    total = rng.uniform(0.9, 1.0) if shape == "incomplete" else 1.0
    s = math.fsum(w)
    return [x / s * total for x in w]


# Eight sizes per exponent range over N = 1e3..3e4; shape i gets sizes i and
# i + 4. Wide vectors cost about three times as much per value, so they stop
# at 7000, and a cycle of both runs in about 1.6 s at 0.1.0's speed.
LONG_SIZES = {
    False: [1000, 1400, 2000, 2800, 4000, 8000, 16000, 30000],
    True: [1000, 1200, 1500, 1800, 2200, 3000, 4500, 7000],
}
LONG_SHAPES = ("random", "zipf", "incomplete", "zero-padded")


class AnalyzeLong:
    name = "analyze-long"
    modules = ("equivar",)
    pair_every = 1  # every op also runs on the yardstick
    KINDS = [
        (shape, wide, n)
        for i, shape in enumerate(LONG_SHAPES)
        for wide in (False, True)
        for n in (LONG_SIZES[wide][i], LONG_SIZES[wide][i + 4])
    ]

    def cycles(self, seed: int) -> Iterator[list]:
        return seeded_cycles(self.name, seed, lambda rng, c: [(kind, rng.getrandbits(64)) for kind in self.KINDS])

    def warmup_spec(self, seed: int) -> tuple:
        return ("random", False, 1000), seed

    def side_specs(self, seed: int) -> list[tuple]:
        return [(("random", False, 1000), seed), (("zipf", True, 1000), seed + 1)]

    def peak_specs(self, seed: int) -> list[tuple]:
        return [(("zero-padded", False, 30000), seed), (("zero-padded", True, 7000), seed)]

    def known_defect(self, spec: tuple) -> bool:
        return False

    def prepare(self, spec: tuple, ctx: Context) -> Job:
        (shape, wide, n), seed = spec
        probs = long_vector(shape, wide, n, seed)
        held = {}

        def call(pkg):
            held[pkg] = mod("distributions", pkg).from_probabilities(probs)
            return mod("indicators", pkg).analyze(held[pkg])

        def check(report, err):
            if err is not None:
                return FAILED, f"{spec[0]}: {err!r}"
            bad = reference.report_mismatch(report.to_dict(), reference.analyze(probs))
            return (FAILED, f"{spec[0]}: {bad}") if bad else (OK, "")

        def probe(report):
            ind, dist = mod("indicators"), held[CHECKOUT]
            with ctx.tracer.span("probe.variance", values=dist.n):
                ind.variance(dist)
            with ctx.tracer.span("probe.entropy", values=dist.n):
                ind.shannon_entropy(dist)

        return Job(call, check, len(probs), probe)

    def trace(self, tracer) -> None:
        patch_indicators(tracer)
        tracer.patch(mod("indicators"), "analyze", "indicators.analyze",
                     lambda a, r: {"values": a[0].n})


def patch_indicators(tracer) -> None:
    """Span every Distribution validation, the input check all layers share."""
    tracer.patch(mod("indicators").Distribution, "__post_init__", "indicators.validate",
                 lambda a, r: {"values": len(a[0].probs)})


# ----------------------------------------------------------------------
# gws-table

CSV_HEADER = "area,dN,dNE,dE,dSE,dS,dSW,dW,dNW"


def area_units(rng: Random) -> list[int]:
    """Eight directions in units of 1e-4; a fifth of the rows complete, the rest 0.90-0.9999."""
    total = 10000 if rng.random() < 0.2 else rng.randint(9000, 9999)
    skew = rng.uniform(1.0, 3.0)
    w = [rng.expovariate(1.0) ** skew for _ in range(8)]
    s = sum(w)
    units = [int(x / s * total) for x in w]
    units[units.index(max(units))] += total - sum(units)
    return units


def gws_table(n_areas: int, fmt: str, seed: int) -> tuple[list[tuple[str, list[float]]], str]:
    """A GWS-style table: area rows of 4-decimal probabilities, as CSV or JSON text."""
    rng = Random(seed)
    ids = [f"A{i:04d}" for i in rng.sample(range(10000), n_areas)]
    areas, texts = [], []
    for area_id in ids:
        cells = [f"{u / 10000:.4f}" for u in area_units(rng)]
        areas.append((area_id, [float(c) for c in cells]))
        texts.append((area_id, cells))
    if fmt == "csv":
        lines = [CSV_HEADER] + [",".join([a, *cells]) for a, cells in texts]
        return areas, "\n".join(lines) + "\n"
    entries = [
        f'  {{"area": "{a}", "region": "R{i % 7}", "directions": [{", ".join(cells)}]}}'
        for i, (a, cells) in enumerate(texts)
    ]
    return areas, "[\n" + ",\n".join(entries) + "\n]\n"


class GwsTable:
    name = "gws-table"
    modules = ("equivar", "equivar.cli")
    pair_every = 1  # every op also runs on the yardstick
    KINDS = [(areas, fmt) for areas in (200, 267, 333, 400) for fmt in ("csv", "json")]

    def cycles(self, seed: int) -> Iterator[list]:
        return seeded_cycles(self.name, seed, lambda rng, c: [(kind, rng.getrandbits(64)) for kind in self.KINDS])

    def warmup_spec(self, seed: int) -> tuple:
        return (300, "csv"), seed

    def side_specs(self, seed: int) -> list[tuple]:
        return [((200, "csv"), seed), ((200, "json"), seed + 1)]

    def peak_specs(self, seed: int) -> list[tuple]:
        return [((400, "csv"), seed), ((400, "json"), seed)]

    def known_defect(self, spec: tuple) -> bool:
        return False

    def prepare(self, spec: tuple, ctx: Context) -> Job:
        (n_areas, fmt), seed = spec
        areas, text = gws_table(n_areas, fmt, seed)
        table = ctx.tmp / f"gws-table.{fmt}"
        table.write_text(text, encoding="utf-8")
        report, chart = ctx.tmp / "gws-report.json", ctx.tmp / "gws-chart.csv"
        argv = ["gws", "--input", str(table), "--format", fmt, "--report", str(report),
                "--chart", str(chart), "--rank", "d", "--no-timestamp"]
        streams = (io.StringIO(), io.StringIO())

        def call(pkg):
            for path in (report, chart):
                path.unlink(missing_ok=True)
            for stream in streams:
                stream.seek(0)
                stream.truncate()
            with redirect_stdout(streams[0]), redirect_stderr(streams[1]):
                return mod("cli", pkg).main(argv)

        def check(code, err):
            if err is not None or code != 0:
                return FAILED, f"gws {spec}: exit {code} {err!r} {streams[1].getvalue()!r}"
            if streams[0].getvalue() or streams[1].getvalue():
                return FAILED, f"gws {spec}: unexpected output on stdout/stderr"
            want_report, want_chart = reference.gws_outputs(equivar_version(), areas)
            if report.read_bytes() != want_report:
                return FAILED, f"gws {spec}: report bytes differ from the reference"
            if chart.read_bytes() != want_chart:
                return FAILED, f"gws {spec}: chart bytes differ from the reference"
            return OK, ""

        return Job(call, check, 8 * n_areas)

    def trace(self, tracer) -> None:
        cli, wave = mod("cli"), mod("waveclimate")
        patch_indicators(tracer)
        tracer.patch(cli, "parse_area_table", "waveclimate.parse",
                     lambda a, r: {"areas": len(r) if r else 0})
        tracer.patch(cli, "rank_areas", "waveclimate.rank")
        tracer.patch(cli, "chart_data", "waveclimate.chart")
        tracer.patch(wave, "analyze", "indicators.analyze",
                     lambda a, r: {"values": a[0].n, "caller": "waveclimate"})


# ----------------------------------------------------------------------
# binomial-sweep

P_STEPS = 5  # odd, so the grid holds p = 1/2
BINOMIAL_OVERFLOW_N = 1030  # equivar 0.1.0 raises OverflowError from here on
N_MAX = 1100


def check_sweep(points, n: int) -> str | None:
    """Analytic oracles any correct pmf passes; names the first violation."""
    grid = [i / (P_STEPS - 1) for i in range(P_STEPS)]
    if [(pt.n, pt.p) for pt in points] != [(n, p) for p in grid]:
        return "grid cells differ"
    for pt in points:
        r = pt.report
        if not r.duality_residual <= 1e-12:
            return f"p={pt.p}: duality residual {r.duality_residual!r}"
        if not abs(r.p_total - 1.0) <= 1e-9:
            return f"p={pt.p}: p_total {r.p_total!r}"
        if pt.p == 0.5:
            want = reference.central_binomial_d(n)
            if not abs(r.equiv_number_d - want) <= 1e-12 * want:
                return f"D(B({n}, 1/2)) = {r.equiv_number_d!r}, want {want!r}"
    return None


class BinomialSweep:
    name = "binomial-sweep"
    modules = ("equivar",)
    pair_every = 1  # every op also runs on the yardstick
    # Bands 0-31 split n = 1..1029 evenly; bands 32 and 33 split n =
    # 1030..1100. The seed draws one n per band, and every cycle sweeps the
    # same 34 n, so three cycles make the 100 ops a run needs. Narrow bands
    # keep the n at the median close across seeds.
    BANDS = 32

    def cycles(self, seed: int) -> Iterator[list]:
        rng = Random(f"{self.name}:{seed}")
        width = (BINOMIAL_OVERFLOW_N - 1) / self.BANDS
        ns = [(b, 1 + int((b + rng.random()) * width)) for b in range(self.BANDS)]
        half = (BINOMIAL_OVERFLOW_N + N_MAX) // 2
        ns += [(self.BANDS, rng.randint(BINOMIAL_OVERFLOW_N, half)), (self.BANDS + 1, rng.randint(half + 1, N_MAX))]
        return seeded_cycles(self.name, seed, lambda rng, c: list(ns))

    def warmup_spec(self, seed: int) -> tuple:
        return 0, 100

    def side_specs(self, seed: int) -> list[tuple]:
        return [(2, 200), (8, 600), (self.BANDS, BINOMIAL_OVERFLOW_N + seed % (N_MAX - BINOMIAL_OVERFLOW_N))]

    def peak_specs(self, seed: int) -> list[tuple]:
        return [(self.BANDS - 1, BINOMIAL_OVERFLOW_N - 1), (self.BANDS + 1, N_MAX)]

    def known_defect(self, spec: tuple) -> bool:
        return spec[1] >= BINOMIAL_OVERFLOW_N

    def prepare(self, spec: tuple, ctx: Context) -> Job:
        _, n = spec

        def call(pkg):
            return mod("distributions", pkg).sweep_binomial([n], P_STEPS)

        def check(points, err):
            if err is not None:
                if type(err) is OverflowError and n >= BINOMIAL_OVERFLOW_N:
                    return DEFECT, f"n={n}: OverflowError"
                return FAILED, f"n={n}: {err!r}"
            bad = check_sweep(points, n)
            return (FAILED, f"n={n}: {bad}") if bad else (OK, "")

        return Job(call, check, (n + 1) * P_STEPS)

    def trace(self, tracer) -> None:
        dist = mod("distributions")
        patch_indicators(tracer)
        tracer.patch(dist, "binomial", "distributions.pmf", lambda a, r: {"values": a[0] + 1})
        tracer.patch(dist, "analyze", "indicators.analyze",
                     lambda a, r: {"values": a[0].n, "caller": "distributions"})


# ----------------------------------------------------------------------
# cli-calls

DEFECT_CALLS = ("json-abc", "json-probs-5", "json-null", "denormal")
# JSON input -> (file text, values in it)
DEFECT_JSON = {"json-abc": ('["abc"]', 1), "json-probs-5": ('{"probs": 5}', 1), "json-null": ("[0.5, null]", 2)}

# One cycle: every subcommand on small inputs, four inputs each subcommand
# must reject with exit 2, and one of the four known-defect inputs, in turn
# (4% of calls, so that p90, with ten calls beyond it in a run of 100, is not
# the slowest ok call).
CLI_MIX = (
    ["analyze-probs"] * 3 + ["analyze-csv"] * 3 + ["analyze-json", "analyze-json-object"]
    + ["sweep"] * 2 + ["gws-csv"] * 2 + ["gws-json"] + ["rose"] * 3
    + ["oracle-cross"] * 2 + ["oracle-bounds", "oracle-mc"]
    + ["bad-sum", "bad-header", "bad-area", "bad-number"]
)


# Files the gws calls write, removed before every call.
CLI_OUTPUTS = ("cli-report.json", "cli-chart.csv")


def small_probs(rng: Random, n: int, complete: bool) -> list[float]:
    total = 10000 if complete else rng.randint(8000, 9999)
    cuts = sorted(rng.sample(range(1, total), n - 1))
    units = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
    return [float(f"{u / 10000:.4f}") for u in units]


def strict_json(text: str):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def one_line_error(err: str) -> bool:
    lines = err.splitlines()
    return len(lines) == 1 and lines[0].startswith("equivar: ")


def parse_importtime(err: str, name: str) -> float:
    """Cumulative import time of one module, in seconds, from -X importtime output."""
    for line in err.splitlines():
        if line.startswith("import time:"):
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == name:
                return int(fields[1]) * 1e-6
    return float("nan")


class CliCalls:
    name = "cli-calls"
    modules = ("equivar",)
    # The yardstick runs on every second call of each kind only. A call costs
    # ~0.25 s, so pairing every one would make the run twice as long; calls a
    # second apart see the same host speed.
    pair_every = 2

    def cycles(self, seed: int) -> Iterator[list]:
        def cycle(rng, c):
            kinds = CLI_MIX + [DEFECT_CALLS[c % len(DEFECT_CALLS)]]
            return [(kind, rng.getrandbits(64)) for kind in kinds]

        return seeded_cycles(self.name, seed, cycle)

    def warmup_spec(self, seed: int) -> tuple:
        return ("analyze-probs", seed)

    def side_specs(self, seed: int) -> list[tuple]:
        return [("analyze-probs", seed), ("oracle-cross", seed), ("oracle-mc", seed), ("gws-csv", seed)]

    def peak_specs(self, seed: int) -> list[tuple]:
        return []  # the CLI runs in child processes; each call records its child's peak RSS

    def known_defect(self, spec: tuple) -> bool:
        return spec[0] in DEFECT_CALLS

    def prepare(self, spec: tuple, ctx: Context) -> Job:
        kind, seed = spec
        rng = Random(seed)
        tmp = ctx.tmp
        args, values, expect, probe = self._args(kind, rng, ctx)
        out_path, err_path = tmp / "cli.stdout", tmp / "cli.stderr"
        marks_path = tmp / "cli.marks.json"
        if ctx.tracer is None:
            cmd = [sys.executable, "-m", "equivar", *args]
        else:
            cmd = [sys.executable, "-X", "importtime", str(BENCH_DIR / "cli_child.py"), *args]
        held = {}

        def call(pkg):
            marks_path.unlink(missing_ok=True)
            for path in CLI_OUTPUTS:
                (tmp / path).unlink(missing_ok=True)
            env = dict(ctx.env[pkg], EQUIVAR_BENCH_MARKS=str(marks_path))
            with open(out_path, "wb") as out, open(err_path, "wb") as err:
                t0 = perf_counter()
                proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
                ctx.active_child = proc
                _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            ctx.active_child = None
            if pkg == CHECKOUT:
                ctx.child_rss_kb = max(ctx.child_rss_kb, usage.ru_maxrss)
            held["t0"] = t0
            return proc.returncode

        def check(code, err):
            if err is not None:
                return FAILED, f"{kind}: {err!r}"
            out = out_path.read_text(encoding="utf-8", errors="replace")
            errtext = err_path.read_text(encoding="utf-8", errors="replace")
            if ctx.tracer is not None:
                self._record_child(ctx, held, errtext, marks_path)
                errtext = "".join(ln for ln in errtext.splitlines(keepends=True)
                                  if not ln.startswith("import time:"))
            status, why = expect(code, out, errtext)
            return status, "" if status == OK else f"{kind} {args}: {why}"

        return Job(call, check, values, probe)

    def _record_child(self, ctx: Context, held: dict, errtext: str, marks_path: Path) -> None:
        """Turn the child's own timestamps into spans under the op span."""
        op = ctx.tracer.spans[-1]
        try:
            marks = json.loads(marks_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        t_start, t_import, t_end = marks["t_start"], marks.get("t_import"), marks["t_end"]
        ctx.tracer.add("cli.interp_start", held["t0"], t_start, op["id"])
        if t_import is not None:
            ctx.tracer.add("cli.import", t_start, t_import, op["id"],
                           numpy_s=parse_importtime(errtext, "numpy"))
            ctx.tracer.add("cli.command", t_import, t_end, op["id"])

    def _args(self, kind: str, rng: Random, ctx: Context):
        """Arguments, value count, expected-outcome check and traced probe of one call."""
        tmp, probe = ctx.tmp, None
        if kind in DEFECT_JSON:
            path = tmp / "cli-input.json"
            text, values = DEFECT_JSON[kind]
            path.write_text(text, encoding="utf-8")
            args = ["analyze", "--input", str(path), "--format", "json", "--no-timestamp"]
            return args, values, expect_json_defect, probe
        if kind == "denormal":
            args = ["analyze", "--probs", "1e-320", "--probs", "1e-320", "--no-timestamp"]
            return args, 2, expect_denormal, probe
        if kind.startswith("analyze"):
            probs = small_probs(rng, rng.randint(2, 8) if kind == "analyze-probs" else rng.randint(10, 60),
                                complete=rng.random() < 0.5)
            if kind == "analyze-probs":
                args = ["analyze", *[a for p in probs for a in ("--probs", repr(p))]]
            elif kind == "analyze-csv":
                path = tmp / "cli-input.csv"
                half = len(probs) // 2
                path.write_text(",".join(map(repr, probs[:half])) + "\n" + ",".join(map(repr, probs[half:])) + "\n")
                args = ["analyze", "--input", str(path)]
            else:
                path = tmp / "cli-input.json"
                doc = probs if kind == "analyze-json" else {"probs": probs, "labels": [f"o{i}" for i in range(len(probs))]}
                path.write_text(json.dumps(doc), encoding="utf-8")
                args = ["analyze", "--input", str(path), "--format", "json"]
            return [*args, "--no-timestamp"], len(probs), expect_bytes(lambda: reference.analyze_output(equivar_version(), probs)), probe
        if kind == "sweep":
            ns = sorted(rng.sample(range(1, 41), 2))
            args = ["binomial-sweep", "--n", ",".join(map(str, ns)), "--p-steps", "5", "--no-timestamp"]
            return args, sum(n + 1 for n in ns) * 5, expect_sweep(ns, 5), probe
        if kind.startswith("gws") or kind in ("rose", "bad-header", "bad-area"):
            fmt = "json" if kind == "gws-json" else "csv"
            areas, text = gws_table(rng.randint(6, 12), fmt, rng.getrandbits(64))
            path = tmp / f"cli-table.{fmt}"
            if kind == "bad-header":
                text = text.replace("dNW", "dNNW", 1)
            path.write_text(text, encoding="utf-8")
            values = 8 * len(areas)
            if kind == "rose":
                area_id, probs = rng.choice(areas)
                args = ["rose", "--input", str(path), "--area", area_id, "--no-timestamp"]
                return args, values, expect_bytes(lambda: reference.rose_output(equivar_version(), probs)), probe
            if kind == "bad-area":
                return ["rose", "--input", str(path), "--area", "Z9999"], values, expect_rejected, probe
            report, chart = (tmp / path for path in CLI_OUTPUTS)
            args = ["gws", "--input", str(path), "--format", fmt, "--report", str(report),
                    "--chart", str(chart), "--rank", "d", "--no-timestamp"]
            if kind == "bad-header":
                return args, values, expect_rejected, probe
            return args, values, expect_gws(areas, report, chart), probe
        if kind == "oracle-mc":
            n, p_total, trials, seed = rng.randint(3, 10), rng.randint(5000, 10000) / 10000, 20000, rng.randint(0, 999)
            args = ["oracle", "--check", "max-variance", "--n", str(n), "--p-total", repr(p_total),
                    "--trials", str(trials), "--seed", str(seed), "--no-timestamp"]

            def probe(_):
                with ctx.tracer.span("oracle.mc_max_variance", trials=trials):
                    mod("oracle").mc_max_variance(n, p_total, trials, seed)

            return args, n, expect_mc(n, p_total, trials, seed), probe
        if kind in ("oracle-cross", "oracle-bounds"):
            probs = small_probs(rng, rng.randint(3, 8), complete=kind == "oracle-bounds" or rng.random() < 0.5)
            check = "cross" if kind == "oracle-cross" else "bounds"
            args = ["oracle", "--check", check, *[a for p in probs for a in ("--probs", repr(p))], "--no-timestamp"]
            if kind == "oracle-cross":
                def probe(_):
                    dist = mod("distributions").from_probabilities(probs)
                    with ctx.tracer.span("oracle.cross_check", values=len(probs)):
                        mod("oracle").cross_check_report(dist)
            return args, len(probs), expect_oracle(check, len(probs)), probe
        if kind == "bad-sum":
            probs = [0.7, 0.6] + small_probs(rng, 3, complete=False)
            return ["analyze", *[a for p in probs for a in ("--probs", repr(p))]], len(probs), expect_rejected, probe
        if kind == "bad-number":
            path = tmp / "cli-input.csv"
            path.write_text("0.25,abc,0.25\n")
            return ["analyze", "--input", str(path)], 3, expect_rejected, probe
        raise ValueError(f"unknown cli call kind {kind!r}")

    def trace(self, tracer) -> None:
        # The calls run in child processes; cli_child.py records their spans.
        pass


def expect_bytes(want: Callable[[], bytes]):
    def expect(code, out, err):
        if code != 0 or err.strip():
            return FAILED, f"exit {code}, stderr {err.strip()[-200:]!r}"
        if out.encode("utf-8") != want():
            return FAILED, "stdout differs from the reference bytes"
        return OK, ""

    return expect


def expect_gws(areas, report: Path, chart: Path):
    def expect(code, out, err):
        if code != 0 or out or err.strip():
            return FAILED, f"exit {code}, stderr {err.strip()[-200:]!r}"
        want_report, want_chart = reference.gws_outputs(equivar_version(), areas)
        if report.read_bytes() != want_report or chart.read_bytes() != want_chart:
            return FAILED, "report or chart differs from the reference bytes"
        return OK, ""

    return expect


def expect_sweep(ns: list[int], steps: int):
    def expect(code, out, err):
        if code != 0 or err.strip():
            return FAILED, f"exit {code}, stderr {err.strip()[-200:]!r}"
        rows = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
        if rows[:1] != ["n,p,cv,cv_rel,entropy_bits,f,d,g"] or len(rows) != 1 + len(ns) * steps:
            return FAILED, "unexpected CSV layout"
        for row in rows[1:]:
            n, p, *fields = row.split(",")
            if not all(math.isfinite(float(x)) for x in fields):
                return FAILED, f"non-finite field in {row!r}"
            want = reference.central_binomial_d(int(n))
            if float(p) == 0.5 and not abs(float(fields[4]) - want) <= 1e-11 * want:
                return FAILED, f"D(B({n}, 1/2)) = {fields[4]}, want {want!r}"
        return OK, ""

    return expect


def expect_oracle(check: str, n: int):
    prefix = {"cross": "cross-check", "bounds": "sum-squares-bounds"}[check] + f"[n={n}"

    def expect(code, out, err):
        if code != 0 or err.strip():
            return FAILED, f"exit {code}, stderr {err.strip()[-200:]!r}"
        body = strict_json(out)["payload"]
        if not (body["target"].startswith(prefix) and body["residual"] <= 1e-12):
            return FAILED, f"oracle result {body!r}"
        return OK, ""

    return expect


def expect_mc(n: int, p_total: float, trials: int, seed: int):
    cap = p_total * p_total * (n - 1) / (n * n)

    def expect(code, out, err):
        if code != 0 or err.strip():
            return FAILED, f"exit {code}, stderr {err.strip()[-200:]!r}"
        body = strict_json(out)["payload"]
        if (body["reference_value"], body["trials"], body["seed"], body["residual"]) != (cap, trials, seed, 0.0):
            return FAILED, f"oracle result {body!r}"
        if not 0.0 < body["value_found"] <= cap:
            return FAILED, f"oracle result {body!r}"
        return OK, ""

    return expect


def expect_rejected(code, out, err):
    if code == 2 and not out and one_line_error(err):
        return OK, ""
    return FAILED, f"exit {code}, want 2 with a one-line stderr; stderr {err.strip()[-200:]!r}"


def expect_json_defect(code, out, err):
    """JSON input that must be rejected; 0.1.0 ends in a ValueError/TypeError traceback."""
    if code == 2 and not out and one_line_error(err):
        return OK, ""
    last = err.strip().splitlines()[-1:] or [""]
    if code == 1 and "Traceback" in err and last[0].startswith(("ValueError:", "TypeError:")):
        return DEFECT, "traceback"
    return FAILED, f"exit {code}, stderr {err.strip()[-200:]!r}"


def expect_denormal(code, out, err):
    """Infinite D and F must still be strict JSON; 0.1.0 prints a bare Infinity."""
    if code != 0 or err.strip():
        return FAILED, f"exit {code}, stderr {err.strip()[-200:]!r}"
    try:
        body = strict_json(out)["payload"]
    except ValueError:
        body = json.loads(out)["payload"]
        if not math.isinf(body["equiv_number_d"]):
            return FAILED, "output is not JSON for another reason"
        return DEFECT, "bare Infinity in JSON output"
    if body["n_outcomes"] != 2:
        return FAILED, f"report {body!r}"
    return OK, ""


WORKLOADS = {w.name: w for w in (AnalyzeLong(), GwsTable(), BinomialSweep(), CliCalls())}
