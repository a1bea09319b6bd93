"""equivar benchmark: seeded workloads through the public API and the CLI, checked op by op.

Run one workload (BENCHMARK.json at the repository root lists them):

    python3 bench/run.py --workload analyze-long --seed 1 --seconds 15 --trace 0

``--workload all`` runs the workloads BENCHMARK.json lists, in turn. With
``--trace 0`` the last line of standard output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run. ``gws-table`` is not listed there, to leave the listed
workloads longer runs within the time budget; it can be run by name, and
traced runs use it for the waveclimate layer. Every run
also appends its result to ``.bench_out/results.jsonl``; a traced run writes
its spans next to it.

Compare two result sets (for example the parent commit's and a change's):

    python3 bench/run.py --compare base.jsonl change.jsonl

The load is one closed-loop caller in one process, with no threads; the
cli-calls workload runs one child process at a time. So no layer ever waits
on another, and the benchmark reports busy time, not wait time. An op's
latency is the wall time of its one timed call; ``seconds`` is the sum of op
latencies the loop runs for (input generation and the output checks are
not timed), rounded up to whole cycles of the workload's op mix, and with
at least 100 ops so that ten or more lie beyond p90.

The host this was defined on changes speed by up to 2x for seconds to
minutes at a time, often for longer than a run. So every op runs twice in a
row: on the checkout's equivar and on the yardstick, a frozen copy of
equivar 0.1.0 in ``bench/yardstick/``, taking turns at going first. Both
calls see the same host speed, and the end-to-end time metrics are the
checkout's figures over the yardstick's on the same ops. ``seconds``
counts the time of both calls.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import compare
from spans import Tracer, dur, median_ms, total
from workloads import CHECKOUT, DEFECT, FAILED, OK, PACKAGE_DIRS, ROOT, WORKLOADS, YARDSTICK, Context

OUT_DIR = ROOT / ".bench_out"
MIN_OPS = 100
RATIO_WINDOW = 8  # ranks on each side of an op whose paired calls give its speed ratio
SETUP_PROBES = 5  # pairs of fresh processes, checkout and yardstick
# Typical set-up time of the yardstick, equivar 0.1.0: the median of 10
# probes on the host this was defined on, rounded. setup_s is the checkout's
# set-up time relative to the yardstick's, in these seconds.
YARDSTICK_SETUP_S = {"analyze-long": 0.11, "gws-table": 0.25, "binomial-sweep": 0.12, "cli-calls": 0.35}
WATCHDOG_S = 170

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# Name of the span around each workload's timed call.
OP_SPANS = {
    "analyze-long": "op.analyze",
    "gws-table": "cli.main",
    "binomial-sweep": "distributions.sweep",
    "cli-calls": "cli.call",
}


@dataclass
class Outcome:
    kind: object
    latency: float
    ref_latency: float | None  # the yardstick's time on the same op, if it ran
    values: int  # values the op offers; only ok ops count them as done
    status: str
    detail: str
    ref_ok: bool  # False on the known-defect ops of the yardstick, equivar 0.1.0


class Watchdog(BaseException):
    """Raised by SIGALRM; a BaseException so that the per-op handler lets it through."""


def timed(call, pkg: str) -> tuple[object, BaseException | None, float]:
    result = error = None
    t0 = perf_counter()
    try:
        result = call(pkg)
    except Exception as exc:  # the gate classifies whatever the op raises
        error = exc
    return result, error, perf_counter() - t0


def execute(wl, spec, ctx: Context, paired: bool = False) -> Outcome:
    """Prepare one op, time its call, and gate the result. A paired op also
    runs on the yardstick, just before or just after, in turn."""
    job = wl.prepare(spec, ctx)
    yardstick_first = paired and next(ctx.yardstick_first)
    ref_latency = timed(job.call, YARDSTICK)[2] if yardstick_first else None
    if ctx.tracer is None:
        result, error, latency = timed(job.call, CHECKOUT)
    else:
        with ctx.tracer.span(OP_SPANS[wl.name]):
            result, error, latency = timed(job.call, CHECKOUT)
    status, detail = job.check(result, error)
    if paired and not yardstick_first:
        ref_latency = timed(job.call, YARDSTICK)[2]
    if ctx.tracer is not None and status == OK and job.probe is not None:
        job.probe(result)
    return Outcome(spec[0], latency, ref_latency, job.values, status, detail, not wl.known_defect(spec))


def closed_loop(wl, seed: int, run_op, seconds: float, min_ops: int) -> list[Outcome]:
    """Run whole cycles of ops until their latencies add up to ``seconds`` and there are ``min_ops``."""
    outcomes, busy = [], 0.0
    for cycle in wl.cycles(seed):
        for spec in cycle:
            outcomes.append(run_op(spec))
            busy += outcomes[-1].latency + (outcomes[-1].ref_latency or 0.0)
        if busy >= seconds and len(outcomes) >= min_ops:
            return outcomes


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[math.ceil(q * len(sorted_values)) - 1]


def absolute(outcomes: list[Outcome]) -> dict:
    """Values per second and latency percentiles, in seconds, of the checkout and of the yardstick.

    An op that is not ``ok`` adds no values and counts as infinitely late. On
    the yardstick, equivar 0.1.0, those are its known-defect ops. The
    yardstick's figures cover the ops it ran on."""
    late = sorted(o.latency if o.status == OK else math.inf for o in outcomes)
    paired = [o for o in outcomes if o.ref_latency is not None]
    ref = sorted(o.ref_latency if o.ref_ok else math.inf for o in paired)
    return {
        "checkout": {
            "values_per_s": sum(o.values for o in outcomes if o.status == OK) / sum(o.latency for o in outcomes),
            "p50": percentile(late, 0.5),
            "p90": percentile(late, 0.9),
        },
        "yardstick": {
            "values_per_s": sum(o.values for o in paired if o.ref_ok) / sum(o.ref_latency for o in paired),
            "p50": percentile(ref, 0.5),
            "p90": percentile(ref, 0.9),
        },
    }


def speed_latencies(outcomes: list[Outcome]) -> tuple[list[float], list[float]]:
    """Each op's latency on the checkout and on the yardstick, both at the yardstick's host speed.

    The yardstick's latency of an op is its median time on the op's kind in
    the run. Rank the ops by it; the checkout's latency of an op is that time
    times the median checkout-over-yardstick ratio of the paired ops within
    ``RATIO_WINDOW`` ranks of it, counting only pairs where both calls were
    ok. So the two lists rank the ops alike, their percentiles compare like
    with like, and no single call moves a percentile much."""
    ref = defaultdict(list)
    for o in outcomes:
        if o.ref_latency is not None:
            ref[o.kind].append(o.ref_latency)
    typical = {k: statistics.median(v) for k, v in ref.items()}
    order = sorted(outcomes, key=lambda o: (typical[o.kind], str(o.kind)))
    ratios = [o.latency / o.ref_latency if o.ref_latency is not None and o.status == OK and o.ref_ok else None
              for o in order]
    every = [x for x in ratios if x is not None] or [math.nan]
    checkout, yardstick = [], []
    for i, o in enumerate(order):
        near = [x for x in ratios[max(0, i - RATIO_WINDOW):i + RATIO_WINDOW + 1] if x is not None]
        if o.status != OK:
            checkout.append(math.inf)
        elif not o.ref_ok:  # the yardstick has no time for this op, so take the checkout's own
            checkout.append(o.latency)
        else:
            checkout.append(typical[o.kind] * statistics.median(near or every))
        yardstick.append(typical[o.kind] if o.ref_ok else math.inf)
    return sorted(checkout), sorted(yardstick)


def end_to_end(outcomes: list[Outcome], setup_s: float, rss_kb: int) -> dict:
    """The checkout's figures over the yardstick's. Values per second compare
    the two on the same ops, the ones the yardstick ran on: the values of an
    op vary far more than its time does."""
    paired = [o for o in outcomes if o.ref_latency is not None]
    a = absolute(paired)
    late, ref = speed_latencies(outcomes)
    return {
        "values_per_s_ratio": a["checkout"]["values_per_s"] / a["yardstick"]["values_per_s"],
        "latency_p50_ratio": percentile(late, 0.5) / percentile(ref, 0.5),
        "latency_p90_ratio": percentile(late, 0.9) / percentile(ref, 0.9),
        "ok_ops_share": sum(o.status == OK for o in outcomes) / len(outcomes),
        "setup_s": setup_s,
        "peak_rss_mb": rss_kb / 1024,
    }


def layer_metrics(tr: Tracer) -> dict:
    """Every per-layer metric the spans of one phase can give."""
    m: dict[str, float] = {}
    own = tr.self_times()

    def ratio(name, num, den, scale=1.0):
        if den:
            m[name] = num / den * scale

    ops = [s for s in tr.spans if s["name"] in OP_SPANS.values()]
    analyze = tr.named("indicators.analyze")
    ratio("indicators.analyze_us_per_value", total(analyze), sum(s["values"] for s in analyze), 1e6)
    if analyze:
        ratio("indicators.analyze_calls_per_op", len(analyze), len(ops))
    probes = tr.named("probe.variance")
    if probes:
        direct = [s for s in analyze if "caller" not in s]
        ratio("indicators.moments_share", total(probes), total(direct))
        ratio("indicators.entropy_share", total(tr.named("probe.entropy")), total(direct))
    validate = tr.named("indicators.validate")
    ratio("indicators.validate_us_per_value", total(validate), sum(s["values"] for s in validate), 1e6)

    pmf = tr.named("distributions.pmf")
    if pmf:
        good = [s for s in pmf if "error" not in s]
        ratio("distributions.pmf_us_per_value", sum(own[s["id"]] for s in good), sum(s["values"] for s in good), 1e6)
        ratio("distributions.pmf_share", sum(own[s["id"]] for s in pmf), total(tr.named("distributions.sweep")))
        m["distributions.failed_cell_share"] = (len(pmf) - len(good)) / len(pmf)

    parse = tr.named("waveclimate.parse")
    if parse:
        areas = sum(s["areas"] for s in parse)
        ratio("waveclimate.parse_us_per_area", total(parse), areas, 1e6)
        ratio("waveclimate.analyze_calls_per_area", len(tr.named("indicators.analyze", caller="waveclimate")), areas)
        m["waveclimate.rank_ms"] = median_ms([dur(s) for s in tr.named("waveclimate.rank")])
        m["waveclimate.chart_ms"] = median_ms([dur(s) for s in tr.named("waveclimate.chart")])
        m["cli.main_self_ms"] = median_ms([own[s["id"]] for s in tr.named("cli.main")])

    imports = tr.named("cli.import")
    if imports:
        m["cli.interp_start_ms"] = median_ms([dur(s) for s in tr.named("cli.interp_start")])
        m["cli.import_ms"] = median_ms([dur(s) for s in imports])
        # Mean over calls, a call that never imports numpy counting 0.
        numpy_s = [s["numpy_s"] if math.isfinite(s["numpy_s"]) else 0.0 for s in imports]
        m["cli.import_numpy_ms"] = statistics.fmean(numpy_s) * 1e3
        m["cli.command_ms"] = median_ms([dur(s) for s in tr.named("cli.command")])
    cross = tr.named("oracle.cross_check")
    if cross:
        m["oracle.cross_check_us"] = median_ms([dur(s) for s in cross]) * 1e3
    mc = tr.named("oracle.mc_max_variance")
    ratio("oracle.mc_trials_per_s", sum(s["trials"] for s in mc), total(mc))
    return m


def setup_seconds(name: str, seed: int) -> tuple[float, dict]:
    """Set-up time of the checkout, and the raw median set-up time of each side.

    A probe is a fresh process that imports one package and runs one warm-up
    op. Probes of the checkout and of the yardstick run in turn, and set-up
    time is the median checkout-over-yardstick ratio of the pairs times the
    yardstick's typical set-up time, so that it does not follow the host's
    speed."""
    samples = {CHECKOUT: [], YARDSTICK: []}
    for i in range(SETUP_PROBES):
        for pkg in (CHECKOUT, YARDSTICK) if i % 2 == 0 else (YARDSTICK, CHECKOUT):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--setup-probe", pkg,
                 "--workload", name, "--seed", str(seed)],
                capture_output=True, text=True, timeout=120, cwd=ROOT,
            )
            if proc.returncode != 0:
                raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
            samples[pkg].append(float(proc.stdout.split()[-1]))
    ratio = statistics.median(c / y for c, y in zip(samples[CHECKOUT], samples[YARDSTICK]))
    return ratio * YARDSTICK_SETUP_S[name], {pkg: statistics.median(v) for pkg, v in samples.items()}


def import_equivar():
    """Import equivar from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    eq = importlib.import_module("equivar")
    if not Path(eq.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"equivar was imported from {eq.__file__}, not from {src}")
    return eq


def import_yardstick():
    """Import the frozen equivar 0.1.0 under bench/yardstick/ as the package ``YARDSTICK``."""
    if YARDSTICK in sys.modules:
        return sys.modules[YARDSTICK]
    path = PACKAGE_DIRS[YARDSTICK] / "equivar"
    spec = importlib.util.spec_from_file_location(
        YARDSTICK, path / "__init__.py", submodule_search_locations=[str(path)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[YARDSTICK] = module
    spec.loader.exec_module(module)
    return module


def setup_probe(name: str, seed: int, pkg: str, tmp: Path) -> None:
    wl = WORKLOADS[name]
    job = wl.prepare(wl.warmup_spec(seed), Context(tmp))
    sys.path.insert(0, str(ROOT / "src"))
    t0 = perf_counter()
    if pkg == YARDSTICK:
        import_yardstick()
    for module in wl.modules:
        importlib.import_module(pkg + module.removeprefix(CHECKOUT))
    job.call(pkg)
    elapsed = perf_counter() - t0
    import_equivar()
    print(repr(elapsed))


def run_workload(name: str, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    wl = WORKLOADS[name]
    setup_s, setup_raw = (math.nan, {}) if trace else setup_seconds(name, seed)
    import_equivar()
    ctx = Context(tmp)
    try:
        execute(wl, wl.warmup_spec(seed), ctx)
        if trace:
            return traced_run(wl, seed, seconds, ctx)
        # Peak RSS of the checkout alone: its largest ops, before the yardstick is loaded.
        for spec in wl.peak_specs(seed):
            execute(wl, spec, ctx)
        own_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        import_yardstick()
        execute(wl, wl.warmup_spec(seed), ctx, paired=True)
        seen = Counter()

        def run_op(spec):
            # Each kind of op runs on the yardstick at its 1st, (1 + pair_every)th, ... turn.
            seen[spec[0]] += 1
            return execute(wl, spec, ctx, paired=(seen[spec[0]] - 1) % wl.pair_every == 0)

        outcomes = closed_loop(wl, seed, run_op, seconds, MIN_OPS)
        rss_kb = ctx.child_rss_kb if name == "cli-calls" else own_rss_kb
        res = summarize(outcomes, end_to_end(outcomes, setup_s, rss_kb))
        res["absolute"] = absolute(outcomes)
        for pkg, side in ((CHECKOUT, "checkout"), (YARDSTICK, "yardstick")):
            res["absolute"][side]["setup_s"] = setup_raw[pkg]
        return res
    finally:
        if ctx.active_child is not None:
            ctx.active_child.kill()
            ctx.active_child.wait()


def traced_run(wl, seed: int, seconds: float, ctx: Context) -> dict:
    """Run each op untraced and then traced, for half of ``seconds`` each, and
    derive the per-layer metrics from the spans. Layers this workload does not
    reach get theirs from short traced side passes of the other workloads."""
    tracer = Tracer()
    tctx = Context(ctx.tmp, tracer)
    traced: list[Outcome] = []

    def pair(spec):
        # Adjacent untraced and traced runs of one op see the same machine load.
        untraced = execute(wl, spec, ctx)
        wl.trace(tracer)
        try:
            traced.append(execute(wl, spec, tctx))
        finally:
            tracer.unpatch()
        return untraced

    untraced = closed_loop(wl, seed, pair, seconds / 2, MIN_OPS // 2)
    metrics = layer_metrics(tracer)
    metrics["tracing.overhead_pct"] = (
        sum(o.latency for o in traced) / sum(o.latency for o in untraced) - 1.0
    ) * 100.0
    outcomes = untraced + traced
    spans = [dict(rec, phase=wl.name) for rec in tracer.spans]
    for other in WORKLOADS.values():
        if set(PER_LAYER_UNITS) <= set(metrics):
            break
        if other is wl:
            continue
        tracer = Tracer()
        side = Context(ctx.tmp, tracer)
        execute(other, other.warmup_spec(seed), ctx)
        other.trace(tracer)
        try:
            outcomes += [execute(other, spec, side) for spec in other.side_specs(seed)]
        finally:
            tracer.unpatch()
        for key, value in layer_metrics(tracer).items():
            metrics.setdefault(key, value)
        spans += [dict(rec, phase=other.name) for rec in tracer.spans]
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"spans-{wl.name}-seed{seed}.jsonl", "w", encoding="utf-8") as fh:
        for rec in spans:
            fh.write(json.dumps(rec) + "\n")
    return summarize(outcomes, {k: metrics.get(k, math.nan) for k in PER_LAYER_UNITS})


def summarize(outcomes: list[Outcome], metrics: dict) -> dict:
    failures = [o for o in outcomes if o.status == FAILED]
    for o in failures[:5]:
        print(f"failed op: {o.detail}", file=sys.stderr)
    good = all(math.isfinite(v) for v in metrics.values())
    if not good:
        print("a metric could not be measured: " + ", ".join(k for k, v in metrics.items() if not math.isfinite(v)), file=sys.stderr)
    return {
        "correct": not failures and good,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": metrics,
        "counts": {s: sum(o.status == s for o in outcomes) for s in (OK, DEFECT, FAILED)},
        "ops": [[str(o.kind), o.latency, o.ref_latency, o.status] for o in outcomes],
    }


def report(name: str, seed: int, seconds: float, trace: bool, res: dict) -> None:
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    counts, ops, absolute_figures = res.pop("counts"), res.pop("ops"), res.pop("absolute", None)
    env = {"python": platform.python_version(), "nproc": os.cpu_count()}
    print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}  "
          f"python {env['python']}  nproc {env['nproc']}")
    n = res["attempted"]
    print(f"ops {n}: {counts[OK]} ok, {counts[DEFECT]} known-defect, {counts[FAILED]} failed; "
          f"latency samples {n}, {n - math.ceil(0.9 * n)} beyond p90; ok_ops_share base {n}")
    for key, unit in units.items():
        print(f"  {key:40s} {res['metrics'][key]!r:>24} {unit}")
    for side, a in (absolute_figures or {}).items():
        print(f"  {side:10s} values/s {a['values_per_s']:12.6g}   p50 {a['p50'] * 1e3:10.6g} ms"
              f"   p90 {a['p90'] * 1e3:10.6g} ms   set-up {a['setup_s']:.6g} s")
    metrics = {k: {"value": v if math.isfinite(v) else None, "unit": units[k]} for k, v in res["metrics"].items()}
    result = {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                             **env, "counts": counts, **result, "absolute": absolute_figures, "ops": ops}) + "\n")
    print(json.dumps(result))


def on_alarm(signum, frame):
    raise Watchdog(f"run exceeded {WATCHDOG_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"),
                        help="compare two results.jsonl files instead of running")
    parser.add_argument("--setup-probe", choices=[CHECKOUT, YARDSTICK], help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return compare.main(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "equivar" / "__init__.py").is_file():
        print(f"bench: no equivar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    tmp = OUT_DIR / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed, args.setup_probe, tmp)
            return 0
        signal.signal(signal.SIGALRM, on_alarm)
        names = [w["name"] for w in SPEC["workloads"]] if args.workload == "all" else [args.workload]
        for name in names:
            signal.alarm(WATCHDOG_S)
            res = run_workload(name, args.seed, args.seconds, bool(args.trace), tmp)
            signal.alarm(0)
            report(name, args.seed, args.seconds, bool(args.trace), res)
        return 0
    except (Watchdog, RuntimeError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
