"""edgeslide benchmark: one workload, one closed-loop run.

Run from the root of a source checkout::

    python3 bench/run.py --workload transform-random --seed 1 --seconds 30 --trace 0

The run imports edgeslide from ``./src``, generates the workload's inputs
from the seed under ``.bench_work/``, and then calls the workload's
cycle of calls again and again, one call at a time, in this process, with
no threads, until the next cycle would overrun ``--seconds``.  Every
output is checked afterwards by ``check.py``, which shares no code with
the package, and hashed: a call whose output bytes differ between two
invocations, or from an earlier run of the same code and seed, fails.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each call
once untraced and once inside spans, replays each CLI call stage by
stage through the public functions, runs the per-layer probes once, and
prints the per-layer metrics.  The last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit code is 1 when any output was wrong and 2 when ``./src`` holds no
edgeslide package.  See ``bench/README.md`` for what each metric means.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
from time import perf_counter

import workloads
from workloads import Result

SETUP_REPEATS = 3
TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0)  # highest first
WORK_ROOT = ".bench_work"

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "moves_total": "moves",
    "move_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (span name, what to sum over those spans)
PER_LAYER = {
    "cli.run_s": ("cli.run", "time"),
    "cli.overhead_s": (None, "time"),
    "graph.parse_graph_s": ("graph.parse_graph", "time"),
    "graph.is_isomorphic_under_s": ("graph.is_isomorphic_under", "time"),
    "graph.serialize_graph_s": ("graph.serialize_graph", "time"),
    "moves.parse_script_s": ("moves.parse_script", "time"),
    "moves.serialize_script_s": ("moves.serialize_script", "time"),
    "moves.replay_full_s": ("moves.replay_full", "time"),
    "moves.replay_full_moves": ("moves.replay_full", "moves"),
    "moves.replay_fast_s": ("moves.replay_fast", "time"),
    "moves.replay_fast_moves": ("moves.replay_fast", "moves"),
    "moves.script_bytes": ("moves.serialize_script", "bytes"),
    "prescribe.transform_s": ("prescribe.transform", "time"),
    "prescribe.transform_moves": ("prescribe.transform", "moves"),
    "prescribe.levels": ("prescribe.transform", "levels"),
    "prescribe.goal_repair_moves": ("prescribe.transform", "repair"),
    "prescribe.raise_degree_s": ("prescribe.raise_degree", "time"),
    "prescribe.raise_degree_moves": ("prescribe.raise_degree", "moves"),
    "slides.move_edge_s": ("slides.move_edge", "time"),
    "slides.move_edge_calls": ("slides.move_edge", "calls"),
    "slides.move_edge_moves": ("slides.move_edge", "moves"),
    "slides.interchange_s": ("slides.interchange", "time"),
    "slides.interchange_moves": ("slides.interchange", "moves"),
    "regularize.regularize_s": ("regularize.regularize", "time"),
    "regularize.steps": ("regularize.regularize", "steps"),
    "regularize.moves": ("regularize.regularize", "moves"),
    "euler.transform_euler_s": ("euler.transform_euler", "time"),
    "euler.collapse_s": ("euler.collapse_to_order", "time"),
    "euler.collapse_moves": ("euler.collapse_to_order", "moves"),
    "euler.expand_s": ("euler.expand_to_order", "time"),
    "oracle.enumerate_s": ("oracle.enumerate_connected", "time"),
    "oracle.universe_size": ("oracle.enumerate_connected", "count"),
    "oracle.census_s": ("oracle.census", "time"),
    "oracle.census_members": ("oracle.census", "members"),
    "trace.overhead_s": (None, "time"),
}


def _counts(name: str, args, value) -> dict:
    """Exact counts recorded on a span, read from its arguments and result."""
    if name == "prescribe.transform":
        return {
            "moves": len(value.script),
            "levels": len(value.trace),
            "repair": sum(len(t.appended_inverse) for t in value.trace),
        }
    if name in ("moves.replay_full", "moves.replay_fast"):
        return {"moves": len(args[1])}
    if name == "moves.serialize_script":
        return {"bytes": len(value)}
    if name in ("prescribe.raise_degree", "slides.interchange", "euler.collapse_to_order"):
        return {"moves": len(value)}
    if name == "slides.move_edge":
        return {"moves": len(value), "calls": 1}
    if name == "regularize.regularize":
        return {"steps": len(value), "moves": sum(len(s.moves) for s in value)}
    if name == "oracle.enumerate_connected":
        return {"count": len(value)}
    if name == "oracle.census":
        return {"members": value.members}
    return {}


def plain(name, fn, *args):
    """The untraced span: just the call."""
    return fn(*args)


class Tracer:
    """Spans kept in memory: [name, start, end, parent, invocation, phase, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.invocation = 0
        self.phase = "setup"

    def span(self, name, fn, *args):
        parent = self._open[-1] if self._open else -1
        record = [name, 0.0, 0.0, parent, self.invocation, self.phase, {}]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        try:
            value = fn(*args)
        finally:
            record[2] = perf_counter()
            self._open.pop()
        record[6] = _counts(name, args, value)
        return value

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for _, start, end, *_ in self.spans]
        for _, start, end, parent, *_ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def dump(self, path: str) -> None:
        own = self.self_times()
        rows = [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "invocation": s[4],
             "phase": s[5], "self": own[i], "counts": s[6]}
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w", encoding="ascii") as fh:
            json.dump(rows, fh)


# ---------------------------------------------------------------------------


def fresh_import():
    """Import edgeslide (and its CLI) anew, dropping any earlier copy."""
    for name in [m for m in sys.modules if m == "edgeslide" or m.startswith("edgeslide.")]:
        del sys.modules[name]
    es = importlib.import_module("edgeslide")
    importlib.import_module("edgeslide.cli")
    return es


def invoke(es, call, span) -> tuple[float, Result]:
    """One call: its wall time, and its outputs read back after the clock
    stops.  An exception escaping the call is its outcome: exit code -1,
    with the exception on stderr, so the check counts it as failed."""
    if call.out is not None and os.path.exists(call.out):
        os.unlink(call.out)
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        if call.argv is None:
            value = span("api", call.api, es, span)
        else:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = span("cli.run", es.cli.run, call.argv)
    except Exception as exc:  # noqa: BLE001 - any escape is a wrong outcome
        elapsed = perf_counter() - t0
        return elapsed, Result(-1, out.getvalue(), f"{type(exc).__name__}: {exc}", "")
    elapsed = perf_counter() - t0
    if call.argv is None:
        return elapsed, Result(0, "", "", call.render(value))
    text = ""
    if call.out is not None and os.path.exists(call.out):
        with open(call.out, "r", encoding="ascii") as fh:
            text = fh.read()
    return elapsed, Result(code, out.getvalue(), err.getvalue(), text)


class Outcomes:
    """Distinct outputs per call label, with how many invocations gave each."""

    def __init__(self):
        self.seen: dict[str, dict[str, list]] = {}

    def add(self, label: str, result: Result, counted: bool = True) -> None:
        blob = "\0".join((str(result.code), result.stdout, result.stderr, result.output))
        digest = hashlib.sha256(blob.encode()).hexdigest()
        entry = self.seen.setdefault(label, {}).setdefault(digest, [result, 0])
        entry[1] += counted

    def judge(self, calls, remembered: dict) -> tuple[int, list[str]]:
        """Failed invocations and reasons.  A label with two distinct
        outputs, or one that differs from `remembered`, fails every
        invocation; otherwise the single output's check decides."""
        failed, reasons = 0, []
        for call in calls:
            outs = self.seen[call.label]
            count = sum(n for _, n in outs.values())
            if len(outs) > 1 or remembered.get(call.label, next(iter(outs))) not in outs:
                reason = "output bytes differ between invocations or runs"
            else:
                result = next(iter(outs.values()))[0]
                reason = f"raised {result.stderr}" if result.code == -1 else call.check(result)
            if reason is not None:
                failed += count
                reasons.append(f"{call.label}: {reason}")
        return failed, reasons

    def digests(self) -> dict:
        return {label: next(iter(outs)) for label, outs in self.seen.items() if len(outs) == 1}

    def first(self, label: str) -> Result:
        return next(iter(self.seen[label].values()))[0]


def source_digest(root: str) -> str:
    """Digest of the package and benchmark sources, keying remembered outputs."""
    h = hashlib.sha256()
    for base in ("src/edgeslide", "bench"):
        for name in sorted(os.listdir(os.path.join(root, base))):
            if name.endswith(".py"):
                with open(os.path.join(root, base, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest ladder percentile with at least ten samples beyond it
    (the lowest rung when none has), by nearest rank: (p, value, beyond)."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10 or p == TAIL_LADDER[-1]:
            return p, ordered[rank - 1], n - rank


def run_cycles(calls, seconds: float, each) -> int:
    """Run whole cycles until the next one would overrun `seconds`."""
    start = perf_counter()
    cycles = 0
    while True:
        for call in calls:
            each(call)
        cycles += 1
        elapsed = perf_counter() - start
        if elapsed * (cycles + 1) / cycles > seconds:
            return cycles


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "edgeslide", "cli.py")):
        print(f"error: no edgeslide package under {src}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    build = workloads.WORKLOADS[args.workload]
    tag = f"{args.workload}-s{args.seed}"
    work = os.path.join(WORK_ROOT, tag)
    for sub in ("hashes", "traces"):
        os.makedirs(os.path.join(WORK_ROOT, sub), exist_ok=True)
    outcomes = Outcomes()
    tracer = Tracer() if args.trace else None

    def setup():
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        t0 = perf_counter()
        es = fresh_import()
        plan = build(args.seed, work, es, tracer.span if tracer else plain)
        _, result = invoke(es, plan.calls[0], plain)  # warm-up
        elapsed = perf_counter() - t0
        outcomes.add(plan.calls[0].label, result, counted=False)
        return elapsed, es, plan

    try:
        setup_times = []
        for _ in range(1 if tracer else SETUP_REPEATS):
            elapsed, es, plan = setup()
            setup_times.append(elapsed)

        samples: list[float] = []
        overhead = 0.0  # traced minus untraced wall time, summed

        def untraced(call):
            elapsed, result = invoke(es, call, plain)
            samples.append(elapsed)
            outcomes.add(call.label, result)

        def traced(call):
            nonlocal overhead
            untraced(call)
            tracer.invocation += 1
            elapsed, result = invoke(es, call, tracer.span)
            overhead += elapsed - samples[-1]
            outcomes.add(call.label, result)
            if call.stages is not None:
                tracer.span("stages", call.stages, es, tracer.span)

        if tracer:
            tracer.phase = "cycle"
        # The harness's own objects (inputs, universes, outputs so far) move
        # to the permanent generation, so the program's garbage collections
        # traverse only what the program allocates.
        gc.collect()
        gc.freeze()
        cycles = run_cycles(plan.calls, args.seconds, traced if tracer else untraced)
        if tracer and plan.probes is not None:
            tracer.phase = "probe"
            tracer.invocation += 1
            plan.probes(es, tracer.span)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        gc.unfreeze()
        shutil.rmtree(work, ignore_errors=True)

    memo = os.path.join(WORK_ROOT, "hashes", f"{source_digest(root)}-{tag}.json")
    remembered = {}
    if os.path.exists(memo):
        with open(memo, "r", encoding="ascii") as fh:
            remembered = json.load(fh)
    failed, reasons = outcomes.judge(plan.calls, remembered)
    with open(memo, "w", encoding="ascii") as fh:
        json.dump({**outcomes.digests(), **remembered}, fh, sort_keys=True)
    attempted = len(samples) * (2 if tracer else 1)
    for reason in reasons:
        print(f"FAILED {reason}", file=sys.stderr)

    first = [outcomes.first(call.label) for call in plan.calls]
    moves_total = sum(call.moves(r) for call, r in zip(plan.calls, first))
    bound = sum(call.bound for call in plan.calls)
    summary = [
        f"workload {args.workload} seed {args.seed}: {cycles} cycles of {len(plan.calls)} calls, "
        f"{len(samples)} timed invocations, failed_ratio {failed / attempted:.6f} ({failed}/{attempted})"
    ]
    if tracer:
        metrics = layer_metrics(tracer, cycles, overhead / cycles)
        tracer.dump(os.path.join(WORK_ROOT, "traces", f"{tag}.json"))
        summary += [f"  {name:32s} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    else:
        p, tail_value, beyond = tail(samples)
        size = len(plan.calls)
        per_cycle = [size / sum(samples[i:i + size]) for i in range(0, len(samples), size)]
        values = {
            "setup_s": statistics.median(setup_times),
            "throughput_per_s": statistics.median(per_cycle),
            "latency_p50_s": statistics.median(samples),
            "latency_tail_s": tail_value,
            "moves_total": moves_total,
            "move_ratio": moves_total / bound if bound else float(moves_total),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
        summary += [
            f"  setup_s           {values['setup_s']:.6f} s (median of {len(setup_times)} set-ups)",
            f"  throughput_per_s  {values['throughput_per_s']:.6f} 1/s (median of {cycles} cycles, "
            f"{len(samples)} invocations)",
            f"  latency_p50_s     {values['latency_p50_s']:.6f} s (median of {len(samples)})",
            f"  latency_tail_s    {tail_value:.6f} s (p{p:g}, {beyond} samples beyond)",
            f"  moves_total       {moves_total} moves (one cycle; {plan.moves_source})",
            f"  move_ratio        {values['move_ratio']:.6f} (lower bound {bound})",
            f"  peak_rss_mb       {peak_rss_mb:.3f} MB",
        ]
    print("\n".join(summary))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def layer_metrics(tracer: Tracer, cycles: int, overhead: float) -> dict:
    """Per-layer sums: work in cycles is divided by the cycle count, set-up
    and probe work is taken once, so every figure is per cycle."""
    own = tracer.self_times()
    totals: dict = {}
    stage_time = 0.0
    for i, (name, _, _, parent, _, phase, span_counts) in enumerate(tracer.spans):
        share = 1.0 / cycles if phase == "cycle" else 1.0
        key = totals.setdefault(name, {"time": 0.0})
        key["time"] += own[i] * share
        for k, v in span_counts.items():
            key[k] = key.get(k, 0) + v * share
        if parent >= 0 and tracer.spans[parent][0] == "stages":
            stage_time += (tracer.spans[i][2] - tracer.spans[i][1]) * share
    out = {}
    for metric, (span, what) in PER_LAYER.items():
        unit = "s" if what == "time" else ("bytes" if what == "bytes" else "count")
        if metric == "cli.overhead_s":
            value = totals.get("cli.run", {}).get("time", 0.0) - stage_time
        elif metric == "trace.overhead_s":
            value = overhead
        else:
            value = totals.get(span, {}).get(what, 0)
        out[metric] = (float(value) if unit == "s" else round(value), unit)
    return out


if __name__ == "__main__":
    sys.exit(main())
