"""The four benchmark workloads.

Each workload turns a seed into one *cycle*: a fixed list of calls into
edgeslide's public surface, each with its independent output check, its
lower bound, and (for the traced run) a stage-by-stage replay through the
public functions the command uses.  ``build`` writes the input files and
returns a :class:`Plan`; ``run.py`` times the calls.

Sizes are fixed per workload; the seed only draws the graphs, bijections
and walks, so any two seeds give the same mix of work.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import check
import gen


@dataclass
class Result:
    code: int
    stdout: str
    stderr: str
    output: str  # the -o file, or the rendered value of an API call


@dataclass
class Call:
    label: str
    argv: list[str] | None = None  # CLI arguments, or None for an API call
    api: Callable | None = None  # api(es, span) -> value, timed
    render: Callable | None = None  # value -> text, outside the timed region
    out: str | None = None  # the -o path of a CLI call
    check: Callable[[Result], str | None] = lambda r: None
    moves: Callable[[Result], int] = lambda r: 0  # script length it contributes
    bound: int = 0  # lower bound on that length
    stages: Callable | None = None  # stages(es, span): the CLI's work, stage by stage


@dataclass
class Plan:
    calls: list[Call]
    probes: Callable | None = None  # probes(es, span): per-layer probes, traced run only
    moves_source: str = "emitted scripts"  # what moves_total counts


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)
    return path


def _read(path: str) -> str:
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _script_moves(r: Result) -> int:
    return sum(1 for line in r.output.splitlines() if line and not line.startswith("#"))


def _cli_ok(r: Result, stdout: str | None = "") -> str | None:
    """Exit 0, nothing on stderr, and `stdout` on stdout (None: anything)."""
    if r.code != 0:
        return f"exit {r.code}: {r.stderr.strip()}"
    if (stdout is not None and r.stdout != stdout) or r.stderr:
        return "unexpected terminal output"
    return None


def _psi_of(text: str, n: int) -> tuple[int, ...]:
    return tuple(check.parse_mapping(text, n))


# ---------------------------------------------------------------------------
# Stage replays: the public functions a command calls, in its order.  The
# texts are read before the span starts, so file I/O stays in the CLI's
# own share.


def _transform_stages(src: str, goal: str, mapping: str):
    def stages(es, span):
        g = span("graph.parse_graph", es.parse_graph, src)
        h = span("graph.parse_graph", es.parse_graph, goal)
        psi = _psi_of(mapping, g.n)
        plan = span("prescribe.transform", es.transform, g, h, psi)
        final = span("moves.replay_full", es.replay, g, plan.script, "full")
        span("graph.is_isomorphic_under", es.is_isomorphic_under, final, h, psi)
        span("moves.serialize_script", es.serialize_script, plan.script)
        return plan

    return stages


def _euler_stages(src: str, goal: str):
    def stages(es, span):
        g = span("graph.parse_graph", es.parse_graph, src)
        h = span("graph.parse_graph", es.parse_graph, goal)
        script, psi = span("euler.transform_euler", es.transform_euler, g, h)
        final = span("moves.replay_full", es.replay, g, script, "full")
        span("graph.is_isomorphic_under", es.is_isomorphic_under, final, h, psi)
        span("moves.serialize_script", es.serialize_script, script)

    return stages


def _regularize_stages(src: str):
    def stages(es, span):
        g = span("graph.parse_graph", es.parse_graph, src)
        steps = span("regularize.regularize", es.regularize_steps, g)
        script = tuple(m for step in steps for m in step.moves)
        span("moves.replay_full", es.replay, g, script, "full")
        span("moves.serialize_script", es.serialize_script, script)
        return steps

    return stages


def _verify_stages(src: str, walk: str, goal: str | None, mapping: str | None):
    def stages(es, span):
        g = span("graph.parse_graph", es.parse_graph, src)
        script, _ = span("moves.parse_script", es.parse_script_lines, walk)
        try:
            final = span("moves.replay_full", es.replay, g, script, "full")
        except es.MoveError:
            return
        if goal is not None:
            h = span("graph.parse_graph", es.parse_graph, goal)
            span("graph.is_isomorphic_under", es.is_isomorphic_under, final, h,
                 _psi_of(mapping, final.n))

    return stages


def _replay_stages(src: str, walk: str):
    def stages(es, span):
        g = span("graph.parse_graph", es.parse_graph, src)
        script, _ = span("moves.parse_script", es.parse_script_lines, walk)
        final = span("moves.replay_fast", es.replay, g, script, "fast")
        span("graph.serialize_graph", es.serialize_graph, final)

    return stages


# ---------------------------------------------------------------------------
# Per-layer probes on source graphs: seeded legal relocations for
# move_edge, seeded vertex pairs for interchange, and the first level's
# pump of transform.


def _relocations(rng: random.Random, n: int, edges, count: int):
    """Up to `count` (uv, xy) pairs with g - uv + xy connected."""
    have = set(edges)
    out = []
    for _ in range(50 * count):
        if len(out) == count:
            break
        drawn = gen.draw_relocation(rng, n, have)
        if drawn is not None:
            out.append(drawn)
    return out


def _slide_probes(rng: random.Random, sources, count: int = 2):
    """sources: (elist text, n, edges).  Returns probes(es, span)."""
    jobs = [
        (text, _relocations(rng, n, edges, count), [tuple(rng.sample(range(n), 2)) for _ in range(count)])
        for text, n, edges in sources
    ]

    def probes(es, span):
        for text, relocs, pairs in jobs:
            g = es.parse_graph(text)
            for uv, xy in relocs:
                span("slides.move_edge", es.move_edge, g, uv, xy)
            for a, b in pairs:
                span("slides.interchange", es.interchange, g, a, b)

    return probes


def _pump_probe(src: str, goal_edges, n: int, psi):
    """raise_degree(g, psi^-1(y*)) with y* the goal's least-degree vertex."""
    deg = [0] * n
    for u, v in goal_edges:
        deg[u] += 1
        deg[v] += 1
    y_star = min(range(n), key=lambda v: (deg[v], v))
    x_star = psi.index(y_star)

    def probe(es, span):
        span("prescribe.raise_degree", es.raise_degree, es.parse_graph(src), x_star)

    return probe


def _chain(*fns):
    def run(es, span):
        for fn in fns:
            fn(es, span)

    return run


# ---------------------------------------------------------------------------
# Calls shared by the CLI workloads


def _transform_call(d: str, label: str, n: int, g_edges, h_edges, psi) -> tuple[Call, str]:
    src = _write(f"{d}/{label}.src.elist", gen.elist_text(n, g_edges, label))
    goal = _write(f"{d}/{label}.goal.elist", gen.elist_text(n, h_edges))
    mfile = _write(f"{d}/{label}.map", gen.mapping_text(psi))
    out = f"{d}/{label}.out.moves"
    texts = (_read(src), _read(goal), _read(mfile))

    def verdict(r: Result):
        return _cli_ok(r) or check.check_transform(*texts, r.output)

    bound = check.transform_bound(check.State(n, g_edges), check.State(n, h_edges), psi)
    call = Call(
        label, ["transform", src, goal, "--bijection", mfile, "-o", out], out=out,
        check=verdict, moves=_script_moves, bound=bound, stages=_transform_stages(*texts),
    )
    return call, texts[0]


def _near_goal(rng: random.Random, n: int, g_edges, k: int, psi):
    return gen.mapped(gen.relocate(rng, n, g_edges, k), psi)


# ---------------------------------------------------------------------------
# 1. transform-random

# (label, n, e, relocations or None for an independent goal).  Sparse
# graphs have e = 2n, dense ones e = n^2/4.  The fourteen n = 45 pairs
# span the middle of the cycle's latencies, so the median and the tail
# are each drawn from many calls of one kind, and the seed-to-seed cost
# of single pairs averages out.  Sizes stop at n = 70: a call costs about
# n^3, so one n = 100 call (3-4 s) would leave too few cycles in a run.
TRANSFORM_RANDOM = [
    ("s40far", 40, 80, None),
    ("s40near2", 40, 80, 2),
    ("d40far", 40, 400, None),
    ("d40near3", 40, 400, 3),
    *((f"s45far{i}", 45, 90, None) for i in range(7)),
    *((f"s45near{k}.{i}", 45, 90, k) for i, k in enumerate((0, 0, 1, 1, 2, 3, 3))),
    ("d50far", 50, 625, None),
    ("s70far", 70, 140, None),
]


def build_transform_random(seed: int, d: str, es, span) -> Plan:
    rng = random.Random(f"transform-random/{seed}")
    calls, sources, pumps = [], [], []
    for label, n, e, k in TRANSFORM_RANDOM:
        g = gen.random_connected(rng, n, e)
        psi = gen.permutation(rng, n)
        h = gen.random_connected(rng, n, e) if k is None else _near_goal(rng, n, g, k, psi)
        call, src = _transform_call(d, label, n, g, h, psi)
        calls.append(call)
        sources.append((src, n, g))
        pumps.append(_pump_probe(src, h, n, psi))
    return Plan(calls, _chain(_slide_probes(rng, sources), *pumps))


# ---------------------------------------------------------------------------
# 2. verify-walk

# (label, n, e, walk length, corrupted copy?).  Each walk is verified
# with and without --expect and replayed fast; three get a corrupted copy.
VERIFY_WALK = [
    ("s100", 100, 200, 3000, True),
    ("s200", 200, 400, 2200, False),
    ("s300", 300, 600, 1800, True),
    ("d100", 100, 2500, 900, True),
    ("d140", 140, 4900, 450, False),
]


def build_verify_walk(seed: int, d: str, es, span) -> Plan:
    rng = random.Random(f"verify-walk/{seed}")
    calls = []
    for label, n, e, length, bad in VERIFY_WALK:
        g = gen.random_connected(rng, n, e)
        moves, final = gen.random_walk(rng, n, g, rng.randint(length * 49 // 50, length * 51 // 50))
        psi = gen.permutation(rng, n)
        src_text = gen.elist_text(n, g, label)
        walk_text = gen.moves_text(moves, f"walk {label}")
        goal_text = gen.elist_text(n, gen.mapped(final, psi))
        map_text = gen.mapping_text(psi)
        src = _write(f"{d}/{label}.src.elist", src_text)
        walk = _write(f"{d}/{label}.walk.moves", walk_text)
        goal = _write(f"{d}/{label}.goal.elist", goal_text)
        mfile = _write(f"{d}/{label}.map", map_text)
        expected = check.canonical_elist(check.State(n, final))
        out = f"{d}/{label}.out.elist"
        lb = check.transform_bound(check.State(n, g), check.State(n, final), list(range(n)))
        accepted = _accepted(src_text, walk_text, expected, len(moves))
        calls.append(Call(
            f"{label}.verify", ["verify", src, walk, "--expect", goal, "--bijection", mfile],
            check=accepted, moves=lambda r, L=len(moves): L, bound=lb,
            stages=_verify_stages(src_text, walk_text, goal_text, map_text),
        ))
        calls.append(Call(
            f"{label}.verify-plain", ["verify", src, walk], check=accepted,
            stages=_verify_stages(src_text, walk_text, None, None),
        ))
        calls.append(Call(
            f"{label}.replay", ["replay", src, walk, "--check", "fast", "-o", out], out=out,
            check=lambda r, x=expected: _cli_ok(r) or check.check_replay_output(x, r.output),
            stages=_replay_stages(src_text, walk_text),
        ))
        if bad:
            bad_text, line = gen.corrupt(rng, n, g, moves, f"corrupted {label}")
            path = _write(f"{d}/{label}.bad.moves", bad_text)
            calls.append(Call(
                f"{label}.reject", ["verify", src, path],
                check=lambda r, p=path, ln=line: _rejected_at(r, p, ln),
                stages=_verify_stages(src_text, bad_text, None, None),
            ))
    return Plan(calls, moves_source="input walks, fixed by the seed: never a program regression")


def _accepted(src: str, walk: str, expected: str, length: int):
    """Check of a verify call on a legal walk: the CLI accepts it, and so
    does the checker's own replay, ending at the expected graph."""

    def verdict(r: Result) -> str | None:
        reason = _cli_ok(r, f"OK: {length} moves verified\n")
        if reason is not None:
            return reason
        try:
            final = check.replay(check.parse_elist(src), check.parse_moves(walk))
        except check.Rejected as err:
            return f"verify accepted a walk the checker rejects: {err}"
        return check.check_replay_output(expected, check.canonical_elist(final))

    return verdict


def _rejected_at(r: Result, path: str, line: int) -> str | None:
    if r.code != 1 or r.stdout:
        return f"corrupted certificate gave exit {r.code}, not 1"
    if not r.stderr.startswith(f"verification failed at {path} line {line}: "):
        return f"corrupted certificate not rejected at line {line}: {r.stderr.strip()}"
    return None


# ---------------------------------------------------------------------------
# 3. resize-regularize

# Hub graphs with n extra edges.  The n = 300 group is the largest and
# spans the middle of the cycle's latencies, so the median and the p75
# tail are each one of its members: the Euler cases and the skewed
# transform vary far more from seed to seed.
REGULARIZE_HUBS = [200] * 4 + [300] * 16 + [800]
EULER_CASES = [  # (label, n_g, e_g, n_h, e_h): chi = n - e is shared
    ("shrink120", 120, 150, 50, 80),
    ("grow40", 40, 60, 80, 100),
]
SKEWED_TRANSFORM = [("skew60", 60, 120, 30)]  # (label, n, e, goal core)


def build_resize_regularize(seed: int, d: str, es, span) -> Plan:
    rng = random.Random(f"resize-regularize/{seed}")
    calls, sources, probes = [], [], []
    for i, n in enumerate(REGULARIZE_HUBS):
        label = f"hub{n}.{i}"
        g = gen.hub_graph(rng, n, n)
        src_text = gen.elist_text(n, g, label)
        src = _write(f"{d}/{label}.src.elist", src_text)
        out = f"{d}/{label}.out.moves"
        calls.append(Call(
            label, ["regularize", src, "-o", out], out=out,
            check=lambda r, s=src_text: _cli_ok(r) or check.check_regularize(s, r.output),
            moves=_script_moves, bound=check.regularize_bound(check.State(n, g)),
            stages=_regularize_stages(src_text),
        ))
    for label, ng, eg, nh, eh in EULER_CASES:
        g = gen.random_connected(rng, ng, eg)
        h = gen.random_connected(rng, nh, eh)
        src_text, goal_text = gen.elist_text(ng, g, label), gen.elist_text(nh, h)
        src = _write(f"{d}/{label}.src.elist", src_text)
        goal = _write(f"{d}/{label}.goal.elist", goal_text)
        out = f"{d}/{label}.out.moves"
        calls.append(Call(
            label, ["euler-transform", src, goal, "-o", out], out=out,
            check=lambda r, s=src_text, t=goal_text: (
                _cli_ok(r, None) or check.check_euler(s, t, r.output, r.stdout)),
            moves=_script_moves, bound=check.euler_bound(check.State(ng, g), check.State(nh, h)),
            stages=_euler_stages(src_text, goal_text),
        ))
        sources.append((src_text, ng, g))
        probes.append(_resize_probe(src_text, nh, ng > nh))
    for label, n, e, core in SKEWED_TRANSFORM:
        g = gen.hub_graph(rng, n, e - (n - 1))
        psi = gen.permutation(rng, n)
        h = gen.pendant_graph(rng, n, e, core)
        call, src = _transform_call(d, label, n, g, h, psi)
        calls.append(call)
        sources.append((src, n, g))
        probes.append(_pump_probe(src, h, n, psi))
    return Plan(calls, _chain(_slide_probes(rng, sources), *probes))


def _resize_probe(src: str, target: int, shrink: bool):
    def probe(es, span):
        g = es.parse_graph(src)
        if shrink:
            span("euler.collapse_to_order", es.collapse_to_order, g, target)
        else:
            span("euler.expand_to_order", es.expand_to_order, g, target)

    return probe


# ---------------------------------------------------------------------------
# 4. sweep-tiny: the public API, no CLI

SWEEP_ORDERS = (5, 6)
SWEEP_PAIRS = 600
CENSUS_ORDER = 5


def _pair_api(ga, gb, psi):
    def call(es, span):
        plan = span("prescribe.transform", es.transform, ga, gb, psi)
        final = span("moves.replay_full", es.replay, ga, plan.script, "full")
        ok = span("graph.is_isomorphic_under", es.is_isomorphic_under, final, gb, psi)
        return plan, ok

    return call


def _render_pair(value) -> str:
    plan, ok = value
    return gen.moves_text([("S", (m.x, m.y, m.z)) for m in plan.script], f"iso {ok}")


def _census_api(e: int):
    def call(es, span):
        return span("oracle.census", es.reachability_census, CENSUS_ORDER, e)

    return call


def build_sweep_tiny(seed: int, d: str, es, span) -> Plan:
    rng = random.Random(f"sweep-tiny/{seed}")
    universes = {}
    for n in SWEEP_ORDERS:
        for e in range(n - 1, n * (n - 1) // 2 + 1):
            universes[n, e] = span("oracle.enumerate_connected", es.enumerate_connected, n, e)
    keys = sorted(universes)
    calls, sources = [], []
    for i in range(SWEEP_PAIRS):
        n, e = keys[i % len(keys)]  # every (n, e) universe gets its share
        pool = universes[n, e]
        ga, gb = pool[rng.randrange(len(pool))], pool[rng.randrange(len(pool))]
        psi = tuple(gen.permutation(rng, n))
        texts = (gen.elist_text(n, ga.edges), gen.elist_text(n, gb.edges), gen.mapping_text(psi))
        calls.append(Call(
            f"pair{i}", api=_pair_api(ga, gb, psi), render=_render_pair,
            check=lambda r, t=texts: _pair_verdict(t, r.output),
            moves=_script_moves,
            bound=check.transform_bound(check.State(n, ga.edges), check.State(n, gb.edges), psi),
        ))
        sources.append((texts[0], n, list(ga.edges)))
    for e in range(CENSUS_ORDER - 1, CENSUS_ORDER * (CENSUS_ORDER - 1) // 2 + 1):
        calls.append(Call(
            f"census{e}", api=_census_api(e),
            render=lambda r: f"{r.members} {r.classes} {r.diameter}\n",
            check=lambda r, e=e, k=len(universes[CENSUS_ORDER, e]): _census_verdict(e, k, r.output),
        ))
    return Plan(calls, _slide_probes(rng, sources[:20], 1))


def _pair_verdict(texts, output: str) -> str | None:
    if not output.startswith("# iso True\n"):
        return "is_isomorphic_under rejected the replayed graph"
    return check.check_transform(*texts, output)


def _census_verdict(e: int, enumerated: int, output: str) -> str | None:
    members, classes, _ = map(int, output.split())
    truth = check.connected_count(CENSUS_ORDER, e)
    if members != truth or enumerated != truth:
        return f"census of ({CENSUS_ORDER}, {e}) counts {members}, enumeration {enumerated}, truth {truth}"
    return None if classes == 1 else f"census of ({CENSUS_ORDER}, {e}) found {classes} classes"


WORKLOADS = {
    "transform-random": build_transform_random,
    "verify-walk": build_verify_walk,
    "resize-regularize": build_resize_regularize,
    "sweep-tiny": build_sweep_tiny,
}
