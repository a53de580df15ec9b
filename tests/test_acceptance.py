"""Acceptance suite.  Each test prints one pass/fail line (run with -s).

Criteria 1 through 5 replay every generated script in full-check mode.
That checks each move's precondition and the neighbour sets it wrote,
and asserts connectivity, simplicity and constant Euler characteristic
on the whole state after each vertex removal and after the last move.
Each accepted move keeps the Euler characteristic, and the curvature
sum is 2n - 2e for any graph, so the curvature identity holds after
every move; criterion 6 reports the total number of moves so checked.
"""
import os
import random
from concurrent.futures import ProcessPoolExecutor

from edgeslide import (
    almost_regular_target,
    enumerate_connected,
    is_isomorphic_under,
    minimal_energy_oracle,
    pendant_subdivide_equivalence,
    interchange,
    move_edge,
    reachability_census,
    regularize_steps,
    replay,
    serialize_graph,
    slide_distances,
    stats,
    transform,
    transform_euler,
    transform_peel,
)
from edgeslide.cli import run
from helpers import (
    legal_relocations,
    random_connected_graph,
    swap_neighborhoods,
    transform_sweep_chunk,
)

FULL_CHECKED_MOVES = {"count": 0}

SWEEP_SCOPE = [
    (n, e) for n in range(1, 6) for e in range(max(n - 1, 0), n * (n - 1) // 2 + 1)
]


def _report(label: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}{suffix}", flush=True)
    assert ok, label


# slides of transform's identity-bijection plan for every ordered n=5
# pair, by e, in pair order: C1 records them and the optimum gate reads them
N5_IDENTITY_SLIDES: dict[int, list[int]] = {}


def _sweep(engines, scope):
    """Verify every plan of each engine over the (n, e) scope on a process
    pool; returns (chunk, result) pairs of ``transform_sweep_chunk``."""
    chunks = []
    for engine in engines:
        for n, e in scope:
            pairs = len(enumerate_connected(n, e)) ** 2
            step = 4000
            chunks.extend((engine, n, e, lo, min(lo + step, pairs)) for lo in range(0, pairs, step))
    workers = min(os.cpu_count() or 1, 8)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(transform_sweep_chunk, chunks))
    for (engine, n, e, _, _), (_, _, slides) in zip(chunks, results):
        if engine is transform and n == 5:
            N5_IDENTITY_SLIDES.setdefault(e, []).extend(slides)
    return list(zip(chunks, results))


def test_c1_exhaustive_slide_equivalence():
    # the default engine and the paper's peeling reference, same scope each
    engines = (transform, transform_peel)
    verified = {engine: 0 for engine in engines}
    for chunk, (plans, moves, _) in _sweep(engines, SWEEP_SCOPE):
        verified[chunk[0]] += plans
        FULL_CHECKED_MOVES["count"] += moves
    single_class = all(reachability_census(n, e).classes == 1 for n, e in SWEEP_SCOPE)
    expected = sum(len(enumerate_connected(n, e)) ** 2 for n, e in SWEEP_SCOPE) * 4
    _report(
        "C1 exhaustive slide-equivalence (n<=5, every e; 4 bijections each; "
        "transform and transform_peel)",
        all(v == expected for v in verified.values()) and single_class,
        ", ".join(f"{engine.__name__}: {v} plans verified" for engine, v in verified.items())
        + ", census single-class",
    )


def test_c1_transform_slides_against_the_exact_optimum():
    # C1's identity-bijection transform plans on every ordered n=5 pair,
    # against the fewest slides: at most 1.20x in total, 3.5x on any pair
    if not N5_IDENTITY_SLIDES:
        _sweep((transform,), [(5, e) for e in range(4, 11)])
    ok = True
    slides = optimum = bound = 0
    worst = (0, 1)
    for e in range(4, 11):
        universe, table = slide_distances(5, e)
        count = len(universe)
        ok = ok and len(N5_IDENTITY_SLIDES[e]) == count * count
        for idx, moved in enumerate(N5_IDENTITY_SLIDES[e]):
            i, j = divmod(idx, count)
            opt = table[i][j]
            slides += moved
            optimum += opt
            bound += len(set(universe[i].edges).difference(universe[j].edges))
            ok = ok and 2 * moved <= 7 * opt
            if moved * worst[1] > worst[0] * opt:
                worst = (moved, opt)
    ok = ok and 5 * slides <= 6 * optimum
    _report(
        "C1 transform slides within 1.20x of the exact optimum over every n=5 pair "
        "(identity bijection), no pair above 3.5x",
        ok,
        f"{slides} slides, optimum {optimum} ({slides / optimum:.3f}x), lower bound {bound}, "
        f"worst pair {worst[0]} against {worst[1]}",
    )


def test_c2_regularization_of_figure_class():
    rng = random.Random(160)
    ok = True
    for _ in range(100):
        g = random_connected_graph(9, 16, rng)
        cur = g
        for step in regularize_steps(g):
            before = stats(cur).energy
            cur = replay(cur, step.moves, check="full")
            FULL_CHECKED_MOVES["count"] += len(step.moves)
            drop = before - stats(cur).energy
            ok = ok and drop == 2 * (step.high_degree - step.low_degree - 1)
        final = stats(cur)
        ok = ok and sorted(final.degrees, reverse=True) == [4, 4, 4, 4, 4, 3, 3, 3, 3]
        ok = ok and final.energy == 116
    _report("C2 regularization of 100 random (9,16) graphs to {4^5,3^4}, energy 116", ok)


def test_c3_energy_minimum_oracle_equivalence():
    ok = True
    cases = 0
    for n in range(1, 7):
        for e in range(max(n - 1, 1), n * (n - 1) // 2 + 1):
            got = minimal_energy_oracle(n, e)
            ok = ok and got == {almost_regular_target(n, e).multiset()}
            cases += 1
    _report("C3 brute-force energy minimum equals the (k,r) profile, n<=6", ok, f"{cases} (n,e) cases")


def test_c4_move_edge_exactness():
    ok = True
    cases = 0
    for n in range(2, 6):
        for e in range(n - 1, n * (n - 1) // 2 + 1):
            for g in enumerate_connected(n, e):
                for uv, xy, want in legal_relocations(g):
                    script = move_edge(g, uv, xy)
                    final = replay(g, script, check="full")
                    FULL_CHECKED_MOVES["count"] += len(script)
                    ok = ok and final == want
                    cases += 1
    _report("C4 move_edge exactness over every legal relocation, n<=5", ok, f"{cases} relocations")


def test_c5_interchange_contract():
    ok = True
    cases = 0
    for n in range(2, 6):
        for e in range(n - 1, n * (n - 1) // 2 + 1):
            for g in enumerate_connected(n, e):
                for a in range(n):
                    for b in range(n):
                        if a == b:
                            continue
                        script = interchange(g, a, b)
                        final = replay(g, script, check="full")
                        FULL_CHECKED_MOVES["count"] += len(script)
                        ok = ok and final == swap_neighborhoods(g, a, b)
                        cases += 1
    _report("C5 interchange matches the direct adjacency swap, n<=5", ok, f"{cases} pairs")


def test_c6_gauss_bonnet_invariant():
    # every accepted move keeps chi, so curvature == 2*chi holds after each
    # one; full-check replays assert it on each script's final state, and
    # any violation would have failed the generating criterion already
    moves = FULL_CHECKED_MOVES["count"]
    _report("C6 curvature sum = 2*chi after every replayed move of C1-C5", moves > 0, f"{moves} moves checked")


def test_c7_euler_class_random_pairs():
    rng = random.Random(7000)
    ok = True
    for _ in range(50):
        n1 = rng.randint(3, 9)
        n2 = rng.randint(3, 9)
        lo = max(n1 * (3 - n1) // 2, n2 * (3 - n2) // 2)
        chi = rng.randint(lo, 1)
        small = random_connected_graph(n1, n1 - chi, rng)
        big = random_connected_graph(n2, n2 - chi, rng)
        for src, dst in ((small, big), (big, small)):
            script, psi = transform_euler(src, dst)
            final = replay(src, script, check="full")
            ok = ok and is_isomorphic_under(final, dst, psi)
    _report("C7 Euler-class transformation verifies in both directions, 50 random pairs", ok)


def test_c8_pendant_subdivide_equivalence():
    ok = True
    cases = 0
    for n in range(2, 7):
        for e in range(n - 1, n * (n - 1) // 2 + 1):
            for g in enumerate_connected(n, e):
                for edge in g.edges:
                    a, b = pendant_subdivide_equivalence(g, edge)
                    ok = ok and replay(g, a) == replay(g, b)
                    cases += 1
    _report("C8 pendant/subdivide scripts agree on every edge, n<=6", ok, f"{cases} edges")


def test_c9_cli_byte_determinism(tmp_path, capsys):
    g = random_connected_graph(7, 10, random.Random(90))
    h = random_connected_graph(7, 10, random.Random(91))
    bigger = random_connected_graph(9, 12, random.Random(92))
    paths = {}
    for name, graph in (("g", g), ("h", h), ("big", bigger)):
        p = tmp_path / f"{name}.elist"
        p.write_text(serialize_graph(graph), encoding="ascii")
        paths[name] = str(p)

    ok = True
    for invocation, output in [
        (["transform", paths["g"], paths["h"]], "moves"),
        (["regularize", paths["g"]], "moves"),
        (["euler-transform", paths["g"], paths["big"]], "moves"),
        (["oracle", "4"], None),
        (["stats", paths["g"]], None),
    ]:
        outputs = []
        for attempt in range(2):
            argv = list(invocation)
            if output is not None:
                target = tmp_path / f"out{attempt}.{output}"
                argv += ["-o", str(target)]
            capsys.readouterr()
            code = run(argv)
            captured = capsys.readouterr().out
            ok = ok and code == 0
            blob = captured.encode()
            if output is not None:
                blob += (tmp_path / f"out{attempt}.{output}").read_bytes()
            outputs.append(blob)
        ok = ok and outputs[0] == outputs[1]
    with capsys.disabled():
        _report("C9 identical invocations produce byte-identical outputs", ok)
