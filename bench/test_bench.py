"""Self-tests for the benchmark's checker, generator and lower bounds.

Run from the repository root::

    python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import json
import os
import random
from collections import deque
from itertools import combinations

import pytest

import check
import gen
import run
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PATH4 = gen.elist_text(4, [(0, 1), (1, 2), (2, 3)])


def _line(src: str, script: str):
    return check.reject_line(src, script)


# ---------------------------------------------------------------------------
# Checker


def test_checker_accepts_legal_script_and_renumbers():
    # SM 1 0 2 deletes 1 and joins 0-2; old ids 2, 3 become 1, 2
    script = "SM 1 0 2\nS 0 1 2\nAP 1 3\nRL 3 1\n"
    assert _line(PATH4, script) is None
    final = check.replay(check.parse_elist(PATH4), check.parse_moves(script))
    assert final.edges() == [(0, 2), (1, 2)]


def test_checker_rejects_dropped_line():
    good = "S 0 1 2\nS 0 2 3\n"
    assert _line(PATH4, good) is None
    assert _line(PATH4, "S 0 2 3\n") == 1


def test_checker_rejects_swapped_moves():
    assert _line(PATH4, "S 0 2 3\nS 0 1 2\n") == 1


def test_checker_rejects_illegal_slide():
    assert _line(PATH4, "S 0 1 2\nS 0 1 2\n") == 2  # edge 0-1 is gone
    assert _line(PATH4, "S 0 1 3\n") == 1  # 1 !~ 3
    assert _line(PATH4, "S 0 1 0\n") == 1  # not distinct
    triangle = gen.elist_text(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert _line(triangle, "S 0 1 2\n") == 1  # 0 ~ 2 already


def test_checker_rejects_wrong_leaf_anchor():
    assert _line(PATH4, "RL 0 1\n") is None
    assert _line(PATH4, "RL 0 2\n") == 1
    assert _line(PATH4, "RL 1 0\n") == 1  # degree 2, not a leaf


def test_checker_rejects_stale_ids_after_removal():
    # after RL 0 1 the old vertex 3 is 2, so id 3 no longer exists
    assert _line(PATH4, "RL 0 1\nS 3 2 0\n") == 2


def test_checker_line_numbers_skip_comments():
    assert _line(PATH4, "# header\n\nS 0 1 3\n") == 3


def test_checker_rejects_wrong_final_graph():
    goal = gen.elist_text(4, [(0, 1), (0, 2), (0, 3)])
    ident = gen.mapping_text(range(4))
    assert check.check_transform(PATH4, goal, ident, "S 2 1 0\nS 3 2 0\n") is None
    assert check.check_transform(PATH4, goal, ident, "S 2 1 0\n") is not None


def test_corrupted_walk_copies_reject_at_their_line():
    rng = random.Random(7)
    edges = gen.random_connected(rng, 30, 60)
    moves, _ = gen.random_walk(rng, 30, edges, 400, resize=0.2)
    assert {tag for tag, _ in moves} == {"S", "AP", "SD", "RL", "SM"}
    for _ in range(20):
        text, line = gen.corrupt(rng, 30, edges, moves, "c")
        assert _line(gen.elist_text(30, edges), text) == line


def test_walk_replays_to_its_final_graph():
    rng = random.Random(3)
    edges = gen.random_connected(rng, 25, 100)
    moves, final = gen.random_walk(rng, 25, edges, 300, resize=0.2)
    state = check.replay(check.State(25, edges), [(i + 1, t, a) for i, (t, a) in enumerate(moves)])
    assert state.edges() == final and state.connected()


def test_outcomes_flag_nondeterministic_output():
    call = workloads.Call("x", argv=["stats"])
    out = run.Outcomes()
    out.add("x", workloads.Result(0, "", "", "a"))
    out.add("x", workloads.Result(0, "", "", "b"))
    assert out.judge([call], {}) == (2, ["x: output bytes differ between invocations or runs"])
    same = run.Outcomes()
    same.add("x", workloads.Result(0, "", "", "a"))
    assert same.judge([call], {})[0] == 0
    assert same.judge([call], {"x": "f" * 64})[0] == 1


# ---------------------------------------------------------------------------
# Generator


def _built_files(seed: int, name: str, d) -> dict:
    d.mkdir()
    workloads.WORKLOADS[name](seed, str(d), None, run.plain)
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


@pytest.mark.parametrize("name", ["transform-random", "verify-walk", "resize-regularize"])
def test_generator_is_deterministic_per_seed(name, tmp_path):
    a = _built_files(11, name, tmp_path / "a")
    assert a == _built_files(11, name, tmp_path / "b")
    assert a != _built_files(12, name, tmp_path / "c")


def test_random_connected_has_requested_size():
    rng = random.Random(1)
    for n, e in [(10, 9), (10, 20), (10, 40), (10, 45)]:
        edges = gen.random_connected(rng, n, e)
        assert len(edges) == e and check.State(n, edges).connected()


# ---------------------------------------------------------------------------
# Lower bounds against brute force


def _slide_distances(n: int, start):
    """Slide distance from `start` to every reachable edge set."""
    start = frozenset(start)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        st = check.State(n, cur)
        for x in range(n):
            for y in st.nbrs[x]:
                for z in st.nbrs[y] - st.nbrs[x] - {x}:
                    nxt = cur - {(min(x, y), max(x, y))} | {(min(x, z), max(x, z))}
                    if nxt not in dist:
                        dist[nxt] = dist[cur] + 1
                        queue.append(nxt)
    return dist


def _connected_graphs(n: int, e: int):
    pairs = list(combinations(range(n), 2))
    return [frozenset(c) for c in combinations(pairs, e) if check.State(n, c).connected()]


@pytest.mark.parametrize("n,e", [(4, 3), (4, 4), (4, 5), (5, 5)])
def test_transform_bound_matches_brute_force(n, e):
    rng = random.Random(n * 10 + e)
    graphs = _connected_graphs(n, e)
    for g in graphs[:12]:
        dist = _slide_distances(n, g)
        for h in graphs:
            psi = gen.permutation(rng, n)
            pulled = frozenset(gen.mapped(h, [psi.index(v) for v in range(n)]))
            bound = check.transform_bound(check.State(n, g), check.State(n, h), psi)
            assert bound == len(g - pulled)  # the formula counts |E(g) \ psi^-1 E(h)|
            assert bound <= dist[pulled]  # and never exceeds the true distance
            assert (bound == 0) == (dist[pulled] == 0)


@pytest.mark.parametrize("n,e", [(5, 4), (5, 5), (5, 6), (5, 7)])
def test_regularize_bound_matches_brute_force(n, e):
    cap = -(-2 * e // n)
    for g in _connected_graphs(n, e):
        state = check.State(n, g)
        bound = check.regularize_bound(state)
        assert bound == sum(max(0, d - cap) for d in state.degrees())
        dist = _slide_distances(n, g)
        best = min(
            k for s, k in dist.items()
            if max(check.State(n, s).degrees()) - min(check.State(n, s).degrees()) <= 1
        )
        assert bound <= best


def test_euler_bound_counts_order_changes():
    rng = random.Random(5)
    edges = gen.random_connected(rng, 12, 20)
    moves, _ = gen.random_walk(rng, 12, edges, 200, resize=0.3)
    st = check.State(12, edges)
    for tag, args in moves:
        before = st.n
        st.apply(tag, args)
        assert abs(st.n - before) == (0 if tag == "S" else 1)
    assert check.euler_bound(check.State(3, [(0, 1), (1, 2)]), check.State(5, [(0, 1), (1, 2), (2, 3), (3, 4)])) == 2


def test_connected_counts_match_known_values():
    # connected labelled graphs on 5 vertices by edge count (OEIS A062734)
    assert [check.connected_count(5, e) for e in range(4, 11)] == [125, 222, 205, 120, 45, 10, 1]


def test_call_that_raises_counts_as_failed():
    def boom(es, span):
        raise AssertionError("invariant broken")

    call = workloads.Call("boom", api=boom, render=str)
    elapsed, result = run.invoke(None, call, run.plain)
    assert elapsed >= 0 and result.code == -1 and "AssertionError" in result.stderr
    outcomes = run.Outcomes()
    outcomes.add("boom", result)
    failed, reasons = outcomes.judge([call], {})
    assert failed == 1 and "invariant broken" in reasons[0]


# ---------------------------------------------------------------------------
# A small seeded run of every workload: every output must pass the checker.

SMALL = {
    "TRANSFORM_RANDOM": [("s12far", 12, 24, None), ("s12near1", 12, 24, 1), ("d12far", 12, 36, None)],
    "VERIFY_WALK": [("s20", 20, 40, 150, True), ("d20", 20, 100, 80, False)],
    "REGULARIZE_HUBS": [30, 40],
    "EULER_CASES": [("shrink30", 30, 36, 12, 18), ("grow10", 10, 15, 20, 25)],
    "SKEWED_TRANSFORM": [("skew16", 16, 30, 8)],
    "SWEEP_ORDERS": (4, 5),
    "SWEEP_PAIRS": 30,
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_small_run_is_correct(name, trace, monkeypatch, capsys, tmp_path):
    if not os.path.isdir(os.path.join(ROOT, "src", "edgeslide")):
        pytest.skip("needs the edgeslide sources next to bench/")
    for attr, value in SMALL.items():
        monkeypatch.setattr(workloads, attr, value)
    monkeypatch.setattr(run, "WORK_ROOT", str(tmp_path))  # keep remembered outputs apart
    monkeypatch.chdir(ROOT)
    code = run.main(["--workload", name, "--seed", "4", "--seconds", "0", "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
