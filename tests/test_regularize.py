import importlib
import random
from dataclasses import replace

import pytest

from edgeslide import (
    Graph,
    GraphError,
    MoveError,
    almost_regular_target,
    cycle_graph,
    is_connected,
    minimal_energy_oracle,
    regularize,
    regularize_steps,
    replay,
    star_graph,
    stats,
)
from edgeslide._adj import Adj
from edgeslide.moves import apply_move_adj
from helpers import hub_graph, random_connected_graph


def test_target_nine_sixteen():
    t = almost_regular_target(9, 16)
    assert (t.k, t.r) == (3, 5)
    assert t.multiset() == (4, 4, 4, 4, 4, 3, 3, 3, 3)


def test_target_k5():
    t = almost_regular_target(5, 10)
    assert (t.k, t.r) == (4, 0)


def test_target_small_tree():
    t = almost_regular_target(4, 3)
    assert (t.k, t.r) == (1, 2)
    assert t.multiset() == (2, 2, 1, 1)


def test_target_rejects_out_of_range():
    with pytest.raises(GraphError):
        almost_regular_target(4, 7)
    with pytest.raises(GraphError):
        almost_regular_target(4, 2)


def test_oracle_k3_forced():
    assert minimal_energy_oracle(3, 3) == {(2, 2, 2)}


def test_oracle_n4_e3():
    # positive 4-part sums to 6: (3,1,1,1) has energy 12, (2,2,1,1) has 10
    assert minimal_energy_oracle(4, 3) == {(2, 2, 1, 1)}


def test_oracle_matches_figure_class():
    assert minimal_energy_oracle(9, 16) == {almost_regular_target(9, 16).multiset()}


def test_oracle_equivalence_all_small():
    # the energy minimum over positive sequences is exactly the Euclidean
    # division profile, for every connected-simple (n, e) with e > 0
    for n in range(1, 7):
        for e in range(max(n - 1, 1), n * (n - 1) // 2 + 1):
            assert minimal_energy_oracle(n, e) == {almost_regular_target(n, e).multiset()}


def test_regularize_cycle_already_regular():
    assert regularize(cycle_graph(6)) == ()


def test_regularize_star5():
    g = star_graph(5)
    assert stats(g).energy == 20
    final = replay(g, regularize(g), check="full")
    s = stats(final)
    assert sorted(s.degrees, reverse=True) == [2, 2, 2, 1, 1]
    assert s.energy == 14


def test_regularize_rejects_disconnected():
    with pytest.raises(GraphError):
        regularize(Graph(4, [(0, 1), (2, 3)]))


def test_regularize_raises_move_error_on_an_illegal_move(monkeypatch):
    # the package's name ``regularize`` is the function, not the module
    module = importlib.import_module("edgeslide.regularize")
    original = module.regularize_steps

    def repeat_first_move(g):
        # a slide applied twice in a row finds its edge gone the second time
        first, *rest = original(g)
        return (replace(first, moves=first.moves[:1] + first.moves), *rest)

    monkeypatch.setattr(module, "regularize_steps", repeat_first_move)
    with pytest.raises(MoveError):
        regularize(star_graph(6))


def test_regularize_step_energy_law():
    rng = random.Random(321)
    for _ in range(30):
        n = rng.randint(3, 9)
        e = rng.randint(n - 1, n * (n - 1) // 2)
        g = random_connected_graph(n, e, rng)
        cur = g
        drops = 0
        for step in regularize_steps(g):
            before = stats(cur).energy
            cur = replay(cur, step.moves, check="full")
            after = stats(cur).energy
            assert before - after == 2 * (step.high_degree - step.low_degree - 1)
            assert before - after >= 2
            assert len(step.moves) <= n
            drops += 1
        final = stats(cur)
        assert max(final.degrees) - min(final.degrees) <= 1
        assert drops <= (stats(g).energy - final.energy) // 2


def test_regularize_realizes_min_config_everywhere():
    # build one connected graph per (n, e) and slide it to the profile
    rng = random.Random(9)
    for n in range(2, 8):
        for e in range(n - 1, n * (n - 1) // 2 + 1):
            g = random_connected_graph(n, e, rng)
            final = replay(g, regularize(g), check="full")
            assert is_connected(final)
            want = almost_regular_target(n, e).multiset()
            assert tuple(sorted(stats(final).degrees, reverse=True)) == want


def test_regularize_nine_sixteen_figure_class():
    rng = random.Random(1000)
    for _ in range(20):
        g = random_connected_graph(9, 16, rng)
        final = replay(g, regularize(g), check="full")
        s = stats(final)
        assert sorted(s.degrees, reverse=True) == [4, 4, 4, 4, 4, 3, 3, 3, 3]
        assert s.energy == 116


def _brute_force_pick(degs):
    x = min(range(len(degs)), key=lambda v: (-degs[v], v))
    y = min(range(len(degs)), key=lambda v: (degs[v], v))
    return x, y, degs[x], degs[y]


def test_each_step_picks_the_smallest_id_extremes():
    rng = random.Random(77)
    graphs = [hub_graph(n, n, rng) for n in (40, 200, 300)]
    graphs += [random_connected_graph(n, k * n, rng) for n, k in ((60, 2), (120, 3), (300, 2))]
    for g in graphs:
        adj = Adj.from_graph(g)
        for step in regularize_steps(g):
            assert (step.high, step.low, step.high_degree, step.low_degree) == _brute_force_pick(
                adj.degrees()
            )
            for m in step.moves:
                apply_move_adj(adj, m)
        _, _, top, bottom = _brute_force_pick(adj.degrees())
        assert top - bottom < 2


def test_regularize_steps_reads_degrees_once_and_builds_no_bfs_tree(monkeypatch):
    calls = []
    degrees, parents = Adj.degrees, Adj._parents
    monkeypatch.setattr(Adj, "degrees", lambda self: calls.append("degrees") or degrees(self))
    monkeypatch.setattr(
        Adj, "_parents", lambda self, root: calls.append("_parents") or parents(self, root)
    )
    steps = regularize_steps(hub_graph(200, 200, random.Random(5)))
    assert len(steps) > 100
    assert calls.count("degrees") <= 1
    assert "_parents" not in calls
