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
    shuffle,
    star_graph,
    stats,
)
from edgeslide._adj import Adj
from helpers import bfs_tree_path, hub_graph, random_connected_graph


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


def _hubs_graph(n: int, hubs: int, rng: random.Random) -> Graph:
    """A random tree plus `hubs` low-id vertices each joined to about half
    of the others, so the highest degree passes between the hubs."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for h in range(hubs):
        edges.update((min(h, v), max(h, v)) for v in rng.sample(range(n), n // 2) if v != h)
    return Graph(n, edges)


def _reference_step(g: Graph):
    """One step chosen from scratch on g: the smallest-id extremes, the
    ascending-id BFS tree path and the least donor, shuffled along it."""
    x, y, _, _ = _brute_force_pick([g.degree(v) for v in range(g.n)])
    path = bfs_tree_path(g, x, y)
    donor = min(set(g.neighbors(x)) - set(g.neighbors(y)) - set(path))
    return x, y, path, donor, shuffle(g, donor, path, 0, len(path) - 1)


def test_each_step_picks_the_smallest_id_extremes():
    # each step equals a step chosen from scratch on the current state:
    # its extremes, its path and its donor, so its moves too
    rng = random.Random(77)
    graphs = [hub_graph(n, n, rng) for n in (40, 200, 300)]
    graphs += [random_connected_graph(n, k * n, rng) for n, k in ((60, 2), (120, 3), (300, 2))]
    graphs += [_hubs_graph(n, hubs, rng) for n, hubs in ((60, 3), (120, 4))]
    for g in graphs:
        cur = g
        for step in regularize_steps(g):
            want = _brute_force_pick([cur.degree(v) for v in range(cur.n)])
            assert (step.high, step.low, step.high_degree, step.low_degree) == want
            assert step.moves == _reference_step(cur)[-1]
            cur = replay(cur, step.moves, check="fast")
        _, _, top, bottom = _brute_force_pick([cur.degree(v) for v in range(cur.n)])
        assert top - bottom < 2


def test_the_high_vertex_passes_between_hubs_and_returns():
    # the held neighbour order of x is rebuilt each time x changes and
    # reused while it stays; this family exercises both, and the steps
    # above check them against the reference
    highs = [step.high for step in regularize_steps(_hubs_graph(120, 4, random.Random(3)))]
    runs = [h for i, h in enumerate(highs) if i == 0 or highs[i - 1] != h]
    assert len(runs) < len(highs)  # some run of steps keeps its x
    assert len(runs) > len(set(runs)) > 1  # x changes, and returns


@pytest.mark.parametrize(
    "g, case",
    [
        # x = 3, y = 1 on the edge 3-1; x's least neighbour 0 is adjacent
        # to y, so the donor is 2
        (Graph(5, [(0, 1), (0, 3), (0, 4), (1, 3), (2, 3), (2, 4), (3, 4)]), "adjacent to y"),
        # x = 4, y = 1 along 4-0-5-1; x's least neighbour 0 is the path's
        # first hop, so the donor is 2
        (Graph(6, [(0, 4), (0, 5), (1, 5), (2, 4), (3, 4)]), "on the path"),
    ],
)
def test_the_donor_skips_the_least_neighbour_of_x(g, case):
    x, y, path, donor, moves = _reference_step(g)
    least = min(g.neighbors(x))
    assert (least in g.neighbors(y), least in path) == (case == "adjacent to y", case == "on the path")
    assert donor == 2
    first = regularize_steps(g)[0]
    assert (first.high, first.low, first.moves) == (x, y, moves)


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
