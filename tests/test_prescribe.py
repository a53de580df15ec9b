import inspect
import random
import sys

import networkx as nx
import pytest

from edgeslide import (
    Graph,
    GraphError,
    MoveError,
    Slide,
    complete_graph,
    cycle_graph,
    enumerate_connected,
    identity_bijection,
    is_connected,
    is_isomorphic_under,
    path_graph,
    raise_degree,
    raise_degree_in_tree,
    replay,
    star_graph,
    transform,
    transform_peel,
)
from helpers import (
    cheapest_pair_reference,
    count_connectivity_checks,
    nx_graph,
    random_connected_graph,
    skip_first_relocation,
)


# --- raise_degree_in_tree ------------------------------------------------------


def test_tree_raise_star_already_done():
    assert raise_degree_in_tree(star_graph(5), 0) == ()


def test_tree_raise_p4():
    t = path_graph(4)
    script = raise_degree_in_tree(t, 0)
    assert replay(t, script) == star_graph(4)


def test_tree_raise_intermediates_stay_trees():
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randint(2, 9)
        t = random_connected_graph(n, n - 1, rng)
        x = rng.randrange(n)
        cur = t
        for m in raise_degree_in_tree(t, x):
            cur = replay(cur, (m,))
            assert cur.e == n - 1 and is_connected(cur)
        assert cur.degree(x) == n - 1


def test_tree_raise_rejects_non_tree():
    with pytest.raises(GraphError):
        raise_degree_in_tree(cycle_graph(4), 0)


# --- raise_degree ----------------------------------------------------------------


def test_raise_degree_complete_graph_empty():
    assert raise_degree(complete_graph(5), 3) == ()


def test_raise_degree_c5():
    g = cycle_graph(5)
    script = raise_degree(g, 0)
    final = replay(g, script, check="full")
    assert final.degree(0) == 4 and final.e == 5


def test_raise_degree_nine_vertices_sixteen_edges():
    rng = random.Random(88)
    for _ in range(25):
        g = random_connected_graph(9, 16, rng)
        x = rng.randrange(9)
        final = replay(g, raise_degree(g, x), check="full")
        assert final.degree(x) == 8
        assert (final.n, final.e) == (9, 16)


def test_raise_degree_rejects_disconnected():
    with pytest.raises(GraphError):
        raise_degree(Graph(4, [(0, 1), (2, 3)]), 0)


# --- transform -------------------------------------------------------------------


def test_transform_to_itself_verifies():
    g = cycle_graph(5)
    plan = transform(g, g, identity_bijection(5))
    final = replay(g, plan.script, check="full")
    assert is_isomorphic_under(final, g, identity_bijection(5))


def test_transform_p4_to_star_exact():
    g = path_graph(4)
    h = star_graph(4)
    plan = transform(g, h, identity_bijection(4))
    assert replay(g, plan.script) == h


def test_transform_emits_slides_only():
    g = path_graph(5)
    h = cycle_graph(5)
    plan = transform(g, Graph(5, h.edges[:4]), identity_bijection(5))
    assert all(isinstance(m, Slide) for m in plan.script)


def test_transform_trace_depth():
    g = random_connected_graph(6, 9, random.Random(4))
    h = random_connected_graph(6, 9, random.Random(5))
    plan = transform_peel(g, h, identity_bijection(6))
    assert [t.size for t in plan.trace] == [6, 5, 4, 3, 2]


def test_transform_peel_depth_does_not_grow_with_levels():
    # 60 levels under a recursion budget of 40 frames above this one
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 40)
    try:
        plan = transform_peel(path_graph(60), path_graph(60), identity_bijection(60))
    finally:
        sys.setrecursionlimit(limit)
    assert len(plan.trace) == 59


def test_transform_peel_checks_connectivity_only_on_its_inputs(monkeypatch):
    # every degree-reducing move is legal by construction, so the engine
    # makes no whole-graph connectivity test: the four per pair are the
    # two input checks and the start and end checks of the one
    # full-check replay that verifies the plan
    rng = random.Random(30)
    pairs = []
    for n in list(range(5, 31)) + [5, 6, 7, 8]:
        e = rng.randint(n - 1, min(2 * n, n * (n - 1) // 2))
        pairs.append((random_connected_graph(n, e, rng), random_connected_graph(n, e, rng), rng.sample(range(n), n)))
    calls = count_connectivity_checks(monkeypatch)
    for g, h, psi in pairs:
        transform_peel(g, h, psi)
    assert len(calls) == 4 * len(pairs)


def test_plan_that_does_not_verify_raises_move_error(monkeypatch):
    skip_first_relocation(monkeypatch)
    with pytest.raises(MoveError, match="does not verify against the goal"):
        transform(path_graph(5), star_graph(5), identity_bijection(5))


def test_peel_plan_that_does_not_verify_raises_move_error(monkeypatch):
    # peel retries a skipped relocation, so cut the plan's last move
    # instead: every move left is legal, and the result misses the goal
    import edgeslide.prescribe as module

    original = module._peel

    def peel_without_last_move(*args):
        script, traces = original(*args)
        return script[:-1], traces

    monkeypatch.setattr(module, "_peel", peel_without_last_move)
    with pytest.raises(MoveError, match="does not verify against the goal"):
        transform_peel(path_graph(5), star_graph(5), identity_bijection(5))


def test_transform_rejects_count_mismatch():
    with pytest.raises(GraphError):
        transform(path_graph(4), cycle_graph(4), identity_bijection(4))
    with pytest.raises(GraphError):
        transform(path_graph(4), path_graph(5), identity_bijection(4))


def test_transform_rejects_disconnected():
    with pytest.raises(GraphError):
        transform(Graph(4, [(0, 1), (2, 3)]), Graph(4, [(0, 2), (1, 3)]), identity_bijection(4))


def test_transform_exhaustive_n4_with_random_bijections():
    rng = random.Random(12345)
    for e in range(3, 7):
        graphs = enumerate_connected(4, e)
        for ga in graphs:
            for gb in graphs:
                bijections = [identity_bijection(4)]
                bijections += [tuple(rng.sample(range(4), 4)) for _ in range(5)]
                for psi in bijections:
                    plan = transform(ga, gb, psi)
                    final = replay(ga, plan.script, check="full")
                    assert is_isomorphic_under(final, gb, psi)


def test_transform_appended_inverse_restores_goal_repairs():
    # the goal-side repair slides come back out of the plan reversed,
    # inverted, and pulled through the bijection
    rng = random.Random(77)
    for _ in range(200):
        n = rng.randint(4, 7)
        e = rng.randint(n - 1, n * (n - 1) // 2)
        g = random_connected_graph(n, e, rng)
        h = random_connected_graph(n, e, rng)
        psi = tuple(rng.sample(range(n), n))
        plan = transform_peel(g, h, psi)
        for level in plan.trace:
            assert len(level.goal_repair) == len(level.appended_inverse)
        if any(level.goal_repair for level in plan.trace):
            break
    assert is_isomorphic_under(replay(g, plan.script), h, psi)


def test_transform_onto_own_image_is_empty():
    rng = random.Random(80)
    p3 = path_graph(3)
    assert transform(p3, p3, identity_bijection(3)).script == ()
    for n, e in ((3, 2), (12, 30), (80, 160)):
        g = random_connected_graph(n, e, rng)
        psi = tuple(rng.sample(range(n), n))
        image = Graph(n, [(psi[u], psi[v]) for u, v in g.edges])
        plan = transform(g, image, psi)
        assert plan.script == () and plan.trace == ()


def test_transform_differential_random_pairs():
    rng = random.Random(4040)
    for _ in range(40):
        n = rng.randint(7, 40)
        e = rng.randint(n - 1, min(4 * n, n * (n - 1) // 2))
        g = random_connected_graph(n, e, rng)
        h = random_connected_graph(n, e, rng)
        psi = tuple(rng.sample(range(n), n))
        plan = transform(g, h, psi)
        final = replay(g, plan.script, check="full")
        assert is_isomorphic_under(final, h, psi)
        assert nx.is_isomorphic(nx_graph(final), nx_graph(h))


# --- transform's pricing ------------------------------------------------------------


def test_cheapest_pair_matches_the_whole_graph_rule(monkeypatch):
    # every pricing decision of the ball search equals the rule run on two
    # whole-graph distance arrays, ties and bridges included, and the
    # search hands the graph back unchanged
    import edgeslide.prescribe as module

    original = module._cheapest_pair
    decisions = []

    def checked(adj, partners, u, v):
        before = [set(s) for s in adj.nbrs]
        got = original(adj, partners, u, v)
        assert adj.nbrs == before
        assert got == cheapest_pair_reference(adj, partners, u, v)
        decisions.append(got)
        return got

    monkeypatch.setattr(module, "_cheapest_pair", checked)
    rng = random.Random(5150)
    for i in range(40):
        n = rng.randint(7, 60)
        top = n * (n - 1) // 2
        e = (n - 1, n, 2 * n, rng.randint(top // 2, top))[i % 4]
        g = random_connected_graph(n, e, rng)
        h = random_connected_graph(n, e, rng)
        psi = tuple(rng.sample(range(n), n))
        transform(g, h, psi)
    assert len(decisions) > 1000


def test_pricing_of_a_near_pair_stays_local(monkeypatch):
    # a goal three slides away leaves each missing pair next to a surplus
    # edge, so the pricing's two BFS balls stop after a few layers; a
    # whole-graph pricing reaches 2n vertices per relocated edge
    import edgeslide.prescribe as module
    from edgeslide._adj import Adj

    rng = random.Random(400)
    n = 400
    g = random_connected_graph(n, 2 * n, rng)
    adj = Adj.from_graph(g)
    done = 0
    while done < 3:
        x = rng.randrange(n)
        y = rng.choice(sorted(adj.nbrs[x]))
        z = rng.choice(sorted(adj.nbrs[y]))
        if z != x and not adj.has(x, z):
            adj.slide(x, y, z)
            done += 1
    psi = tuple(rng.sample(range(n), n))
    h = Graph(n, [(psi[a], psi[b]) for a, b in adj.sorted_edges()])

    reached = []
    layers, price = Adj.layers, module._cheapest_pair

    def counted_layers(self, source, dist):
        for layer in layers(self, source, dist):
            reached[-1] += len(layer)
            yield layer

    def counted_price(*args):
        reached.append(0)
        return price(*args)

    monkeypatch.setattr(Adj, "layers", counted_layers)
    monkeypatch.setattr(module, "_cheapest_pair", counted_price)
    transform(g, h, psi)
    assert reached and max(reached) < n


# --- level peeling: the goal-side repair and the connected G - x* -----------


def test_peel_repairs_a_goal_split_at_a_cut_vertex(monkeypatch):
    # two triangles {1,2,3} and {4,5,6} joined through vertex 0: the goal's
    # least vertex of least degree is the cut vertex 0, so the first level
    # relocates a triangle edge to join the two sides again
    import edgeslide.prescribe as module

    h = Graph(7, [(0, 1), (0, 4), (1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)])
    g = Graph(7, list(path_graph(7).edges) + [(0, 6), (2, 5)])
    searched = []
    original = module._first_back_edge
    monkeypatch.setattr(
        module, "_first_back_edge", lambda adj, comp: searched.append(list(comp)) or original(adj, comp)
    )
    plan = transform_peel(g, h, identity_bijection(7))
    assert searched == [[1, 2, 3]]
    first = plan.trace[0]
    assert (first.size, first.target, first.preimage) == (7, 0, 0)
    assert len(first.goal_repair) == 4
    assert first.appended_inverse and all(not t.goal_repair for t in plan.trace[1:])
    assert is_isomorphic_under(replay(g, plan.script, check="full"), h, identity_bijection(7))


def test_degree_reduction_leaves_the_source_remainder_connected(monkeypatch):
    # level peeling repairs only the goal side, so after the pruning
    # G - x* must be one component (the prescribe module docstring's
    # argument); run on every ordered pair with n <= 4 and on 300 seeded
    # pairs with n = 6..30
    import edgeslide.prescribe as module

    original = module._reduce_degree
    levels = []

    def reduce_degree(adj, x_star, d1, out):
        original(adj, x_star, d1, out)
        assert len(adj.components(skip=x_star)) == 1
        levels.append(adj.n)

    monkeypatch.setattr(module, "_reduce_degree", reduce_degree)
    pairs = []
    for n in range(2, 5):
        for e in range(n - 1, n * (n - 1) // 2 + 1):
            graphs = enumerate_connected(n, e)
            pairs.extend((g, h, identity_bijection(n)) for g in graphs for h in graphs)
    assert len(pairs) == 1 + 10 + 518
    rng = random.Random(24)
    for _ in range(300):
        n = rng.randint(6, 30)
        e = rng.randint(n - 1, min(3 * n, n * (n - 1) // 2))
        pairs.append((random_connected_graph(n, e, rng), random_connected_graph(n, e, rng), rng.sample(range(n), n)))
    for g, h, psi in pairs:
        transform_peel(g, h, psi)
    # one pruning per level above n = 2
    assert len(levels) == 6089
