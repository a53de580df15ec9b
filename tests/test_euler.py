import random

import networkx as nx
import pytest

from edgeslide import (
    AddPendant,
    Graph,
    GraphError,
    MoveError,
    RemoveLeaf,
    Slide,
    Subdivide,
    collapse_to_order,
    complete_graph,
    cycle_graph,
    enumerate_connected,
    expand_to_order,
    identity_bijection,
    is_isomorphic_under,
    path_graph,
    pendant_subdivide_equivalence,
    replay,
    stats,
    transform_euler,
)
from helpers import nx_graph, random_connected_graph, skip_first_relocation


def test_expand_noop():
    assert expand_to_order(cycle_graph(3), 3) == ()


def test_expand_k1_to_three():
    g = Graph(1)
    script = expand_to_order(g, 3)
    assert script == (AddPendant(0, 1), AddPendant(0, 2))
    final = replay(g, script, check="full")
    assert stats(final).euler_characteristic == 1 and final.n == 3


def test_expand_c3_to_six():
    g = cycle_graph(3)
    final = replay(g, expand_to_order(g, 6), check="full")
    assert (final.n, final.e) == (6, 6)
    assert stats(final).euler_characteristic == 0


def test_expand_rejects_shrinking():
    with pytest.raises(GraphError):
        expand_to_order(cycle_graph(4), 3)


def test_pendant_subdivide_p2():
    g = path_graph(2)
    a, b = pendant_subdivide_equivalence(g, (0, 1))
    assert a == (Subdivide(1, 0, 2),)
    assert b == (AddPendant(1, 2), Slide(0, 1, 2))
    ga, gb = replay(g, a), replay(g, b)
    assert ga == gb and ga.edges == ((0, 2), (1, 2))


def test_pendant_subdivide_c3():
    g = cycle_graph(3)
    a, b = pendant_subdivide_equivalence(g, (0, 1))
    assert replay(g, a) == replay(g, b)


def test_pendant_subdivide_missing_edge():
    with pytest.raises(GraphError):
        pendant_subdivide_equivalence(path_graph(3), (0, 2))


def test_pendant_subdivide_exhaustive_n5():
    for n in range(2, 6):
        for e in range(n - 1, n * (n - 1) // 2 + 1):
            for g in enumerate_connected(n, e):
                for edge in g.edges:
                    a, b = pendant_subdivide_equivalence(g, edge)
                    assert replay(g, a) == replay(g, b)


def test_collapse_noop():
    assert collapse_to_order(cycle_graph(4), 4) == ()


def test_collapse_p3_single_leaf_removal():
    g = path_graph(3)
    script = collapse_to_order(g, 2)
    final = replay(g, script, check="full")
    assert final == path_graph(2)
    assert sum(1 for m in script if not isinstance(m, Slide)) == 1
    tree = random_connected_graph(12, 11, random.Random(16))
    script = collapse_to_order(tree, 1)
    assert replay(tree, script, check="full") == Graph(1)
    assert sum(1 for m in script if not isinstance(m, Slide)) == 11


def test_collapse_c6_to_k3():
    g = cycle_graph(6)
    final = replay(g, collapse_to_order(g, 3), check="full")
    assert final == complete_graph(3)


def test_collapse_bound_violation():
    # chi(K4) = -2, so at order 3 it would need 5 edges; impossible
    with pytest.raises(GraphError):
        collapse_to_order(complete_graph(4), 3)


def test_transform_euler_same_graph():
    g = cycle_graph(4)
    script, psi = transform_euler(g, g)
    final = replay(g, script, check="full")
    assert is_isomorphic_under(final, g, psi)


def test_transform_euler_c3_to_c6():
    g, h = cycle_graph(3), cycle_graph(6)
    script, psi = transform_euler(g, h)
    final = replay(g, script, check="full")
    assert is_isomorphic_under(final, h, psi)


def test_transform_euler_trees():
    rng = random.Random(15)
    g = random_connected_graph(4, 3, rng)
    h = random_connected_graph(9, 8, rng)
    script, psi = transform_euler(g, h)
    assert is_isomorphic_under(replay(g, script, check="full"), h, psi)
    back, psi2 = transform_euler(h, g)
    assert is_isomorphic_under(replay(h, back, check="full"), g, psi2)


def test_transform_euler_strips_top_pendants_without_slides():
    h = random_connected_graph(10, 14, random.Random(17))
    g = replay(h, expand_to_order(h, 16))
    script, psi = transform_euler(g, h)
    assert script == tuple(RemoveLeaf(m, 0) for m in range(15, 9, -1))
    assert replay(g, script, check="full") == h and psi == identity_bijection(10)


def test_transform_euler_differential_random_pairs():
    rng = random.Random(8100)
    for _ in range(12):
        n1 = rng.randint(10, 60)
        n2 = rng.randint(10, 60)
        chi = rng.randint(-min(n1, n2), 1)
        small = random_connected_graph(n1, n1 - chi, rng)
        big = random_connected_graph(n2, n2 - chi, rng)
        for src, dst in ((small, big), (big, small)):
            script, psi = transform_euler(src, dst)
            final = replay(src, script, check="full")
            assert is_isomorphic_under(final, dst, psi)
            assert nx.is_isomorphic(nx_graph(final), nx_graph(dst))
    g = random_connected_graph(120, 160, rng)
    h = random_connected_graph(50, 90, rng)
    script, psi = transform_euler(g, h)
    assert is_isomorphic_under(replay(g, script, check="full"), h, psi)
    assert len(script) <= 2000


@pytest.mark.parametrize(
    "resize",
    [
        lambda: transform_euler(cycle_graph(3), cycle_graph(6)),
        lambda: transform_euler(cycle_graph(6), cycle_graph(3)),
        lambda: collapse_to_order(cycle_graph(6), 4),
    ],
    ids=["grow", "shrink", "collapse"],
)
def test_resize_that_does_not_verify_raises_move_error(monkeypatch, resize):
    skip_first_relocation(monkeypatch)
    with pytest.raises(MoveError):
        resize()


def test_transform_euler_rejects_chi_mismatch():
    with pytest.raises(GraphError):
        transform_euler(path_graph(3), cycle_graph(3))


def test_every_prefix_preserves_chi():
    g = complete_graph(4)
    h = random_connected_graph(8, 10, random.Random(2))
    assert stats(g).euler_characteristic == stats(h).euler_characteristic == -2
    script, psi = transform_euler(g, h)
    cur = g
    for m in script:
        cur = replay(cur, (m,))
        assert stats(cur).euler_characteristic == -2
    assert is_isomorphic_under(cur, h, psi)
