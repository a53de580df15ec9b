import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeslide import (
    Graph,
    GraphError,
    ParseError,
    complete_graph,
    connected_components,
    cycle_graph,
    is_connected,
    is_isomorphic_under,
    parse_graph,
    path_graph,
    serialize_graph,
    shortest_path,
    spanning_tree,
    star_graph,
    stats,
)
from helpers import all_simple_paths, random_connected_graph
import random


# --- construction invariants ---------------------------------------------


def test_rejects_loop():
    with pytest.raises(GraphError):
        Graph(3, [(1, 1)])


def test_rejects_duplicate_edge():
    with pytest.raises(GraphError):
        Graph(3, [(0, 1), (1, 0)])


def test_rejects_out_of_range():
    with pytest.raises(GraphError):
        Graph(3, [(0, 3)])


def test_edges_canonical():
    g = Graph(4, [(3, 2), (1, 0)])
    assert g.edges == ((0, 1), (2, 3))
    assert g.adjacent(2, 3) and g.adjacent(3, 2)
    assert g.neighbors(2) == (3,)


# --- .elist format ---------------------------------------------------------


def test_parse_path_graph():
    g = parse_graph("p 3 2\ne 0 1\ne 1 2\n")
    assert g == path_graph(3)


def test_parse_allows_comments_and_blanks():
    g = parse_graph("# a comment\n\np 2 1\n# another\ne 0 1\n")
    assert g == path_graph(2)


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("p 2 1\ne 1 1\n", 2),
        ("p 2 2\ne 0 1\ne 0 1\n", 3),
        ("p 2 1\ne 0 5\n", 2),
        ("p 2 1\ne 1 0\n", 2),
        ("e 0 1\n", 1),
        ("p 2\n", 1),
        ("q 1 2\n", 1),
        ("p 3 2\ne 0 1\n", 2),
    ],
)
def test_parse_errors_name_line(text, lineno):
    with pytest.raises(ParseError) as exc:
        parse_graph(text)
    assert exc.value.lineno == lineno


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    else:
        edges = []
    return Graph(n, edges)


@given(graphs())
@settings(max_examples=200)
def test_parse_serialize_round_trip(g):
    assert parse_graph(serialize_graph(g)) == g


def test_header_only_document_costs_a_pointer_per_vertex():
    # every isolated vertex shares one empty neighbor set: the vertex
    # sets take a list and a tuple of n pointers, where a set per vertex
    # took about 230 bytes each
    n = 200_000
    tracemalloc.start()
    try:
        g = parse_graph(f"p {n} 0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (g.n, g.e, g.degree(n - 1)) == (n, 0, 0)
    assert peak < 20 * n


# --- traversals ------------------------------------------------------------


def test_shortest_path_in_path_graph():
    assert shortest_path(path_graph(4), 0, 3) == (0, 1, 2, 3)


def test_shortest_path_forbidden_edge():
    assert shortest_path(cycle_graph(4), 0, 1, forbidden=(0, 1)) == (0, 3, 2, 1)


def test_shortest_path_ignores_a_forbidden_pair_that_is_not_an_edge():
    g = cycle_graph(5)
    for pair in ((0, 2), (4, 9), (-1, 0), (3, 3)):
        assert shortest_path(g, 4, 0, forbidden=pair) == (4, 0)


def test_shortest_path_unreachable():
    g = Graph(4, [(0, 1), (2, 3)])
    assert shortest_path(g, 0, 3) is None


def test_shortest_path_minimal_against_exhaustive():
    rng = random.Random(11)
    for n in range(2, 8):
        for _ in range(20):
            e = rng.randint(n - 1, n * (n - 1) // 2)
            g = random_connected_graph(n, e, rng)
            a, b = rng.sample(range(n), 2)
            forb = g.edges[rng.randrange(len(g.edges))] if rng.random() < 0.5 else None
            got = shortest_path(g, a, b, forbidden=forb)
            oracle = all_simple_paths(g, a, b, forbidden=forb)
            if not oracle:
                assert got is None
            else:
                assert got is not None
                assert len(got) == min(len(p) for p in oracle)


def test_components_connected_graph():
    assert connected_components(cycle_graph(4)) == ((0, 1, 2, 3),)


def test_components_star_center_removed():
    assert connected_components(star_graph(4), excluded=0) == ((1,), (2,), (3,))


def test_components_cycle_vertex_removed():
    assert connected_components(cycle_graph(4), excluded=0) == ((1, 2, 3),)


def test_spanning_tree_of_tree_is_itself():
    t = path_graph(5)
    assert spanning_tree(t, 2) == t.edges


def test_spanning_tree_c4():
    # BFS from 0 in ascending order: 0 reaches 1 and 3, then 1 reaches 2
    assert spanning_tree(cycle_graph(4), 0) == ((0, 1), (0, 3), (1, 2))


def test_spanning_tree_k3():
    assert spanning_tree(complete_graph(3), 0) == ((0, 1), (0, 2))


def test_spanning_tree_disconnected():
    with pytest.raises(GraphError):
        spanning_tree(Graph(3, [(0, 1)]), 0)


def test_spanning_tree_properties():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(2, 9)
        g = random_connected_graph(n, rng.randint(n - 1, n * (n - 1) // 2), rng)
        tree = spanning_tree(g, rng.randrange(n))
        assert len(tree) == n - 1
        assert set(tree) <= set(g.edges)
        assert is_connected(Graph(n, tree))


# --- statistics ------------------------------------------------------------


def test_stats_k3():
    s = stats(complete_graph(3))
    assert s.degrees == (2, 2, 2)
    assert s.energy == 12
    assert s.euler_characteristic == 0
    assert s.curvature_sum == 0


def test_stats_tree_chi_one():
    rng = random.Random(3)
    for _ in range(10):
        t = random_connected_graph(5, 4, rng)
        assert stats(t).euler_characteristic == 1


def test_stats_k4_extreme():
    s = stats(complete_graph(4))
    assert s.euler_characteristic == 4 - 6 == 4 * (3 - 4) // 2


def test_degree_sum_is_twice_edges():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(1, 9)
        e = rng.randint(max(n - 1, 0), n * (n - 1) // 2)
        g = random_connected_graph(n, e, rng) if n > 1 else Graph(1)
        assert sum(stats(g).degrees) == 2 * g.e


# --- psi-checked isomorphism ------------------------------------------------


def test_iso_identity():
    g = path_graph(3)
    assert is_isomorphic_under(g, g, (0, 1, 2))


def test_iso_relabeled_path():
    g = path_graph(3)
    h = Graph(3, [(0, 1), (0, 2)])
    assert is_isomorphic_under(g, h, (1, 0, 2))


def test_iso_different_edge_count():
    assert not is_isomorphic_under(path_graph(3), complete_graph(3), (0, 1, 2))


def test_iso_size_mismatch_raises():
    with pytest.raises(GraphError):
        is_isomorphic_under(path_graph(3), path_graph(4), (0, 1, 2))


def test_iso_bad_bijection_raises():
    with pytest.raises(GraphError):
        is_isomorphic_under(path_graph(3), path_graph(3), (0, 0, 2))
