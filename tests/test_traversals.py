"""Differential tests of the traversals and of the goal check against
networkx, on small random graphs, disconnected ones and isolated
vertices included."""
import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeslide import (
    Graph,
    GraphError,
    MoveError,
    connected_components,
    is_connected,
    is_isomorphic_under,
    shortest_path,
    spanning_tree,
)
from edgeslide._adj import Adj
from edgeslide.moves import _verify_generated
from helpers import bfs_tree_path, hub_graph, nx_graph, random_connected_graph


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, edges)


@st.composite
def graph_and_vertex(draw):
    g = draw(graphs())
    return g, draw(st.integers(0, g.n - 1))


@given(graphs(), st.data())
@settings(max_examples=300, deadline=None)
def test_components_match_networkx(g, data):
    excluded = data.draw(st.one_of(st.none(), st.integers(0, g.n - 1)))
    ref = nx_graph(g)
    if excluded is not None:
        ref.remove_node(excluded)
    want = sorted(tuple(sorted(c)) for c in nx.connected_components(ref))
    assert connected_components(g, excluded) == tuple(want)


@given(graphs())
@settings(max_examples=300, deadline=None)
def test_is_connected_matches_networkx(g):
    assert is_connected(g) == nx.is_connected(nx_graph(g))


@given(graph_and_vertex())
@settings(max_examples=300, deadline=None)
def test_distances_match_networkx(case):
    g, source = case
    want = [-1] * g.n
    for v, d in nx.single_source_shortest_path_length(nx_graph(g), source).items():
        want[v] = d
    assert Adj.from_graph(g).distances(source) == want


@given(graph_and_vertex(), st.data())
@settings(max_examples=300, deadline=None)
def test_shortest_path_matches_networkx(case, data):
    g, a = case
    b = data.draw(st.integers(0, g.n - 1))
    ref = nx_graph(g)
    path = shortest_path(g, a, b)
    if not nx.has_path(ref, a, b):
        assert path is None
        return
    assert len(path) == nx.shortest_path_length(ref, a, b) + 1
    assert path[0] == a and path[-1] == b
    assert all(g.adjacent(u, v) for u, v in zip(path, path[1:]))


@given(graph_and_vertex(), st.data())
@settings(max_examples=300, deadline=None)
def test_bfs_path_is_the_least_shortest_path(case, data):
    g, a = case
    b = data.draw(st.integers(0, g.n - 1))
    adj = Adj.from_graph(g)
    assert adj.bfs_path(a, a) == [a]
    path = adj.bfs_path(a, b)
    assert path == bfs_tree_path(g, a, b)
    ref = nx_graph(g)
    if nx.has_path(ref, a, b):
        assert path == min(nx.all_shortest_paths(ref, a, b))
    else:
        assert path is None


@st.composite
def hub_shaped(draw, max_n=30):
    """A graph with one hub adjacent to most other vertices, plus a few
    random edges, and a pair (a, b) whose a is often the hub: the meeting
    layer of a BFS from b then holds many neighbours of a."""
    n = draw(st.integers(3, max_n))
    hub = draw(st.integers(0, n - 1))
    others = [v for v in range(n) if v != hub]
    spokes = draw(st.lists(st.sampled_from(others), unique=True, min_size=len(others) // 2 + 1))
    pairs = [(u, v) for u in others for v in others if u < v]
    extra = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=n))
    g = Graph(n, {(min(hub, v), max(hub, v)) for v in spokes} | set(extra))
    a = draw(st.one_of(st.just(hub), st.sampled_from(others)))
    return g, a, draw(st.sampled_from(others))


@given(hub_shaped())
@settings(max_examples=300, deadline=None)
def test_bfs_path_on_hub_shaped_graphs(case):
    g, a, b = case
    path = Adj.from_graph(g).bfs_path(a, b)
    assert path == bfs_tree_path(g, a, b)
    ref = nx_graph(g)
    if not nx.has_path(ref, a, b):
        assert path is None
        return
    # compare with networkx where the shortest paths are few enough to list
    few = list(itertools.islice(nx.all_shortest_paths(ref, a, b), 500))
    if len(few) < 500:
        assert path == min(few)


def test_bfs_path_from_the_hub_of_large_hub_graphs():
    rng = random.Random(8)
    for n in (200, 300, 800):
        g = hub_graph(n, n, rng)
        adj = Adj.from_graph(g)
        for _ in range(50):
            a, b = rng.choice([0, rng.randrange(n)]), rng.randrange(n)
            assert adj.bfs_path(a, b) == bfs_tree_path(g, a, b)


@given(graph_and_vertex())
@settings(max_examples=300, deadline=None)
def test_spanning_tree_matches_networkx(case):
    g, root = case
    ref = nx_graph(g)
    if not nx.is_connected(ref):
        with pytest.raises(GraphError):
            spanning_tree(g, root)
        return
    edges = spanning_tree(g, root)
    assert len(edges) == g.n - 1
    assert all(g.adjacent(u, v) for u, v in edges)
    tree = nx.Graph(edges)
    tree.add_nodes_from(range(g.n))
    assert nx.single_source_shortest_path_length(tree, root) == (
        nx.single_source_shortest_path_length(ref, root)
    )


# --- the goal check --------------------------------------------------------


def _image(g: Graph, psi) -> Graph:
    return Graph(g.n, [(psi[u], psi[v]) for u, v in g.edges])


def _nx_maps_onto(g: Graph, h: Graph, psi) -> bool:
    mapped = nx.relabel_nodes(nx_graph(g), dict(enumerate(psi)))
    return {frozenset(e) for e in mapped.edges} == {frozenset(e) for e in nx_graph(h).edges}


def _slid(h: Graph, rng: random.Random) -> Graph | None:
    """h with one edge xy slid to xz along yz, or None when no slide is legal."""
    slides = [
        (x, y, z)
        for a, b in h.edges
        for x, y in ((a, b), (b, a))
        for z in h.neighbors(y)
        if z != x and not h.adjacent(x, z)
    ]
    if not slides:
        return None
    x, y, z = rng.choice(slides)
    return Graph(h.n, [e for e in h.edges if e != (min(x, y), max(x, y))] + [(x, z)])


@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_goal_check_matches_networkx(n, seed):
    rng = random.Random(seed)
    g = random_connected_graph(n, rng.randint(n - 1, n * (n - 1) // 2), rng)
    psi = tuple(rng.sample(range(n), n))
    h = _image(g, psi)
    assert _nx_maps_onto(g, h, psi)
    assert is_isomorphic_under(g, h, psi)
    assert _verify_generated(g, (), h, psi) == ()

    slid = _slid(h, rng)
    if slid is not None:
        assert not _nx_maps_onto(g, slid, psi)
        assert not is_isomorphic_under(g, slid, psi)
        with pytest.raises(MoveError, match="does not verify against the goal"):
            _verify_generated(g, (), slid, psi)

    missing = [(a, b) for a in range(n) for b in range(a + 1, n) if not h.adjacent(a, b)]
    other = Graph(n, h.edges + tuple(missing[:1])) if missing else Graph(n, h.edges[1:])
    if other.e != h.e:
        assert not _nx_maps_onto(g, other, psi)
        assert not is_isomorphic_under(g, other, psi)
