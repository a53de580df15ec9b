import random
from itertools import combinations

import networkx as nx
import pytest

from edgeslide import (
    Graph,
    GraphError,
    complete_graph,
    enumerate_connected,
    format_census_table,
    identity_bijection,
    path_graph,
    reachability_census,
    slide_distances,
    slide_neighbors,
    transform,
)
from helpers import random_connected_graph


def test_enumerate_k3_only():
    assert enumerate_connected(3, 3) == [complete_graph(3)]


def test_enumerate_labeled_trees_cayley():
    assert len(enumerate_connected(4, 3)) == 16
    assert len(enumerate_connected(5, 4)) == 125


def test_enumerate_k4_only():
    assert enumerate_connected(4, 6) == [complete_graph(4)]


def test_enumerate_lexicographic_order():
    graphs = enumerate_connected(3, 2)
    assert [g.edges for g in graphs] == [
        ((0, 1), (0, 2)),
        ((0, 1), (1, 2)),
        ((0, 2), (1, 2)),
    ]


def test_enumerate_cap():
    with pytest.raises(GraphError):
        enumerate_connected(8, 7)


def test_slide_neighbors_complete_graph_empty():
    assert slide_neighbors(complete_graph(4)) == []


def test_slide_neighbors_single_vertex():
    assert slide_neighbors(Graph(1)) == []


def test_slide_neighbors_p3():
    got = [g.edges for g in slide_neighbors(path_graph(3))]
    assert got == [((0, 1), (0, 2)), ((0, 2), (1, 2))]


def test_slide_neighbors_symmetric():
    rng = random.Random(44)
    for _ in range(25):
        n = rng.randint(2, 6)
        g = random_connected_graph(n, rng.randint(n - 1, n * (n - 1) // 2), rng)
        for h in slide_neighbors(g):
            assert g in slide_neighbors(h)


def test_census_n4_trees():
    report = reachability_census(4, 3)
    assert (report.members, report.classes) == (16, 1)


def test_census_k4_singleton():
    report = reachability_census(4, 6)
    assert (report.members, report.classes, report.diameter) == (1, 1, 0)


def test_census_n5_trees_cayley():
    report = reachability_census(5, 4)
    assert (report.members, report.classes) == (125, 1)


def test_census_cap():
    with pytest.raises(GraphError):
        reachability_census(7, 6)


# connected labeled graphs on 6 vertices by edge count (OEIS A062734)
N6_MEMBERS = {5: 1296, 6: 3660, 7: 5700, 8: 6165, 9: 4945, 10: 2997, 11: 1365, 12: 455, 13: 105, 14: 15, 15: 1}


def test_census_n6_member_counts():
    assert sum(N6_MEMBERS.values()) == 26704  # OEIS A001187
    for e, count in N6_MEMBERS.items():
        assert len(enumerate_connected(6, e)) == count
        assert reachability_census(6, e).members == count


def test_census_table_format():
    table = format_census_table([reachability_census(3, 2)])
    lines = table.splitlines()
    assert lines[0].split() == ["n", "e", "members", "classes", "diameter"]
    assert lines[1].split() == ["3", "2", "3", "1", "1"]


def test_script_length_bounds_slide_distance():
    # transform certificates can never beat the true slide distance
    from collections import deque

    universe = enumerate_connected(4, 4)
    index = {g.edges: i for i, g in enumerate(universe)}
    rng = random.Random(10)
    for _ in range(15):
        a, b = rng.randrange(len(universe)), rng.randrange(len(universe))
        dist = {a: 0}
        queue = deque([a])
        while queue:
            u = queue.popleft()
            for h in slide_neighbors(universe[u]):
                v = index[h.edges]
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        plan = transform(universe[a], universe[b], identity_bijection(4))
        assert len(plan.script) >= dist[b]


def test_slide_distances_satisfy_the_one_slide_recurrence():
    # d(i, i) = 0 and d(i, j) = 1 + min over one-slide neighbours k of i
    # of d(k, j): this characterises the slide distance
    for n, e in [(3, 2), (4, 3), (4, 4), (4, 5), (5, 5)]:
        universe, table = slide_distances(n, e)
        assert universe == enumerate_connected(n, e)
        index = {g.edges: i for i, g in enumerate(universe)}
        for i, g in enumerate(universe):
            near = [index[h.edges] for h in slide_neighbors(g)]
            for j in range(len(universe)):
                want = 0 if i == j else 1 + min(table[k][j] for k in near)
                assert table[i][j] == want
    # the census takes one BFS per relabelling orbit; the all-pairs table
    # takes one per member
    for n in range(1, 6):
        for e in range(n - 1, n * (n - 1) // 2 + 1):
            universe, table = slide_distances(n, e)
            assert max(map(max, table)) == reachability_census(n, e).diameter


def test_slide_distances_between_lower_bound_and_transform():
    universe, table = slide_distances(4, 4)
    for i, g in enumerate(universe):
        for j, h in enumerate(universe):
            moved = len(transform(g, h, identity_bijection(4)).script)
            assert len(set(g.edges) - set(h.edges)) <= table[i][j] <= moved


def test_slide_distances_cap():
    with pytest.raises(GraphError):
        slide_distances(7, 6)


# --- against networkx ---------------------------------------------------------


def _nx_slide_graph(n: int, e: int):
    """The connected (n, e) universe as sorted edge tuples, each member's
    slide results, sorted, and the slide graph, built on networkx: the
    members from itertools and ``nx.is_connected``, the slides applied to
    a copy of each member."""
    members = []
    for chosen in combinations(combinations(range(n), 2), e):
        h = nx.Graph(chosen)
        h.add_nodes_from(range(n))
        if nx.is_connected(h):
            members.append(h)
    keys = [tuple(sorted(tuple(sorted(p)) for p in h.edges)) for h in members]
    index = {k: i for i, k in enumerate(keys)}
    near = []
    slides = nx.Graph()
    slides.add_nodes_from(range(len(members)))
    for i, h in enumerate(members):
        out = set()
        for x in h:
            for y in h[x]:
                for z in h[y]:
                    if z != x and not h.has_edge(x, z):
                        moved = h.copy()
                        moved.remove_edge(x, y)
                        moved.add_edge(x, z)
                        out.add(tuple(sorted(tuple(sorted(p)) for p in moved.edges)))
        near.append(sorted(out))
        slides.add_edges_from((i, index[k]) for k in out)
    return keys, near, slides


NX_SCOPE = [(n, e) for n in range(1, 6) for e in range(n - 1, n * (n - 1) // 2 + 1)]
NX_SCOPE += [(6, e) for e, count in N6_MEMBERS.items() if count <= 1365]


@pytest.mark.parametrize("n,e", NX_SCOPE)
def test_census_and_slide_neighbors_match_networkx(n, e):
    keys, near, slides = _nx_slide_graph(n, e)
    universe = enumerate_connected(n, e)
    assert [g.edges for g in universe] == keys
    for g, want in zip(universe, near):
        assert [h.edges for h in slide_neighbors(g)] == want
    parts = [slides.subgraph(c).copy() for c in nx.connected_components(slides)]
    diameter = max((max(nx.eccentricity(c).values()) for c in parts), default=0)
    report = reachability_census(n, e)
    assert (report.members, report.classes, report.diameter) == (
        len(keys),
        nx.number_connected_components(slides),
        diameter,
    )
