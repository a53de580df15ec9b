"""Every entry point that needs a connected graph checks its inputs once,
through one gate, and rejects a disconnected one with its own message;
an input with fewer than n - 1 edges is rejected before any ``Adj`` is
built.  The engines behind the entry points run on the validated state,
so each call builds a fixed number of ``Adj`` and tests connectivity a
fixed number of times."""
import pytest

from edgeslide import (
    Graph,
    GraphError,
    collapse_to_order,
    cycle_graph,
    find_transfer_paths,
    identity_bijection,
    interchange,
    move_edge,
    path_graph,
    raise_degree,
    raise_degree_in_tree,
    regularize,
    star_graph,
    transform,
    transform_euler,
    transform_peel,
)
from helpers import count_adj_builds, count_connectivity_checks

# a triangle and an edge: n = 5, e = 4 = n - 1, disconnected
SPLIT = Graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
# a path and an edge: n = 5, e = 3 < n - 1
SPARSE = Graph(5, [(0, 1), (1, 2), (3, 4)])


def _entry_points(g: Graph, partner: Graph, smaller: Graph):
    """(message, call) for each entry point that needs a connected graph,
    called with g where it needs one.  partner has g's order and size,
    and smaller has g's Euler characteristic on fewer vertices."""
    psi = identity_bijection(g.n)
    return [
        ("transform requires connected graphs", lambda: transform(g, partner, psi)),
        ("transform requires connected graphs", lambda: transform(partner, g, psi)),
        ("transform requires connected graphs", lambda: transform_peel(g, partner, psi)),
        ("transform requires connected graphs", lambda: transform_peel(partner, g, psi)),
        ("transform_euler requires connected graphs", lambda: transform_euler(g, smaller)),
        ("transform_euler requires connected graphs", lambda: transform_euler(smaller, g)),
        ("collapse requires a connected graph", lambda: collapse_to_order(g, g.n - 1)),
        ("regularize requires a connected graph", lambda: regularize(g)),
        ("raise_degree requires a connected graph", lambda: raise_degree(g, 0)),
        ("raise_degree_in_tree requires a tree", lambda: raise_degree_in_tree(g, 0)),
        ("graph must be connected", lambda: move_edge(g, (0, 1), (0, 3))),
        ("graph must be connected", lambda: interchange(g, 0, 3)),
        ("graph must be connected", lambda: find_transfer_paths(g, (0, 1), 2, 3)),
    ]


def test_entry_points_reject_a_disconnected_graph():
    for message, call in _entry_points(SPLIT, path_graph(5), path_graph(3)):
        with pytest.raises(GraphError, match=f"^{message}$"):
            call()


@pytest.mark.parametrize("engine", [transform, transform_peel])
@pytest.mark.parametrize("g", [SPLIT, SPARSE], ids=["split", "sparse"])
def test_the_connectivity_gate_runs_before_the_bijection_check(engine, g):
    # a disconnected pair with a bad bijection gets the connectivity
    # message: the gates run first, so a header-only input is refused on
    # its edge count before a bijection of its size is sorted
    for psi in ([0, 0, 1, 2, 3], [0, 1, 2], range(1, 6)):
        with pytest.raises(GraphError, match="^transform requires connected graphs$"):
            engine(g, g, psi)
    with pytest.raises(GraphError, match="^bijection must be a permutation of 0..4$"):
        engine(path_graph(5), star_graph(5), [0, 0, 1, 2, 3])


def test_too_few_edges_are_rejected_before_any_adj_is_built(monkeypatch):
    builds = count_adj_builds(monkeypatch)
    checks = count_connectivity_checks(monkeypatch)
    for message, call in _entry_points(SPARSE, SPARSE, Graph(3, [(0, 1)])):
        with pytest.raises(GraphError, match=f"^{message}$"):
            call()
        assert builds == [] and checks == []


@pytest.mark.parametrize(
    "call, builds, checks",
    [
        (lambda: transform(path_graph(6), star_graph(6), identity_bijection(6)), 3, 4),
        (lambda: transform_peel(path_graph(6), star_graph(6), identity_bijection(6)), 3, 4),
        (lambda: transform_euler(cycle_graph(4), cycle_graph(7)), 3, 4),
        (lambda: transform_euler(cycle_graph(7), cycle_graph(4)), 3, 4),
        (lambda: transform_euler(cycle_graph(5), Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4)])), 3, 4),
        (lambda: collapse_to_order(cycle_graph(7), 4), 2, 3),
        (lambda: regularize(star_graph(6)), 2, 3),
    ],
    ids=["transform", "transform_peel", "euler-grow", "euler-shrink", "euler-equal", "collapse", "regularize"],
)
def test_builds_and_connectivity_tests_per_call(monkeypatch, call, builds, checks):
    # the gate builds and tests each input once, and the one full-check
    # replay that verifies the script builds one Adj and tests it at its
    # start and after its last move; transform and transform_peel check
    # both of their inputs, and the Euler resizing both of its, but
    # collapse_to_order only its source: it builds its goal itself
    built = count_adj_builds(monkeypatch)
    tested = count_connectivity_checks(monkeypatch)
    assert call()
    assert (len(built), len(tested)) == (builds, checks)
