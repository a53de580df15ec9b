import random

import pytest

from edgeslide import (
    Graph,
    GraphError,
    Slide,
    complete_graph,
    cycle_graph,
    enumerate_connected,
    find_transfer_paths,
    interchange,
    move_edge,
    path_graph,
    replay,
    shuffle,
    slide_along_path,
)
from helpers import (
    all_simple_paths,
    legal_relocations,
    random_connected_graph,
    swap_neighborhoods,
)


def all_connected_upto(max_n):
    for n in range(2, max_n + 1):
        for e in range(n - 1, n * (n - 1) // 2 + 1):
            yield from enumerate_connected(n, e)


# --- slide_along_path --------------------------------------------------------


def test_slide_along_path_two_steps():
    g = Graph(4, [(0, 1), (1, 2), (0, 3)])
    script = slide_along_path(g, 3, (0, 1, 2))
    assert script == (Slide(3, 0, 1), Slide(3, 1, 2))
    assert replay(g, script).adjacent(3, 2)


def test_slide_along_singleton_path():
    g = Graph(4, [(0, 1), (1, 2), (0, 3)])
    assert slide_along_path(g, 3, (0,)) == ()


def test_slide_along_path_rejects_adjacent_interior():
    g = Graph(4, [(0, 1), (1, 2), (0, 3), (1, 3)])
    with pytest.raises(GraphError) as exc:
        slide_along_path(g, 3, (0, 1, 2))
    assert "index 1" in str(exc.value)


def test_slide_along_path_rejects_pivot_on_path():
    with pytest.raises(GraphError):
        slide_along_path(path_graph(3), 1, (1, 2))


# --- shuffle -----------------------------------------------------------------


def test_shuffle_single_occupied_equals_path_slide():
    g = Graph(4, [(0, 1), (1, 2), (0, 3)])
    assert shuffle(g, 3, (0, 1, 2), 0, 2) == slide_along_path(g, 3, (0, 1, 2))


def test_shuffle_cascade_two_tokens():
    # pivot adjacent to the first two path vertices: top token slides up,
    # then the lower one backfills
    g = Graph(4, [(0, 1), (1, 2), (0, 3), (1, 3)])
    script = shuffle(g, 3, (0, 1, 2), 0, 2)
    assert script == (Slide(3, 1, 2), Slide(3, 0, 1))
    final = replay(g, script)
    assert final.neighbors(3) == (1, 2)


def test_shuffle_rejects_occupied_target():
    g = Graph(4, [(0, 1), (1, 2), (0, 3), (2, 3)])
    with pytest.raises(GraphError):
        shuffle(g, 3, (0, 1, 2), 0, 2)


def test_shuffle_reverse_direction():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    script = shuffle(g, 3, (0, 1, 2), 2, 0)
    final = replay(g, script)
    assert final.adjacent(3, 0) and not final.adjacent(3, 2)


def test_shuffle_locality_exhaustive_small():
    # net occupancy changes by exactly -source +target; nothing else moves
    for g in all_connected_upto(5):
        n = g.n
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                for p in all_simple_paths(g, a, b):
                    if len(p) < 2:
                        continue
                    onp = set(p)
                    for y in range(n):
                        if y in onp or not g.adjacent(y, p[0]) or g.adjacent(y, p[-1]):
                            continue
                        script = shuffle(g, y, p, 0, len(p) - 1)
                        final = replay(g, script)
                        want_nbrs = set(g.neighbors(y)) - {p[0]} | {p[-1]}
                        assert set(final.neighbors(y)) == want_nbrs
                        others = {e for e in g.edges if y not in e}
                        assert {e for e in final.edges if y not in e} == others


# --- find_transfer_paths -----------------------------------------------------


def test_transfer_paths_trivial_endpoints():
    paths = find_transfer_paths(cycle_graph(4), (0, 1), 0, 1)
    assert paths == ((0,), (1,), (0, 1))


def test_transfer_paths_disconnected_precondition():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(GraphError):
        find_transfer_paths(g, (0, 1), 1, 2)


def test_transfer_paths_c5_swaps_labels():
    px, py, labels = find_transfer_paths(cycle_graph(5), (0, 1), 2, 4)
    assert labels == (1, 0)
    assert px == (2, 1) and py == (4, 0)
    # cross-check: both returned paths are shortest among all uv-avoiding ones
    g = cycle_graph(5)
    assert len(px) == min(len(p) for p in all_simple_paths(g, 2, 1, forbidden=(0, 1)))
    assert len(py) == min(len(p) for p in all_simple_paths(g, 4, 0, forbidden=(0, 1)))


def test_transfer_paths_avoid_the_edge():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(4, 7)
        g = random_connected_graph(n, rng.randint(n - 1, n * (n - 1) // 2), rng)
        for uv, xy, _ in legal_relocations(g):
            px, py, (u2, v2) = find_transfer_paths(g, uv, xy[0], xy[1])
            assert px[0] == xy[0] and px[-1] == u2
            assert py[0] == xy[1] and py[-1] == v2
            assert {u2, v2} == set(uv)
            banned = (min(uv), max(uv))
            for p in (px, py):
                for c in range(len(p) - 1):
                    assert (min(p[c], p[c + 1]), max(p[c], p[c + 1])) != banned
            break


# --- move_edge ---------------------------------------------------------------


def test_move_edge_shared_endpoint_single_slide():
    script = move_edge(cycle_graph(4), (0, 1), (0, 2))
    assert script == (Slide(0, 1, 2),)


def test_move_edge_c5_case3():
    g = cycle_graph(5)
    script = move_edge(g, (0, 1), (2, 4))
    final = replay(g, script, check="full")
    assert final.edges == ((0, 4), (1, 2), (2, 3), (2, 4), (3, 4))


def test_move_edge_complete_graph_impossible():
    with pytest.raises(GraphError):
        move_edge(complete_graph(4), (0, 1), (2, 3))


def test_move_edge_rejects_disconnecting_move():
    g = path_graph(4)
    # g - {2,3} + {0,2} leaves vertex 3 isolated
    with pytest.raises(GraphError):
        move_edge(g, (2, 3), (0, 2))


def test_move_edge_rejects_same_pair():
    with pytest.raises(GraphError):
        move_edge(cycle_graph(4), (0, 1), (1, 0))


def test_move_edge_exhaustive_small():
    # every legal relocation replays to exactly g - uv + xy
    for g in all_connected_upto(4):
        for uv, xy, want in legal_relocations(g):
            script = move_edge(g, uv, xy)
            assert replay(g, script, check="full") == want


# --- interchange -------------------------------------------------------------


def test_interchange_identical_neighborhoods_empty():
    g = cycle_graph(4)
    assert interchange(g, 0, 2) == ()


def test_interchange_p3_single_slide():
    g = path_graph(3)
    script = interchange(g, 0, 1)
    assert script == (Slide(2, 1, 0),)
    assert replay(g, script).edges == ((0, 1), (0, 2))


def test_interchange_p4_distance_three():
    g = path_graph(4)
    final = replay(g, interchange(g, 0, 3))
    assert final.edges == ((0, 2), (1, 2), (1, 3))


def test_interchange_requires_distinct():
    with pytest.raises(GraphError):
        interchange(path_graph(3), 1, 1)


def test_interchange_matches_direct_swap_exhaustive_small():
    for g in all_connected_upto(4):
        for a in range(g.n):
            for b in range(g.n):
                if a == b:
                    continue
                final = replay(g, interchange(g, a, b), check="full")
                assert final == swap_neighborhoods(g, a, b)


def test_interchange_graph_level_involution():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 8)
        g = random_connected_graph(n, rng.randint(n - 1, n * (n - 1) // 2), rng)
        a, b = rng.sample(range(n), 2)
        once = replay(g, interchange(g, a, b))
        twice = replay(once, interchange(once, a, b))
        assert twice == g
