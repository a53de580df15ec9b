"""Composite slide moves: path slides, shuffles, single-edge relocation,
and vertex interchange.

Every public function returns a replayable script of ``Slide`` moves whose
net effect is exactly the documented rewrite; intermediate states stay
connected and simple.  All selection rules break ties by smallest vertex
id so scripts are reproducible.

The public functions validate their input.  The engine helpers below
trust their caller: ``_relocate`` in particular runs no connectivity
check, so every caller must already know the move is legal.
"""
from __future__ import annotations

from typing import Sequence

from ._adj import Adj
from .graph import Graph, GraphError, _check_vertex, _connected_adj
from .moves import MoveScript, Slide, _slide

__all__ = [
    "slide_along_path",
    "shuffle",
    "find_transfer_paths",
    "move_edge",
    "interchange",
]


# ---------------------------------------------------------------------------
# Engine helpers (mutate an Adj, append Slide moves to `out`)


def _slide_step(adj: Adj, out: list, x: int, y: int, z: int) -> None:
    _slide(adj, x, y, z)
    out.append(Slide(x, y, z))


def _slide_along(adj: Adj, out: list, pivot: int, path: Sequence[int]) -> None:
    # walks the pivot's edge from path[0] down to path[-1]; every
    # intermediate vertex must be non-adjacent to the pivot
    for c in range(len(path) - 1):
        _slide_step(adj, out, pivot, path[c], path[c + 1])


def _shuffle(adj: Adj, out: list, pivot: int, seq: Sequence[int]) -> None:
    """Move the pivot's adjacency from seq[0] to seq[-1].

    The pivot may be adjacent to other vertices of seq; tokens cascade so
    that the net occupancy is exactly (old - {seq[0]}) + {seq[-1]} and no
    other edge changes.  Each token jump fills the hole left by the one
    above it, so the hole migrates from seq[-1] down to seq[0].
    """
    last = len(seq) - 1
    target = last
    while True:
        t = target - 1
        while not adj.has(pivot, seq[t]):
            t -= 1
        for c in range(t, target):
            _slide_step(adj, out, pivot, seq[c], seq[c + 1])
        target = t
        if t == 0:
            return


def _connected_after_move(adj: Adj, uv: tuple[int, int], xy: tuple[int, int]) -> bool:
    adj.remove(*uv)
    adj.add(*xy)
    ok = adj.connected()
    adj.remove(*xy)
    adj.add(*uv)
    return ok


def _relabel(adj: Adj, uv: tuple[int, int], x: int) -> tuple[int, int]:
    # Orient the edge so its first endpoint is the one BFS-nearest to x
    # in G - uv (ties keep the given order; an end x cannot reach is the
    # farthest), so the BFS stops at the first layer holding u or v.
    # This choice is what makes both sub-moves of the Case-3 split below
    # satisfy their own connectivity preconditions.
    u, v = uv
    adj.remove(u, v)
    dist = [-1] * adj.n
    out = (v, u)
    for _ in adj.layers(x, dist):
        if dist[u] >= 0:
            out = (u, v)
            break
        if dist[v] >= 0:
            break
    adj.add(u, v)
    return out


def _relocate(adj: Adj, out: list, uv: tuple[int, int], xy: tuple[int, int]) -> None:
    # Move the edge uv onto the pair xy, unchecked: uv must be an edge,
    # xy a different non-adjacent pair, and G - uv + xy connected.  The
    # two sub-moves of the split then are too, by the _relabel orientation.
    u, v = uv
    x, y = xy
    if y in (u, v) and x not in (u, v):
        x, y = y, x
    if x in (u, v):
        _move_shared(adj, out, (u, v), x, y)
        return
    u, v = _relabel(adj, (u, v), x)
    if adj.has(x, v):
        _relocate(adj, out, (x, v), (x, y))
        _relocate(adj, out, (u, v), (x, v))
    else:
        _relocate(adj, out, (u, v), (x, v))
        _relocate(adj, out, (x, v), (x, y))


def _move_shared(adj: Adj, out: list, uv: tuple[int, int], x: int, y: int) -> None:
    # x is an endpoint of uv; walk the edge's far end over to y
    v = uv[1] if uv[0] == x else uv[0]
    adj.remove(x, v)
    tau = adj.bfs_path(y, v)
    adj.add(x, v)
    if tau is None:
        raise GraphError(f"no path from {y} to {v} avoiding the moved edge")
    if x not in tau:
        _shuffle(adj, out, x, tau[::-1])
        return
    # x sits on the path at position i >= 2; the path's minimality makes
    # both cascades below legal
    i = tau.index(x)
    assert i >= 2
    _slide_along(adj, out, v, tau[i::-1])
    _slide_along(adj, out, y, tau[: i - 1 : -1])


def _interchange(adj: Adj, out: list, a: int, b: int) -> None:
    na = set(adj.nbrs[a])
    nb = set(adj.nbrs[b])
    if adj.has(a, b):
        for z in sorted(na - nb - {b}):
            _slide_step(adj, out, z, a, b)
        for z in sorted(nb - na - {a}):
            _slide_step(adj, out, z, b, a)
        return
    if na == nb:
        return
    path = adj.bfs_path(a, b)
    if path is None:
        raise GraphError(f"vertices {a} and {b} are not connected")
    on_path = set(path)
    for z in sorted(na - nb - on_path):
        _shuffle(adj, out, z, path)
    for z in sorted(nb - na - on_path):
        _shuffle(adj, out, z, path[::-1])
    if len(path) >= 4:
        # remaining edges {a, path[1]} and {path[-2], b}: route the first
        # through a transient {a,b} edge, swap the second across it, then
        # carry {a,b} back down to path[1]
        _slide_along(adj, out, a, path[1:])
        _slide_step(adj, out, path[-2], b, a)
        _slide_along(adj, out, b, [a] + list(path[-2:0:-1]))


# ---------------------------------------------------------------------------
# Public operations


def _check_path(g: Graph, p: Sequence[int]) -> tuple[int, ...]:
    p = tuple(p)
    if not p:
        raise GraphError("path must be nonempty")
    if len(set(p)) != len(p):
        raise GraphError("path repeats a vertex")
    for v in p:
        _check_vertex(g, v)
    for c in range(len(p) - 1):
        if not g.adjacent(p[c], p[c + 1]):
            raise GraphError(f"path break at index {c}: ({p[c]}, {p[c + 1]}) is not an edge")
    return p


def slide_along_path(g: Graph, y: int, p: Sequence[int]) -> MoveScript:
    """Cascade the edge {y, p[0]} down the path to {y, p[-1]}.

    Requires y off the path, adjacent to p[0] and to no later path vertex.
    """
    p = _check_path(g, p)
    _check_vertex(g, y)
    if y in p:
        raise GraphError(f"pivot {y} lies on the path")
    if not g.adjacent(y, p[0]):
        raise GraphError(f"pivot {y} is not adjacent to path start {p[0]} (index 0)")
    for i in range(1, len(p)):
        if g.adjacent(y, p[i]):
            raise GraphError(f"pivot {y} is adjacent to path vertex {p[i]} (index {i})")
    adj = Adj.from_graph(g)
    out: list = []
    _slide_along(adj, out, y, p)
    return tuple(out)


def shuffle(g: Graph, y: int, p: Sequence[int], i: int, j: int) -> MoveScript:
    """Move y's adjacency from path position i to position j (0-based).

    Net effect on y's path adjacencies: occupied set O becomes
    O - {p[i]} + {p[j]}; every other edge is left alone.
    """
    p = _check_path(g, p)
    _check_vertex(g, y)
    if y in p:
        raise GraphError(f"pivot {y} lies on the path")
    if not (0 <= i < len(p) and 0 <= j < len(p)):
        raise GraphError(f"positions ({i}, {j}) out of range for a path of length {len(p)}")
    if i == j:
        raise GraphError("source and target positions coincide")
    if not g.adjacent(y, p[i]):
        raise GraphError(f"pivot {y} is not adjacent to p[{i}] = {p[i]}")
    if g.adjacent(y, p[j]):
        raise GraphError(f"pivot {y} is already adjacent to p[{j}] = {p[j]}")
    seq = p[i : j + 1] if i < j else p[j : i + 1][::-1]
    adj = Adj.from_graph(g)
    out: list = []
    _shuffle(adj, out, y, seq)
    return tuple(out)


def find_transfer_paths(
    g: Graph, uv: tuple[int, int], x: int, y: int
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, int]]:
    """Paths from x and y to the two endpoints of uv, avoiding uv itself.

    Returns ``(path_x, path_y, (u2, v2))`` where path_x runs x -> u2 and
    path_y runs y -> v2; the endpoint labels are swapped when needed so
    that both paths exist.
    """
    u, v = uv
    for w in (u, v, x, y):
        _check_vertex(g, w)
    if not g.adjacent(u, v):
        raise GraphError(f"({u}, {v}) is not an edge")
    # the pair may coincide with the moved edge itself; otherwise it must
    # be non-adjacent
    if x == y or ({x, y} != {u, v} and g.adjacent(x, y)):
        raise GraphError(f"({x}, {y}) must be non-adjacent once ({u}, {v}) is removed")
    adj = _connected_adj(g, "graph must be connected")
    if not _connected_after_move(adj, (u, v), (x, y)):
        raise GraphError(f"moving ({u}, {v}) to ({x}, {y}) would disconnect the graph")
    u2, v2 = _relabel(adj, (u, v), x)
    adj.remove(u, v)
    path_x = adj.bfs_path(x, u2)
    path_y = adj.bfs_path(y, v2)
    assert path_x is not None and path_y is not None
    return tuple(path_x), tuple(path_y), (u2, v2)


def move_edge(g: Graph, uv: tuple[int, int], xy: tuple[int, int]) -> MoveScript:
    """Relocate edge uv onto the non-adjacent pair xy by slides only.

    The final graph is exactly g - uv + xy and every intermediate graph
    is connected and simple.
    """
    for w in (*uv, *xy):
        _check_vertex(g, w)
    adj = _connected_adj(g, "graph must be connected")
    u, v = uv
    x, y = xy
    if not adj.has(u, v):
        raise GraphError(f"({u}, {v}) is not an edge")
    if {u, v} == {x, y}:
        raise GraphError("target pair equals the moved edge")
    if x == y or adj.has(x, y):
        raise GraphError(f"target pair ({x}, {y}) must be non-adjacent")
    if not _connected_after_move(adj, (u, v), (x, y)):
        raise GraphError(f"moving ({u}, {v}) to ({x}, {y}) would disconnect the graph")
    out: list = []
    _relocate(adj, out, (u, v), (x, y))
    if __debug__:
        want = set(g.edges) - {(min(u, v), max(u, v))} | {(min(x, y), max(x, y))}
        assert set(adj.sorted_edges()) == want, "net effect mismatch"
    return tuple(out)


def interchange(g: Graph, a: int, b: int) -> MoveScript:
    """Swap the neighborhoods of a and b by slides.

    Afterwards every other vertex is adjacent to a exactly when it was
    adjacent to b and vice versa; the a-b adjacency itself is unchanged.
    """
    _check_vertex(g, a)
    _check_vertex(g, b)
    if a == b:
        raise GraphError("interchange needs two distinct vertices")
    adj = _connected_adj(g, "graph must be connected")
    out: list = []
    _interchange(adj, out, a, b)
    return tuple(out)
