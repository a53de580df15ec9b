"""Growing and shrinking a graph inside its Euler class.

Pendant attachment and edge subdivision each add one vertex and one edge;
leaf removal and degree-2 smoothing each remove one of each.  All four
preserve the Euler characteristic chi = n - e and connectivity, and the
two growth moves are interchangeable up to slides.  Combined with the
equal-size transformation this turns any connected simple graph into any
other with the same chi.
"""
from __future__ import annotations

from ._adj import Adj
from .graph import Graph, GraphError, identity_bijection
from .moves import AddPendant, MoveScript, RemoveLeaf, Slide, Subdivide, replay
from .prescribe import transform
from .slides import _connected_after_move, _move_edge

__all__ = [
    "expand_to_order",
    "pendant_subdivide_equivalence",
    "collapse_to_order",
    "transform_euler",
]


def expand_to_order(g: Graph, target_n: int) -> MoveScript:
    """Pendant moves growing g to target_n vertices; chi is unchanged."""
    if target_n < g.n:
        raise GraphError(f"target order {target_n} is below the current order {g.n}")
    return tuple(AddPendant(0, m) for m in range(g.n, target_n))


def pendant_subdivide_equivalence(
    g: Graph, edge: tuple[int, int]
) -> tuple[MoveScript, MoveScript]:
    """Two scripts with identical results for the edge {z, x}, z < x:
    subdividing it, and attaching a pendant at x then sliding {z,x} onto it."""
    z, x = min(edge), max(edge)
    if not g.adjacent(z, x):
        raise GraphError(f"({z}, {x}) is not an edge")
    y = g.n
    script_a: MoveScript = (Subdivide(x, z, y),)
    script_b: MoveScript = (AddPendant(x, y), Slide(z, x, y))
    return script_a, script_b


def collapse_to_order(g: Graph, target_n: int) -> MoveScript:
    """Slide/RemoveLeaf script shrinking g to target_n vertices with the
    same chi; fails upfront if some intermediate order cannot stay simple."""
    if not (1 <= target_n <= g.n):
        raise GraphError(f"target order {target_n} out of range for n={g.n}")
    adj = Adj.from_graph(g)
    if not adj.connected():
        raise GraphError("collapse requires a connected graph")
    chi = g.n - g.e
    for m in range(g.n, target_n, -1):
        edges_at_m = m - chi
        if edges_at_m - 1 > (m - 1) * (m - 2) // 2:
            raise GraphError(
                f"cannot collapse below order {m}: a connected simple graph on "
                f"{m - 1} vertices holds at most {(m - 1) * (m - 2) // 2} edges, "
                f"needs {edges_at_m - 1}"
            )
    out: list = []
    while adj.n > target_n:
        victim = 0
        while adj.degree(victim) > 1:
            comps = adj.components(skip=victim)
            if len(comps) >= 2:
                first = set(comps[0])
                w = min(v for v in adj.nbrs[victim] if v in first)
                pair = (comps[0][0], comps[1][0])
            else:
                comp = comps[0]
                pair = None
                for ii in range(len(comp)):
                    for jj in range(ii + 1, len(comp)):
                        if not adj.has(comp[ii], comp[jj]):
                            pair = (comp[ii], comp[jj])
                            break
                    if pair is not None:
                        break
                assert pair is not None, "edge-count bound guarantees a free pair"
                w = None
                for cand in sorted(adj.nbrs[victim]):
                    if _connected_after_move(adj, (victim, cand), pair):
                        w = cand
                        break
                assert w is not None
            _move_edge(adj, out, (victim, w), pair)
        anchor = next(iter(adj.nbrs[victim]))
        out.append(RemoveLeaf(victim, anchor))
        adj.remove_vertex(victim)
    return tuple(out)


def transform_euler(g: Graph, h: Graph) -> tuple[MoveScript, tuple[int, ...]]:
    """Script carrying g onto a graph isomorphic to h, given equal chi.

    Grows or shrinks g to h's order first, then slides into position.
    Returns the script and the vertex bijection (identity on 0..h.n-1)
    under which the replayed result matches h.
    """
    chi_g = g.n - g.e
    chi_h = h.n - h.e
    if chi_g != chi_h:
        raise GraphError(f"Euler characteristic mismatch: {chi_g} != {chi_h}")
    if g.n <= h.n:
        prefix = expand_to_order(g, h.n)
    else:
        prefix = collapse_to_order(g, h.n)
    mid = replay(g, prefix)
    plan = transform(mid, h, identity_bijection(h.n))
    return prefix + plan.script, identity_bijection(h.n)
