"""Growing and shrinking a graph inside its Euler class.

Pendant attachment and edge subdivision each add one vertex and one edge;
leaf removal and degree-2 smoothing each remove one of each.  All four
preserve the Euler characteristic chi = n - e and connectivity, and the
two growth moves are interchangeable up to slides.  Combined with the
equal-size transformation this turns any connected simple graph into any
other with the same chi.

Growing hangs pendants on vertex 0 and then slides into position.
Shrinking is the mirror image: slide onto the smaller graph with pendants
on vertex 0 at the top ids, then remove those leaves top id first, so no
vertex is renumbered.
"""
from __future__ import annotations

from itertools import combinations, islice

from ._adj import Adj
from .graph import Graph, GraphError, identity_bijection
from .moves import AddPendant, MoveScript, RemoveLeaf, Slide, Subdivide, _verify_generated, replay
from .prescribe import _relocation_script

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
    same chi; fails upfront if some intermediate order cannot stay simple.

    The result has the first target_n - chi pairs of 0..target_n-1 in
    lexicographic order as edges (the star at 0 comes first, so it is
    connected); leaves are removed from the top id down, so no vertex is
    renumbered.  The script is verified once before it is returned, by a
    full-check replay whose result must be that graph exactly; a failure
    raises ``MoveError``."""
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
    if target_n == g.n:
        return ()
    core = Graph(target_n, islice(combinations(range(target_n), 2), target_n - chi))
    return _verify_generated(g, _collapse_onto(g, core), core, identity_bijection(target_n))


def _collapse_onto(g: Graph, core: Graph) -> MoveScript:
    """Slides carrying g onto core plus leaves core.n..g.n-1 hung on vertex
    0, then the removals of those leaves from the top id down; unverified."""
    big = replay(core, expand_to_order(core, g.n))
    slides = _relocation_script(g, big, identity_bijection(g.n))
    return slides + tuple(RemoveLeaf(m, 0) for m in range(g.n - 1, core.n - 1, -1))


def transform_euler(g: Graph, h: Graph) -> tuple[MoveScript, tuple[int, ...]]:
    """Script carrying g onto a graph isomorphic to h, given equal chi.

    Grows g to h's order by pendants on vertex 0 and then slides into
    position, or slides g onto h plus leaves of 0 at the top ids and then
    removes them.  Returns the script and the vertex bijection (identity
    on 0..h.n-1) under which the replayed result matches h.  The whole
    script, pendants and removals included, is verified once before it
    is returned, by a full-check replay and a check of the result against
    h; a failure raises ``MoveError``.
    """
    chi_g = g.n - g.e
    chi_h = h.n - h.e
    if chi_g != chi_h:
        raise GraphError(f"Euler characteristic mismatch: {chi_g} != {chi_h}")
    mapping = identity_bijection(h.n)
    if g.n > h.n:
        script = _collapse_onto(g, h)
    else:
        prefix = expand_to_order(g, h.n)
        script = prefix + _relocation_script(replay(g, prefix), h, mapping)
    return _verify_generated(g, script, h, mapping), mapping
