"""Slide a connected graph into any prescribed configuration.

Given two connected simple graphs with equal vertex and edge counts and
a vertex bijection ``psi``, both engines here produce a script of slides
carrying the first graph onto a graph that ``psi`` maps isomorphically
onto the second.  Each verifies its script once before returning it, by
a full-check replay and a check of the result against the goal, and
raises :class:`~edgeslide.moves.MoveError` if that fails.

:func:`transform` relocates edges one at a time.  It pulls the goal back
through ``psi`` to a target edge set T and moves each edge uv outside T,
in sorted order, onto the pair xy of T still missing that minimises
min(d_u(x) + d_v(y), d_u(y) + d_v(x)), with d_u and d_v the distances
in G - uv, using the single-edge relocation of :mod:`edgeslide.slides`.
That relocation carries both ends of the edge, one step per slide, so
the sum predicts its cost.  The pricing grows BFS balls around u and v
one layer at a time and stops at the first radius r whose cheapest pair
costs at most r: every pair costing at most r is then scored exactly, so
the choice, ties included, is the whole-graph minimum.  A legal pair always
exists: when the edge is not a bridge any missing pair keeps the graph
connected; when it is, the connected goal has a T-edge across the cut,
and that edge is missing because the bridge was the only crossing edge.

:func:`transform_peel` is the paper's level-peeling construction, kept
as a second, explicitly named engine.  No test compares the two
engines' scripts; the acceptance sweep verifies each one's own.  It
picks a minimum-degree vertex of the goal, pumps the matching source
vertex x* up to full degree by co-evolving a spanning tree, prunes it
back down to the goal vertex's degree d1 while keeping the rest
connected, matches its neighborhood by interchanges, repairs the
connectivity of the goal minus its vertex, and repeats on the
remainders.  Goal-side repair slides are inverted, pulled back through
``psi``, and appended after the slides of every level, the last level's
first.

G - x* needs no repair.  After the pump it has m = e - n + 1 edges on
n - 1 vertices, so at most n - k components, with k >= 1 least such
that C(k, 2) >= m (n - 1 of them when m = 0, a tree goal, d1 = 1).  The
pruning makes n - 1 - d1 relocations, each joining two components while
there are several, and d1 <= floor(2e/n) <= k, so G - x* ends connected.
An interchange swaps the neighborhoods of two vertices other than x*:
it relabels G - x* and cannot split it.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from ._adj import Adj
from .graph import (
    Graph,
    GraphError,
    check_bijection,
    inverse_bijection,
    _check_vertex,
    _connected_adj,
)
from .moves import MoveScript, Slide, _slide, _verify_generated
from .slides import _interchange, _relocate, _slide_along

__all__ = [
    "raise_degree_in_tree",
    "raise_degree",
    "transform",
    "transform_peel",
    "TransformPlan",
    "LevelTrace",
]


# ---------------------------------------------------------------------------
# Degree raising


def _raise_tree_engine(tree: Adj, x: int, out: list) -> None:
    """Run the leaf-relocation loop on a tree until d(x) = n - 1,
    appending each tree slide to out."""
    n = tree.n
    while tree.degree(x) < n - 1:
        y = -1
        for v in range(n):
            if v != x and tree.degree(v) == 1 and not tree.has(v, x):
                y = v
                break
        assert y >= 0, "tree with d(x) < n-1 must have a leaf not adjacent to x"
        z = next(iter(tree.nbrs[y]))
        _slide_along(tree, out, y, tree.bfs_path(z, x))


def raise_degree_in_tree(t: Graph, x: int) -> MoveScript:
    """Slides turning a tree into the star at x; every intermediate graph
    is again a tree."""
    _check_vertex(t, x)
    if t.e > t.n - 1:
        raise GraphError("raise_degree_in_tree requires a tree")
    tree = _connected_adj(t, "raise_degree_in_tree requires a tree")
    out: list = []
    _raise_tree_engine(tree, x, out)
    return tuple(out)


def _raise_degree_engine(adj: Adj, x: int, out: list) -> None:
    """Pump d(x) to n - 1 in the connected adj by evolving a BFS spanning
    tree rooted at x and mirroring each tree slide in the graph unless it
    would double an edge.  The tree loop never reads the graph, so the
    mirroring runs after it."""
    tree = adj.bfs_tree(x)
    tree_slides: list = []
    _raise_tree_engine(tree, x, tree_slides)
    for m in tree_slides:
        if not adj.has(m.x, m.z):
            _slide(adj, m.x, m.y, m.z)
            out.append(m)
    assert adj.degree(x) == adj.n - 1


def raise_degree(g: Graph, x: int) -> MoveScript:
    """Slides raising x to degree n - 1 while preserving (n, e) and
    connectivity."""
    _check_vertex(g, x)
    adj = _connected_adj(g, "raise_degree requires a connected graph")
    out: list = []
    _raise_degree_engine(adj, x, out)
    return tuple(out)


# ---------------------------------------------------------------------------
# Full transformation


@dataclass(frozen=True)
class LevelTrace:
    """Bookkeeping for one peeling level of :func:`transform_peel`."""

    size: int
    target: int
    preimage: int
    goal_repair: MoveScript
    appended_inverse: MoveScript


@dataclass(frozen=True)
class TransformPlan:
    """A slide script plus the per-level trace that produced it.

    ``trace`` holds one :class:`LevelTrace` per level of
    :func:`transform_peel`; it is empty for :func:`transform`, which has
    no levels.
    """

    script: MoveScript
    trace: tuple[LevelTrace, ...]


def _reduce_degree(adj: Adj, x_star: int, d1: int, out: list) -> None:
    while adj.degree(x_star) > d1:
        comps = adj.components(skip=x_star)
        if len(comps) >= 2:
            first = set(comps[0])
            w = min(v for v in adj.nbrs[x_star] if v in first)
            # legal: comps[0] stays attached to x* through the new edge to
            # comps[1], and comps[1] has its own edge to x*
            pair = (comps[0][0], comps[1][0])
        else:
            # the least non-adjacent pair of G - x*: G - x* is not complete
            # while d(x*) > d1, as the goal has as many edges
            pair = next((a, b) for a, b in combinations(comps[0], 2) if not adj.has(a, b))
            # legal: G - x* is connected and holds the pair, and x* keeps
            # d(x*) - 1 >= d1 >= 1 edges into it
            w = min(adj.nbrs[x_star])
        _relocate(adj, out, (x_star, w), pair)


def _first_back_edge(adj: Adj, comp: list[int]) -> tuple[int, int] | None:
    """The first edge of the component comp that closes a cycle in a DFS
    from its least vertex, neighbors in ascending order; None for a tree."""
    cset = set(comp)
    root = comp[0]
    parent = {root: -1}
    stack = [(root, iter(sorted(adj.nbrs[root])))]
    while stack:
        u, it = stack[-1]
        advanced = False
        for v in it:
            if v not in cset or v == parent[u]:
                continue
            if v in parent:
                return (min(u, v), max(u, v))
            parent[v] = u
            stack.append((v, iter(sorted(adj.nbrs[v]))))
            advanced = True
            break
        if not advanced:
            stack.pop()
    return None


def _repair_components(adj: Adj, skip: int, out: list) -> None:
    """Merge the components of adj - skip by relocating cycle edges.
    adj is connected and skip has least degree in it, so while there
    are several components, one of them holds a cycle."""
    while len(comps := adj.components(skip=skip)) > 1:
        backs = ((ci, _first_back_edge(adj, comp)) for ci, comp in enumerate(comps))
        ci, edge = next(b for b in backs if b[1] is not None)
        a, b = comps[ci][0], comps[1 if ci == 0 else 0][0]
        # legal: the edge lies on a cycle, and the pair joins two
        # components, so its ends are non-adjacent
        _relocate(adj, out, edge, (min(a, b), max(a, b)))


def _peel(gG: Adj, gS: Adj, psi: list[int]) -> tuple[MoveScript, list[LevelTrace]]:
    """Run the levels of :func:`transform_peel`, shrinking gG and gS in
    place by one vertex per level."""
    gmap = list(range(gG.n))
    smap = list(range(gS.n))
    out: list = []
    traces: list = []
    suffixes: list = []
    while gG.n > 1:
        n = gG.n
        psi_inv = inverse_bijection(psi)
        y_star = min(range(n), key=lambda v: (gS.degree(v), v))
        d1 = gS.degree(y_star)
        x_star = psi_inv[y_star]
        if n == 2:
            traces.append(LevelTrace(2, smap[y_star], gmap[x_star], (), ()))
            break

        local: list = []
        _raise_degree_engine(gG, x_star, local)
        _reduce_degree(gG, x_star, d1, local)
        wanted = {psi_inv[t] for t in gS.nbrs[y_star]}
        while gG.nbrs[x_star] != wanted:
            a = min(gG.nbrs[x_star] - wanted)
            b = min(wanted - gG.nbrs[x_star])
            _interchange(gG, local, a, b)
        # G - x* is connected here, so only the goal side is repaired: the
        # pruning's n - 1 - d1 relocations make every merge it needs, and
        # each interchange relabels G - x* (the module docstring's argument)
        goal_repair: list = []
        _repair_components(gS, y_star, goal_repair)

        out.extend(Slide(gmap[m.x], gmap[m.y], gmap[m.z]) for m in local)
        appended = tuple(
            Slide(gmap[psi_inv[m.x]], gmap[psi_inv[m.z]], gmap[psi_inv[m.y]])
            for m in reversed(goal_repair)
        )
        suffixes.append(appended)
        traces.append(
            LevelTrace(
                n,
                smap[y_star],
                gmap[x_star],
                tuple(Slide(smap[m.x], smap[m.y], smap[m.z]) for m in goal_repair),
                appended,
            )
        )

        psi = [t if t < y_star else t - 1 for v, t in enumerate(psi) if v != x_star]
        del gmap[x_star]
        del smap[y_star]
        gG.remove_vertex(x_star)
        gS.remove_vertex(y_star)
        # the next level reads both graphs by id
        gG.compact()
        gS.compact()
    # each level's goal repair is undone after every deeper level
    for appended in reversed(suffixes):
        out.extend(appended)
    return tuple(out), traces


def _check_pair(g: Graph, h: Graph, psi: Sequence[int]):
    if g.n != h.n:
        raise GraphError(f"vertex count mismatch: {g.n} != {h.n}")
    if g.e != h.e:
        raise GraphError(f"edge count mismatch: {g.e} != {h.e}")
    # the gates first: they reject a header-only graph on its edge count
    # before a bijection of its size is sorted
    message = "transform requires connected graphs"
    gG, gS = _connected_adj(g, message), _connected_adj(h, message)
    return check_bijection(psi, g.n), gG, gS


def transform_peel(g: Graph, h: Graph, psi: Sequence[int]) -> TransformPlan:
    """The paper's level-peeling construction; same contract as
    :func:`transform`, including its one full-check verification and
    ``MoveError`` on failure, and the plan's trace has one entry per
    level."""
    psi, gG, gS = _check_pair(g, h, psi)
    script, traces = _peel(gG, gS, list(psi))
    return TransformPlan(_verify_generated(g, script, h, psi), tuple(traces))


def transform(g: Graph, h: Graph, psi: Sequence[int]) -> TransformPlan:
    """Slides carrying g onto a graph that psi maps isomorphically onto h.

    Both graphs must be connected with equal vertex and edge counts.  The
    returned plan's script contains only Slide moves, and it is verified
    once before it is returned: a full-check replay from g, then the
    result against h under psi; a failure raises ``MoveError``.  Each
    edge uv of g outside the pulled-back goal is relocated once, onto the
    missing goal pair xy with the smallest min(d_u(x) + d_v(y),
    d_u(y) + d_v(x)) in g - uv (an unreachable vertex counts as n),
    because each slide of the relocation moves one end of the edge by one
    step.  The script is empty when g already matches h.
    """
    psi, adj, _ = _check_pair(g, h, psi)
    inv = inverse_bijection(psi)
    target = {(min(inv[a], inv[b]), max(inv[a], inv[b])) for a, b in h.edges}
    return TransformPlan(_verify_generated(g, _relocation_script(adj, target), h, psi), ())


def _relocation_script(adj: Adj, target: set[tuple[int, int]]) -> MoveScript:
    """The slides of :func:`transform` on a connected state adj, which
    they carry onto the edge set target, unverified and unchecked: target
    must be the edges (u, v), u < v, of a connected graph on adj's
    vertices with as many edges.  The Euler resizing verifies the slides
    as part of its whole script."""
    edges = adj.sorted_edges()
    partners: list[set[int]] = [set() for _ in range(adj.n)]
    for x, y in target.difference(edges):
        partners[x].add(y)
        partners[y].add(x)
    out: list = []
    # relocating uv onto a missing pair changes exactly those two edges,
    # so the surplus edges can be fixed in one sorted pass
    for u, v in [uv for uv in edges if uv not in target]:
        x, y = _cheapest_pair(adj, partners, u, v)
        # legal by the module docstring's argument: any missing pair when
        # uv is not a bridge, a pair across its cut when it is
        _relocate(adj, out, (u, v), (x, y))
        partners[x].discard(y)
        partners[y].discard(x)
    return tuple(out)


def _cheapest_pair(adj: Adj, partners: list[set[int]], u: int, v: int) -> tuple[int, int]:
    """The missing pair (x, y), x < y, that :func:`transform` moves uv
    onto: least (min(d_u(x) + d_v(y), d_u(y) + d_v(x)), x, y) in G - uv,
    where ``partners[w]`` holds w's missing goal partners.

    Round r takes layer r of u's BFS ball, then layer r of v's.  A pair
    is scored in each orientation as soon as one end lies in u's ball
    and the other in v's.  After round r every pair costing at most r is
    scored exactly, so the search stops at the first r whose best cost
    is at most r.  A pair whose ends never lie in opposite balls stays
    unscored: when uv is a bridge those are the pairs off its cut, which
    would leave G disconnected.
    """
    du = [-1] * adj.n
    dv = [-1] * adj.n
    adj.remove(u, v)
    balls = ((adj.layers(u, du), dv), (adj.layers(v, dv), du))
    best = (adj.n * 2, -1, -1)
    r = 0
    while True:
        grew = False
        for ball, other in balls:
            layer = next(ball, None)
            if layer is None:
                continue
            grew = True
            for a in layer:
                for b in partners[a]:
                    d = other[b]
                    if 0 <= d and r + d <= best[0]:
                        key = (r + d, a, b) if a < b else (r + d, b, a)
                        if key < best:
                            best = key
        if best[0] <= r or not grew:
            break
        r += 1
    adj.add(u, v)
    assert best[1] >= 0, "a connected goal always leaves a legal missing pair"
    return best[1], best[2]
