"""Brute-force ground truth at desk scale.

Enumerates all connected labeled graphs with given (n, e), expands the
one-step slide relation, and runs a full breadth-first census of the
slide-reachability graph, or tabulates its all-pairs slide distances.
Used to certify the constructive algorithms exhaustively on small
universes, and to measure their scripts against the exact optimum.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from ._adj import Adj
from .graph import Graph, GraphError

__all__ = [
    "enumerate_connected",
    "slide_neighbors",
    "reachability_census",
    "slide_distances",
    "CensusReport",
    "format_census_table",
]

EdgeKey = tuple[tuple[int, int], ...]

# Largest n each brute force accepts: the universe grows faster than
# exponentially in n, and a census at n = 6 did not finish in 110 s.
_ENUMERATION_CAP = 7
_CENSUS_CAP = 5


def enumerate_connected(n: int, e: int) -> list[Graph]:
    """All connected simple labeled graphs with exactly (n, e), in
    lexicographic edge-set order."""
    if n > _ENUMERATION_CAP:
        raise GraphError(f"n={n} exceeds the enumeration cap {_ENUMERATION_CAP}")
    if n < 1 or e < 0:
        raise GraphError("need n >= 1 and e >= 0")
    all_pairs = list(combinations(range(n), 2))
    if e > len(all_pairs):
        return []
    out = []
    for chosen in combinations(all_pairs, e):
        nbrs = [set() for _ in range(n)]
        for u, v in chosen:
            nbrs[u].add(v)
            nbrs[v].add(u)
        if Adj(n, nbrs).connected():
            out.append(Graph(n, chosen))
    return out


def _slide_neighbor_keys(n: int, nbrs: list[set[int]], edges: EdgeKey) -> list[EdgeKey]:
    seen = set()
    out = []
    for x in range(n):
        for y in sorted(nbrs[x]):
            for z in sorted(nbrs[y] - nbrs[x]):
                if z == x:
                    continue
                old = (x, y) if x < y else (y, x)
                new = (x, z) if x < z else (z, x)
                key = tuple(sorted(set(edges) - {old} | {new}))
                if key not in seen:
                    seen.add(key)
                    out.append(key)
    out.sort()
    return out


def slide_neighbors(g: Graph) -> list[Graph]:
    """All graphs one legal slide away, deduplicated, in lexicographic
    edge-set order."""
    nbrs = [set(s) for s in g.neighbor_sets()]
    return [Graph(g.n, key) for key in _slide_neighbor_keys(g.n, nbrs, g.edges)]


@dataclass(frozen=True)
class CensusReport:
    n: int
    e: int
    members: int
    classes: int
    diameter: int


def _slide_graph(n: int, e: int) -> tuple[list[Graph], Adj]:
    """The connected (n, e) universe and its one-slide graph, whose
    vertex i is universe[i].  The relation is symmetric: S x z y undoes
    S x y z."""
    universe = enumerate_connected(n, e)
    index = {g.edges: i for i, g in enumerate(universe)}
    nbrs = []
    for g in universe:
        sets = [set(s) for s in g.neighbor_sets()]
        nbrs.append({index[k] for k in _slide_neighbor_keys(g.n, sets, g.edges)})
    return universe, Adj(len(universe), nbrs)


def reachability_census(n: int, e: int) -> CensusReport:
    """Full BFS census of the slide relation over all connected (n, e)
    graphs: equivalence class count and the largest pairwise slide
    distance within a class."""
    if n > _CENSUS_CAP:
        raise GraphError(f"n={n} exceeds the census cap {_CENSUS_CAP}")
    universe, slides = _slide_graph(n, e)
    count = len(universe)
    classes = 0
    diameter = 0
    labelled = [False] * count
    for start in range(count):
        dist = slides.distances(start)
        # a start no earlier BFS reached opens a class; its BFS labels it
        if not labelled[start]:
            classes += 1
            labelled = [seen or d >= 0 for seen, d in zip(labelled, dist)]
        diameter = max(diameter, max(dist))
    return CensusReport(n, e, count, classes, diameter)


def slide_distances(n: int, e: int) -> tuple[list[Graph], list[list[int]]]:
    """The connected (n, e) universe, in :func:`enumerate_connected`
    order, and the fewest slides carrying each member onto each other:
    ``table[i][j]`` for universe[i] onto universe[j], -1 when no script
    exists.  For n <= 6."""
    if n > 6:
        raise GraphError(f"n={n} exceeds the slide-distance cap 6")
    universe, slides = _slide_graph(n, e)
    return universe, [slides.distances(start) for start in range(len(universe))]


def format_census_table(reports: list[CensusReport]) -> str:
    rows = [("n", "e", "members", "classes", "diameter")]
    rows.extend(
        (str(r.n), str(r.e), str(r.members), str(r.classes), str(r.diameter))
        for r in reports
    )
    widths = [max(len(row[c]) for row in rows) for c in range(5)]
    lines = ["  ".join(cell.rjust(widths[c]) for c, cell in enumerate(row)) for row in rows]
    return "".join(line + "\n" for line in lines)
