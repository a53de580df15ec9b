"""Brute-force ground truth at desk scale.

Enumerates all connected labeled graphs with given (n, e), expands the
one-step slide relation, and counts the classes and the largest slide
distance of the slide-reachability graph, or tabulates its all-pairs
slide distances.  Used to certify the constructive algorithms
exhaustively on small universes, and to measure their scripts against
the exact optimum.

Inside the module a graph on n vertices is an int mask over the
P = C(n, 2) pairs, taken in ``combinations(range(n), 2)`` order with the
first pair in the highest bit: pair i is bit P - 1 - i, so the binary
digits of a mask list its pairs in order.  Ascending index combinations
then enumerate the edge sets in lexicographic order, and for one e that
order is descending mask order.  The slide S x y z flips two bits: the
mask of {x, y} goes out and the mask of {x, z} comes in.  A slide's
result determines the slide (the removed and the added pair share only
x), so the slides of a graph give pairwise different graphs.

Relabelling the vertices by a permutation p maps the slide S x y z of g
onto the slide S p(x) p(y) p(z) of p(g), legal exactly when the first
is.  So p is an automorphism of the slide graph: it carries each class
onto a class and keeps every slide distance, and the members of one
S_n orbit have equal eccentricities.  The census therefore runs one BFS
per orbit, not one per member, and reads each orbit off n! tables that
carry every pair's bit to its image's.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

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

# Largest n each brute force accepts: the universe grows faster than
# exponentially in n.  `edgeslide oracle 6`, the census for every e at
# n = 6, ran in 0.58 s at 20 MB peak RSS (2 vCPUs, Python 3.11); n = 7
# has 1,866,256 members.
_ENUMERATION_CAP = 7
_CENSUS_CAP = 6
_DISTANCE_CAP = 6


def _pair_bits(n: int) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """The pairs in order, and ``bit[u][v]``, the mask of pair {u, v}."""
    pairs = list(combinations(range(n), 2))
    top = len(pairs) - 1
    bit = [[0] * n for _ in range(n)]
    for i, (u, v) in enumerate(pairs):
        bit[u][v] = bit[v][u] = 1 << (top - i)
    return pairs, bit


def _universe(n: int, e: int) -> tuple[list[int], list[Graph]]:
    """The masks and the graphs of every connected (n, e) graph, in
    lexicographic edge-set order.  Connectivity is a flood over the
    vertex bitsets of the neighbourhoods."""
    if n > _ENUMERATION_CAP:
        raise GraphError(f"n={n} exceeds the enumeration cap {_ENUMERATION_CAP}")
    if n < 1 or e < 0:
        raise GraphError("need n >= 1 and e >= 0")
    pairs, bit = _pair_bits(n)
    ends = [(u, 1 << v, v, 1 << u, bit[u][v]) for u, v in pairs]
    sets = [frozenset(v for v in range(n) if s >> v & 1) for s in range(1 << n)]
    everyone = (1 << n) - 1
    masks, graphs = [], []
    for chosen in combinations(range(len(pairs)), e):
        nb = [0] * n
        m = 0
        for i in chosen:
            u, bv, v, bu, b = ends[i]
            nb[u] |= bv
            nb[v] |= bu
            m |= b
        reached = todo = 1
        while todo:
            low = todo & -todo
            todo ^= low
            new = nb[low.bit_length() - 1] & ~reached
            reached |= new
            todo |= new
        if reached == everyone:
            masks.append(m)
            graphs.append(Graph._valid(n, tuple([pairs[i] for i in chosen]), tuple([sets[s] for s in nb])))
    return masks, graphs


def enumerate_connected(n: int, e: int) -> list[Graph]:
    """All connected simple labeled graphs with exactly (n, e), in
    lexicographic edge-set order."""
    return _universe(n, e)[1]


def _slide_masks(m: int, nbrs: tuple[frozenset[int], ...], bit: list[list[int]]) -> list[int]:
    """The masks one legal slide from the graph with mask m and neighbour
    sets nbrs: S x y z for y in N(x) and z in N(y) outside N[x]."""
    out = []
    for x, row in enumerate(bit):
        nx = nbrs[x]
        for y in nx:
            my = m ^ row[y]
            for z in nbrs[y]:
                if z != x and z not in nx:
                    out.append(my ^ row[z])
    return out


def slide_neighbors(g: Graph) -> list[Graph]:
    """All graphs one legal slide away, in lexicographic edge-set order;
    no two slides give the same graph."""
    pairs, bit = _pair_bits(g.n)
    top = len(pairs) - 1
    m = sum(bit[u][v] for u, v in g.edges)
    out = []
    for k in sorted(_slide_masks(m, g.neighbor_sets(), bit), reverse=True):
        edges = []
        sets = [set() for _ in range(g.n)]
        while k:  # the highest set bit is the first pair left
            b = k.bit_length() - 1
            k ^= 1 << b
            u, v = pairs[top - b]
            edges.append((u, v))
            sets[u].add(v)
            sets[v].add(u)
        out.append(Graph._valid(g.n, tuple(edges), tuple(map(frozenset, sets))))
    return out


@dataclass(frozen=True)
class CensusReport:
    n: int
    e: int
    members: int
    classes: int
    diameter: int


def _slide_graph(n: int, e: int) -> tuple[list[int], list[Graph], Adj]:
    """The masks and graphs of the connected (n, e) universe and its
    one-slide graph, whose vertex i is universe[i].  The relation is
    symmetric: S x z y undoes S x y z.  Its rows are lists, which the
    BFS walks as it would sets: no slide result repeats."""
    masks, universe = _universe(n, e)
    bit = _pair_bits(n)[1]
    index = {m: i for i, m in enumerate(masks)}
    rows = [[index[k] for k in _slide_masks(m, g.neighbor_sets(), bit)] for m, g in zip(masks, universe)]
    return masks, universe, Adj(len(universe), rows)


def reachability_census(n: int, e: int) -> CensusReport:
    """Census of the slide relation over all connected (n, e) graphs:
    equivalence class count, from one components pass, and the largest
    pairwise slide distance within a class, from one BFS per relabelling
    orbit (see the module docstring)."""
    if n > _CENSUS_CAP:
        raise GraphError(f"n={n} exceeds the census cap {_CENSUS_CAP}")
    masks, universe, slides = _slide_graph(n, e)
    pairs, bit = _pair_bits(n)
    place = {pair: i for i, pair in enumerate(pairs)}
    # relabel[p][i]: the mask of pair i's image under the permutation p
    relabel = [[bit[p[u]][p[v]] for u, v in pairs] for p in permutations(range(n))]
    orbits_seen = set()
    diameter = 0
    for start, g in enumerate(universe):
        if masks[start] in orbits_seen:
            continue
        chosen = [place[pair] for pair in g.edges]
        orbits_seen.update(sum(map(table.__getitem__, chosen)) for table in relabel)
        diameter = max(diameter, max(slides.distances(start)))
    return CensusReport(n, e, len(universe), len(slides.components()), diameter)


def slide_distances(n: int, e: int) -> tuple[list[Graph], list[list[int]]]:
    """The connected (n, e) universe, in :func:`enumerate_connected`
    order, and the fewest slides carrying each member onto each other:
    ``table[i][j]`` for universe[i] onto universe[j], -1 when no script
    exists.  For n <= ``_DISTANCE_CAP``."""
    if n > _DISTANCE_CAP:
        raise GraphError(f"n={n} exceeds the slide-distance cap {_DISTANCE_CAP}")
    _, universe, slides = _slide_graph(n, e)
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
