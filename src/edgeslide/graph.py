"""Labeled simple undirected graphs and their basic statistics.

Vertices are dense integer ids ``0..n-1``.  A :class:`Graph` is immutable
after construction; every algorithm in this package is a pure function
that returns new values.  The canonical text format is the ``.elist``
document::

    # optional comments
    p <n> <e>
    e <u> <v>      (exactly e lines, 0 <= u < v < n)

Canonical serialization sorts the edge lines lexicographically, so
``parse_graph(serialize_graph(g)) == g``.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from ._adj import Adj

__all__ = [
    "Graph",
    "GraphError",
    "ParseError",
    "GraphStats",
    "parse_graph",
    "serialize_graph",
    "is_connected",
    "shortest_path",
    "connected_components",
    "spanning_tree",
    "stats",
    "is_isomorphic_under",
    "identity_bijection",
    "inverse_bijection",
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "star_graph",
]

Path = tuple[int, ...]
VertexBijection = tuple[int, ...]


class GraphError(ValueError):
    """An operation's precondition or a graph invariant was violated."""


class ParseError(GraphError):
    """A text document could not be parsed; carries the offending line."""

    def __init__(self, lineno: int, message: str):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}")


class Graph:
    """A connected-or-not simple undirected graph on vertices 0..n-1.

    No loops, no multi-edges.  ``edges`` is the canonical sorted tuple of
    ``(u, v)`` pairs with ``u < v``.  ``Graph(n, edges)`` is the
    validating constructor: it accepts the pairs in any order and either
    orientation and raises ``GraphError`` on a loop, an id out of range
    or a duplicate.  Data that is valid by construction (a parsed
    document, a replayed state) skips that check through ``_valid``.
    """

    __slots__ = ("n", "edges", "_nbr_sets")

    def __init__(self, n: int, edges: Iterable[Sequence[int]] = ()):
        if not isinstance(n, int) or n < 1:
            raise GraphError(f"vertex count must be a positive integer, got {n!r}")
        self.n = n
        sets = [set() for _ in range(n)]
        norm = set()
        for pair in edges:
            u, v = pair
            if u == v:
                raise GraphError(f"loop edge at vertex {u}")
            if u > v:
                u, v = v, u
            if not (0 <= u and v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if (u, v) in norm:
                raise GraphError(f"duplicate edge ({u}, {v})")
            norm.add((u, v))
            sets[u].add(v)
            sets[v].add(u)
        self.edges = tuple(sorted(norm))
        self._nbr_sets = tuple(frozenset(s) for s in sets)
        if __debug__:
            assert sum(len(s) for s in self._nbr_sets) == 2 * len(self.edges)

    @classmethod
    def _valid(cls, n: int, edges: tuple[tuple[int, int], ...], nbr_sets: tuple[frozenset[int], ...]) -> "Graph":
        """A Graph from data that is already valid, checked by nothing
        again: n >= 1, ``edges`` the sorted ``(u, v)`` pairs with u < v,
        and ``nbr_sets`` the matching neighbor sets.  ``parse_graph`` and
        ``Adj.to_graph`` build their graphs here."""
        g = object.__new__(cls)
        g.n = n
        g.edges = edges
        g._nbr_sets = nbr_sets
        if __debug__:
            assert sum(map(len, nbr_sets)) == 2 * len(edges)
        return g

    @property
    def e(self) -> int:
        return len(self.edges)

    def adjacent(self, u: int, v: int) -> bool:
        return v in self._nbr_sets[u]

    def degree(self, u: int) -> int:
        return len(self._nbr_sets[u])

    def neighbors(self, u: int) -> tuple[int, ...]:
        """Neighbors of u in ascending id order."""
        return tuple(sorted(self._nbr_sets[u]))

    def neighbor_sets(self) -> tuple[frozenset[int], ...]:
        return self._nbr_sets

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges)})"


# ---------------------------------------------------------------------------
# .elist parsing and serialization


def _parse_ints(tokens: Sequence[str]) -> list[int]:
    """Integers from ``str.split()`` tokens written in ASCII digits only.

    ``int()`` alone also accepts signs, underscores (``1_0`` is 10) and
    non-ASCII digits; any such token raises ValueError here.  Split
    tokens are never empty, so checking them joined checks each one.
    The ``e`` lines here and the ``.moves`` lines spell this check out
    inline, since they are parsed once per line of a large file.
    """
    joined = "".join(tokens)
    if not (joined.isdigit() and joined.isascii()):
        raise ValueError(f"not nonnegative decimal integers: {tokens!r}")
    return list(map(int, tokens))


def _records(text: str) -> Iterator[tuple[int, list[str]]]:
    r"""``(lineno, fields)`` for each line of text that is neither blank
    nor a ``#`` comment.  The one line syntax of the ``.elist``,
    ``.moves`` and bijection formats.  Lines end at ``\n`` only and are
    counted from 1; every other whitespace character, ``\r`` included,
    only separates fields, so a comment runs to the end of its line."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        parts = raw.split()
        if parts and parts[0][0] != "#":
            yield lineno, parts


def _last_line(text: str) -> int:
    """The number of the last line of text, as :func:`_records` counts
    them, and 1 for empty text: where an error about the whole document
    points."""
    return max(text.count("\n") + (not text.endswith("\n")), 1)


def parse_graph(text: str) -> Graph:
    """Parse an ``.elist`` document in one pass over its lines.  Errors
    name the offending line; an error about the whole document names its
    last line.

    A field is an integer only when it is written in ASCII digits, as
    :func:`_parse_ints` checks.  Each edge is checked once, here, against
    the header and the neighbor sets built so far, which also catch
    duplicates; the sets are per vertex seen, so a header's vertex count
    allocates nothing until the document is valid."""
    n = e = None
    edges: list[tuple[int, int]] = []
    nbrs: defaultdict[int, set[int]] = defaultdict(set)
    for lineno, parts in _records(text):
        tag = parts[0]
        if tag == "e":
            if n is None:
                raise ParseError(lineno, "edge line before header")
            if len(parts) != 3:
                raise ParseError(lineno, "malformed edge line, expected 'e <u> <v>'")
            _, a, b = parts
            ab = a + b  # _parse_ints, inlined
            if not (ab.isdigit() and ab.isascii()):
                raise ParseError(lineno, "malformed edge line, expected nonnegative integers")
            u = int(a)
            v = int(b)
            if u == v:
                raise ParseError(lineno, f"loop edge at vertex {u}")
            if u >= n or v >= n:
                raise ParseError(lineno, f"vertex id out of range for n={n}")
            if u > v:
                raise ParseError(lineno, "edge endpoints must satisfy u < v")
            nu = nbrs[u]
            if v in nu:
                raise ParseError(lineno, f"duplicate edge ({u}, {v})")
            if len(edges) == e:
                raise ParseError(lineno, f"more than {e} edge lines")
            nu.add(v)
            nbrs[v].add(u)
            edges.append((u, v))
        elif tag == "p":
            if n is not None:
                raise ParseError(lineno, "duplicate header")
            if len(parts) != 3:
                raise ParseError(lineno, "malformed header, expected 'p <n> <e>'")
            try:
                n, e = _parse_ints(parts[1:])
            except ValueError:
                raise ParseError(lineno, "malformed header, expected nonnegative integers") from None
            if n < 1:
                raise ParseError(lineno, "vertex count must be positive")
        else:
            raise ParseError(lineno, f"unrecognized line kind {tag!r}")
    if n is None:
        raise ParseError(_last_line(text), "missing 'p <n> <e>' header")
    if len(edges) != e:
        raise ParseError(_last_line(text), f"expected {e} edge lines, found {len(edges)}")
    edges.sort()
    return Graph._valid(n, tuple(edges), tuple([frozenset(nbrs.get(v, ())) for v in range(n)]))


def serialize_graph(g: Graph) -> str:
    """Canonical ``.elist`` text: header, then edges sorted by (u, v)."""
    lines = [f"p {g.n} {g.e}"]
    lines.extend(f"e {u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Traversals and statistics


def is_connected(g: Graph) -> bool:
    return Adj.from_graph(g).connected()


def shortest_path(
    g: Graph, a: int, b: int, forbidden: tuple[int, int] | None = None
) -> Path | None:
    """The lexicographically least shortest path from a to b, or None if
    unreachable.

    ``forbidden`` names an edge that the path must not traverse; a pair
    that is not an edge of g forbids nothing.
    """
    _check_vertex(g, a)
    _check_vertex(g, b)
    adj = Adj.from_graph(g)
    if forbidden is not None and all(isinstance(w, int) and 0 <= w < g.n for w in forbidden):
        adj.remove(*forbidden)
    path = adj.bfs_path(a, b)
    return None if path is None else tuple(path)


def connected_components(g: Graph, excluded: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Partition of all vertices except `excluded`, groups ordered by smallest id."""
    if excluded is not None:
        _check_vertex(g, excluded)
    return tuple(tuple(c) for c in Adj.from_graph(g).components(skip=excluded))


def spanning_tree(g: Graph, root: int = 0) -> tuple[tuple[int, int], ...]:
    """Edges of the BFS spanning tree from `root`, neighbors in ascending order."""
    _check_vertex(g, root)
    tree = Adj.from_graph(g).bfs_tree(root)
    if tree is None:
        raise GraphError("spanning_tree requires a connected graph")
    return tuple(tree.sorted_edges())


@dataclass(frozen=True)
class GraphStats:
    """Scalar summary: per-vertex degrees, energy, Euler characteristic."""

    degrees: tuple[int, ...]
    energy: int
    euler_characteristic: int
    curvature_sum: int


def stats(g: Graph) -> GraphStats:
    """Degrees by id, energy (sum of squared degrees), chi = n - e,
    and the total combinatorial curvature sum(2 - d(x)) = 2 chi."""
    degrees = tuple(g.degree(v) for v in range(g.n))
    energy = sum(d * d for d in degrees)
    chi = g.n - g.e
    curvature = sum(2 - d for d in degrees)
    assert curvature == 2 * chi
    return GraphStats(degrees, energy, chi, curvature)


# ---------------------------------------------------------------------------
# Vertex bijections


def check_bijection(psi: Sequence[int], n: int) -> VertexBijection:
    """Validate that psi is a permutation of 0..n-1 and return it as a tuple."""
    psi = tuple(psi)
    if len(psi) != n or sorted(psi) != list(range(n)):
        raise GraphError(f"bijection must be a permutation of 0..{n - 1}")
    return psi


def identity_bijection(n: int) -> VertexBijection:
    return tuple(range(n))


def inverse_bijection(psi: Sequence[int]) -> VertexBijection:
    inv = [0] * len(psi)
    for i, t in enumerate(psi):
        inv[t] = i
    return tuple(inv)


def is_isomorphic_under(g: Graph, h: Graph, psi: Sequence[int]) -> bool:
    """True iff psi maps g's adjacency exactly onto h's.

    Raises on a size mismatch; returns False on any structural difference.
    """
    if g.n != h.n:
        raise GraphError(f"vertex count mismatch: {g.n} != {h.n}")
    return _maps_onto(g.neighbor_sets(), h, check_bijection(psi, g.n))


def _maps_onto(nbrs: Sequence[Iterable[int]], goal: Graph, psi: Sequence[int]) -> bool:
    """True iff the bijection psi carries the graph with neighbor sets
    nbrs onto goal: equal orders and edge counts, and every adjacency
    lands on an adjacency, so no goal edge is left over."""
    if len(nbrs) != goal.n or sum(map(len, nbrs)) != 2 * goal.e:
        return False
    want = goal.neighbor_sets()
    for u, s in enumerate(nbrs):
        w = want[psi[u]]
        for v in s:
            if psi[v] not in w:
                return False
    return True


# ---------------------------------------------------------------------------
# Small builders, mostly for tests and demos


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("a cycle needs at least 3 vertices")
    return Graph(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(n: int) -> Graph:
    """Star on n vertices with center 0."""
    return Graph(n, [(0, i) for i in range(1, n)])


def _check_vertex(g: Graph, v: int) -> None:
    if not (isinstance(v, int) and 0 <= v < g.n):
        raise GraphError(f"vertex id {v!r} out of range for n={g.n}")
