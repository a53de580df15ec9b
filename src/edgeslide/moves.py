"""Primitive graph rewrites and replayable move scripts.

Five move kinds:

* ``Slide(x, y, z)``   - replace edge {x,y} by {x,z}; needs x~y, y~z, x!~z
* ``AddPendant(x, y)`` - attach new vertex y = n to anchor x
* ``Subdivide(x, z, y)`` - split edge {x,z} with new vertex y = n
* ``RemoveLeaf(y, x)`` - delete degree-1 vertex y whose neighbor is x
* ``Smooth(y, x, z)``  - delete degree-2 vertex y (neighbors x, z, x!~z)
                         and add edge {x,z}

Vertex removals renumber: ids above the removed vertex shift down by one,
and later moves in a script use the renumbered ids.

:func:`apply_move_adj` is where each kind is defined: its precondition
and rejection message, its effect, and the pairs it wrote, which the
full-check replay reads.  Replay, verification and the engines' slides
all apply moves through it.

The ``.moves`` text format has one move per line (``#`` comments allowed),
the tag from ``_TAGS`` and then the fields in declared order::

    S x y z | AP x y | SD x z y | RL y x | SM y x z
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Sequence, Union

from ._adj import Adj
from .graph import Graph, GraphError, ParseError, _maps_onto, _parse_ints, check_bijection

__all__ = [
    "Slide",
    "AddPendant",
    "Subdivide",
    "RemoveLeaf",
    "Smooth",
    "Move",
    "MoveScript",
    "MoveError",
    "apply_move",
    "replay",
    "parse_script",
    "parse_script_lines",
    "serialize_script",
]


@dataclass(frozen=True, slots=True)
class Slide:
    x: int
    y: int
    z: int


@dataclass(frozen=True, slots=True)
class AddPendant:
    x: int
    y: int


@dataclass(frozen=True, slots=True)
class Subdivide:
    x: int
    z: int
    y: int


@dataclass(frozen=True, slots=True)
class RemoveLeaf:
    y: int
    x: int


@dataclass(frozen=True, slots=True)
class Smooth:
    y: int
    x: int
    z: int


Move = Union[Slide, AddPendant, Subdivide, RemoveLeaf, Smooth]
MoveScript = tuple[Move, ...]


class MoveError(GraphError):
    """A move was rejected; `index` is its position in the script, if any."""

    def __init__(self, message: str, index: int | None = None):
        self.index = index
        if index is not None:
            message = f"move {index}: {message}"
        super().__init__(message)


def _in_range(adj: Adj, *vs: int) -> bool:
    n = adj.n
    for v in vs:
        if not isinstance(v, int) or not 0 <= v < n:
            return False
    return True


def apply_move_adj(adj: Adj, m: Move) -> tuple[int, ...] | None:
    """Check one move against adj, apply it, and return the pairs it wrote.

    This is the one definition of the move kinds: each kind's branch
    holds its precondition, with the message that rejects it, its effect
    on the neighbor sets, and the pairs the full check reads after it.
    A rejected move raises ``MoveError`` and leaves adj as it was.

    The pairs come as one flat ``(a, b, c)`` path: a-b and b-c must now
    be edges and a-c must not, so the path keeps the ends of the removed
    edge a-c joined.  A pendant removes no edge and returns its one new
    edge ``(a, b)``.  A removal renumbers every set, so it returns None,
    and the full check reads the whole state.
    """
    if isinstance(m, Slide):
        x, y, z = m.x, m.y, m.z
        if len({x, y, z}) != 3:
            raise MoveError(f"slide vertices must be distinct, got {m}")
        if not _in_range(adj, x, y, z):
            raise MoveError(f"vertex id out of range in {m}")
        if not adj.has(x, y):
            raise MoveError(f"missing edge ({x}, {y}) for {m}")
        if not adj.has(y, z):
            raise MoveError(f"missing edge ({y}, {z}) for {m}")
        if adj.has(x, z):
            raise MoveError(f"vertices {x} and {z} already adjacent in {m}")
        adj.slide(x, y, z)
        return x, z, y
    if isinstance(m, AddPendant):
        if not _in_range(adj, m.x):
            raise MoveError(f"anchor {m.x} out of range in {m}")
        if m.y != adj.n:
            raise MoveError(f"new vertex must be {adj.n}, got {m.y}")
        adj.add_vertex()
        adj.add(m.x, m.y)
        return m.x, m.y
    if isinstance(m, Subdivide):
        if m.x == m.z:
            raise MoveError(f"subdivide endpoints must differ in {m}")
        if not _in_range(adj, m.x, m.z):
            raise MoveError(f"vertex id out of range in {m}")
        if not adj.has(m.x, m.z):
            raise MoveError(f"missing edge ({m.x}, {m.z}) for {m}")
        if m.y != adj.n:
            raise MoveError(f"new vertex must be {adj.n}, got {m.y}")
        adj.add_vertex()
        adj.remove(m.x, m.z)
        adj.add(m.x, m.y)
        adj.add(m.z, m.y)
        return m.x, m.y, m.z
    if isinstance(m, RemoveLeaf):
        if not _in_range(adj, m.y, m.x):
            raise MoveError(f"vertex id out of range in {m}")
        if adj.degree(m.y) != 1:
            raise MoveError(f"vertex {m.y} has degree {adj.degree(m.y)}, not a leaf")
        if not adj.has(m.y, m.x):
            raise MoveError(f"anchor {m.x} is not the neighbor of leaf {m.y}")
        adj.remove_vertex(m.y)
        return None
    if isinstance(m, Smooth):
        y, x, z = m.y, m.x, m.z
        if not _in_range(adj, y, x, z):
            raise MoveError(f"vertex id out of range in {m}")
        if adj.degree(y) != 2 or adj.nbrs[y] != {x, z}:
            raise MoveError(f"vertex {y} must have neighbors exactly {{{x}, {z}}}")
        if adj.has(x, z):
            raise MoveError(f"vertices {x} and {z} already adjacent, smoothing would double the edge")
        adj.remove_vertex(y)
        adj.add(x if x < y else x - 1, z if z < y else z - 1)
        return None
    raise MoveError(f"unknown move {m!r}")


def apply_move(g: Graph, m: Move) -> Graph:
    adj = Adj.from_graph(g)
    apply_move_adj(adj, m)
    return adj.to_graph()


def replay(g: Graph, script: Sequence[Move], check: str = "fast") -> Graph:
    """Replay a script with per-move validation; a rejected move reports
    its index.

    ``fast`` checks each move's precondition only.  ``full`` also asserts
    that the state is a connected simple graph and that the Euler
    characteristic never changed.  The curvature sum then equals twice
    the starting Euler characteristic, because sum(2 - d) is 2n - 2e for
    any graph, so that identity follows from the characteristic being
    kept.  A legal move keeps all of this: each kind
    changes n and e together or not at all, it creates no loop or double
    edge, and it leaves a path between the ends of any edge it removes
    (x-z-y after ``S x y z``, x-y-z after ``SD x z y``, the new edge
    after ``SM y x z``).  So after a slide, pendant or subdivision the
    full check reads only the pairs the move wrote and the pair that keeps
    that path: each must read the same from both ends, with no loop at
    either.  A removal renumbers every set, so after ``RL`` and ``SM``,
    and once after the last move, it checks the whole state.  A move
    whose pairs fail the local check gets the whole-state check at once,
    so it is rejected at its own index with that check's message.
    """
    return _replay_adj(g, script, check).to_graph()


def _replay_adj(g: Graph, script: Sequence[Move], check: str) -> Adj:
    """:func:`replay`, returning the final state as an ``Adj``."""
    if check not in ("fast", "full"):
        raise ValueError(f"check must be 'fast' or 'full', got {check!r}")
    full = check == "full"
    adj = Adj.from_graph(g)
    chi0 = g.n - g.e
    if full and not adj.connected():
        raise GraphError("full replay requires a connected start graph")
    for i, m in enumerate(script):
        try:
            wrote = apply_move_adj(adj, m)
        except MoveError as err:
            raise MoveError(str(err), index=i) from None
        if full and (wrote is None or not _wrote_cleanly(adj.nbrs, wrote)):
            _check_state(adj, chi0, i)
    if full and script:
        _check_state(adj, chi0, len(script) - 1)
    return adj


def _verify_generated(
    g: Graph, script: MoveScript, goal: Graph | None = None, psi: Sequence[int] | None = None
) -> MoveScript:
    """Return a script this package generated once a full-check replay
    from g accepts it and, given a goal, psi maps the result onto it.

    The one verifier of generated scripts: ``transform``,
    ``transform_peel``, ``transform_euler``, ``collapse_to_order`` and
    ``regularize`` each run it once on the script they return.  A
    rejected move raises its replay ``MoveError``; a result that misses
    the goal raises ``MoveError`` too.  The goal check is the one behind
    ``is_isomorphic_under``, run on the replayed neighbor sets in place.
    """
    final = _replay_adj(g, script, "full")
    if goal is not None and not _maps_onto(final.nbrs, goal, check_bijection(psi, goal.n)):
        raise MoveError("generated script does not verify against the goal graph")
    return script


def _wrote_cleanly(nbrs: list[set[int]], path: tuple[int, ...]) -> bool:
    """The path :func:`apply_move_adj` returned reads the same from both
    ends of each pair: its consecutive vertices are joined, the ends of
    a three-vertex path are not, and no vertex on it has a loop."""
    if len(path) == 2:
        a, b = path
        na, nb = nbrs[a], nbrs[b]
        return b in na and a in nb and a not in na and b not in nb
    a, b, c = path
    na, nb, nc = nbrs[a], nbrs[b], nbrs[c]
    return (
        b in na and a in nb and c in nb and b in nc
        and c not in na and a not in nc
        and a not in na and b not in nb and c not in nc
    )


def _check_state(adj: Adj, chi0: int, index: int) -> None:
    degs = adj.degrees()
    edge_count = sum(degs)
    if edge_count % 2:
        raise MoveError("inconsistent adjacency: odd degree sum", index=index)
    e = edge_count // 2
    chi = adj.n - e
    if chi != chi0:
        raise MoveError(f"Euler characteristic drifted from {chi0} to {chi}", index=index)
    for v in range(adj.n):
        if v in adj.nbrs[v]:
            raise MoveError(f"loop created at vertex {v}", index=index)
    if not adj.connected():
        raise MoveError("graph disconnected", index=index)


# ---------------------------------------------------------------------------
# .moves text format

# The one tag table.  A line holds a kind's tag, then its fields in their
# declared order: ``SD x z y`` for ``Subdivide(x, z, y)``.
_TAGS = {
    tag: (cls, len(fields(cls)))
    for tag, cls in (
        ("S", Slide), ("AP", AddPendant), ("SD", Subdivide), ("RL", RemoveLeaf), ("SM", Smooth)
    )
}
_LINES = {
    cls: (tag + " %s" * arity + "\n", attrgetter(*(f.name for f in fields(cls))))
    for tag, (cls, arity) in _TAGS.items()
}


def parse_script_lines(text: str) -> tuple[MoveScript, tuple[int, ...]]:
    """Parse a ``.moves`` document, also returning each move's line number."""
    moves: list[Move] = []
    lines: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        entry = _TAGS.get(parts[0])
        if entry is None:
            raise ParseError(lineno, f"unknown move tag {parts[0]!r}")
        cls, arity = entry
        if len(parts) != arity + 1:
            raise ParseError(lineno, f"{parts[0]} takes {arity} integers")
        try:
            args = _parse_ints(parts[1:])
        except ValueError:
            raise ParseError(lineno, "move arguments must be nonnegative integers") from None
        moves.append(cls(*args))
        lines.append(lineno)
    return tuple(moves), tuple(lines)


def parse_script(text: str) -> MoveScript:
    return parse_script_lines(text)[0]


def serialize_script(script: Sequence[Move]) -> str:
    lines = []
    for m in script:
        try:
            template, values = _LINES[type(m)]
        except KeyError:
            raise GraphError(f"cannot serialize {m!r}") from None
        lines.append(template % values(m))
    return "".join(lines)
