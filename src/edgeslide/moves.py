"""Primitive graph rewrites and replayable move scripts.

Five move kinds:

* ``Slide(x, y, z)``   - replace edge {x,y} by {x,z}; needs x~y, y~z, x!~z
* ``AddPendant(x, y)`` - attach new vertex y = n to anchor x
* ``Subdivide(x, z, y)`` - split edge {x,z} with new vertex y = n
* ``RemoveLeaf(y, x)`` - delete degree-1 vertex y whose neighbor is x
* ``Smooth(y, x, z)``  - delete degree-2 vertex y (neighbors x, z, x!~z)
                         and add edge {x,z}

Vertex removals renumber: ids above the removed vertex shift down by one,
and later moves in a script use the renumbered ids.  Replay does not
rebuild anything to renumber: ``Adj`` keeps each vertex's row in a
stable slot, a removal touches only the removed vertex's neighbours, and
each move translates its ids into slots.

Each kind is defined once, by its kernel (``_slide``, ``_add_pendant``,
``_subdivide``, ``_remove_leaf``, ``_smooth``): ``kernel(adj, *ids)``
holds the kind's precondition and rejection message, its effect, and
the pairs it wrote, which the full-check replay reads.  ``_TAGS`` maps
each tag to its class, kernel and arity.  :func:`apply_move_adj` runs
the kernel of a Move's kind; the engines' slides go through it.  Replay
and verification run one loop over ``(kernel, ids)`` records: a Move
script gives them through ``_record``, and ``.moves`` text through one
parser that builds no Move object, so checking a certificate file
costs a tuple per move.

The ``.moves`` text format has one move per line (``#`` comments allowed),
the tag from ``_TAGS`` and then the fields in declared order::

    S x y z | AP x y | SD x z y | RL y x | SM y x z
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Iterable, Sequence, Union

from ._adj import Adj
from .graph import Graph, GraphError, ParseError, _maps_onto, _records, check_bijection

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


# The move kernels, one per kind: ``kernel(adj, *ids)`` checks the move
# against adj, applies it, and returns the pairs it wrote.  Each holds
# its kind's precondition, with the message that rejects it, its effect
# through the ``Adj`` primitives, and the pairs the full check reads
# after it.  A rejected move raises ``MoveError`` and leaves adj as it
# was; only a rejection builds the move's repr for its message.  An id
# is in range only when it is a plain int in 0..n-1, so any other value
# (a bool, a float, a string) is rejected as out of range.  Each kernel
# translates the script's ids into adj's slots once, after its range
# checks; messages name the script's ids.
#
# The pairs are slots, in one flat tuple read by :func:`_wrote_cleanly`.
# A slide or subdivision returns a path ``(a, b, c)``: a-b and b-c must
# now be edges and a-c must not, so the path keeps the ends of the
# removed edge a-c joined.  A pendant removes no edge and returns its
# one new edge ``(a, b)``.  A removal returns ``~y`` for the dropped
# slot y (negative, so it reads as neither of those), then the leaf's
# anchor, or the ends of the smoothing's new edge.


def _slide(adj: Adj, x, y, z) -> tuple[int, ...]:
    n = adj.n
    if x == y or y == z or x == z:
        raise MoveError(f"slide vertices must be distinct, got {Slide(x, y, z)}")
    if not (type(x) is int and type(y) is int and type(z) is int and 0 <= x < n and 0 <= y < n and 0 <= z < n):
        raise MoveError(f"vertex id out of range in {Slide(x, y, z)}")
    nbrs, slot = adj.nbrs, adj.slot
    if slot is None:  # the common case, spelled out: slides dominate replay
        sx, sy, sz = x, y, z
    else:
        sx, sy, sz = slot[x], slot[y], slot[z]
    if sy not in nbrs[sx]:
        raise MoveError(f"missing edge ({x}, {y}) for {Slide(x, y, z)}")
    if sz not in nbrs[sy]:
        raise MoveError(f"missing edge ({y}, {z}) for {Slide(x, y, z)}")
    if sz in nbrs[sx]:
        raise MoveError(f"vertices {x} and {z} already adjacent in {Slide(x, y, z)}")
    adj.slide(sx, sy, sz)
    return sx, sz, sy


def _add_pendant(adj: Adj, x, y) -> tuple[int, ...]:
    n = adj.n
    if not (type(x) is int and 0 <= x < n):
        raise MoveError(f"anchor {x} out of range in {AddPendant(x, y)}")
    if y != n:
        raise MoveError(f"new vertex must be {n}, got {y}")
    sx = x if adj.slot is None else adj.slot[x]
    sy = adj.add_vertex()
    adj.add(sx, sy)
    return sx, sy


def _subdivide(adj: Adj, x, z, y) -> tuple[int, ...]:
    n = adj.n
    if x == z:
        raise MoveError(f"subdivide endpoints must differ in {Subdivide(x, z, y)}")
    if not (type(x) is int and type(z) is int and 0 <= x < n and 0 <= z < n):
        raise MoveError(f"vertex id out of range in {Subdivide(x, z, y)}")
    slot = adj.slot
    sx, sz = (x, z) if slot is None else (slot[x], slot[z])
    if sz not in adj.nbrs[sx]:
        raise MoveError(f"missing edge ({x}, {z}) for {Subdivide(x, z, y)}")
    if y != n:
        raise MoveError(f"new vertex must be {n}, got {y}")
    sy = adj.add_vertex()
    adj.remove(sx, sz)
    adj.add(sx, sy)
    adj.add(sz, sy)
    return sx, sy, sz


def _remove_leaf(adj: Adj, y, x) -> tuple[int, ...]:
    n = adj.n
    if not (type(y) is int and type(x) is int and 0 <= y < n and 0 <= x < n):
        raise MoveError(f"vertex id out of range in {RemoveLeaf(y, x)}")
    slot = adj.slot
    sy, sx = (y, x) if slot is None else (slot[y], slot[x])
    ny = adj.nbrs[sy]
    if len(ny) != 1:
        raise MoveError(f"vertex {y} has degree {len(ny)}, not a leaf")
    if sx not in ny:
        raise MoveError(f"anchor {x} is not the neighbor of leaf {y}")
    adj.remove_vertex(y)
    return ~sy, sx


def _smooth(adj: Adj, y, x, z) -> tuple[int, ...]:
    n = adj.n
    if not (type(y) is int and type(x) is int and type(z) is int and 0 <= y < n and 0 <= x < n and 0 <= z < n):
        raise MoveError(f"vertex id out of range in {Smooth(y, x, z)}")
    nbrs, slot = adj.nbrs, adj.slot
    sy, sx, sz = (y, x, z) if slot is None else (slot[y], slot[x], slot[z])
    if len(nbrs[sy]) != 2 or nbrs[sy] != {sx, sz}:
        raise MoveError(f"vertex {y} must have neighbors exactly {{{x}, {z}}}")
    if sz in nbrs[sx]:
        raise MoveError(f"vertices {x} and {z} already adjacent, smoothing would double the edge")
    adj.add(sx, sz)
    adj.remove_vertex(y)
    return ~sy, sx, sz


def _unknown(adj: Adj, m) -> tuple[int, ...]:
    raise MoveError(f"unknown move {m!r}")


# The one kind table: tag -> (class, kernel, arity).  A ``.moves`` line
# holds a kind's tag, then its fields in their declared order: ``SD x z
# y`` for ``Subdivide(x, z, y)``.  The tables after it are read off it.
_TAGS = {
    tag: (cls, kernel, len(fields(cls)))
    for tag, cls, kernel in (
        ("S", Slide, _slide),
        ("AP", AddPendant, _add_pendant),
        ("SD", Subdivide, _subdivide),
        ("RL", RemoveLeaf, _remove_leaf),
        ("SM", Smooth, _smooth),
    )
}
# class -> (kernel, its fields' values, its .moves line template)
_KINDS = {
    cls: (kernel, attrgetter(*(f.name for f in fields(cls))), tag + " %s" * arity + "\n")
    for tag, (cls, kernel, arity) in _TAGS.items()
}
_CLASS_OF = {kernel: cls for cls, kernel, _ in _TAGS.values()}


def _record(m: Move) -> tuple:
    """The ``(kernel, ids)`` record of a Move; a value of no move kind
    gets a kernel that rejects it."""
    kind = _KINDS.get(type(m))
    if kind is None:
        return _unknown, (m,)
    return kind[0], kind[1](m)


def apply_move_adj(adj: Adj, m: Move) -> tuple[int, ...]:
    """Check one move against adj, apply it, and return the pairs it
    wrote: the kernel of m's kind, looked up by type, on m's fields.
    The kernels above are where each kind is defined."""
    kernel, ids = _record(m)
    return kernel(adj, *ids)


def apply_move(g: Graph, m: Move) -> Graph:
    adj = Adj.from_graph(g)
    apply_move_adj(adj, m)
    adj.compact()
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
    after ``SM y x z``); a leaf removal cannot disconnect the graph.
    So after every move the full check reads only the pairs the move
    wrote (see the move kernels): each must read the same from
    both ends, with no loop at either, and after ``RL`` and ``SM`` no
    end may still list the removed vertex.  The whole state (degree sum,
    characteristic, loops, entries for removed vertices, connectivity)
    is checked on the start graph and once after the last move.  A move
    whose pairs fail the local check gets the whole-state check at once,
    so it is rejected at its own index with that check's message.

    A removal costs the removed vertex's degree, not n + e: the replay
    keeps every other neighbor set in place and translates the script's
    ids at each move, and renumbers the sets once, after the last move.
    """
    return _replay_adj(g, script, check).to_graph()


def _replay_adj(g: Graph, script: Sequence[Move], check: str) -> Adj:
    """:func:`replay`, returning the final state as an ``Adj``."""
    return _replay_records(g, map(_record, script), check)


def _replay_records(g: Graph, records: Iterable[tuple], check: str) -> Adj:
    """The one replay loop: apply each ``(kernel, ids)`` record to the
    state of g in turn, with :func:`replay`'s checks, and return the
    final state.  A rejected record raises ``MoveError`` with its index.
    Move scripts come here through :func:`_record`, and ``.moves`` text
    through :func:`_parse_records` with no Move object built."""
    if check not in ("fast", "full"):
        raise ValueError(f"check must be 'fast' or 'full', got {check!r}")
    full = check == "full"
    adj = Adj.from_graph(g)
    chi0 = g.n - g.e
    if full and not adj.connected():
        raise GraphError("full replay requires a connected start graph")
    i = -1
    for i, (kernel, ids) in enumerate(records):
        try:
            wrote = kernel(adj, *ids)
        except MoveError as err:
            raise MoveError(str(err), index=i) from None
        if full and not _wrote_cleanly(adj.nbrs, wrote):
            _check_state(adj, chi0, i)
    if full and i >= 0:
        _check_state(adj, chi0, i)
    adj.compact()
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


def _wrote_cleanly(nbrs: list[set[int] | None], path: tuple[int, ...]) -> bool:
    """The pairs a move kernel returned read the same from both
    ends: a path's consecutive vertices are joined, the ends of a
    three-vertex path are not, no vertex on it has a loop, and after a
    removal no end still lists the dropped slot."""
    if len(path) == 3:
        a, b, c = path
        if a < 0:
            y = ~a
            nb, nc = nbrs[b], nbrs[c]
            return c in nb and b in nc and y not in nb and y not in nc and b not in nb and c not in nc
        na, nb, nc = nbrs[a], nbrs[b], nbrs[c]
        return (
            b in na and a in nb and c in nb and b in nc
            and c not in na and a not in nc
            and a not in na and b not in nb and c not in nc
        )
    a, b = path
    if a < 0:
        return ~a not in nbrs[b]
    na, nb = nbrs[a], nbrs[b]
    return b in na and a in nb and a not in na and b not in nb


def _check_state(adj: Adj, chi0: int, index: int) -> None:
    """The whole-state check.  It renumbers the rows to the ids first,
    which reads only the live rows; an entry for a removed vertex
    becomes -1 there."""
    adj.compact()
    nbrs = adj.nbrs
    degs = adj.degrees()
    edge_count = sum(degs)
    if edge_count % 2:
        raise MoveError("inconsistent adjacency: odd degree sum", index=index)
    e = edge_count // 2
    chi = adj.n - e
    if chi != chi0:
        raise MoveError(f"Euler characteristic drifted from {chi0} to {chi}", index=index)
    for v in range(adj.n):
        if v in nbrs[v]:
            raise MoveError(f"loop created at vertex {v}", index=index)
    for v in range(adj.n):
        if -1 in nbrs[v]:
            raise MoveError(f"inconsistent adjacency: vertex {v} lists a removed vertex", index=index)
    if not adj.connected():
        raise MoveError("graph disconnected", index=index)


# ---------------------------------------------------------------------------
# .moves text format

def _parse_records(text: str) -> tuple[list[tuple], list[int]]:
    """The one ``.moves`` parser: a ``(kernel, ids)`` record per move,
    read off ``_TAGS``, and each move's line number.  A field is an
    integer only when it is written in ASCII digits."""
    records: list[tuple] = []
    lines: list[int] = []
    for lineno, parts in _records(text):
        tag = parts[0]
        entry = _TAGS.get(tag)
        if entry is None:
            raise ParseError(lineno, f"unknown move tag {tag!r}")
        _, kernel, arity = entry
        if len(parts) != arity + 1:
            raise ParseError(lineno, f"{tag} takes {arity} integers")
        del parts[0]
        joined = "".join(parts)  # graph._parse_ints, inlined
        if not (joined.isdigit() and joined.isascii()):
            raise ParseError(lineno, "move arguments must be nonnegative integers")
        records.append((kernel, tuple(map(int, parts))))
        lines.append(lineno)
    return records, lines


def parse_script_lines(text: str) -> tuple[MoveScript, tuple[int, ...]]:
    """Parse a ``.moves`` document, also returning each move's line number."""
    records, lines = _parse_records(text)
    return tuple([_CLASS_OF[kernel](*ids) for kernel, ids in records]), tuple(lines)


def parse_script(text: str) -> MoveScript:
    return parse_script_lines(text)[0]


def serialize_script(script: Sequence[Move]) -> str:
    lines = []
    for m in script:
        try:
            _, values, template = _KINDS[type(m)]
        except KeyError:
            raise GraphError(f"cannot serialize {m!r}") from None
        lines.append(template % values(m))
    return "".join(lines)
