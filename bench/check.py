"""Independent checker for edgeslide outputs.

Parses ``.elist`` graphs, ``.moves`` scripts and ``m <src> <dst>``
mappings, and replays scripts with its own code.  Nothing here imports
``edgeslide``: a bug shared with the package cannot hide from it.

Move preconditions (ids refer to the state before the move)::

    S x y z   x, y, z distinct; x~y, y~z, x!~z
    AP x y    x < n; y == n
    SD x z y  x != z; x~z; y == n
    RL y x    d(y) == 1 and y~x
    SM y x z  N(y) == {x, z}, x != z; x!~z

``RL`` and ``SM`` delete y and shift every id above it down by one.
"""
from __future__ import annotations

from itertools import combinations

_ARITY = {"S": 3, "AP": 2, "SD": 3, "RL": 2, "SM": 3}


class Rejected(Exception):
    """A document or a move was rejected; `line` is its 1-based line."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


def _int(token: str, line: int) -> int:
    if not (token.isascii() and token.isdigit()):
        raise Rejected(line, f"not a nonnegative integer: {token!r}")
    return int(token)


def _content_lines(text: str):
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line.split()


class State:
    """A mutable simple graph on 0..n-1 as a list of neighbour sets."""

    __slots__ = ("nbrs",)

    def __init__(self, n: int, edges=()):
        self.nbrs = [set() for _ in range(n)]
        for u, v in edges:
            if u == v or not (0 <= u < n and 0 <= v < n) or v in self.nbrs[u]:
                raise ValueError(f"bad edge ({u}, {v}) for n={n}")
            self.nbrs[u].add(v)
            self.nbrs[v].add(u)

    @property
    def n(self) -> int:
        return len(self.nbrs)

    def edges(self) -> list[tuple[int, int]]:
        return sorted((u, v) for u, s in enumerate(self.nbrs) for v in s if u < v)

    def edge_count(self) -> int:
        return sum(len(s) for s in self.nbrs) // 2

    def degrees(self) -> list[int]:
        return [len(s) for s in self.nbrs]

    def connected(self) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            for w in self.nbrs[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def _delete(self, y: int) -> None:
        for w in self.nbrs[y]:
            self.nbrs[w].discard(y)
        del self.nbrs[y]
        self.nbrs = [{w - 1 if w > y else w for w in s} for s in self.nbrs]

    def illegal(self, tag: str, args) -> str | None:
        """The reason the move cannot apply to this state, or None."""
        n, nb = self.n, self.nbrs
        if tag in ("AP", "SD"):
            *old, new = args
            if any(v >= n for v in old):
                return "vertex id out of range"
            if new != n:
                return f"new vertex must be {n}"
            if tag == "SD" and (old[0] == old[1] or old[1] not in nb[old[0]]):
                return "subdivided pair is not an edge"
            return None
        if any(v >= n for v in args):
            return "vertex id out of range"
        if tag == "S":
            x, y, z = args
            if len({x, y, z}) != 3:
                return "slide vertices not distinct"
            if y not in nb[x] or z not in nb[y]:
                return "slide path x-y-z missing"
            if z in nb[x]:
                return "slide target already adjacent"
            return None
        if tag == "RL":
            y, x = args
            return None if nb[y] == {x} else "not a leaf with that anchor"
        y, x, z = args  # SM
        if x == z or nb[y] != {x, z}:
            return "not a degree-2 vertex with those neighbours"
        return "smoothing would double an edge" if z in nb[x] else None

    def apply(self, tag: str, args) -> None:
        """Apply a move already found legal by `illegal`."""
        nb = self.nbrs
        if tag == "S":
            x, y, z = args
            nb[x].discard(y)
            nb[y].discard(x)
            nb[x].add(z)
            nb[z].add(x)
        elif tag == "AP":
            nb.append({args[0]})
            nb[args[0]].add(args[1])
        elif tag == "SD":
            x, z, y = args
            nb[x].discard(z)
            nb[z].discard(x)
            nb.append({x, z})
            nb[x].add(y)
            nb[z].add(y)
        elif tag == "RL":
            self._delete(args[0])
        else:  # SM
            y, x, z = args
            self._delete(y)
            x, z = (x - (x > y), z - (z > y))
            nb = self.nbrs
            nb[x].add(z)
            nb[z].add(x)


def parse_elist(text: str) -> State:
    n = e = None
    edges = []
    for lineno, parts in _content_lines(text):
        if parts[0] == "p" and len(parts) == 3 and n is None:
            n, e = _int(parts[1], lineno), _int(parts[2], lineno)
        elif parts[0] == "e" and len(parts) == 3 and n is not None:
            u, v = _int(parts[1], lineno), _int(parts[2], lineno)
            if not u < v < n:
                raise Rejected(lineno, "edge must satisfy u < v < n")
            edges.append((u, v))
        else:
            raise Rejected(lineno, "malformed line")
    if n is None or n < 1 or len(edges) != e or len(set(edges)) != e:
        raise Rejected(0, "bad header or edge count")
    return State(n, edges)


def parse_moves(text: str) -> list[tuple[int, str, tuple[int, ...]]]:
    out = []
    for lineno, parts in _content_lines(text):
        arity = _ARITY.get(parts[0])
        if arity is None or len(parts) != arity + 1:
            raise Rejected(lineno, "malformed move")
        out.append((lineno, parts[0], tuple(_int(p, lineno) for p in parts[1:])))
    return out


def parse_mapping(text: str, n: int) -> list[int]:
    pairs = {}
    for lineno, parts in _content_lines(text):
        if parts[0] != "m" or len(parts) != 3:
            raise Rejected(lineno, "malformed mapping line")
        pairs[_int(parts[1], lineno)] = _int(parts[2], lineno)
    psi = [pairs.get(i, -1) for i in range(n)]
    if len(pairs) != n or sorted(psi) != list(range(n)):
        raise Rejected(0, "mapping is not a permutation")
    return psi


def replay(state: State, moves) -> State:
    """Replay parsed moves on `state` in place; raises Rejected."""
    for lineno, tag, args in moves:
        reason = state.illegal(tag, args)
        if reason is not None:
            raise Rejected(lineno, f"{tag} {' '.join(map(str, args))}: {reason}")
        state.apply(tag, args)
    return state


def canonical_elist(state: State) -> str:
    edges = state.edges()
    return "".join([f"p {state.n} {len(edges)}\n"] + [f"e {u} {v}\n" for u, v in edges])


def maps_onto(state: State, goal: State, psi) -> bool:
    """True iff psi carries state's edge set exactly onto goal's."""
    if state.n != goal.n or state.edge_count() != goal.edge_count():
        return False
    return all(psi[v] in goal.nbrs[psi[u]] for u, v in state.edges())


# ---------------------------------------------------------------------------
# Lower bounds: the fewest moves any correct script can use.


def transform_bound(g: State, h: State, psi) -> int:
    """|E(g) \\ psi^-1 E(h)|: each slide changes exactly one edge."""
    return sum(1 for u, v in g.edges() if psi[v] not in h.nbrs[psi[u]])


def regularize_bound(g: State) -> int:
    """sum max(0, d(v) - ceil(2e/n)): a slide lowers one degree by one."""
    n = g.n
    cap = -(-2 * g.edge_count() // n)
    return sum(max(0, d - cap) for d in g.degrees())


def euler_bound(g: State, h: State) -> int:
    """|n_g - n_h|: each resizing move changes the order by one."""
    return abs(g.n - h.n)


def target_energy(n: int, e: int) -> int:
    k, r = divmod(2 * e, n)
    return r * (k + 1) ** 2 + (n - r) * k * k


def connected_count(n: int, e: int) -> int:
    """Connected labelled simple graphs with exactly (n, e), by brute force."""
    pairs = list(combinations(range(n), 2))
    return sum(1 for chosen in combinations(pairs, e) if State(n, chosen).connected())


# ---------------------------------------------------------------------------
# Command-level checks.  Each returns None when the output is right, or a
# one-line reason.


def _final(src: str, script: str) -> State:
    state = replay(parse_elist(src), parse_moves(script))
    if not state.connected():
        raise Rejected(0, "final graph is disconnected")
    return state


def check_transform(src: str, goal: str, mapping: str, script: str) -> str | None:
    try:
        g = parse_elist(src)
        final = _final(src, script)
        h = parse_elist(goal)
        psi = parse_mapping(mapping, g.n)
    except Rejected as err:
        return f"transform output rejected: {err}"
    return None if maps_onto(final, h, psi) else "final graph does not map onto the goal"


def check_euler(src: str, goal: str, script: str, stdout: str) -> str | None:
    try:
        final = _final(src, script)
        h = parse_elist(goal)
        psi = parse_mapping(stdout, h.n)
    except Rejected as err:
        return f"euler-transform output rejected: {err}"
    return None if maps_onto(final, h, psi) else "final graph does not map onto the goal"


def check_regularize(src: str, script: str) -> str | None:
    try:
        final = _final(src, script)
    except Rejected as err:
        return f"regularize output rejected: {err}"
    degs = final.degrees()
    if max(degs) - min(degs) > 1:
        return "degrees are not within 1"
    if sum(d * d for d in degs) != target_energy(final.n, final.edge_count()):
        return "energy differs from the almost-regular target"
    return None


def check_replay_output(expected: str, output: str) -> str | None:
    try:
        final = parse_elist(output)
    except Rejected as err:
        return f"replay output rejected: {err}"
    if output != expected:
        return "replay output differs from the expected canonical graph"
    return None if final.connected() else "replayed graph is disconnected"


def reject_line(src: str, script: str) -> int | None:
    """The line at which replay rejects the script, or None if it is legal."""
    try:
        replay(parse_elist(src), parse_moves(script))
    except Rejected as err:
        return err.line
    return None
