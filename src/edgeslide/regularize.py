"""Energy-driven regularization.

The energy of a degree sequence is the sum of its squared entries.  Among
all positive sequences with a fixed sum it is minimized exactly by the
almost-regular profile determined by Euclidean division, and a connected
simple graph can always be slid into that profile: each step moves one
edge end from a highest-degree vertex to a lowest-degree one, dropping
the energy by 2*(d(high) - d(low) - 1).
"""
from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from .graph import Graph, GraphError, _connected_adj
from .moves import MoveScript, _verify_generated
from .slides import _shuffle

__all__ = [
    "DegreeTarget",
    "almost_regular_target",
    "minimal_energy_oracle",
    "RegularizeStep",
    "regularize_steps",
    "regularize",
]


@dataclass(frozen=True)
class DegreeTarget:
    """The almost-regular degree profile for n vertices and e edges:
    r vertices of degree k + 1 and n - r of degree k, with 2e = n*k + r."""

    k: int
    r: int
    n: int

    def multiset(self) -> tuple[int, ...]:
        """Degrees in non-increasing order."""
        return (self.k + 1,) * self.r + (self.k,) * (self.n - self.r)

    def energy(self) -> int:
        return self.r * (self.k + 1) ** 2 + (self.n - self.r) * self.k**2


def almost_regular_target(n: int, e: int) -> DegreeTarget:
    """The unique (k, r) with 2e = n*k + r and 0 <= r <= n - 1."""
    if n < 1:
        raise GraphError("n must be positive")
    if not (n - 1 <= e <= n * (n - 1) // 2):
        raise GraphError(
            f"e={e} outside the connected simple range [{n - 1}, {n * (n - 1) // 2}] for n={n}"
        )
    k, r = divmod(2 * e, n)
    return DegreeTarget(k, r, n)


def minimal_energy_oracle(n: int, e: int) -> set[tuple[int, ...]]:
    """Brute force: all positive degree multisets of length n summing to 2e
    whose energy is minimal.  Multisets are non-increasing tuples.

    Enumeration cost grows quickly; intended for desk-scale n.
    """
    total = 2 * e
    best: list[tuple[int, ...]] = []
    best_energy = None

    def rec(remaining: int, parts_left: int, cap: int, prefix: list[int], acc: int):
        nonlocal best, best_energy
        if parts_left == 0:
            if remaining == 0:
                if best_energy is None or acc < best_energy:
                    best_energy = acc
                    best = [tuple(prefix)]
                elif acc == best_energy:
                    best.append(tuple(prefix))
            return
        # parts are at least 1 and at most cap (non-increasing order)
        hi = min(cap, remaining - (parts_left - 1))
        for part in range(hi, 0, -1):
            prefix.append(part)
            rec(remaining - part, parts_left - 1, part, prefix, acc + part * part)
            prefix.pop()

    if total >= n >= 1:
        rec(total, n, total, [], 0)
    return set(best)


@dataclass(frozen=True)
class RegularizeStep:
    """One degree exchange: the chosen high and low vertices, their
    degrees before the step, and the slides performing the exchange."""

    high: int
    low: int
    high_degree: int
    low_degree: int
    moves: MoveScript


def regularize_steps(g: Graph) -> tuple[RegularizeStep, ...]:
    """The per-step decomposition behind :func:`regularize`."""
    adj = _connected_adj(g, "regularize requires a connected graph")
    nbrs = adj.nbrs
    degs = adj.degrees()
    # A min-heap of ids per degree; an entry v in buckets[d] is stale once
    # degs[v] != d.  Only x (down to hi - 1) and y (up to lo + 1 <= hi - 1)
    # change degree, so the top degree hi only falls and the bottom lo
    # only rises.
    hi, lo = max(degs), min(degs)
    buckets: list[list[int]] = [[] for _ in range(hi + 1)]
    for v, d in enumerate(degs):
        buckets[d].append(v)  # ascending ids: already a heap

    def top(d: int) -> int | None:
        bucket = buckets[d]
        while bucket and degs[bucket[0]] != d:
            heappop(bucket)
        return bucket[0] if bucket else None

    # The donor is the least neighbor of x off the path and not adjacent
    # to y.  Every slide of a step has the donor as its pivot and lands on
    # a path vertex after x, so a step changes x's row only by dropping
    # the donor.  While x stays the high vertex, ``order`` (its row,
    # sorted when x took over) thus holds N(x) plus earlier donors, and
    # ``start`` skips the leading ones.  Of the path, only its first hop
    # can be adjacent to x: a shortest path has no chord at x.
    held = -1
    steps: list[RegularizeStep] = []
    while True:
        while (x := top(hi)) is None:
            hi -= 1
        while (y := top(lo)) is None:
            lo += 1
        if hi - lo < 2:
            break
        path = adj.bfs_path(x, y)
        nbx, nby, hop = nbrs[x], nbrs[y], path[1]
        if x != held:
            held, order, start = x, sorted(nbx), 0
        while order[start] not in nbx:
            start += 1
        i = start
        while (donor := order[i]) not in nbx or donor in nby or donor == hop:
            i += 1
        moves: list = []
        _shuffle(adj, moves, donor, path)
        degs[x], degs[y] = hi - 1, lo + 1
        heappush(buckets[hi - 1], x)
        heappush(buckets[lo + 1], y)
        steps.append(RegularizeStep(x, y, hi, lo, tuple(moves)))
    return tuple(steps)


def regularize(g: Graph) -> MoveScript:
    """Slides carrying g to an almost regular graph realizing the
    (k, r) profile of :func:`almost_regular_target`.

    Each step is chosen deterministically: x is the smallest-id vertex
    of highest degree and y the smallest-id vertex of lowest degree,
    then the lexicographically least shortest x -> y path, then the
    least donor, a neighbor of x off the path and not adjacent to y.
    The donor's edge to x is passed along the path to y, so x loses one
    degree, y gains one, and no other degree changes.  The steps stop
    once the degrees differ by at most 1.  The script is verified once
    before it is returned, by a full-check replay; a rejected move
    raises ``MoveError``."""
    script: list = []
    for step in regularize_steps(g):
        script.extend(step.moves)
    return _verify_generated(g, tuple(script))
