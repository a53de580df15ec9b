"""Differential tests for vertex removals.

``replay`` keeps a removed vertex's neighbours in place and translates
the script's ids at each move; the reference here is the format's own
definition, written on edge sets: each removal renumbers every id above
the removed one down by one, at once.  Seeded removal-heavy walks and
corrupted copies of them must read the same under both, fast and full.
"""
import random

import pytest

from edgeslide import AddPendant, Graph, MoveError, RemoveLeaf, Slide, Smooth, Subdivide, replay
from helpers import removal_walk


def _naive_replay(g, script):
    """("accepted", final graph), or ("rejected", index of the first
    move whose precondition fails)."""
    n, edges = g.n, set(g.edges)

    def has(u, v):
        return (min(u, v), max(u, v)) in edges

    def nbrs(y):
        return {u + v - y for u, v in edges if y in (u, v)}

    def drop(y):
        return {(u - (u > y), v - (v > y)) for u, v in edges if y not in (u, v)}

    for i, m in enumerate(script):
        ids = [getattr(m, f) for f in ("x", "y", "z") if hasattr(m, f)]
        new = m.y if isinstance(m, (AddPendant, Subdivide)) else None
        if not all(0 <= v < n for v in ids if v is not new) or (new is not None and new != n):
            return ("rejected", i)
        if isinstance(m, Slide):
            if len(set(ids)) != 3 or not has(m.x, m.y) or not has(m.y, m.z) or has(m.x, m.z):
                return ("rejected", i)
            edges -= {(min(m.x, m.y), max(m.x, m.y))}
            edges.add((min(m.x, m.z), max(m.x, m.z)))
        elif isinstance(m, AddPendant):
            edges.add((m.x, n))
            n += 1
        elif isinstance(m, Subdivide):
            if m.x == m.z or not has(m.x, m.z):
                return ("rejected", i)
            edges -= {(min(m.x, m.z), max(m.x, m.z))}
            edges |= {(m.x, n), (m.z, n)}
            n += 1
        elif isinstance(m, RemoveLeaf):
            if nbrs(m.y) != {m.x}:
                return ("rejected", i)
            edges = drop(m.y)
            n -= 1
        elif isinstance(m, Smooth):
            if m.x == m.z or nbrs(m.y) != {m.x, m.z} or has(m.x, m.z):
                return ("rejected", i)
            edges.add((min(m.x, m.z), max(m.x, m.z)))
            edges = drop(m.y)
            n -= 1
    return ("accepted", Graph(n, edges))


def _verdicts(g, script):
    out = []
    for check in ("fast", "full"):
        try:
            out.append(("accepted", replay(g, script, check=check)))
        except MoveError as err:
            out.append(("rejected", err.index))
    return out


def _nudged(m, rng):
    """The same kind of move with one id moved by one: often illegal,
    sometimes legal with a different effect on the moves after it."""
    fields = [f for f in ("x", "y", "z") if hasattr(m, f)]
    args = {f: getattr(m, f) for f in fields}
    f = rng.choice(fields)
    args[f] = max(0, args[f] + rng.choice((-1, 1)))
    return type(m)(**args)


@pytest.mark.parametrize("seed", range(8))
def test_removal_walks_replay_like_naive_renumbering(seed):
    rng = random.Random(seed)
    n = rng.randint(20, 200)
    g, moves, final = removal_walk(n, rng.randint(n, 2 * n), 2 * n, rng)
    assert sum(isinstance(m, (RemoveLeaf, Smooth)) for m in moves) > n // 3
    assert _naive_replay(g, moves) == ("accepted", final)
    assert _verdicts(g, moves) == [("accepted", final)] * 2
    rejected = 0
    for _ in range(12):
        k = rng.randrange(len(moves))
        bad = moves[:k] + [_nudged(moves[k], rng)] + moves[k + 1 :]
        want = _naive_replay(g, bad)
        assert _verdicts(g, bad) == [want] * 2
        rejected += want[0] == "rejected"
    assert rejected >= 6
