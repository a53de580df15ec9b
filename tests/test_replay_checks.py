"""Mutation tests for the full-check replay.

Each test corrupts a legal script, or the adjacency structure the replay
writes into, and asks ``replay(..., check="full")`` and the oracle in
``helpers.replay_checking_every_move`` (a whole-state check after every
move) for their verdicts.  The two must agree: the same final graph, or
a ``MoveError`` with the same index and message.
"""
import random

import pytest

from edgeslide import (
    AddPendant,
    MoveError,
    RemoveLeaf,
    Slide,
    Smooth,
    Subdivide,
    apply_move,
    identity_bijection,
    replay,
    transform,
)
from edgeslide._adj import Adj
from edgeslide.moves import apply_move_adj
from helpers import count_connectivity_checks, random_connected_graph, replay_checking_every_move

SEEDS = range(24)


def _legal_moves(g):
    """Every legal move on g, grouped by kind.  Growth stops at 12
    vertices and removal at 4, so walks keep all five kinds available."""
    n = g.n
    nb = [set(g.neighbors(v)) for v in range(n)]
    slides = [Slide(x, y, z) for x in range(n) for y in sorted(nb[x]) for z in sorted(nb[y]) if z != x and z not in nb[x]]
    kinds = [slides]
    if n < 12:
        kinds.append([AddPendant(x, n) for x in range(n)])
        kinds.append([Subdivide(x, z, n) for x, z in g.edges])
    if n > 4:
        kinds.append([RemoveLeaf(y, min(nb[y])) for y in range(n) if len(nb[y]) == 1])
        kinds.append(
            [Smooth(y, *sorted(nb[y])) for y in range(n) if len(nb[y]) == 2 and not g.adjacent(*sorted(nb[y]))]
        )
    return [k for k in kinds if k]


def _walk(seed: int, steps: int = 40):
    """A seeded legal script of all five kinds from a small connected graph."""
    rng = random.Random(seed)
    n = rng.randint(5, 9)
    g = random_connected_graph(n, rng.randint(n - 1, min(2 * n, n * (n - 1) // 2)), rng)
    start, script = g, []
    for _ in range(steps):
        m = rng.choice(rng.choice(_legal_moves(g)))
        g = apply_move(g, m)
        script.append(m)
    return start, script


def _verdict(verify, g, script):
    try:
        return ("accepted", verify(g, script))
    except MoveError as err:
        return ("rejected", err.index, str(err))


def _verdicts(g, script):
    got = _verdict(lambda g, s: replay(g, s, check="full"), g, script)
    want = _verdict(replay_checking_every_move, g, script)
    assert got == want
    return got


def _illegal_move(g, rng):
    while True:
        ids = [rng.randrange(g.n + 1) for _ in range(3)]
        cls = rng.choice((Slide, AddPendant, Subdivide, RemoveLeaf, Smooth))
        m = cls(*ids[: 2 if cls in (AddPendant, RemoveLeaf) else 3])
        try:
            apply_move_adj(Adj.from_graph(g), m)
        except MoveError:
            return m


def test_walks_use_every_kind_and_verify():
    kinds = set()
    for seed in SEEDS:
        g, script = _walk(seed)
        assert _verdicts(g, script)[0] == "accepted"
        kinds.update(type(m) for m in script)
    assert kinds == {Slide, AddPendant, Subdivide, RemoveLeaf, Smooth}


def test_illegal_move_rejected_at_its_index():
    rng = random.Random(12)
    for seed in SEEDS:
        g, script = _walk(seed)
        k = rng.randrange(len(script) + 1)
        bad = _illegal_move(replay(g, script[:k]), rng)
        assert _verdicts(g, script[:k] + [bad] + script[k:])[:2] == ("rejected", k)


def test_swapped_adjacent_moves_get_the_same_verdict():
    rejected = 0
    for seed in SEEDS:
        g, script = _walk(seed, steps=16)
        for k in range(len(script) - 1):
            swapped = script[:k] + [script[k + 1], script[k]] + script[k + 2 :]
            rejected += _verdicts(g, swapped)[0] == "rejected"
    assert rejected > 100


def test_dropped_move_gets_the_same_verdict():
    rejected = 0
    for seed in SEEDS:
        g, script = _walk(seed, steps=16)
        for k in range(len(script)):
            rejected += _verdicts(g, script[:k] + script[k + 1 :])[0] == "rejected"
    assert rejected > 100


def _slide_forgetting_reverse_entry(self, x, y, z):
    # {x,y} -> {x,z}, but z never learns about x
    self.nbrs[x].discard(y)
    self.nbrs[y].discard(x)
    self.nbrs[x].add(z)


def _add_one_way(self, u, v):
    # v never learns about u
    self.nbrs[u].add(v)


def _remove_vertex_keeping_one_entry(self, y):
    # the smallest neighbour keeps y, which renumbering maps onto y - 1
    old = self.nbrs
    for w in sorted(old[y])[1:]:
        old[w].discard(y)
    self.nbrs = [{w if w < y else w - 1 for w in old[v]} for v in range(self.n) if v != y]
    self.n -= 1


@pytest.mark.parametrize(
    "method, corrupt, kinds",
    [
        ("slide", _slide_forgetting_reverse_entry, (Slide,)),
        ("add", _add_one_way, (AddPendant, Subdivide, Smooth)),
        ("remove_vertex", _remove_vertex_keeping_one_entry, (RemoveLeaf, Smooth)),
    ],
)
def test_corrupted_adjacency_rejected_at_the_same_index(monkeypatch, method, corrupt, kinds):
    walks = [_walk(seed) for seed in SEEDS]
    monkeypatch.setattr(Adj, method, corrupt)
    rejected = 0
    for g, script in walks:
        verdict = _verdicts(g, script)
        if any(isinstance(m, kinds) for m in script):
            assert verdict[0] == "rejected"
            assert isinstance(script[verdict[1]], kinds)
            rejected += 1
    assert rejected > len(walks) // 2


def test_full_replay_runs_two_connectivity_checks(monkeypatch):
    # one on the start graph and one after the last move, however long
    # the script: slides, pendants and subdivisions are checked locally
    rng = random.Random(5)
    g = random_connected_graph(60, 120, rng)
    h = random_connected_graph(60, 120, rng)
    slides = list(transform(g, h, identity_bijection(60)).script)
    script = list(slides)
    grown = replay(g, slides)
    for _ in range(40):
        x, z = rng.choice(grown.edges)
        m = rng.choice((AddPendant(x, grown.n), Subdivide(x, z, grown.n)))
        grown = apply_move(grown, m)
        script.append(m)
    assert len(slides) > 100
    calls = count_connectivity_checks(monkeypatch)
    for part in (slides, script):
        calls.clear()
        replay(g, part, check="full")
        assert len(calls) == 2
