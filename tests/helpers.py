"""Shared test utilities: deterministic random graphs and slow oracles."""
from __future__ import annotations

import random
from itertools import combinations

from edgeslide import Graph


def random_connected_graph(n: int, e: int, rng: random.Random) -> Graph:
    """Random connected simple graph: random recursive tree plus extras."""
    assert n - 1 <= e <= n * (n - 1) // 2
    perm = list(range(n))
    rng.shuffle(perm)
    edges = set()
    for i in range(1, n):
        j = rng.randrange(i)
        u, v = perm[i], perm[j]
        edges.add((min(u, v), max(u, v)))
    rest = [p for p in combinations(range(n), 2) if p not in edges]
    rng.shuffle(rest)
    edges.update(rest[: e - (n - 1)])
    return Graph(n, edges)


def hub_graph(n: int, extra: int, rng: random.Random) -> Graph:
    """A star at vertex 0 plus `extra` random edges whose first end
    favours low ids: a spanning tree with its load on one hub, the shape
    of the regularize benchmark's inputs."""
    assert n - 1 + extra <= n * (n - 1) // 2
    edges = {(0, v) for v in range(1, n)}
    target = len(edges) + extra
    while len(edges) < target:
        u = min(rng.randrange(n), rng.randrange(n))
        v = rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, edges)


def removal_walk(n: int, e: int, steps: int, rng: random.Random):
    """A seeded legal script of all five move kinds from a random
    connected graph on n vertices and e edges: half slides, and the rest
    split between growth (AP, SD) and removal (RL, SM).  Each removal
    takes one of the three smallest eligible ids, so most removals
    renumber many vertices.  The state is kept here on plain neighbour
    sets, renumbered on each removal, independently of ``Adj``.

    Returns (start graph, moves, final graph)."""
    from edgeslide import AddPendant, RemoveLeaf, Slide, Smooth, Subdivide

    start = random_connected_graph(n, e, rng)
    nb = [set(start.neighbors(v)) for v in range(n)]
    moves = []

    def drop(y):
        for w in nb[y]:
            nb[w].discard(y)
        del nb[y]
        nb[:] = [{w - (w > y) for w in s} for s in nb]

    while len(moves) < steps:
        r = rng.random()
        n = len(nb)
        if r < 0.5:
            x = rng.randrange(n)
            y = rng.choice(sorted(nb[x]))
            zs = sorted(nb[y] - nb[x] - {x})
            if not zs:
                continue
            z = rng.choice(zs)
            nb[x].discard(y)
            nb[y].discard(x)
            nb[x].add(z)
            nb[z].add(x)
            moves.append(Slide(x, y, z))
        elif r < 0.625:
            x = rng.randrange(n)
            nb.append({x})
            nb[x].add(n)
            moves.append(AddPendant(x, n))
        elif r < 0.75:
            x = rng.randrange(n)
            z = rng.choice(sorted(nb[x]))
            nb[x].discard(z)
            nb[z].discard(x)
            nb.append({x, z})
            nb[x].add(n)
            nb[z].add(n)
            moves.append(Subdivide(x, z, n))
        elif r < 0.875:
            leaves = [v for v in range(n) if len(nb[v]) == 1][:3]
            if not leaves:
                continue
            y = rng.choice(leaves)
            (x,) = nb[y]
            drop(y)
            moves.append(RemoveLeaf(y, x))
        else:
            mids = [v for v in range(n) if len(nb[v]) == 2 and not nb[min(nb[v])] & {max(nb[v])}][:3]
            if not mids:
                continue
            y = rng.choice(mids)
            x, z = sorted(nb[y])
            nb[x].add(z)
            nb[z].add(x)
            drop(y)
            moves.append(Smooth(y, x, z))
    final = Graph(len(nb), [(u, v) for u in range(len(nb)) for v in nb[u] if u < v])
    return start, moves, final


def nx_graph(g: Graph):
    """The same graph as a networkx.Graph, for independent cross-checks."""
    import networkx as nx

    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges)
    return out


def bfs_tree_path(g: Graph, a: int, b: int):
    """The a -> b path in the BFS tree from a that takes neighbors in
    ascending id order, or None when b is unreachable: the reference for
    ``Adj.bfs_path``."""
    parent = {a: None}
    queue = [a]
    for u in queue:
        for v in sorted(g.neighbors(u)):
            if v not in parent:
                parent[v] = u
                queue.append(v)
    if b not in parent:
        return None
    path = [b]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path[::-1]


def all_simple_paths(g: Graph, a: int, b: int, forbidden=None):
    """Exhaustive DFS over simple paths from a to b (slow oracle)."""
    ban = None
    if forbidden is not None:
        ban = (min(forbidden), max(forbidden))
    out = []

    def rec(path, seen):
        u = path[-1]
        if u == b:
            out.append(tuple(path))
            return
        for v in g.neighbors(u):
            if v in seen:
                continue
            if ban is not None and (min(u, v), max(u, v)) == ban:
                continue
            seen.add(v)
            path.append(v)
            rec(path, seen)
            path.pop()
            seen.remove(v)

    rec([a], {a})
    return out


def swap_neighborhoods(g: Graph, a: int, b: int) -> Graph:
    """Direct definition of the vertex interchange, no slides involved."""
    edges = set()
    for u, v in g.edges:
        uu = b if u == a else a if u == b else u
        vv = b if v == a else a if v == b else v
        edges.add((min(uu, vv), max(uu, vv)))
    return Graph(g.n, edges)


def legal_relocations(g: Graph):
    """All (uv, xy) with uv an edge, xy non-adjacent, result connected."""
    from edgeslide import is_connected

    nonadj = [
        (a, b)
        for a in range(g.n)
        for b in range(a + 1, g.n)
        if not g.adjacent(a, b)
    ]
    for uv in g.edges:
        for xy in nonadj:
            moved = Graph(g.n, set(g.edges) - {uv} | {xy})
            if is_connected(moved):
                yield uv, xy, moved


def transform_sweep_chunk(args):
    """Verify the plans of one transform engine for a slice of the
    ordered-pair space of one (n, e) universe.  `args` is
    (engine, n, e, lo, hi).  Returns (plans verified, slide moves
    full-checked, slides of each pair's identity-bijection plan in pair
    order); seeds depend only on (n, e, pair index), so the aggregate
    result is independent of scheduling.
    """
    from edgeslide import (
        enumerate_connected,
        identity_bijection,
        is_isomorphic_under,
        replay,
    )

    engine, n, e, lo, hi = args
    graphs = enumerate_connected(n, e)
    count = len(graphs)
    verified = 0
    moves_checked = 0
    identity_slides = []
    for idx in range(lo, hi):
        i, j = divmod(idx, count)
        ga, gb = graphs[i], graphs[j]
        rng = random.Random((n * 131 + e) * 1_000_003 + idx)
        psis = [identity_bijection(n)]
        psis += [tuple(rng.sample(range(n), n)) for _ in range(3)]
        for psi in psis:
            plan = engine(ga, gb, psi)
            final = replay(ga, plan.script, check="full")
            assert is_isomorphic_under(final, gb, psi)
            verified += 1
            moves_checked += len(plan.script)
            if psi is psis[0]:
                identity_slides.append(len(plan.script))
    return verified, moves_checked, identity_slides


def replay_checking_every_move(g: Graph, script):
    """Full-check replay that checks the whole state after every move:
    connectivity, simplicity and Euler characteristic.

    The slow oracle for the verifier's mutation tests: a rejected script
    raises the same ``MoveError`` as ``replay(..., check="full")``, at
    the same index.
    """
    from edgeslide import GraphError, MoveError
    from edgeslide._adj import Adj
    from edgeslide.moves import _check_state, apply_move_adj

    adj = Adj.from_graph(g)
    chi0 = g.n - g.e
    if not adj.connected():
        raise GraphError("full replay requires a connected start graph")
    for i, m in enumerate(script):
        try:
            apply_move_adj(adj, m)
            _check_state(adj, chi0)
        except MoveError as err:
            raise MoveError(str(err), index=i) from None
    return adj.to_graph()


def count_connectivity_checks(monkeypatch) -> list:
    """Wrap ``Adj.connected`` for one test; the returned list gains the
    vertex count of every graph it is called on."""
    from edgeslide._adj import Adj

    calls = []
    original = Adj.connected
    monkeypatch.setattr(Adj, "connected", lambda self: calls.append(self.n) or original(self))
    return calls


def count_adj_builds(monkeypatch) -> list:
    """Wrap ``Adj.from_graph`` for one test; the returned list gains the
    vertex count of every graph it builds an ``Adj`` from."""
    from edgeslide._adj import Adj

    calls = []
    original = Adj.from_graph
    monkeypatch.setattr(Adj, "from_graph", classmethod(lambda cls, g: calls.append(g.n) or original(g)))
    return calls


def skip_first_relocation(monkeypatch) -> None:
    """For one test, make the first top-level edge relocation of the
    engines do nothing, so the relocation engine's plan misses its goal
    by one edge."""
    from edgeslide import prescribe

    original = prescribe._relocate
    skipped = []

    def relocate(adj, out, uv, xy):
        if skipped:
            original(adj, out, uv, xy)
        skipped.append(uv)

    monkeypatch.setattr(prescribe, "_relocate", relocate)


def cheapest_pair_reference(adj, partners, u, v):
    """The whole-graph pricing rule of ``transform``, for differential
    tests of ``prescribe._cheapest_pair``: two full BFS distance arrays in
    G - uv, an unreachable vertex counted as n, only pairs across the cut
    when uv is a bridge, and the least (cost, x, y) over the sorted
    missing pairs."""
    n = adj.n
    missing = sorted((x, y) for x in range(n) for y in partners[x] if x < y)
    adj.remove(u, v)
    du = adj.distances(u)
    dv = adj.distances(v)
    adj.add(u, v)
    bridge = du[v] < 0
    if bridge:
        du = [d if d >= 0 else n for d in du]
        dv = [d if d >= 0 else n for d in dv]
    _, x, y = min(
        (min(du[x] + dv[y], du[y] + dv[x]), x, y)
        for x, y in missing
        if not bridge or (du[x] == n) != (du[y] == n)
    )
    return x, y
