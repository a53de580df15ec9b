"""Mutable neighbor-set scratchpad used by the algorithm internals.

Not part of the public API.  Three loops walk neighbors:

- ``_parents``, a BFS in ascending id order, under ``bfs_tree``.  Its
  trees become slides, so this order fixes the bytes of those scripts.
- ``layers``, a lazy BFS in set order, under ``distances``, the
  transform's pricing, a relocation's relabeling and ``bfs_path``.  None
  of them depends on set order: the first three read whole layers and
  hop counts, and ``bfs_path`` reads hop counts to b, then takes the
  smallest-id neighbor one hop closer to b at each step.  That is the
  lexicographically least shortest path, which is the path the
  ascending-id BFS tree from a gives: within one layer, that BFS
  dequeues vertices in the lexicographic order of their tree paths, so
  each tree path is the least shortest one.  ``bfs_path`` stops one
  layer short of a, at the first layer that meets a's neighbors, so
  it never expands the layer before a, which is the widest it would
  build, and never scans a's own row.
- ``_reach``, a list that grows while it is walked, under
  ``components`` (each sorted) and ``connected``.  ``connected`` does
  not run on ``layers``: at n = 6 a check over the generator took 1.5
  to 2 times as long as this loop, and a tiny transform calls
  ``connected`` several times.

Rows are indexed by slot, not by vertex id.  Until a vertex is removed,
slot = id and ``slot`` is None, so the loops above and the engines read
``nbrs[v]`` directly.  The first removal makes ``slot`` the list of the
live vertices' slots in id order, and each removal pops its vertex from
that list, so the ids above it shift down by one, and touches only its
neighbours' rows; its own row becomes None.  The move kernels in
``moves`` translate a script's ids into slots, and
:meth:`Adj.compact` renumbers the rows to the ids when a removed state
must be read in id order.
"""
from __future__ import annotations


class Adj:
    __slots__ = ("n", "nbrs", "slot")

    def __init__(self, n: int, nbrs: list[set[int]]):
        self.n = n
        self.nbrs = nbrs
        self.slot: list[int] | None = None

    @classmethod
    def from_graph(cls, g) -> "Adj":
        return cls(g.n, [set(s) for s in g.neighbor_sets()])

    def has(self, u: int, v: int) -> bool:
        return v in self.nbrs[u]

    def degree(self, u: int) -> int:
        return len(self.nbrs[u])

    def degrees(self) -> list[int]:
        return [len(s) for s in self.nbrs]

    def add(self, u: int, v: int) -> None:
        self.nbrs[u].add(v)
        self.nbrs[v].add(u)

    def remove(self, u: int, v: int) -> None:
        self.nbrs[u].discard(v)
        self.nbrs[v].discard(u)

    def slide(self, x: int, y: int, z: int) -> None:
        # {x,y} -> {x,z}; the slide kernel in moves checks the preconditions
        nx = self.nbrs[x]
        nx.discard(y)
        self.nbrs[y].discard(x)
        nx.add(z)
        self.nbrs[z].add(x)

    def add_vertex(self) -> int:
        """Add an isolated vertex with id n; return its slot."""
        s = len(self.nbrs)
        self.nbrs.append(set())
        if self.slot is not None:
            self.slot.append(s)
        self.n += 1
        return s

    def remove_vertex(self, y: int) -> None:
        """Remove the vertex with id y; the ids above y shift down by
        one.  Only the rows of y's neighbours change, and y's row is
        dropped, so the cost is y's degree plus the shift of ``slot``."""
        if self.slot is None:
            self.slot = list(range(self.n))
        nbrs = self.nbrs
        s = self.slot.pop(y)
        for w in nbrs[s]:
            nbrs[w].discard(s)
        nbrs[s] = None
        self.n -= 1

    def compact(self) -> None:
        """Renumber the rows to the current ids, so slot = id again.
        One O(n + e) pass, needed only after a removal.  It reads only
        the live rows; an entry for a removed vertex becomes -1."""
        slot = self.slot
        if slot is None:
            return
        nbrs = self.nbrs
        ids = [-1] * len(nbrs)
        for v, s in enumerate(slot):
            ids[s] = v
        self.nbrs = [{ids[w] for w in nbrs[s]} for s in slot]
        self.slot = None

    def sorted_edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            for v in self.nbrs[u]:
                if u < v:
                    out.append((u, v))
        out.sort()
        return out

    def to_graph(self):
        """The state as a Graph, without validating it again: each row
        holds only live ids, and each pair reads the same from both ends.
        Call :meth:`compact` first after a removal."""
        from .graph import Graph

        return Graph._valid(self.n, tuple(self.sorted_edges()), tuple(map(frozenset, self.nbrs)))

    def _parents(self, root: int) -> list[int]:
        """BFS parent of each vertex, neighbors taken in ascending id
        order: -1 at root, -2 where not reached."""
        nbrs = self.nbrs
        parent = [-2] * self.n
        parent[root] = -1
        queue = [root]
        for u in queue:
            for v in sorted(nbrs[u]):
                if parent[v] == -2:
                    parent[v] = u
                    queue.append(v)
        return parent

    def bfs_path(self, a: int, b: int):
        """The lexicographically least shortest path a -> b, or None.
        An adjacent pair needs no BFS.  Otherwise a BFS from b stops at
        the first layer that meets a's neighbors: when a lies D hops
        from b, its neighbors lie at least D - 1 hops from b, so that
        layer is D - 1 and the layer holding a is never built.  The path
        takes the least neighbor of a in that layer, then the smallest-id
        neighbor one hop closer to b at each step.  A caller that needs a
        path avoiding an edge removes it first and adds it back after."""
        if a == b:
            return [a]
        nbrs = self.nbrs
        na = nbrs[a]
        if b in na:
            return [a, b]
        dist = [-1] * self.n
        for layer in self.layers(b, dist):
            if not na.isdisjoint(layer):
                break
        else:
            return None
        u = min(na.intersection(layer))
        path = [a, u]
        for d in range(dist[u] - 1, -1, -1):
            u = min([v for v in nbrs[u] if dist[v] == d])
            path.append(u)
        return path

    def bfs_tree(self, root: int) -> "Adj | None":
        """BFS spanning tree from root, or None when the graph is not
        connected."""
        parent = self._parents(root)
        if -2 in parent:
            return None
        tree: list[set[int]] = [set() for _ in range(self.n)]
        for v, u in enumerate(parent):
            if u >= 0:
                tree[u].add(v)
                tree[v].add(u)
        return Adj(self.n, tree)

    def layers(self, source: int, dist: list[int]):
        """Yield the BFS layers around source as lists, nearest first,
        writing each reached vertex's hop count into dist, where -1 marks
        a vertex not yet seen.  Each layer is built only when asked for,
        so a caller that stops early pays only for the layers it took.
        A caller that needs layers avoiding an edge removes it first and
        adds it back after."""
        nbrs = self.nbrs
        dist[source] = 0
        layer = [source]
        step = 0
        while layer:
            yield layer
            step += 1
            nxt = []
            for u in layer:
                for v in nbrs[u]:
                    if dist[v] < 0:
                        dist[v] = step
                        nxt.append(v)
            layer = nxt

    def distances(self, source: int) -> list[int]:
        """Hop count from source, -1 where unreachable."""
        dist = [-1] * self.n
        for _ in self.layers(source, dist):
            pass
        return dist

    def _reach(self, seed: int, seen: list[bool]) -> list[int]:
        """Vertices joined to seed that seen does not mark yet, seed
        first, marking them: a list that grows while it is walked."""
        nbrs = self.nbrs
        seen[seed] = True
        out = [seed]
        for u in out:
            for v in nbrs[u]:
                if not seen[v]:
                    seen[v] = True
                    out.append(v)
        return out

    def components(self, skip: int | None = None) -> list[list[int]]:
        """Connected components (excluding `skip`), ordered by smallest id."""
        seen = [v == skip for v in range(self.n)]
        return [sorted(self._reach(seed, seen)) for seed in range(self.n) if not seen[seed]]

    def connected(self) -> bool:
        return self.n <= 1 or len(self._reach(0, [False] * self.n)) == self.n
