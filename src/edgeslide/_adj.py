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
  each tree path is the least shortest one.
- ``_reach``, a list that grows while it is walked, under
  ``components`` (each sorted) and ``connected``.  ``connected`` does
  not run on ``layers``: at n = 6 a check over the generator took 1.5
  to 2 times as long as this loop, and a tiny transform calls
  ``connected`` several times.
"""
from __future__ import annotations


class Adj:
    __slots__ = ("n", "nbrs")

    def __init__(self, n: int, nbrs: list[set[int]]):
        self.n = n
        self.nbrs = nbrs

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
        # {x,y} -> {x,z}; moves.apply_move_adj checks the preconditions
        nx = self.nbrs[x]
        nx.discard(y)
        self.nbrs[y].discard(x)
        nx.add(z)
        self.nbrs[z].add(x)

    def add_vertex(self) -> int:
        self.nbrs.append(set())
        self.n += 1
        return self.n - 1

    def remove_vertex(self, y: int) -> None:
        # ids above y shift down by one
        old = self.nbrs
        for w in old[y]:
            old[w].discard(y)
        new = []
        for v in range(self.n):
            if v == y:
                continue
            new.append({w if w < y else w - 1 for w in old[v]})
        self.nbrs = new
        self.n -= 1

    def sorted_edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            for v in self.nbrs[u]:
                if u < v:
                    out.append((u, v))
        out.sort()
        return out

    def to_graph(self):
        from .graph import Graph

        return Graph(self.n, self.sorted_edges())

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
        the layer holding a, and the walk from a takes the smallest-id
        neighbor one hop closer to b at each step.  A caller that needs a
        path avoiding an edge removes it first and adds it back after."""
        if a == b:
            return [a]
        nbrs = self.nbrs
        if b in nbrs[a]:
            return [a, b]
        dist = [-1] * self.n
        for _ in self.layers(b, dist):
            if dist[a] >= 0:
                break
        else:
            return None
        path = [a]
        u = a
        for d in range(dist[a] - 1, -1, -1):
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
