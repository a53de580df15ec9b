"""Mutable neighbor-set scratchpad used by the algorithm internals.

Not part of the public API.  ``bfs_path`` and ``bfs_tree`` visit
neighbors in ascending id order, because the path and the tree they
return become slides, so that order fixes the bytes of every script.
The other traversals visit in set order: ``layers`` (and ``distances``,
built on it), ``components`` and ``connected`` hand back only hop
counts, whole layers, sorted components or a yes/no, so the order in
which they reach vertices inside a layer never reaches an output.
"""
from __future__ import annotations

from collections import deque


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
        # {x,y} -> {x,z}, preconditions already checked by the caller
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

    def bfs_path(self, a: int, b: int):
        """Shortest path a -> b, or None.  A caller that needs a path
        avoiding an edge removes it first and adds it back after."""
        if a == b:
            return [a]
        parent = [-2] * self.n
        parent[a] = -1
        queue = deque([a])
        while queue:
            u = queue.popleft()
            for v in sorted(self.nbrs[u]):
                if parent[v] != -2:
                    continue
                parent[v] = u
                if v == b:
                    path = [b]
                    while path[-1] != a:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                queue.append(v)
        return None

    def bfs_tree(self, root: int) -> "Adj | None":
        """BFS spanning tree from root, or None when the graph is not
        connected."""
        tree: list[set[int]] = [set() for _ in range(self.n)]
        seen = [False] * self.n
        seen[root] = True
        count = 1
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in sorted(self.nbrs[u]):
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    tree[u].add(v)
                    tree[v].add(u)
                    queue.append(v)
        return Adj(self.n, tree) if count == self.n else None

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

    def components(self, skip: int | None = None) -> list[list[int]]:
        """Connected components (excluding `skip`), ordered by smallest id."""
        seen = [False] * self.n
        if skip is not None:
            seen[skip] = True
        out = []
        for seed in range(self.n):
            if seen[seed]:
                continue
            seen[seed] = True
            comp = [seed]
            stack = [seed]
            while stack:
                u = stack.pop()
                for v in self.nbrs[u]:
                    if not seen[v]:
                        seen[v] = True
                        comp.append(v)
                        stack.append(v)
            comp.sort()
            out.append(comp)
        return out

    def connected(self) -> bool:
        if self.n <= 1:
            return True
        seen = [False] * self.n
        seen[0] = True
        count = 1
        stack = [0]
        while stack:
            u = stack.pop()
            for v in self.nbrs[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    stack.append(v)
        return count == self.n
