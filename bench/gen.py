"""Seeded input generator for the benchmark.

Every function takes a ``random.Random`` and returns plain data (edge
lists, move lists, text).  Nothing here imports ``edgeslide``: the
package receives only the files written from these values.
"""
from __future__ import annotations

import random

from check import State, reject_line


def random_connected(rng: random.Random, n: int, e: int) -> list[tuple[int, int]]:
    """A random recursive tree on shuffled ids plus random extra edges."""
    if not n - 1 <= e <= n * (n - 1) // 2:
        raise ValueError(f"no connected simple graph has n={n}, e={e}")
    perm = list(range(n))
    rng.shuffle(perm)
    edges = set()
    for i in range(1, n):
        u, v = perm[i], perm[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    if 2 * e <= n * (n - 1) // 2:
        while len(edges) < e:
            u, v = rng.sample(range(n), 2)
            edges.add((min(u, v), max(u, v)))
    else:
        rest = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
        rng.shuffle(rest)
        edges.update(rest[: e - len(edges)])
    return sorted(edges)


def draw_relocation(rng: random.Random, n: int, cur: set):
    """One random (uv, xy), uv an edge and xy a non-edge, such that
    cur - uv + xy is connected; None when this draw misses."""
    uv = rng.choice(sorted(cur))
    u, v = rng.sample(range(n), 2)
    xy = (min(u, v), max(u, v))
    if xy in cur or not State(n, cur - {uv} | {xy}).connected():
        return None
    return uv, xy


def relocate(rng: random.Random, n: int, edges, k: int) -> list[tuple[int, int]]:
    """k random edge relocations, each keeping the graph connected."""
    cur = set(edges)
    done = 0
    while done < k:
        drawn = draw_relocation(rng, n, cur)
        if drawn is not None:
            cur = cur - {drawn[0]} | {drawn[1]}
            done += 1
    return sorted(cur)


def hub_graph(rng: random.Random, n: int, extra: int) -> list[tuple[int, int]]:
    """A star at 0 plus `extra` random edges whose first end favours low ids."""
    edges = {(0, v) for v in range(1, n)}
    target = len(edges) + extra
    while len(edges) < target:
        u = min(rng.randrange(n), rng.randrange(n))
        v = rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def pendant_graph(rng: random.Random, n: int, e: int, core: int) -> list[tuple[int, int]]:
    """A random connected core on `core` ids with the other ids hung from it
    as pendants; ids are shuffled."""
    inner = random_connected(rng, core, e - (n - core))
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in inner]
    edges += [(perm[v], perm[rng.randrange(core)]) for v in range(core, n)]
    return sorted((min(u, v), max(u, v)) for u, v in edges)


def permutation(rng: random.Random, n: int) -> list[int]:
    psi = list(range(n))
    rng.shuffle(psi)
    return psi


def mapped(edges, psi) -> list[tuple[int, int]]:
    return sorted((min(psi[u], psi[v]), max(psi[u], psi[v])) for u, v in edges)


def elist_text(n: int, edges, comment: str = "") -> str:
    head = f"# {comment}\n" if comment else ""
    return head + f"p {n} {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in edges)


def mapping_text(psi) -> str:
    return "".join(f"m {i} {t}\n" for i, t in enumerate(psi))


def moves_text(moves, comment: str = "") -> str:
    head = f"# {comment}\n" if comment else ""
    return head + "".join(f"{tag} {' '.join(map(str, args))}\n" for tag, args in moves)


# ---------------------------------------------------------------------------
# Random legal walks and their corrupted copies


def _random_slide(rng: random.Random, st: State):
    while True:
        x = rng.randrange(st.n)
        if not st.nbrs[x]:
            continue
        y = rng.choice(sorted(st.nbrs[x]))
        zs = sorted(st.nbrs[y] - st.nbrs[x] - {x})
        if zs:
            return ("S", (x, y, rng.choice(zs)))


def _growth(rng: random.Random, st: State):
    if rng.random() < 0.5:
        return ("AP", (rng.randrange(st.n), st.n))
    x = rng.randrange(st.n)
    while not st.nbrs[x]:
        x = rng.randrange(st.n)
    return ("SD", (x, rng.choice(sorted(st.nbrs[x])), st.n))


def _shrink(rng: random.Random, st: State):
    options = []
    for y, s in enumerate(st.nbrs):
        if len(s) == 1:
            options.append(("RL", (y, next(iter(s)))))
        elif len(s) == 2:
            x, z = sorted(s)
            if z not in st.nbrs[x]:
                options.append(("SM", (y, x, z)))
    return rng.choice(options)


def random_walk(rng: random.Random, n: int, edges, length: int, resize: float = 0.04):
    """A legal script of about `length` moves, mostly slides.  With
    probability `resize` a step is a growth move (AP or SD) followed at
    once by a shrink move (RL or SM) on a random eligible vertex, so the
    order ends where it started and renumbering runs.

    Returns (moves, final edge list)."""
    st = State(n, edges)
    moves = []
    while len(moves) < length:
        steps = [_random_slide(rng, st)] if rng.random() >= resize else [_growth(rng, st)]
        for tag, args in steps:
            st.apply(tag, args)
            moves.append((tag, args))
        if steps[0][0] != "S":
            tag, args = _shrink(rng, st)
            st.apply(tag, args)
            moves.append((tag, args))
    return moves, st.edges()


def corrupt(rng: random.Random, n: int, edges, moves, comment: str):
    """A copy of the walk with one move made illegal where it stands.

    Picks a move in the middle tenth.  A leaf removal gets a wrong
    anchor; any other move is replaced by a slide whose first edge is
    missing.  Returns the script text and the 1-based line that replay
    must reject."""
    i = rng.randrange(len(moves) * 9 // 20, len(moves) * 11 // 20)
    st = State(n, edges)
    for tag, args in moves[:i]:
        st.apply(tag, args)
    tag, args = moves[i]
    if tag == "RL":
        y, x = args
        bad = ("RL", (y, rng.choice([v for v in range(st.n) if v not in (x, y)])))
    else:
        while True:
            x, y, z = rng.sample(range(st.n), 3)
            if y not in st.nbrs[x]:
                bad = ("S", (x, y, z))
                break
    text = moves_text(moves[:i] + [bad] + moves[i + 1 :], comment)
    line = i + 1 + (1 if comment else 0)
    if reject_line(elist_text(n, edges), text) != line:
        raise RuntimeError(f"corrupted copy of {comment!r} is not rejected at line {line}")
    return text, line
