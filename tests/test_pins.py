"""Byte pins on the engines' output.

C9 compares two runs of the same code; these digests compare the code
with the scripts it emitted before.  They hash ``serialize_script`` of
``transform``, of ``transform_peel`` (with ``repr`` of its level trace),
of ``move_edge``, of ``regularize`` (on small random graphs and on hub
graphs at n = 200 and 300) and of ``transform_euler`` (with ``repr`` of
its mapping) on seeded inputs.  A change that alters scripts on
purpose updates the constants and says so in ``CHANGES.md``.

``PINNED_WALKS`` pins the command line on removal-heavy walks instead:
what ``replay --check fast -o`` writes, what ``verify --expect`` prints,
and the error line for a corrupted copy.  Those bytes depend on the
renumbering semantics of ``RL`` and ``SM``, not on any engine.
"""
import hashlib
import random

from edgeslide import (
    RemoveLeaf,
    Smooth,
    move_edge,
    regularize,
    serialize_graph,
    serialize_script,
    transform,
    transform_euler,
    transform_peel,
)
from edgeslide.cli import run
from helpers import hub_graph, legal_relocations, random_connected_graph, removal_walk

PINNED = {
    "transform": "8032071f0824b31c789e88829719c8b09310ddb99b4349518e1c4d4c4f69c4b2",
    "transform_peel": "123f7433d7332269281cfe2892b872a30fdb8dd44ebfc6d4ad4ea1d93e2ea352",
    "move_edge": "aaa71d270e6bd01b339ea394fce269de0f0ddc41adec5232885055a3716d00e2",
}

PINNED_RESIZE = {
    "regularize": "218007226ac1e5042bbf31c51a695c3b1e199cde0ca5b42359268ed1b7a1c84e",
    "transform_euler": "66490aec08b41e62a9ff42e823e0e60b556ccf845020835cef5da405d472a8db",
}

# regularize on hub graphs (a star plus n extra edges): hundreds of steps
# each, where the PINNED_RESIZE graphs (n <= 40) take a few dozen
PINNED_HUB = "d172808118eb6509cb81005518f1e70a7959495ad21084209a3b5204ad987acf"

PINNED_WALKS = {
    "replay": "a8b0843e0befdad7ac8d499970c08da9b596a2892da689a34ee92b7d38a37b77",
    "verify": "f4e671ef2ffa8010d3e4215751bb8b959073c310a7443ba5816c55dc899ffb55",
    "reject": "c839de1d17b78f28884b10bdafc5084de11e785ae60c2c839723b2fa0b7bd24b",
}


def _pairs():
    rng = random.Random(2024)
    out = []
    for n in rng.sample(range(3, 31), 12):
        e = rng.randint(n - 1, min(2 * n, n * (n - 1) // 2))
        g = random_connected_graph(n, e, rng)
        h = random_connected_graph(n, e, rng)
        out.append((g, h, tuple(rng.sample(range(n), n))))
    return out


def _relocations():
    rng = random.Random(2024)
    out = []
    while len(out) < 20:
        n = rng.randint(4, 12)
        g = random_connected_graph(n, rng.randint(n - 1, min(2 * n, n * (n - 1) // 2)), rng)
        legal = [(uv, xy) for uv, xy, _ in legal_relocations(g)]
        if legal:
            out.append((g, *rng.choice(legal)))
    return out


def _euler_pairs():
    rng = random.Random(2025)
    out = []
    for _ in range(8):
        small, big = sorted(rng.sample(range(3, 31), 2))
        chi = rng.randint(max(small * (3 - small) // 2, -small), 1)
        g = random_connected_graph(small, small - chi, rng)
        h = random_connected_graph(big, big - chi, rng)
        out += [(g, h), (h, g)]
    return out


def _digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def test_engine_scripts_match_pinned_digests():
    pairs = _pairs()
    peel = [transform_peel(g, h, psi) for g, h, psi in pairs]
    got = {
        "transform": _digest(serialize_script(transform(g, h, psi).script) for g, h, psi in pairs),
        "transform_peel": _digest(
            serialize_script(p.script) + repr(p.trace) for p in peel
        ),
        "move_edge": _digest(
            serialize_script(move_edge(g, uv, xy)) for g, uv, xy in _relocations()
        ),
    }
    assert got == PINNED


def test_regularize_and_euler_scripts_match_pinned_digests():
    rng = random.Random(2025)
    graphs = []
    for n in rng.sample(range(3, 41), 12):
        e = rng.randint(n - 1, min(3 * n, n * (n - 1) // 2))
        graphs.append(random_connected_graph(n, e, rng))
    euler = [transform_euler(g, h) for g, h in _euler_pairs()]
    got = {
        "regularize": _digest(serialize_script(regularize(g)) for g in graphs),
        "transform_euler": _digest(serialize_script(s) + repr(m) for s, m in euler),
    }
    assert got == PINNED_RESIZE


def test_regularize_on_hub_graphs_matches_pinned_digest():
    rng = random.Random(2026)
    hubs = [hub_graph(n, n, rng) for n in (200, 200, 300, 300)]
    assert _digest(serialize_script(regularize(g)) for g in hubs) == PINNED_HUB


def _corrupted(moves):
    """The walk with its first removal after the middle made illegal
    where it stands: a leaf removal names a vertex that is not its
    anchor, and a smoothing becomes a leaf removal of a degree-2 vertex."""
    i = next(i for i in range(len(moves) // 2, len(moves)) if isinstance(moves[i], (RemoveLeaf, Smooth)))
    m = moves[i]
    bad = RemoveLeaf(m.y, m.x + 1 if m.x + 1 != m.y else m.x + 2) if isinstance(m, RemoveLeaf) else RemoveLeaf(m.y, m.x)
    return moves[:i] + [bad] + moves[i + 1 :]


def test_removal_walks_match_pinned_cli_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rng = random.Random(2027)
    replayed, verified, rejected = [], [], []
    for k, n in enumerate((60, 150, 300)):
        g, moves, final = removal_walk(n, 2 * n, 2 * n + 200, rng)
        files = {
            f"g{k}.elist": serialize_graph(g),
            f"h{k}.elist": serialize_graph(final),
            f"w{k}.moves": serialize_script(moves),
            f"bad{k}.moves": serialize_script(_corrupted(moves)),
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="ascii")
        assert run(["replay", f"g{k}.elist", f"w{k}.moves", "--check", "fast", "-o", f"out{k}.elist"]) == 0
        replayed.append((tmp_path / f"out{k}.elist").read_text(encoding="ascii"))
        assert run(["verify", f"g{k}.elist", f"w{k}.moves", "--expect", f"h{k}.elist"]) == 0
        verified.append(capsys.readouterr().out)
        assert run(["verify", f"g{k}.elist", f"bad{k}.moves"]) == 1
        rejected.append(capsys.readouterr().err)
    got = {"replay": _digest(replayed), "verify": _digest(verified), "reject": _digest(rejected)}
    assert got == PINNED_WALKS
