"""Command-line surface.

Subcommands: transform, regularize, euler-transform, verify, replay,
oracle, stats.  Graphs travel as ``.elist`` files, certificates as
``.moves`` files, and vertex bijections as files of ``m <src> <dst>``
lines (identity when omitted).  Exit codes: 0 success, 1 verification
failure, 2 bad input or precondition.  transform, regularize and
euler-transform emit the script the library returns.  The library
verifies each script it generates once, by a full-check replay, and
raises ``MoveError`` (exit 1) if it fails.  Outputs are written
atomically and only after that, so a script file on disk is always a
valid certificate.
"""
from __future__ import annotations

import argparse
import functools
import os
import stat
import sys
import tempfile

from .euler import transform_euler
from .graph import (
    Graph,
    GraphError,
    ParseError,
    _maps_onto,
    _parse_ints,
    check_bijection,
    identity_bijection,
    parse_graph,
    serialize_graph,
    stats,
)
from .moves import MoveError, _replay_adj, parse_script_lines, replay, serialize_script
from .oracle import format_census_table, reachability_census
from .prescribe import transform
from .regularize import regularize

__all__ = ["run", "main", "replay"]


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as err:
        raise GraphError(f"{path}: byte {err.start} is not ASCII") from None


def _write_atomic(path: str, text: str) -> None:
    """Write through a temporary file renamed over path.  The file gets
    the mode a plain open() would give it: an existing target keeps its
    mode, and a new one gets 0o666 less the umask."""
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".edgeslide-")
    try:
        os.fchmod(fd, mode)
        with os.fdopen(fd, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        _write_atomic(out_path, text)


def _load_graph(path: str) -> Graph:
    try:
        return parse_graph(_read(path))
    except ParseError as err:
        raise GraphError(f"{path}: {err}") from None


def _load_bijection(path: str | None, n: int) -> tuple[int, ...]:
    if path is None:
        return identity_bijection(n)
    mapping: dict[int, int] = {}
    for lineno, raw in enumerate(_read(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] != "m" or len(parts) != 3:
            raise GraphError(f"{path}: line {lineno}: expected 'm <src> <dst>'")
        try:
            src, dst = _parse_ints(parts[1:])
        except ValueError:
            raise GraphError(f"{path}: line {lineno}: expected nonnegative integers") from None
        if src >= n:
            raise GraphError(f"{path}: line {lineno}: source {src} out of range for n={n}")
        if src in mapping:
            raise GraphError(f"{path}: line {lineno}: duplicate source {src}")
        mapping[src] = dst
    forward = [mapping.get(i, -1) for i in range(n)]
    if -1 in forward:
        raise GraphError(f"{path}: bijection does not cover every vertex of 0..{n - 1}")
    return check_bijection(forward, n)


def _cmd_transform(args) -> int:
    g = _load_graph(args.source)
    h = _load_graph(args.goal)
    psi = _load_bijection(args.bijection, g.n)
    _emit(serialize_script(transform(g, h, psi).script), args.output)
    return 0


def _cmd_regularize(args) -> int:
    g = _load_graph(args.source)
    _emit(serialize_script(regularize(g)), args.output)
    return 0


def _cmd_euler_transform(args) -> int:
    g = _load_graph(args.source)
    h = _load_graph(args.goal)
    script, mapping = transform_euler(g, h)
    _emit(serialize_script(script), args.output)
    for i, t in enumerate(mapping):
        sys.stdout.write(f"m {i} {t}\n")
    return 0


def _rejected(what: str, path: str, lines, err: MoveError) -> int:
    """Report a replay failure with the script line that holds the move."""
    line = lines[err.index] if err.index is not None and err.index < len(lines) else "?"
    print(f"{what} at {path} line {line}: {err}", file=sys.stderr)
    return 1


def _cmd_verify(args) -> int:
    if args.bijection is not None and args.expect is None:
        raise GraphError("--bijection needs --expect")
    g = _load_graph(args.source)
    script, lines = parse_script_lines(_read(args.script))
    try:
        final = _replay_adj(g, script, "full")
    except MoveError as err:
        return _rejected("verification failed", args.script, lines, err)
    if args.expect is not None:
        goal = _load_graph(args.expect)
        psi = _load_bijection(args.bijection, goal.n)
        if not _maps_onto(final.nbrs, goal, psi):
            print("verification failed: replayed graph does not match the expected one", file=sys.stderr)
            return 1
    print(f"OK: {len(script)} moves verified")
    return 0


def _cmd_replay(args) -> int:
    g = _load_graph(args.source)
    script, lines = parse_script_lines(_read(args.script))
    try:
        final = replay(g, script, check=args.check)
    except MoveError as err:
        return _rejected("replay rejected", args.script, lines, err)
    _emit(serialize_graph(final), args.output)
    return 0


def _cmd_oracle(args) -> int:
    n = args.n
    if args.e is not None:
        pairs = [(n, args.e)]
    else:
        pairs = [(n, e) for e in range(n - 1, n * (n - 1) // 2 + 1)]
    reports = [reachability_census(a, b) for a, b in pairs]
    sys.stdout.write(format_census_table(reports))
    return 0


def _cmd_stats(args) -> int:
    g = _load_graph(args.source)
    s = stats(g)
    degrees = ",".join(str(d) for d in s.degrees)
    print(
        f"n={g.n} e={g.e} chi={s.euler_characteristic} energy={s.energy} "
        f"degrees={degrees} curvature_sum={s.curvature_sum}"
    )
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="edgeslide", description="certified edge-slide transformations of graphs"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="slide one graph onto another of equal size")
    p.add_argument("source")
    p.add_argument("goal")
    p.add_argument("--bijection", default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("regularize", help="slide a graph to an almost regular one")
    p.add_argument("source")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_regularize)

    p = sub.add_parser("euler-transform", help="resize and slide within an Euler class")
    p.add_argument("source")
    p.add_argument("goal")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_euler_transform)

    p = sub.add_parser("verify", help="replay a certificate with full checks")
    p.add_argument("source")
    p.add_argument("script")
    p.add_argument("--expect", default=None)
    p.add_argument("--bijection", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("replay", help="replay a script and print the final graph")
    p.add_argument("source")
    p.add_argument("script")
    p.add_argument("--check", choices=("fast", "full"), default="fast")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("oracle", help="slide-reachability census over small graphs")
    p.add_argument("n", type=int)
    p.add_argument("e", type=int, nargs="?", default=None)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("stats", help="print degree, energy, and curvature statistics")
    p.add_argument("source")
    p.set_defaults(func=_cmd_stats)
    return parser


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except MoveError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (GraphError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
