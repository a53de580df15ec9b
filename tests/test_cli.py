import os
import random
import subprocess
import sys
import tracemalloc

import pytest

import edgeslide
from edgeslide import (
    Graph,
    complete_graph,
    cycle_graph,
    parse_graph,
    parse_script,
    path_graph,
    serialize_graph,
    serialize_script,
    star_graph,
)
from edgeslide._adj import Adj
from edgeslide.cli import run
from helpers import removal_walk, skip_first_relocation


@pytest.fixture
def files(tmp_path):
    def write(name, g):
        p = tmp_path / name
        p.write_text(serialize_graph(g), encoding="ascii")
        return str(p)

    return tmp_path, write


def test_stats_k4(files, capsys):
    tmp, write = files
    assert run(["stats", write("k4.elist", complete_graph(4))]) == 0
    out = capsys.readouterr().out
    assert out == "n=4 e=6 chi=-2 energy=36 degrees=3,3,3,3 curvature_sum=-4\n"


@pytest.mark.parametrize("n", [1, 2, 16384, 16385, 40000])
def test_stats_writes_the_degrees_field_in_one_line(files, capsys, n):
    # the field is written in chunks; across chunk borders it must read
    # as one comma-joined line
    tmp, write = files
    g = star_graph(n) if n > 1 else path_graph(1)
    assert run(["stats", write("g.elist", g)]) == 0
    degrees = ",".join(str(g.degree(v)) for v in range(n))
    chi = n - g.e
    energy = sum(g.degree(v) ** 2 for v in range(n))
    assert capsys.readouterr().out == (
        f"n={n} e={g.e} chi={chi} energy={energy} degrees={degrees} curvature_sum={2 * chi}\n"
    )


def test_transform_then_verify_roundtrip(files):
    tmp, write = files
    a = write("a.elist", path_graph(4))
    b = write("b.elist", star_graph(4))
    out = str(tmp / "s.moves")
    assert run(["transform", a, b, "-o", out]) == 0
    assert run(["verify", a, out, "--expect", b]) == 0


def test_transform_with_bijection_file(files):
    tmp, write = files
    a = write("a.elist", path_graph(3))
    b = write("b.elist", path_graph(3))
    m = tmp / "m.txt"
    m.write_text("m 0 2\nm 1 1\nm 2 0\n", encoding="ascii")
    out = str(tmp / "s.moves")
    assert run(["transform", a, b, "--bijection", str(m), "-o", out]) == 0
    assert run(["verify", a, out, "--expect", b, "--bijection", str(m)]) == 0


def test_verify_names_failing_line(files, capsys, monkeypatch):
    tmp, write = files
    a = write("a.elist", path_graph(4))
    bad = tmp / "bad.moves"
    # third line slides an edge that is not there
    bad.write_text("S 0 1 2\nS 0 2 3\nS 0 1 2\n", encoding="ascii")
    assert run(["verify", a, str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 3" in err
    # a slide that writes one end only fails the whole-state check; the
    # comments put move 1 on line 5
    one_way = tmp / "one_way.moves"
    one_way.write_text("# grow, then slide\nAP 0 4\n# the slide\n\nS 0 1 2\n# done\n", encoding="ascii")

    def slide_forgetting_reverse_entry(adj, x, y, z):
        adj.nbrs[x].discard(y)
        adj.nbrs[y].discard(x)
        adj.nbrs[x].add(z)  # z never learns about x

    monkeypatch.setattr(Adj, "slide", slide_forgetting_reverse_entry)
    for argv, failed in (
        (["verify", a, str(one_way)], "verification failed"),
        (["replay", a, str(one_way), "--check", "full"], "replay rejected"),
    ):
        assert run(argv) == 1
        assert capsys.readouterr().err == (
            f"{failed} at {one_way} line 5: move 1: inconsistent adjacency: odd degree sum\n"
        )


def test_verify_expect_mismatch(files):
    tmp, write = files
    a = write("a.elist", path_graph(4))
    b = write("b.elist", star_graph(4))
    empty = tmp / "empty.moves"
    empty.write_text("", encoding="ascii")
    assert run(["verify", a, str(empty), "--expect", b]) == 1


def test_replay_writes_final_graph(files, capsys):
    tmp, write = files
    a = write("a.elist", path_graph(3))
    s = tmp / "s.moves"
    s.write_text("S 0 1 2\n", encoding="ascii")
    assert run(["replay", a, str(s), "--check", "full"]) == 0
    final = parse_graph(capsys.readouterr().out)
    assert final.edges == ((0, 2), (1, 2))


def test_replay_rejects_smooth_on_adjacent_ends(files, capsys):
    tmp, write = files
    a = write("a.elist", complete_graph(3))
    s = tmp / "s.moves"
    s.write_text("SM 1 0 2\n", encoding="ascii")
    assert run(["replay", a, str(s)]) == 1


def test_euler_transform_prints_bijection(files, capsys):
    tmp, write = files
    a = write("a.elist", cycle_graph(3))
    b = write("b.elist", cycle_graph(6))
    out = str(tmp / "s.moves")
    assert run(["euler-transform", a, b, "-o", out]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"m {i} {i}" for i in range(6)]
    assert run(["verify", a, out, "--expect", b]) == 0


def test_oracle_table(files, capsys):
    assert run(["oracle", "4", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["n", "e", "members", "classes", "diameter"]
    assert out[1].split()[:4] == ["4", "3", "16", "1"]


def test_unknown_subcommand_exits_two(capsys):
    assert run(["frobnicate"]) == 2


def test_missing_file_exits_two(files, capsys):
    assert run(["stats", "/nonexistent/g.elist"]) == 2


def test_bad_precondition_exits_two(files, capsys):
    tmp, write = files
    a = write("a.elist", path_graph(4))
    b = write("b.elist", cycle_graph(4))
    assert run(["transform", a, b, "-o", str(tmp / "s.moves")]) == 2
    assert not os.path.exists(tmp / "s.moves")


def test_output_written_atomically_on_success_only(files):
    tmp, write = files
    a = write("a.elist", path_graph(3))
    b = write("b.elist", complete_graph(3))
    target = tmp / "keep.moves"
    target.write_text("S 9 9 9\n", encoding="ascii")
    assert run(["transform", a, str(tmp / "b.elist"), "-o", str(target)]) == 2
    assert target.read_text(encoding="ascii") == "S 9 9 9\n"


def test_byte_identical_reruns(files):
    tmp, write = files
    a = write("a.elist", path_graph(5))
    b = write("b.elist", star_graph(5))
    o1, o2 = str(tmp / "one.moves"), str(tmp / "two.moves")
    assert run(["transform", a, b, "-o", o1]) == 0
    assert run(["transform", a, b, "-o", o2]) == 0
    assert open(o1, "rb").read() == open(o2, "rb").read()


def _assert_one_error_line(code, capsys, expected=2, path=None):
    err = capsys.readouterr().err
    assert code == expected
    assert err.startswith("error: " if path is None else f"error: {path}: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_generating_commands_apply_each_move_once(files, monkeypatch):
    # the one full-check replay that verifies the script calls each
    # emitted move's kernel once, and nothing else replays a move: the
    # Euler resizing builds its intermediate graphs without a replay
    from edgeslide import moves

    applied = []
    original = moves._replay_records

    def counted(kernel):
        return lambda adj, *ids: applied.append(ids) or kernel(adj, *ids)

    monkeypatch.setattr(
        moves, "_replay_records",
        lambda g, records, check: original(g, ((line, counted(k), ids) for line, k, ids in records), check),
    )
    tmp, write = files
    out = tmp / "s.moves"
    cases = [
        (["transform"], path_graph(6), star_graph(6)),
        (["euler-transform"], cycle_graph(4), cycle_graph(7)),
        (["euler-transform"], cycle_graph(7), cycle_graph(4)),
        (["regularize"], star_graph(6), None),
    ]
    for command, g, h in cases:
        argv = command + [write("g.elist", g)] + ([write("h.elist", h)] if h else [])
        applied.clear()
        assert run(argv + ["-o", str(out)]) == 0
        script = parse_script(out.read_text(encoding="ascii"))
        resize = abs(g.n - h.n) if h else 0
        assert len(script) > resize
        assert len(applied) == len(script)


@pytest.mark.parametrize("command", ["transform", "euler-transform"])
def test_plan_that_does_not_verify_exits_one(files, monkeypatch, capsys, command):
    tmp, write = files
    skip_first_relocation(monkeypatch)
    out = tmp / "s.moves"
    code = run([command, write("a.elist", path_graph(5)), write("b.elist", star_graph(5)), "-o", str(out)])
    _assert_one_error_line(code, capsys, expected=1)
    assert not out.exists()


def test_non_ascii_byte_exits_two(tmp_path, capsys):
    p = tmp_path / "a.elist"
    p.write_bytes(b"# caf\xc3\xa9\np 2 1\ne 0 1\n")
    _assert_one_error_line(run(["stats", str(p)]), capsys)


@pytest.mark.parametrize("kind", ["elist", "moves", "bijection"])
def test_underscore_integer_exits_two(files, capsys, kind):
    tmp, write = files
    a = write("a.elist", path_graph(11))
    b = write("b.elist", path_graph(11))
    bad = tmp / "bad.txt"
    if kind == "elist":
        bad.write_text("p 11 1\ne 0 1_0\n", encoding="ascii")
        argv = ["stats", str(bad)]
    elif kind == "moves":
        bad.write_text("S 0 1 1_0\n", encoding="ascii")
        argv = ["verify", a, str(bad)]
    else:
        lines = [f"m {i} {10 - i}" for i in range(10)] + ["m 1_0 0"]
        bad.write_text("\n".join(lines) + "\n", encoding="ascii")
        argv = ["transform", a, b, "--bijection", str(bad)]
    _assert_one_error_line(run(argv), capsys)


def test_bijection_source_out_of_range_exits_two(files, capsys):
    tmp, write = files
    a = write("a.elist", path_graph(3))
    m = tmp / "m.txt"
    m.write_text("m 0 2\nm 1 1\nm 2 0\nm 9 9\n", encoding="ascii")
    _assert_one_error_line(run(["transform", a, a, "--bijection", str(m)]), capsys)


@pytest.mark.parametrize("command", ["verify", "replay"])
def test_malformed_script_error_names_its_file(files, capsys, command):
    # a parse error anywhere wins (exit 2) over an illegal move before it
    # and over a disconnected source under the full check
    tmp, write = files
    a = write("a.elist", path_graph(4))
    split = write("split.elist", Graph(4, [(0, 1), (2, 3)]))
    full = ["--check", "full"] if command == "replay" else []
    bad = tmp / "bad.moves"
    bad.write_text("# one slide\nS 0 1\n", encoding="ascii")
    late = tmp / "late.moves"
    late.write_text("S 0 1 3\n# the slide above is illegal on P4\nS 0 1 2\nS 0 1\n", encoding="ascii")
    for argv, path, line in (
        ([a, str(bad)], bad, 2),
        ([a, str(late)], late, 4),
        ([split, str(late), *full], late, 4),
    ):
        _assert_one_error_line(run([command, *argv]), capsys, path=f"{path}: line {line}")


def _traced_peak(argv) -> tuple[int, int]:
    """The exit code of the CLI on argv and the peak of its traced
    allocations, in bytes."""
    tracemalloc.start()
    try:
        code = run(argv)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_checking_a_certificate_holds_one_move_at_a_time(files, capsys):
    # each record is replayed as its line is parsed, so the peak is the
    # text and its list of lines, about 90 bytes a move, where a list of
    # records and one of line numbers held about 250
    tmp, write = files
    g, script, _ = removal_walk(30, 45, 50_000, random.Random(7))
    a = write("g.elist", g)
    s = tmp / "s.moves"
    s.write_text(serialize_script(script), encoding="ascii")
    for command in ("verify", "replay"):
        code, peak = _traced_peak([command, a, str(s)])
        assert code == 0
        assert peak < 8_000_000
    assert capsys.readouterr().out.startswith("OK: 50000 moves verified\n")


def test_header_only_transform_builds_no_bijection(files, capsys):
    # without --bijection the identity stays a range, so the gate refuses
    # the header-only graphs before a map of n entries is built
    tmp, _ = files
    n = 200_000
    big = tmp / "big.elist"
    big.write_text(f"p {n} 0\n", encoding="ascii")
    code, peak = _traced_peak(["transform", str(big), str(big)])
    _assert_one_error_line(code, capsys)
    assert peak < 40 * n


@pytest.mark.parametrize("command", ["transform", "verify"])
def test_bijection_that_is_not_a_permutation_names_its_file(files, capsys, command):
    tmp, write = files
    a = write("a.elist", path_graph(3))
    m = tmp / "m.txt"
    m.write_text("m 0 1\nm 1 1\nm 2 0\n", encoding="ascii")
    s = tmp / "s.moves"
    s.write_text("", encoding="ascii")
    argv = [a, a] if command == "transform" else [a, str(s), "--expect", a]
    _assert_one_error_line(run([command, *argv, "--bijection", str(m)]), capsys, path=str(m))


def test_parser_is_built_once_and_survives_an_argparse_error(files, capsys):
    from edgeslide import cli

    tmp, write = files
    argv = ["transform", write("a.elist", path_graph(5)), write("b.elist", star_graph(5))]
    assert cli._build_parser() is cli._build_parser()
    assert run(argv[:2]) == 2
    error = capsys.readouterr().err
    assert error.startswith("usage: edgeslide transform")
    assert run(argv) == 0
    after_error = capsys.readouterr()
    assert run(argv[:2]) == 2
    assert capsys.readouterr().err == error
    cli._build_parser.cache_clear()
    assert run(argv) == 0
    assert capsys.readouterr() == after_error
    assert after_error.out and not after_error.err


def test_verify_bijection_for_a_goal_of_another_order_exits_one(files, capsys):
    # the bijection is read against the goal's order, so a script that
    # ends one vertex larger is a mismatch, not a bad bijection file
    tmp, write = files
    p3 = write("p3.elist", path_graph(3))
    s = tmp / "s.moves"
    s.write_text("AP 0 3\n", encoding="ascii")
    m = tmp / "m.txt"
    m.write_text("m 0 0\nm 1 1\nm 2 2\n", encoding="ascii")
    assert run(["verify", p3, str(s), "--expect", p3, "--bijection", str(m)]) == 1
    assert "replayed graph does not match the expected one" in capsys.readouterr().err


def test_output_file_gets_the_mode_open_would_give(files):
    tmp, write = files
    argv = ["transform", write("a.elist", path_graph(4)), write("b.elist", star_graph(4)), "-o"]
    new, old = tmp / "new.moves", tmp / "old.moves"
    old.write_text("", encoding="ascii")
    os.chmod(old, 0o640)
    umask = os.umask(0o022)
    try:
        assert run(argv + [str(new)]) == 0
        assert run(argv + [str(old)]) == 0
    finally:
        os.umask(umask)
    assert new.stat().st_mode & 0o777 == 0o644
    assert old.stat().st_mode & 0o777 == 0o640
    assert old.read_text(encoding="ascii") == new.read_text(encoding="ascii") != ""


def test_verify_bijection_without_expect_exits_two(files, capsys):
    tmp, write = files
    a = write("a.elist", path_graph(4))
    s = tmp / "s.moves"
    s.write_text("S 0 1 2\n", encoding="ascii")
    argv = ["verify", a, str(s), "--bijection"]
    _assert_one_error_line(run(argv + [str(tmp / "missing.txt")]), capsys)
    m = tmp / "m.txt"
    m.write_text("m 0 0\nm 1 1\nm 2 2\nm 3 3\n", encoding="ascii")
    _assert_one_error_line(run(argv + [str(m)]), capsys)


_ENTRY_POINTS = {
    # what the ``edgeslide`` console script runs
    "console script": ["-c", "from edgeslide.cli import main; main()"],
    "python -m edgeslide": ["-m", "edgeslide"],
    "python -m edgeslide.cli": ["-m", "edgeslide.cli"],
}


def _run_entry(args, argv, cwd):
    """Exit code and stdout of one CLI run in a fresh interpreter that
    imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(edgeslide.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, *args, *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    return done.returncode, done.stdout


def test_module_forms_match_the_console_script(files):
    tmp, write = files
    a = write("a.elist", path_graph(4))
    b = write("b.elist", star_graph(4))
    bad = tmp / "bad.moves"
    bad.write_text("S 0 1 3\n", encoding="ascii")
    results = {}
    for name, args in _ENTRY_POINTS.items():
        out = tmp / f"{len(results)}.moves"
        results[name] = (
            _run_entry(args, ["stats", str(tmp / "missing.elist")], tmp)[0],
            _run_entry(args, ["transform", a, b, "-o", str(out)], tmp)[0],
            out.read_text(encoding="ascii") if out.exists() else None,
            _run_entry(args, ["verify", a, str(bad)], tmp)[0],
            _run_entry(args, ["stats", a], tmp),
        )
    want = results.pop("console script")
    assert want[:2] == (2, 0) and want[2] and want[3] == 1 and want[4][0] == 0
    assert results == {name: want for name in results}
