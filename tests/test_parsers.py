"""Differential tests of the text parsers.

Hypothesis writes ``.elist``, ``.moves`` and bijection documents, valid
ones and ones mutated with tabs, CRLF, comments, signs, underscores,
non-ASCII digits, wrong arity, missing or duplicate headers and extra
edges.  The package's parsers must return what the naive reference
parsers below return, or raise the same ``ParseError``: the same line
and the same message.  The references spell every rule out one token and
one line at a time, with no shared helper from the package.
"""
import contextlib
import io
import os
import random
import tempfile

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from edgeslide import GraphError, ParseError, parse_graph, parse_script_lines, serialize_graph, serialize_script
from edgeslide.cli import _parse_bijection, run
from edgeslide.moves import _CLASS_OF, AddPendant, RemoveLeaf, Slide, Smooth, Subdivide, _parse_records
from helpers import random_connected_graph, removal_walk

ARITY = {"S": 3, "AP": 2, "SD": 3, "RL": 2, "SM": 3}
CLASS = {"S": Slide, "AP": AddPendant, "SD": Subdivide, "RL": RemoveLeaf, "SM": Smooth}


class Refused(Exception):
    def __init__(self, lineno, message):
        super().__init__(lineno, message)
        self.lineno, self.message = lineno, message


def ref_lines(text):
    """Lines end at '\\n' only; any other whitespace separates fields."""
    out = []
    number = 0
    for raw in text.split("\n"):
        number += 1
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        out.append((number, fields))
    return out


def ref_last_line(text):
    if text == "":
        return 1
    count = text.count("\n")
    return count if text.endswith("\n") else count + 1


def ref_is_int(token):
    return all(c in "0123456789" for c in token)


def ref_parse_graph(text):
    n = e = None
    edges = []
    for number, fields in ref_lines(text):
        kind = fields[0]
        if kind == "p":
            if n is not None:
                raise Refused(number, "duplicate header")
            if len(fields) != 3:
                raise Refused(number, "malformed header, expected 'p <n> <e>'")
            if not (ref_is_int(fields[1]) and ref_is_int(fields[2])):
                raise Refused(number, "malformed header, expected nonnegative integers")
            n, e = int(fields[1]), int(fields[2])
            if n < 1:
                raise Refused(number, "vertex count must be positive")
        elif kind == "e":
            if n is None:
                raise Refused(number, "edge line before header")
            if len(fields) != 3:
                raise Refused(number, "malformed edge line, expected 'e <u> <v>'")
            if not (ref_is_int(fields[1]) and ref_is_int(fields[2])):
                raise Refused(number, "malformed edge line, expected nonnegative integers")
            u, v = int(fields[1]), int(fields[2])
            if u == v:
                raise Refused(number, f"loop edge at vertex {u}")
            if u >= n or v >= n:
                raise Refused(number, f"vertex id out of range for n={n}")
            if u > v:
                raise Refused(number, "edge endpoints must satisfy u < v")
            if (u, v) in edges:
                raise Refused(number, f"duplicate edge ({u}, {v})")
            if len(edges) == e:
                raise Refused(number, f"more than {e} edge lines")
            edges.append((u, v))
        else:
            raise Refused(number, f"unrecognized line kind {kind!r}")
    if n is None:
        raise Refused(ref_last_line(text), "missing 'p <n> <e>' header")
    if len(edges) != e:
        raise Refused(ref_last_line(text), f"expected {e} edge lines, found {len(edges)}")
    return n, sorted(edges)


def ref_parse_moves(text):
    out = []
    for number, fields in ref_lines(text):
        tag = fields[0]
        if tag not in ARITY:
            raise Refused(number, f"unknown move tag {tag!r}")
        if len(fields) != ARITY[tag] + 1:
            raise Refused(number, f"{tag} takes {ARITY[tag]} integers")
        if not all(ref_is_int(f) for f in fields[1:]):
            raise Refused(number, "move arguments must be nonnegative integers")
        out.append((number, tag, tuple(int(f) for f in fields[1:])))
    return out


def ref_parse_bijection(text, n):
    mapping = {}
    for number, fields in ref_lines(text):
        if fields[0] != "m" or len(fields) != 3:
            raise Refused(number, "expected 'm <src> <dst>'")
        if not (ref_is_int(fields[1]) and ref_is_int(fields[2])):
            raise Refused(number, "expected nonnegative integers")
        src, dst = int(fields[1]), int(fields[2])
        if src >= n:
            raise Refused(number, f"source {src} out of range for n={n}")
        if src in mapping:
            raise Refused(number, f"duplicate source {src}")
        mapping[src] = dst
    if sorted(mapping) != list(range(n)):
        raise Refused(None, f"bijection does not cover every vertex of 0..{n - 1}")
    forward = tuple(mapping[i] for i in range(n))
    if sorted(forward) != list(range(n)):
        raise Refused(None, f"bijection must be a permutation of 0..{n - 1}")
    return forward


def outcome(parse, *args):
    """("ok", value) or ("refused", lineno, message); a ParseError and a
    reference refusal compare equal when line and message agree."""
    try:
        return ("ok", parse(*args))
    except ParseError as err:
        return ("refused", err.lineno, str(err).split(": ", 1)[1])
    except GraphError as err:
        return ("refused", None, str(err))
    except Refused as err:
        return ("refused", err.lineno, err.message)


# ---------------------------------------------------------------------------
# Documents: valid line lists, then written out with mutations

BAD_TOKENS = ["1_0", "+5", "-1", "٣", "²", "x", "0x1", "1.0", "１", "00", "07"]
SEPARATORS = [" ", "  ", "\t", " \t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", " "]
COMMENTS = ["# note", "#", "# page\x0cbreak e 0 1", "#\tp 1 0", "  # indented\x0bcomment", "# \x1e x"]


@st.composite
def elist_lines(draw):
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return [["p", str(n), str(len(edges))]] + [["e", str(u), str(v)] for u, v in edges]


@st.composite
def moves_lines(draw):
    tags = draw(st.lists(st.sampled_from(sorted(ARITY)), max_size=12))
    return [[t] + [str(draw(st.integers(0, 12))) for _ in range(ARITY[t])] for t in tags]


@st.composite
def bijection_lines(draw):
    n = draw(st.integers(1, 7))
    perm = draw(st.permutations(range(n)))
    order = draw(st.permutations(range(n)))
    return n, [["m", str(i), str(perm[i])] for i in order]


@st.composite
def mutated(draw, lines):
    """Apply a few line-list mutations, then write the lines out with
    random separators, line ends, comments and blank lines."""
    lines = [list(line) for line in lines]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(
            ["token", "drop", "extra", "duplicate", "delete", "swap", "number", "kind", "header"]
        ))
        if not lines and kind != "header":
            continue
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        if kind == "token":
            j = draw(st.integers(0, len(lines[i]) - 1))
            lines[i][j] = draw(st.sampled_from(BAD_TOKENS))
        elif kind == "drop" and len(lines[i]) > 1:
            del lines[i][-1]
        elif kind == "extra":
            lines[i].append(str(draw(st.integers(0, 9))))
        elif kind == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), list(lines[i]))
        elif kind == "delete":
            del lines[i]
        elif kind == "swap" and len(lines[i]) > 2:
            lines[i][1], lines[i][2] = lines[i][2], lines[i][1]
        elif kind == "number" and len(lines[i]) > 1:
            j = draw(st.integers(1, len(lines[i]) - 1))
            lines[i][j] = str(draw(st.integers(0, 10_000)))
        elif kind == "kind":
            lines[i][0] = draw(st.sampled_from(["p", "e", "m", "S", "AP", "SD", "RL", "SM", "q", "s"]))
        elif kind == "header":
            lines.insert(draw(st.integers(0, len(lines))), ["p", str(draw(st.integers(0, 9))), "0"])
    chunks = []
    for line in lines:
        for _ in range(draw(st.integers(0, 1))):
            chunks.append(draw(st.sampled_from(["", "   ", "\t"] + COMMENTS)))
        sep = draw(st.sampled_from(SEPARATORS))
        lead = draw(st.sampled_from(["", " ", "\t"]))
        tail = draw(st.sampled_from(["", " ", "\t", " # trailing"]))
        chunks.append(lead + sep.join(line) + tail)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(chunks)
    if draw(st.booleans()):
        text += end
    if draw(st.integers(0, 9)) == 0:
        # a lone carriage return joins two lines into one
        at = draw(st.integers(0, len(text)))
        text = text[:at] + "\r" + text[at:]
    return text


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_parse_graph_matches_the_reference(data):
    text = data.draw(mutated(data.draw(elist_lines())))
    got = outcome(parse_graph, text)
    want = outcome(ref_parse_graph, text)
    if got[0] == "ok":
        got = ("ok", (got[1].n, list(got[1].edges)))
        g = parse_graph(text)
        want_sets = [set() for _ in range(g.n)]
        for u, v in g.edges:
            want_sets[u].add(v)
            want_sets[v].add(u)
        assert list(g.neighbor_sets()) == want_sets
    assert got == want


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_moves_parsers_match_the_reference(data):
    text = data.draw(mutated(data.draw(moves_lines())))
    want = outcome(ref_parse_moves, text)
    got = outcome(_parse_records, text)
    script = outcome(parse_script_lines, text)
    if want[0] == "refused":
        assert got == script == want
        return
    records, lines = got[1]
    moves, move_lines = script[1]
    assert list(move_lines) == lines == [number for number, _, _ in want[1]]
    assert list(moves) == [CLASS[tag](*ids) for _, tag, ids in want[1]]
    assert all(type(i) is int for _, ids in records for i in ids)
    # each record holds its kind's kernel, and builds the parsed Move
    assert [_CLASS_OF[kernel](*ids) for kernel, ids in records] == list(moves)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_bijection_parser_matches_the_reference(data):
    n, lines = data.draw(bijection_lines())
    text = data.draw(mutated(lines))
    assert outcome(_parse_bijection, text, n) == outcome(ref_parse_bijection, text, n)


# ---------------------------------------------------------------------------
# Lines end at '\n' only


@pytest.mark.parametrize("ch", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", " "])
def test_a_comment_runs_to_the_end_of_its_line(ch):
    g = parse_graph(f"p 2 1\n# page{ch}break\ne 0 1\n")
    assert g.edges == ((0, 1),)
    script, lines = parse_script_lines(f"# one{ch}S 0 1 2\nS 0 1 2\n")
    assert lines == (2,)
    assert _parse_bijection(f"# {ch}m 0 0\nm 0 1\nm 1 0\n", 2) == (1, 0)


def test_separators_inside_a_line_are_whitespace():
    g = parse_graph("p\x0c3\t2\r\ne 0\x0b1\r\ne\x1c1 2\r\n")
    assert g.edges == ((0, 1), (1, 2))


def test_crlf_reads_as_lf():
    text = "# c\np 3 2\n\ne 0 1\ne 1 2\n"
    assert parse_graph(text.replace("\n", "\r\n")) == parse_graph(text)
    with pytest.raises(ParseError) as crlf:
        parse_graph("p 3 2\r\ne 0 1\r\n")
    with pytest.raises(ParseError) as lf:
        parse_graph("p 3 2\ne 0 1\n")
    assert str(crlf.value) == str(lf.value) == "line 2: expected 2 edge lines, found 1"


def test_a_lone_carriage_return_does_not_end_a_line():
    with pytest.raises(ParseError, match=r"^line 1: malformed header, expected 'p <n> <e>'$"):
        parse_graph("p 2 1\re 0 1\n")
    with pytest.raises(ParseError, match=r"^line 1: S takes 3 integers$"):
        parse_script_lines("S 0 1 2\rS 1 2 3\n")


def test_errors_about_the_whole_document_name_its_last_line():
    for text, line in [("", 1), ("# c", 1), ("# c\n", 1), ("# a\n#\x0cb\n", 2), ("#\n\n\n", 3), ("#\n\n\n#", 4)]:
        with pytest.raises(ParseError) as exc:
            parse_graph(text)
        assert exc.value.lineno == line
    with pytest.raises(ParseError, match=r"^line 3: expected 2 edge lines, found 1$"):
        parse_graph("p 3 2\ne 0 1\n# x\x0cy")


# ---------------------------------------------------------------------------
# The CLI on arbitrary bytes and on mutated valid files: every run ends in
# exit 0, 1 or 2 with at most one line on stderr and no traceback.


def _base_files(seed):
    """A legal walk with removals from a 6-vertex graph, written out: its
    source, script, final graph, identity bijection, and a second graph of
    the source's order and size for transform."""
    rng = random.Random(seed)
    start, moves, final = removal_walk(6, 8, 10, rng)
    other = random_connected_graph(6, 8, rng)
    return {
        "src": serialize_graph(start),
        "moves": serialize_script(moves),
        "final": serialize_graph(final),
        "map": "".join(f"m {i} {i}\n" for i in range(final.n)),
        "other": serialize_graph(other),
    }


BASES = [_base_files(seed) for seed in range(4)]


@st.composite
def cli_file(draw, text):
    """The bytes of a file: text as is, with one number changed (a legal
    line that may name an illegal move), with mutations, or any bytes."""
    lines = [line.split() for line in text.splitlines()]
    choice = draw(st.sampled_from(["as is"] * 2 + ["renumbered"] * 2 + ["mutated"] * 2 + ["bytes"]))
    if choice == "as is":
        return text.encode("ascii")
    if choice == "renumbered" and lines:
        line = draw(st.sampled_from(lines))
        line[draw(st.integers(1, len(line) - 1))] = str(draw(st.integers(0, 12)))
        return "".join(" ".join(line) + "\n" for line in lines).encode("ascii")
    if choice == "mutated":
        return draw(mutated(lines)).encode("utf-8")
    return draw(st.binary(max_size=120))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cli_exit_codes_on_fuzzed_files(data):
    base = data.draw(st.sampled_from(BASES))
    command = data.draw(st.sampled_from(["stats", "verify", "replay", "transform"]))
    names = {
        "stats": ["src"],
        "verify": ["src", "moves", "final", "map"],
        "replay": ["src", "moves"],
        "transform": ["src", "other", "map"],
    }[command]
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name in names:
            paths[name] = os.path.join(tmp, name)
            with open(paths[name], "wb") as fh:
                fh.write(data.draw(cli_file(base[name]), label=name))
        argv = [command, paths["src"]]
        if command == "verify":
            argv.append(paths["moves"])
            if data.draw(st.booleans(), label="expect"):
                argv += ["--expect", paths["final"]]
                if data.draw(st.booleans(), label="bijection"):
                    argv += ["--bijection", paths["map"]]
        elif command == "replay":
            argv += [paths["moves"], "--check", data.draw(st.sampled_from(["fast", "full"]))]
        elif command == "transform":
            argv.append(paths["other"])
            if data.draw(st.booleans(), label="bijection"):
                argv += ["--bijection", paths["map"]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    err = err.getvalue()
    event(f"{command} exit {code}")
    assert code in (0, 1, 2)
    assert err == "" or (err.count("\n") == 1 and err.endswith("\n"))
    assert (code == 0) == (err == "")
    assert "Traceback" not in err
