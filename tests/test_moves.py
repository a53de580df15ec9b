import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeslide import (
    AddPendant,
    Graph,
    MoveError,
    ParseError,
    RemoveLeaf,
    Slide,
    Smooth,
    Subdivide,
    apply_move,
    complete_graph,
    cycle_graph,
    parse_script,
    parse_script_lines,
    path_graph,
    replay,
    serialize_script,
    slide_neighbors,
    stats,
)
from helpers import random_connected_graph


def test_slide_p3():
    g = apply_move(path_graph(3), Slide(0, 1, 2))
    assert g.edges == ((0, 2), (1, 2))


def test_slide_rejected_when_already_adjacent():
    with pytest.raises(MoveError):
        apply_move(complete_graph(3), Slide(0, 1, 2))


def test_slide_rejected_missing_edge():
    with pytest.raises(MoveError):
        apply_move(path_graph(3), Slide(2, 0, 1))


def test_subdivide_p2():
    g = apply_move(path_graph(2), Subdivide(0, 1, 2))
    assert g.edges == ((0, 2), (1, 2))


def test_subdivide_requires_fresh_id():
    with pytest.raises(MoveError):
        apply_move(path_graph(2), Subdivide(0, 1, 5))


def test_add_pendant():
    g = apply_move(path_graph(2), AddPendant(0, 2))
    assert g.edges == ((0, 1), (0, 2))


def test_remove_leaf_renumbers():
    g = apply_move(path_graph(3), RemoveLeaf(0, 1))
    assert g.n == 2 and g.edges == ((0, 1),)


def test_remove_leaf_rejects_non_leaf():
    with pytest.raises(MoveError):
        apply_move(path_graph(3), RemoveLeaf(1, 0))


def test_smooth():
    g = apply_move(path_graph(3), Smooth(1, 0, 2))
    assert g.n == 2 and g.edges == ((0, 1),)


def test_smooth_rejects_adjacent_ends():
    with pytest.raises(MoveError):
        apply_move(complete_graph(3), Smooth(1, 0, 2))


def test_empty_script_is_identity():
    g = cycle_graph(5)
    assert replay(g, ()) == g


def test_slide_then_inverse_restores():
    g = path_graph(3)
    assert replay(g, (Slide(0, 1, 2), Slide(0, 2, 1))) == g


def test_script_error_reports_index():
    g = path_graph(4)
    with pytest.raises(MoveError) as exc:
        replay(g, (Slide(0, 1, 2), Slide(0, 1, 2), Slide(0, 2, 3)))
    assert exc.value.index == 1


@given(st.data())
@settings(max_examples=120)
def test_slide_reversibility(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = rng.randint(3, 8)
    g = random_connected_graph(n, rng.randint(n - 1, n * (n - 1) // 2), rng)
    options = []
    for x in range(n):
        for y in g.neighbors(x):
            for z in g.neighbors(y):
                if z != x and not g.adjacent(x, z):
                    options.append((x, y, z))
    if not options:
        return
    x, y, z = options[data.draw(st.integers(0, len(options) - 1))]
    there = apply_move(g, Slide(x, y, z))
    back = apply_move(there, Slide(x, z, y))
    assert back == g


def test_slides_preserve_counts_and_connectivity():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(3, 8)
        g = random_connected_graph(n, rng.randint(n - 1, n * (n - 1) // 2), rng)
        for h in slide_neighbors(g)[:5]:
            assert h.n == g.n and h.e == g.e
            assert stats(h).euler_characteristic == stats(g).euler_characteristic


# --- replay ------------------------------------------------------------------


def test_replay_full_empty():
    g = cycle_graph(4)
    assert replay(g, (), check="full") == g


def test_replay_rejects_bad_check_level():
    with pytest.raises(ValueError):
        replay(path_graph(2), (), check="paranoid")


def test_replay_full_rejects_smoothing_adjacent_ends():
    with pytest.raises(MoveError):
        replay(complete_graph(3), (Smooth(1, 0, 2),), check="full")


def test_replay_full_checks_every_prefix():
    # growing then shrinking keeps chi constant throughout
    g = path_graph(2)
    script = (AddPendant(0, 2), Subdivide(0, 1, 3), RemoveLeaf(2, 0), Smooth(2, 0, 1))
    final = replay(g, script, check="full")
    assert final.n == 2 and stats(final).euler_characteristic == 1


# --- .moves format -----------------------------------------------------------


def test_script_round_trip():
    script = (
        Slide(0, 1, 2),
        AddPendant(2, 3),
        Subdivide(0, 2, 4),
        RemoveLeaf(3, 2),
        Smooth(3, 0, 2),
    )
    text = serialize_script(script)
    assert parse_script(text) == script


def test_script_serialization_format():
    script = (Slide(1, 2, 3), AddPendant(9, 10), Subdivide(4, 5, 6), RemoveLeaf(7, 8), Smooth(11, 12, 13))
    text = serialize_script(script)
    assert text == "S 1 2 3\nAP 9 10\nSD 4 5 6\nRL 7 8\nSM 11 12 13\n"
    assert parse_script(text) == script
    # each field by name, so a field-order slip in either direction fails
    assert parse_script("S 1 2 3\n")[0] == Slide(x=1, y=2, z=3)
    assert parse_script("AP 1 2\n")[0] == AddPendant(x=1, y=2)
    assert parse_script("SD 1 2 3\n")[0] == Subdivide(x=1, z=2, y=3)
    assert parse_script("RL 1 2\n")[0] == RemoveLeaf(y=1, x=2)
    assert parse_script("SM 1 2 3\n")[0] == Smooth(y=1, x=2, z=3)


def test_parse_script_lines_and_comments():
    script, lines = parse_script_lines("# intro\nS 0 1 2\n\nAP 1 3\n")
    assert script == (Slide(0, 1, 2), AddPendant(1, 3))
    assert lines == (2, 4)


def test_parse_script_bad_tag():
    with pytest.raises(ParseError) as exc:
        parse_script("S 0 1 2\nXX 1\n")
    assert exc.value.lineno == 2


def test_parse_script_bad_arity():
    with pytest.raises(ParseError):
        parse_script("S 0 1\n")


def test_verify_generated_rejects_a_goal_missed_under_psi():
    from edgeslide.moves import _verify_generated

    g = path_graph(4)
    script = (Slide(0, 1, 2),)
    goal = replay(g, script)
    assert _verify_generated(g, script, goal, (0, 1, 2, 3)) == script
    # the reversal maps the path 1-2-3 plus 0-2 onto 2-1-0 plus 3-1
    reversal = (3, 2, 1, 0)
    assert _verify_generated(g, script, Graph(4, [(0, 1), (1, 2), (1, 3)]), reversal) == script
    with pytest.raises(MoveError, match="does not verify against the goal"):
        _verify_generated(g, script, goal, reversal)


def test_verify_generated_rejects_a_result_of_the_wrong_order():
    from edgeslide.moves import _verify_generated

    g = path_graph(4)
    script = (AddPendant(3, 4),)
    with pytest.raises(MoveError, match="does not verify against the goal"):
        _verify_generated(g, script, g, (0, 1, 2, 3))
