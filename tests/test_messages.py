"""Exact text of the problem messages that print a transition or a band.

A transition prints as its ``(left, mediator, right)`` triple and a band key
as its ``(owner, index)`` pair; these tests pin the bytes of every message
that formats one, so a change to how bands are stored cannot reword them.
The inputs are built from JSON-shaped data and a serialized certificate, so
they do not depend on the classes that hold the band data.
"""

import json

import pytest

from smale_orders.bands import glue_bands, verify_boundary_cycles
from smale_orders.corpus import diamond_order, example1_cycles
from smale_orders.cycles import CycleAssignment, assignment_problems
from smale_orders.errors import StarViolated
from smale_orders.order import load_order
from smale_orders.pipeline import _stage_data, realize, verify_document

# the diamond with a second repeller B over both saddles
TWO_REPELLERS = {
    "elements": ["A", "B", "s1", "s2", "w"],
    "relations": [
        ["A", "s1"], ["A", "s2"], ["B", "s1"], ["B", "s2"], ["s1", "w"], ["s2", "w"],
    ],
}


def _problems(cycles: dict, order=None) -> list[str]:
    order = order or diamond_order()
    return assignment_problems(CycleAssignment.from_dict(cycles), order)


def test_inadmissible_transition_and_missing_type_messages():
    assert _problems({"w": [["s1", "w", "s2"], ["s2", "A", "s1"]]}) == [
        "w[0]: inadmissible transition ('s1', 'w', 's2')",
        "w: admissible type ('s1', 'A', 's2') missing (condition 1)",
        "w: s1->s2 via w appears 1 times but the reverse appears 0 (condition 2)",
    ]


def test_related_saddle_never_appears_message():
    assert _problems({"w": [["s1", "A", "s1"]]}) == [
        "w: related saddle s2 never appears",
        "w: admissible type ('s1', 'A', 's2') missing (condition 1)",
        "w: admissible type ('s2', 'A', 's1') missing (condition 1)",
    ]


def test_related_extremal_never_mediates_message():
    cycles = {"w": [["s1", "A", "s2"], ["s2", "A", "s1"]]}
    assert _problems(cycles, load_order(TWO_REPELLERS)) == [
        "w: related extremal B never mediates",
        "w: admissible type ('s1', 'B', 's2') missing (condition 1)",
        "w: admissible type ('s2', 'B', 's1') missing (condition 1)",
    ]


def _boundary_problems(tamper) -> list[str]:
    """verify_boundary_cycles on example1's certificate after ``tamper``
    edits its JSON form; the gluing is [(w,0)~(A,0), (w,1)~(A,1)]."""
    doc = json.loads(json.dumps(realize(diamond_order(), example1_cycles()).to_dict()))
    tamper(doc)
    _, assignment, gluing = _stage_data(doc)
    return verify_boundary_cycles(gluing, assignment, diamond_order())[0]


def test_pair_not_joining_the_two_sides_message():
    def swap_sides(doc):
        doc["gluing"][0].reverse()

    assert _boundary_problems(swap_sides) == [
        "pair ('A', 0)~('w', 0) does not join the two sides",
    ]


def test_incompatible_types_message():
    def cross(doc):
        doc["gluing"] = [[["w", 0], ["A", 1]], [["w", 1], ["A", 0]]]

    assert _boundary_problems(cross) == [
        "pair ('w', 0)~('A', 1) joins incompatible types ('s1', 'A', 's2') / ('s2', 'w', 's1')",
        "pair ('w', 1)~('A', 0) joins incompatible types ('s2', 'A', 's1') / ('s1', 'w', 's2')",
    ]


def test_unrelated_band_message():
    doc = realize(diamond_order(), example1_cycles()).to_dict()
    doc["boundary_cycles"]["x"] = doc["boundary_cycles"]["s1"]
    assert verify_document(doc) == [
        "re-serialization differs from the input document at boundary_cycles.x",
    ]


def test_drifting_walk_is_a_problem_not_an_error():
    # the unchained word of s1 -> s2 twice, then s2 -> s1 twice, on both
    # sides, glued slot to slot: a perfect, type-compatible matching
    word = [["s1", "s2"], ["s1", "s2"], ["s2", "s1"], ["s2", "s1"]]
    unchained = CycleAssignment.from_dict(
        {"w": [[a, "A", b] for a, b in word], "A": [[a, "w", b] for a, b in word]}
    )
    gluing = tuple((("w", i), ("A", i)) for i in range(4))
    assert verify_boundary_cycles(gluing, unchained, diamond_order()) == (
        ["boundary walk for s1 drifted to band ('A', 3): the cycles are not chained"],
        None,
    )


def test_no_compatible_partner_message():
    unbalanced = CycleAssignment.from_dict(
        {
            "w": [["s1", "A", "s2"], ["s2", "A", "s1"]],
            "A": [["s1", "w", "s2"], ["s2", "w", "s1"]] * 2,
        }
    )
    with pytest.raises(StarViolated) as exc:
        glue_bands(unbalanced, diamond_order())
    assert str(exc.value) == (
        "no compatible partner left for band ('A', 3) of type ('s2', 'w', 's1')"
    )
