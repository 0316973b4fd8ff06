"""The CLI's JSON writer against ``json.dumps(indent=2, sort_keys=True)``."""

import enum
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from smale_orders.cli import _dump

# characters json escapes or the writer's structure uses, beside any others;
# the default alphabet includes astral characters (written as surrogate pairs)
SPECIAL = '"\\/\x00\x08\t\n\x0c\r\x1f\x7f\x80\xe9\u2028\ufeff\U0001f600[]{},: '
text = st.text(st.one_of(st.sampled_from(SPECIAL), st.characters()))
ints = st.one_of(
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.sampled_from([0, 1, -1, 2**63, -(2**63) - 1]),
)
scalars = st.one_of(st.none(), st.booleans(), ints, text)
# lists of flat lists of mixed and zero lengths: the writer's one-join rows
rows = st.lists(st.lists(scalars, max_size=4) | st.tuples(scalars, scalars), max_size=6)
trees = st.recursive(
    scalars | rows,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(text, children, max_size=5),
    ),
    max_leaves=40,
)


def reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@settings(max_examples=200)
@given(trees)
@example([[]])
@example([{}])
@example({"a": []})
@example({"": {}, "a": [[], [[]]]})
@example([1, True, 0, False, None])
@example([[1, True], [True, 1], [0, False]])
@example([[1], [], [2, 3]])
@example([[1], [[2]], ["x"]])
@example([[-(2**100), 2**100]])
@example({"\U0001f600": "\ud83d\ude00 \\ \" \x00", "[]{},:": ["[]{},:"]})
def test_writer_matches_json_dumps(obj):
    assert _dump(obj) == reference(obj)


class Colour(enum.Enum):
    RED = "red"


@pytest.mark.parametrize(
    "obj, name",
    [
        (1.5, "float"),
        ([1, 2.0], "float"),
        ([[1, 2.0]], "float"),
        ({"a": {1: "x"}}, "int"),
        ({(1, 2): "x"}, "tuple"),
        ({1, 2}, "set"),
        ([[frozenset()]], "frozenset"),
        (Colour.RED, "Colour"),
    ],
)
def test_writer_rejects_other_types(obj, name):
    with pytest.raises(TypeError, match=name):
        _dump(obj)
