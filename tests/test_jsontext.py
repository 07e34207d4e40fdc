"""jsontext.canonical_json against the json.dumps call it stands for.

Every report and model file goes through canonical_json, so its text
must be json.dumps(doc, sort_keys=True, indent=2) + "\\n" for any
document: nested dicts, lists and tuples, empty containers, escaped
strings, big integers and non-finite floats.
"""

import json
import math

import pytest

from harboost.floattext import row_texts
from harboost.jsontext import canonical_json

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


TEXT = st.text(st.characters(codec=None), max_size=8) | st.sampled_from(
    ["", "é", "☃", "\U0001f600", '"', "\\", "\x00\x1f\x7f", "\udce9",
     "\n\t\r\b\f", "</script>"])
SCALARS = (
    st.none() | st.booleans() | st.floats() | TEXT
    | st.integers() | st.integers(2 ** 63, 2 ** 200).map(lambda i: -i)
    | st.integers(2 ** 63, 2 ** 200)
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300,
                       5e-324, 0.1, 2 ** 63, -2 ** 63 - 1]))
DOCS = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=20,
)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(DOCS)
def test_canonical_json_is_json_dumps(doc):
    assert canonical_json(doc) == dumps(doc)


@pytest.mark.parametrize("doc", [
    {}, [], (), {"a": {}, "b": [], "c": [[]], "d": [{}]},
    [[1, 2], [3.5, [4, []]], {"k": (True, None)}],
    {1: "one", 2: "two"}, {2.5: 0, -0.0: 1}, {True: 1, False: 0},
    {None: 0}, "text", 7, None, math.nan,
    # float lists of one or many lengths, with non-float or non-finite cells
    [[0.5, 1e-05], [1e16, -0.0]], [[0.1, 0.2], (0.3, 0.4)],
    {"a": [[[0.5, 0.25]], [[1.5, 2.5]]], "b": [[1.0], [2.0, 3.0]]},
    [[1.0, 2], [3.0, 4.0]], [[math.nan, 1.0], [2.0, 3.0]], [[], []],
    [[1.0, True]], [[0.1, None]],
], ids=repr)
def test_canonical_json_edge_documents(doc):
    assert canonical_json(doc) == dumps(doc)


@pytest.mark.parametrize("doc", [{(1,): 0}, [object()], {"a": {1, 2}},
                                 {"a": 1, 2: "b"}])
def test_canonical_json_refuses_what_json_dumps_refuses(doc):
    with pytest.raises(TypeError) as expected:
        dumps(doc)
    with pytest.raises(TypeError) as got:
        canonical_json(doc)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("array", [
    [[0.1]], [[i / 7] for i in range(60)], [[i / 7 for i in range(60)]],
    [[0.5, 1e-05], [1e16, -0.0]],
], ids=lambda a: f"{len(a)}x{len(a[0])}")
def test_row_texts_are_written_as_their_lists(array):
    import numpy as np

    a = np.array(array)
    assert canonical_json({"rows": row_texts(a)}) == dumps({"rows": a.tolist()})


@pytest.mark.parametrize("array", [
    [[math.nan, 1.0]], [[math.inf, 1.0], [2.0, 3.0]], [[-math.inf]],
    [[]], [[], []],
], ids=repr)
def test_row_texts_refuse_empty_and_non_finite_matrices(array):
    import numpy as np

    with pytest.raises(ValueError, match="empty or non-finite"):
        row_texts(np.array(array, dtype=np.float64))
