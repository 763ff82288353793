"""``jsonify`` against a reference converter that walks every element.

``jsonify`` turns a NumPy array into lists in one ``tolist`` call; the
reference below is the plain recursive definition (every array element
visited, non-finite floats → ``None``).  Both must serialize to the
same bytes for every dtype, shape and nesting the answers use.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Any

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.io.json_io import jsonify


def reference(obj: Any) -> Any:
    """Element-by-element conversion: the contract ``jsonify`` keeps."""
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, np.ndarray):
        return reference(obj.tolist())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return reference(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {reference(k): reference(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference(v) for v in obj]
    return obj


@dataclasses.dataclass
class Card:
    name: str
    payload: Any


DTYPES = [
    np.int8, np.int32, np.int64, np.uint8, np.uint16, np.uint64,
    np.bool_, np.float32, np.float64,
]

shapes = hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4)


@st.composite
def arrays(draw):
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    if dtype.kind == "f":
        elements = st.floats(
            allow_nan=True, allow_infinity=True, width=dtype.itemsize * 8
        )
    else:
        elements = hnp.from_dtype(dtype)
    return draw(hnp.arrays(dtype, draw(shapes), elements=elements))


scalars = st.one_of(
    st.integers(-(2**40), 2**40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.integers(-100, 100).map(np.int64),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
)

values = st.recursive(
    st.one_of(scalars, arrays()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(inner, inner),
        st.dictionaries(st.text(max_size=3), inner, max_size=4),
        st.builds(Card, st.text(max_size=3), inner),
    ),
    max_leaves=12,
)


def dumps(obj: Any) -> str:
    return json.dumps(obj, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(obj=values)
def test_matches_reference_converter(obj):
    assert dumps(jsonify(obj)) == dumps(reference(obj))


@settings(max_examples=200, deadline=None)
@given(arr=arrays())
def test_arrays_match_reference(arr):
    out = jsonify(arr)
    assert out == reference(arr)
    assert dumps(out) == dumps(reference(arr))


def test_non_finite_floats_become_null():
    arr = np.array([[1.5, np.nan], [-np.inf, np.inf]], dtype=np.float32)
    assert jsonify(arr) == [[1.5, None], [None, None]]
    assert jsonify(np.float64(np.inf)) is None
    assert jsonify(np.array(np.nan)) is None


def test_arrays_convert_to_native_scalars():
    out = jsonify({"a": np.arange(3, dtype=np.uint16), "b": np.array([True])})
    assert out == {"a": [0, 1, 2], "b": [True]}
    assert all(type(v) is int for v in out["a"])
    assert type(out["b"][0]) is bool
    assert jsonify(np.empty((0, 3), dtype=np.int64)) == []
    assert jsonify(np.array(7, dtype=np.int32)) == 7


def test_object_arrays_walk_their_elements():
    arr = np.array([np.int64(3), np.float32(np.inf), "x"], dtype=object)
    assert jsonify(arr) == [3, None, "x"]
