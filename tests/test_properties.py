"""Property tests of the parsers and validators: on any input they return
or raise a ValueError subclass, and they emit no warning. A state whose
"re" or "im" holds a string or a boolean raises ParameterRangeError."""
from __future__ import annotations

import contextlib
import io
import string
import warnings

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from concbound.cli import main
from concbound.errors import ParameterRangeError
from concbound.numerics import as_hermitian, as_symmetric
from concbound.states import DensityMatrix, state_from_jsonable

# No example database: each run draws afresh and stores no examples.
FAST = settings(max_examples=100, deadline=None, database=None)

# Text from an explicit alphabet: the full Unicode one takes hypothesis
# seconds to index on its first run.
TEXT = st.text(string.printable, max_size=3)
FLOATS = st.floats(allow_nan=True, allow_infinity=True)
LEAVES = st.none() | st.booleans() | st.integers(-3, 3) | FLOATS | TEXT
JSON = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=3), max_leaves=12)


@st.composite
def _state_blobs(draw):
    """A state object: "re" and "im" of one shape (a vector or a square
    matrix of any leaves, or any JSON value each), and any "dims"."""
    n = draw(st.integers(1, 4))
    shaped = st.lists(LEAVES, min_size=n, max_size=n)
    shaped = draw(st.sampled_from([shaped, st.lists(shaped, min_size=n, max_size=n), JSON]))
    dims = draw(st.lists(st.integers(-1, 4), max_size=3) | JSON)
    return {"dims": dims, "re": draw(shaped), "im": draw(shaped)}


@st.composite
def _blobs_with_a_non_number(draw):
    """A state object whose "re" and "im" (vectors or square matrices of
    numbers) hold one string or boolean between them, and any "dims"."""
    n, matrix = draw(st.integers(1, 4)), draw(st.booleans())
    size = n * n if matrix else n
    flat = {key: draw(st.lists(st.integers(-3, 3) | FLOATS, min_size=size, max_size=size)) for key in ("re", "im")}
    flat[draw(st.sampled_from(["re", "im"]))][draw(st.integers(0, size - 1))] = draw(st.booleans() | TEXT)
    shape = (lambda v: [v[r * n : r * n + n] for r in range(n)]) if matrix else (lambda v: v)
    dims = draw(st.lists(st.integers(-1, 4), max_size=3) | JSON)
    return {"dims": dims, "re": shape(flat["re"]), "im": shape(flat["im"])}


def _quietly(call, *args):
    """call(*args), with any warning raised as an error and a ValueError swallowed."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(*args)
        except ValueError:
            pass


@FAST
@given(_state_blobs() | JSON)
def test_state_from_jsonable_raises_only_value_errors(data):
    _quietly(state_from_jsonable, data)


@FAST
@given(_blobs_with_a_non_number())
def test_state_from_jsonable_rejects_non_numbers(data):
    with pytest.raises(ParameterRangeError, match="must hold numbers"):
        state_from_jsonable(data)


@FAST
@given(arrays(complex, st.tuples(st.integers(1, 4), st.integers(1, 4)), elements=st.complex_numbers(allow_nan=True, allow_infinity=True)))
def test_validators_raise_only_value_errors(mat):
    _quietly(as_hermitian, mat)
    _quietly(as_symmetric, mat)
    _quietly(DensityMatrix, mat, (mat.shape[0],))


# Every state stays at most 64 x 64: dims has at most three factors of at
# most 4, d is at most 64, and the junk text holds no digit.
JUNK = st.text(string.ascii_letters + string.punctuation + string.whitespace, max_size=3)
NAMES = st.sampled_from(["ghz-noise", "w-noise", "bell-noise", "horodecki", "maximally-mixed"]) | JUNK
VALUES = (
    FLOATS.map(repr)
    | st.integers(-2, 64).map(str)
    | st.lists(st.integers(0, 4), min_size=1, max_size=3).map(lambda dims: "x".join(map(str, dims)))
    | JUNK
)
PARAMS = st.lists(st.tuples(st.sampled_from(["p", "a", "d", "dims"]) | JUNK, VALUES), max_size=3)


@FAST
@given(NAMES, PARAMS)
def test_bound_on_any_family_descriptor_exits_zero_or_two(name, params):
    descriptor = ",".join(["family:" + name] + [f"{key}={val}" for key, val in params])
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        assert main(["bound", "--state", descriptor, "--mode", "ppt"]) in (0, 2)
