"""Property tests of `gelu` and of the reductions `mean` and `reduce_sum` over
random shapes, axes and `keepdims` drawn by hypothesis (derandomized, so every
run draws the same examples): forward against numpy, gradients against
central differences, ShapeError for an axis outside the input's rank, and
gelu's output the same bits whether or not a tape records it."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from skattn import Parameter, Rng, ShapeError, Tape, Tensor, gelu, grad_check, mean
from skattn.tensor import reduce_sum

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40, database=None)
REDUCTIONS = {"mean": (mean, np.mean), "sum": (reduce_sum, np.sum)}


def _passes(f, x):
    rows = grad_check(f, [Parameter("x", x)])
    return all(r.passed for r in rows), [(r.name, r.max_rel_error) for r in rows]


@st.composite
def shapes(draw, min_rank=0):
    return tuple(draw(st.lists(st.integers(1, 4), min_size=min_rank, max_size=3)))


@st.composite
def gelu_inputs(draw):
    """x of a random shape (0-D included), spread 2 so both tails of the cdf
    are reached, and an upstream weight."""
    shape = draw(shapes())
    rng = Rng(draw(st.integers(0, 2 ** 32)))
    return Tensor(rng.normal(shape) * 2.0), rng.normal(shape)


@PROPERTY
@given(gelu_inputs())
def test_gelu_untaped_output_is_the_taped_output(inputs):
    # an untaped gelu writes its output over its cdf; a taped one keeps the cdf for backward
    x, _ = inputs
    untaped = gelu(x).data
    with Tape() as tape:
        taped = gelu(x).data
    assert len(tape) == 1 and np.array_equal(untaped, taped)


@settings(PROPERTY, max_examples=20)
@given(gelu_inputs())
def test_gelu_grad_check(inputs):
    x, w = inputs
    passed, rows = _passes(lambda: (gelu(x) * w).sum(), x)
    assert passed, rows


@st.composite
def reduction_inputs(draw):
    """x, an axis (None, one axis or a tuple of distinct axes, each maybe
    negative), keepdims, the reduction's name and an upstream weight."""
    shape = draw(shapes(min_rank=1))
    rank = len(shape)
    form = draw(st.sampled_from(["none", "int", "tuple"]))
    if form == "none":
        axis = None
    else:
        axes = draw(st.lists(st.integers(0, rank - 1), min_size=1, max_size=rank, unique=True))
        axes = tuple(a - rank if draw(st.booleans()) else a for a in axes)
        axis = axes[0] if form == "int" else axes
    keepdims = draw(st.booleans())
    name = draw(st.sampled_from(sorted(REDUCTIONS)))
    rng = Rng(draw(st.integers(0, 2 ** 32)))
    x = rng.normal(shape)
    return Tensor(x), axis, keepdims, name, rng.normal(np.sum(x, axis=axis, keepdims=keepdims).shape)


@PROPERTY
@given(reduction_inputs())
def test_reduction_matches_numpy(inputs):
    x, axis, keepdims, name, _ = inputs
    op, reference = REDUCTIONS[name]
    assert np.array_equal(op(x, axis=axis, keepdims=keepdims).data,
                          reference(x.data, axis=axis, keepdims=keepdims))


@settings(PROPERTY, max_examples=20)
@given(reduction_inputs())
def test_reduction_grad_check(inputs):
    x, axis, keepdims, name, w = inputs
    op, _ = REDUCTIONS[name]
    passed, rows = _passes(lambda: (op(x, axis=axis, keepdims=keepdims) * w).sum(), x)
    assert passed, rows


@PROPERTY
@given(reduction_inputs(), st.integers(0, 2), st.booleans(), st.booleans())
def test_reduction_out_of_range_axis_raises(inputs, past, negative, in_tuple):
    x, _, keepdims, name, _ = inputs
    op, _ = REDUCTIONS[name]
    axis = -x.ndim - 1 - past if negative else x.ndim + past
    if in_tuple:  # next to a valid axis
        axis = (0, axis)
    with pytest.raises(ShapeError, match=f"{name}: cannot reduce"):
        op(x, axis=axis, keepdims=keepdims)
