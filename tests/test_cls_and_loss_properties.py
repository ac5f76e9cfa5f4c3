"""Property tests of the CLS path's `concat` and `slice_axis` and of the
loss's `log_softmax_rows` and `gather_last` over random shapes drawn by
hypothesis (derandomized, so every run draws the same examples): gradients
against central differences, and ShapeError on mismatched shapes,
out-of-range indices or axes, and no or 0-D inputs to `concat`."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from skattn import (Parameter, Rng, ShapeError, Tape, Tensor, backward, concat, gather_last,
                    grad_check, log_softmax_rows, slice_axis)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40, database=None)


def _passes(f, tensors):
    rows = grad_check(f, [Parameter(f"t{i}", t) for i, t in enumerate(tensors)])
    return all(r.passed for r in rows), [(r.name, r.max_rel_error) for r in rows]


@st.composite
def concat_inputs(draw):
    """Pieces of one rank that differ only along `axis`, and an upstream weight."""
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    axis = draw(st.integers(-len(shape), len(shape) - 1))
    rng = Rng(draw(st.integers(0, 2 ** 32)))
    pieces = []
    for n in draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)):
        piece_shape = list(shape)
        piece_shape[axis] = n
        pieces.append(Tensor(rng.normal(tuple(piece_shape))))
    out_shape = np.concatenate([p.data for p in pieces], axis=axis).shape
    return pieces, axis, rng.normal(out_shape)


@PROPERTY
@given(concat_inputs())
def test_concat_grad_check(inputs):
    pieces, axis, w = inputs
    out = concat(pieces, axis=axis)
    assert np.array_equal(out.data, np.concatenate([p.data for p in pieces], axis=axis))
    passed, rows = _passes(lambda: (concat(pieces, axis=axis) * w).sum(), pieces)
    assert passed, rows


@PROPERTY
@given(concat_inputs(), st.sampled_from(["off_axis", "rank"]))
def test_concat_mismatched_shapes_raise(inputs, fault):
    pieces, axis, _ = inputs
    shape = pieces[0].shape
    if fault == "rank":
        bad = Tensor(np.zeros(shape + (1,)))
    elif len(shape) == 1:  # no axis but `axis` itself: a rank mismatch instead
        bad = Tensor(np.zeros((1,) + shape))
    else:
        other = (axis + 1) % len(shape)
        bad = Tensor(np.zeros(tuple(n + 1 if i == other else n for i, n in enumerate(shape))))
    with pytest.raises(ShapeError, match="concat"):
        concat(pieces + [bad], axis=axis)


def test_concat_of_no_inputs_raises():
    with pytest.raises(ShapeError, match="concat"):
        concat([])


@pytest.mark.parametrize("count", [1, 2])
def test_concat_of_0d_inputs_raises(count):
    with pytest.raises(ShapeError, match="concat"):
        concat([Tensor(np.float64(i)) for i in range(count)], axis=0)


@PROPERTY
@given(concat_inputs(), st.integers(0, 2), st.booleans())
def test_concat_out_of_range_axis_raises(inputs, past, negative):
    pieces, _, _ = inputs
    rank = pieces[0].ndim
    axis = -rank - 1 - past if negative else rank + past
    with pytest.raises(ShapeError, match="concat"):
        concat(pieces, axis=axis)


@st.composite
def slice_inputs(draw):
    """x, an axis, a range [start, stop) of that axis, and an upstream weight."""
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)))
    axis = draw(st.integers(-len(shape), len(shape) - 1))
    start = draw(st.integers(0, shape[axis]))
    stop = draw(st.integers(start, shape[axis]))
    rng = Rng(draw(st.integers(0, 2 ** 32)))
    out_shape = tuple(stop - start if i == axis % len(shape) else n for i, n in enumerate(shape))
    return Tensor(rng.normal(shape)), axis, start, stop, rng.normal(out_shape)


@PROPERTY
@given(slice_inputs())
def test_slice_axis_grad_check(inputs):
    x, axis, start, stop, w = inputs
    assert np.array_equal(slice_axis(x, axis, start, stop).data,
                          np.take(x.data, np.arange(start, stop), axis=axis))
    passed, rows = _passes(lambda: (slice_axis(x, axis, start, stop) * w).sum(), [x])
    assert passed, rows


@PROPERTY
@given(slice_inputs(), st.sampled_from(["negative_start", "past_the_end", "reversed", "axis"]))
def test_slice_axis_out_of_range_raises(inputs, fault):
    x, axis, start, stop, _ = inputs
    n = x.shape[axis]
    if fault == "negative_start":
        start = -1
    elif fault == "past_the_end":
        stop = n + 1
    elif fault == "reversed":
        start, stop = stop + 1, stop
    else:
        axis = x.ndim
    with pytest.raises(ShapeError, match="slice_axis"):
        slice_axis(x, axis, start, stop)


@st.composite
def loss_inputs(draw):
    """Logits [B, K], labels in [0, K) and per-row weights: the loss's inputs.

    The logits are unit normal. At 3x that spread some softmax weights come
    within 1e-6 of 1, and central differences at epsilon 1e-5 cannot resolve
    the ~1e-7 gradients that leaves to 1e-5 relative, although the analytic
    gradient still equals the closed form to 4.4e-16.
    """
    b, k = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    rng = Rng(draw(st.integers(0, 2 ** 32)))
    labels = [draw(st.integers(0, k - 1)) for _ in range(b)]
    return Tensor(rng.normal((b, k))), labels, rng.normal((b,))


@PROPERTY
@given(loss_inputs())
def test_log_softmax_and_gather_grad_check(inputs):
    # the gradient is the closed form w * (onehot(label) - softmax), and passes grad_check
    x, labels, w = inputs
    with Tape() as tape:
        loss = (gather_last(log_softmax_rows(x), labels) * w).sum()
    p = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    onehot = np.eye(x.shape[1])[labels]
    assert np.abs(backward(tape, loss)[x] - w[:, None] * (onehot - p)).max() <= 1e-12
    passed, rows = _passes(lambda: (gather_last(log_softmax_rows(x), labels) * w).sum(), [x])
    assert passed, rows


@PROPERTY
@given(loss_inputs(), st.sampled_from(["past_k", "negative", "count", "rank", "empty_row"]))
def test_loss_shape_and_index_errors_raise(inputs, fault):
    x, labels, _ = inputs
    b, k = x.shape
    if fault == "empty_row":
        with pytest.raises(ShapeError, match="log_softmax"):
            log_softmax_rows(Tensor(np.zeros((b, 0))))
        return
    if fault == "past_k":
        labels = labels[:-1] + [k]
    elif fault == "negative":
        labels = [-1] + labels[1:]
    elif fault == "count":
        labels = labels + [0]
    else:
        x = Tensor(x.data.reshape(1, b, k))
    with pytest.raises(ShapeError, match="gather_last"):
        gather_last(x, labels)
