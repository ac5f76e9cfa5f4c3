"""Property tests of `conv2d_grouped` and of the reference `unfold` it is
tested against (`test_tensor.unfold`), over random shapes drawn by
hypothesis (derandomized, so every run draws the same examples)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from skattn import MacCounter, Rng, ShapeError, Tape, Tensor, backward, conv2d_grouped
from skattn import tensor as tz
from oracles import brute_conv2d
from test_tensor import composed_conv2d, unfold

PROPERTY = settings(derandomize=True, deadline=None, max_examples=30, database=None)


@st.composite
def unfold_shapes(draw):
    """(B, C, G, H, W, k, stride, padding) of a valid grouped unfold."""
    groups = draw(st.integers(1, 3))
    k = draw(st.integers(1, 4))
    padding = draw(st.integers(0, 2))
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    assume(h + 2 * padding >= k and w + 2 * padding >= k)
    return (draw(st.integers(1, 2)), groups * draw(st.integers(1, 3)), groups,
            h, w, k, draw(st.integers(1, 3)), padding)


@st.composite
def conv_shapes(draw):
    """(B, C, H, W, k) of a valid depthwise conv: stride 1, k odd, same
    padding, so a kernel may be wider than the input."""
    return (draw(st.integers(1, 2)), draw(st.integers(1, 6)), draw(st.integers(1, 6)),
            draw(st.integers(1, 6)), draw(st.sampled_from([1, 3, 5])))


def _arrays(shape, seed):
    b, c, h, w, k = shape
    rng = Rng(seed)
    return rng.normal((b, c, h, w)), rng.normal((c, 1, k, k)), rng.normal((c,))


@PROPERTY
@given(unfold_shapes(), st.integers(0, 2 ** 32))
def test_unfold_backward_is_the_adjoint(shape, seed):
    # <unfold(x), y> = <x, unfold^T(y)>, with unfold^T the taped backward
    b, c, g, h, w, k, stride, padding = shape
    x = Tensor(Rng(seed).normal((b, c, h, w)))
    with Tape() as tape:
        cols = unfold(x, k, stride=stride, padding=padding, groups=g)
        y = Rng(seed + 1).normal(cols.shape)
        loss = (cols * y).sum()
    backward(tape, loss)
    lhs = float((cols.data * y).sum())
    rhs = float((x.data * x.grad).sum())
    assert abs(lhs - rhs) <= 1e-12 * float(np.abs(cols.data * y).sum())


@PROPERTY
@given(conv_shapes(), st.integers(0, 2 ** 32))
def test_conv_matches_brute_force_and_counts_its_macs(shape, seed):
    b, c, h, w, k = shape
    x, wt, bias = _arrays(shape, seed)
    with MacCounter() as counter:
        got = conv2d_grouped(Tensor(x), Tensor(wt), Tensor(bias)).data
    want = brute_conv2d(x, wt, bias, padding=(k - 1) // 2, groups=c)
    assert got.shape == want.shape == (b, c, h, w)
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
    assert counter.macs == b * c * h * w * k * k


@PROPERTY
@given(conv_shapes(), st.integers(0, 2 ** 32),
       st.sampled_from(["rank", "groups", "groups<1", "stride<1", "padding<0", "kernel"]))
def test_shape_errors(shape, seed, fault):
    # stride, padding and groups are unfold's alone; the conv is depthwise
    # and same-padded, and its "groups" fault is kernels for c + 1 channels
    b, c, h, w, k = shape
    x, wt, _ = _arrays(shape, seed)
    g, stride, padding = c, 1, (k - 1) // 2
    if fault == "rank":
        x = x[0]
    elif fault == "groups":
        g = c + 1
        wt = np.zeros((c + 1, 1, k, k))
    elif fault == "groups<1":
        g = -(seed % 2)  # 0 or -1
    elif fault == "stride<1":
        stride = -(seed % 2)
    elif fault == "padding<0":
        padding = -1
    else:  # wider than the padded input for unfold, and even for the conv
        k = 2 * (max(h, w) + padding + 1)
        wt = np.zeros((c, 1, k, k))
    with pytest.raises(ShapeError):
        unfold(Tensor(x), k, stride=stride, padding=padding, groups=g)
    if fault not in ("groups<1", "stride<1", "padding<0"):
        with pytest.raises(ShapeError):
            conv2d_grouped(Tensor(x), Tensor(wt))


def _unfold_by_offsets(xd, k, stride, padding, groups):
    """The k^2 strided slice assignments `unfold` was first written as."""
    b, c, h, w = xd.shape
    ho, wo = (h + 2 * padding - k) // stride + 1, (w + 2 * padding - k) // stride + 1
    xp = np.pad(xd, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    xg = xp.reshape(b, groups, c // groups, xp.shape[2], xp.shape[3])
    cols = np.empty((b, groups, c // groups, k, k, ho, wo))
    for i in range(k):
        for j in range(k):
            cols[:, :, :, i, j] = xg[:, :, :, i:i + stride * ho:stride, j:j + stride * wo:stride]
    return cols.reshape(b, groups, -1, ho * wo)


@PROPERTY
@given(unfold_shapes(), st.integers(0, 2 ** 32), st.integers(1, 2), st.booleans())
def test_unfold_equals_the_slice_loop(shape, seed, stride, strided_input):
    # bit for bit, on contiguous inputs and on strided views alike
    b, c, g, h, w, k, _, padding = shape
    xd = Rng(seed).normal((b, c, h, w))
    if strided_input:
        xd = np.ascontiguousarray(xd.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2)
    got = unfold(Tensor(xd), k, stride=stride, padding=padding, groups=g).data
    want = _unfold_by_offsets(xd, k, stride, padding, g)
    assert got.shape == want.shape and np.array_equal(got, want)


def test_unfold_backward_is_the_same_in_any_chunking(monkeypatch):
    # a transposed-view gradient, as cska's windows get it, scattered in one
    # chunk and one batch row at a time
    x = Tensor(Rng(3).normal((5, 6, 7, 6)))
    with Tape() as tape:
        cols = unfold(x, 3, stride=2, padding=1, groups=2)
    (_, _, bwd), = tape.entries
    g = np.ascontiguousarray(Rng(4).normal(cols.shape).swapaxes(-1, -2)).swapaxes(-1, -2)
    (whole,) = bwd(g)
    monkeypatch.setattr(tz, "_CHUNK_BYTES", 1)
    (rows,) = bwd(g)
    assert np.array_equal(whole, rows)


@PROPERTY
@given(conv_shapes(), st.integers(0, 2 ** 32), st.booleans())
def test_conv_entry_matches_the_unfold_chain(shape, seed, with_bias):
    # one tape entry; forward, weight and bias gradients and MACs equal the
    # chain's bit for bit, and the input gradient agrees to rounding
    x, wt, bias = _arrays(shape, seed)

    def run(conv):
        inputs = [Tensor(x), Tensor(wt)] + ([Tensor(bias)] if with_bias else [])
        with Tape() as tape:
            with MacCounter() as counter:
                out = conv(*inputs)
            entries = len(tape)
            loss = (out * Rng(seed + 1).normal(out.shape)).sum()
        grads = backward(tape, loss)
        return out.data, [grads[t] for t in inputs], counter.macs, entries

    got, got_grads, got_macs, entries = run(conv2d_grouped)
    want, want_grads, want_macs, _ = run(composed_conv2d)
    assert entries == 1
    assert np.array_equal(got, want) and got_macs == want_macs
    assert all(np.array_equal(a, b) for a, b in zip(got_grads[1:], want_grads[1:]))
    assert np.abs(got_grads[0] - want_grads[0]).max() <= 1e-12 * np.abs(want_grads[0]).max()


@PROPERTY
@given(conv_shapes(), st.integers(0, 2 ** 32))
def test_conv_input_gradient_is_the_adjoint(shape, seed):
    # <conv(x, w), y> = <x, dx(y)>, with conv the brute-force loops and dx the
    # taped backward, bias-free; rounding is bounded by the sum of |products|
    g, padding = shape[1], (shape[-1] - 1) // 2
    x, wt, _ = _arrays(shape, seed)
    with Tape() as tape:
        out = conv2d_grouped(Tensor(x), wt)
    (_, _, bwd), = tape.entries
    y = Rng(seed + 1).normal(out.shape)
    (dx,) = bwd(y)
    lhs = float((brute_conv2d(x, wt, padding=padding, groups=g) * y).sum())
    scale = float((brute_conv2d(np.abs(x), np.abs(wt), padding=padding, groups=g) * np.abs(y)).sum())
    assert abs(lhs - float((x * dx).sum())) <= 1e-12 * scale


@PROPERTY
@given(conv_shapes(), st.integers(1, 5), st.integers(0, 2 ** 32), st.sampled_from([1, 1000, 4000]))
def test_conv_is_the_same_in_any_chunking_taped_or_not(shape, batch, seed, budget):
    # chunks of one batch row (budget 1 byte) or a few (ragged last chunk
    # included) against the default: forward, dx, dW, dbias and MACs bit for
    # bit; an untaped forward equals a taped one (both reuse one chunk buffer
    # of windows, which dW copies again)
    x, wt, bias = _arrays((batch,) + shape[1:], seed)

    def run():
        inputs = [Tensor(x), Tensor(wt), Tensor(bias)]
        with MacCounter() as counter:
            untaped = conv2d_grouped(*inputs).data
            with Tape() as tape:
                out = conv2d_grouped(*inputs)
        (_, _, bwd), = tape.entries
        assert np.array_equal(untaped, out.data)
        return [out.data, *bwd(Rng(seed + 1).normal(out.shape))], counter.macs

    want, want_macs = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tz, "_CHUNK_BYTES", budget)
        got, got_macs = run()
    assert got_macs == want_macs
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
