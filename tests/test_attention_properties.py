"""Property tests of the fused `attention` entry against the composed chain,
and of its windows form against the unfold chain, over random shapes, key
and bias forms, row activations, CLS borders and chunk budgets drawn by
hypothesis (derandomized, so every run draws the same examples)."""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from skattn import AttentionMaps, MacCounter, Rng, ShapeError, Tape, Tensor, attention, backward
from skattn import tensor as tz
from test_tensor import ROW_ACTIVATIONS, _grads, attention_grads, composed_attention, unfold

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40, database=None)


@st.composite
def attention_shapes(draw):
    """(q, k, v, bias-or-None) shapes of a valid call: [B, H, Nq, dk] queries,
    [B, H, Nk, dv] values, a [B, H, Nk, dk] key or one [H, Nk, dk] shared by
    every batch row, and no bias or a [H, 1, Nk] one."""
    b, h = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    nq, nk, dk, dv = (draw(st.integers(1, 5)) for _ in range(4))
    key = (h, nk, dk) if draw(st.booleans()) else (b, h, nk, dk)
    bias = (h, 1, nk) if draw(st.booleans()) else None
    return (b, h, nq, dk), key, (b, h, nk, dv), bias


def _tensors(shapes, seed):
    rng = Rng(seed)
    return [None if s is None else Tensor(rng.normal(s)) for s in shapes]


@PROPERTY
@given(attention_shapes(), st.integers(1, 1 << 12), st.sampled_from([1.0, 0.5, 0.3]),
       st.integers(0, 2 ** 32))
def test_fused_equals_chain(shapes, budget, scale, seed):
    q, k, v, bias = _tensors(shapes, seed)
    inputs = tuple(t for t in (q, k, v, bias) if t is not None)
    w = Rng(seed + 1).normal(shapes[0][:-1] + shapes[2][-1:])

    def run(fn):
        return _grads(lambda *a: fn(*a[:3], scale, bias if bias is None else a[3]), inputs, w)

    with mock.patch.object(tz, "_CHUNK_BYTES", budget):
        got, got_g = run(attention)
    want, want_g = run(composed_attention)
    assert np.array_equal(got, want)
    for g_fused, g_chain in zip(got_g, want_g):
        assert g_fused.shape == g_chain.shape
        assert np.abs(g_fused - g_chain).max() <= 1e-12


@PROPERTY
@given(attention_shapes(), st.integers(0, 2 ** 32),
       st.sampled_from(["nk", "dk", "v_batch", "k_batch", "k_heads", "bias_rows", "bias_rank",
                        "q_rank", "v_rank"]))
def test_mismatched_shapes_raise_shape_error(shapes, seed, fault):
    q, k, v, bias = shapes
    b, h, nq, _ = q
    if fault == "nk":
        v = v[:-2] + (v[-2] + 1, v[-1])
    elif fault == "dk":
        k = k[:-1] + (k[-1] + 1,)
    elif fault == "v_batch":
        v = (b + 1,) + v[1:]
    elif fault == "k_batch":
        k = (b + 1, h) + k[-2:]
    elif fault == "k_heads":
        k = (h + 1,) + k[-2:]
    elif fault == "bias_rows":
        bias = (h, nq + 1, k[-2])
    elif fault == "bias_rank":
        bias = (1, h, 1, k[-2])
    elif fault == "q_rank":
        q = q[1:]
    else:
        v = v[1:]
    q_t, k_t, v_t, bias_t = _tensors((q, k, v, bias), seed)
    with pytest.raises(ShapeError):
        attention(q_t, k_t, v_t, 0.5, bias_t)


@st.composite
def windows_shapes(draw):
    """(B, H, c, gh, gw, kernel, Nk, dv, key lead) of the windows form: batch 0
    included, grids not square, and a key [H, Nk, dk] (cska's) or one with
    the batch axis too."""
    b, h = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    return (b, h, draw(st.integers(1, 3)), draw(st.integers(1, 5)), draw(st.integers(1, 5)),
            draw(st.sampled_from([1, 3, 5])), draw(st.integers(1, 6)), draw(st.integers(1, 3)),
            draw(st.sampled_from([(h,), (b, h)])))


def _windows_chain(q, k, v, scale, bias, kernel):
    """The windows form's reference: the reference unfold, its transpose, then
    the plain fused entry (the path cska took before the windows form)."""
    cols = unfold(q, kernel, padding=(kernel - 1) // 2, groups=v.shape[1])
    return attention(cols.transpose(0, 1, 3, 2), k, v, scale, bias)


def _windows_form(q, k, v, scale, bias, kernel):
    return attention(q, k, v, scale, bias, kernel=kernel)


@PROPERTY
@given(windows_shapes(), st.booleans(), st.sampled_from([1, None]), st.sampled_from([1.0, 0.35]),
       st.integers(0, 2 ** 32))
def test_windows_form_equals_the_unfold_chain(shape, with_bias, budget, scale, seed):
    # forward, recorded map, every gradient and the MACs bit for bit, at a
    # budget of one batch row per chunk (1 byte) and at the default; an
    # untaped forward with no recorder, which reuses one chunk of windows and
    # weights, equals a taped one
    b, h, c, gh, gw, kernel, nk, dv, k_lead = shape
    q, k, v, bias = _tensors(((b, h * c, gh, gw), k_lead + (nk, c * kernel * kernel),
                              (b, h, nk, dv), (h, 1, nk) if with_bias else None), seed)
    inputs = tuple(t for t in (q, k, v, bias) if t is not None)
    w = Rng(seed + 1).normal((b, h, gh * gw, dv))

    def run(fn):
        with MacCounter() as counter, AttentionMaps() as maps:
            with Tape() as tape:
                out = fn(q, k, v, scale, bias, kernel)
                loss = (out * w).sum()
        grads = backward(tape, loss)
        untaped = fn(q, k, v, scale, bias, kernel).data
        assert np.array_equal(untaped, out.data)
        return [out.data, *maps] + [grads[t] for t in inputs], counter.macs

    with mock.patch.object(tz, "_CHUNK_BYTES", budget or tz._CHUNK_BYTES):
        got, got_macs = run(_windows_form)
    want, want_macs = run(_windows_chain)
    assert got_macs == want_macs == b * h * gh * gw * nk * (c * kernel * kernel + dv)
    assert len(got) == len(want)
    for a, e in zip(got, want):
        assert a.shape == e.shape and np.array_equal(a, e)


@st.composite
def activation_calls(draw):
    """One call of any row activation, in the plain form (a [B, H, Nk, dk] or
    shared key, maybe a bias) or the windows form (maybe with the CLS
    border): (Tensor arguments by name, other arguments, upstream shape)."""
    b, h, dv = draw(st.integers(0, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    activation = draw(st.sampled_from(ROW_ACTIVATIONS))
    lead = draw(st.sampled_from([(h,), (b, h)]))
    if draw(st.booleans()):  # windows
        c, gh, gw, kernel = (draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 4)),
                             draw(st.sampled_from([1, 3])))
        n, o = gh * gw, int(draw(st.booleans()))
        shapes = dict(q=(b, h * c, gh, gw), k=lead + (n, c * kernel * kernel), v=(b, h, n + o, dv))
        if o:
            shapes.update(cls_query=(b, h, n + 1, c), cls_key=(h, 1, c))
        static, nq, nk = dict(kernel=kernel), n + o, n
    else:
        nq, nk, dk = (draw(st.integers(1, 5)) for _ in range(3))
        shapes, static = dict(q=(b, h, nq, dk), k=lead + (nk, dk), v=(b, h, nk, dv)), {}
    if draw(st.booleans()):
        shapes["bias"] = (h, 1, nk)
    if activation == "starrelu":
        shapes.update(act_scale=(1,), act_bias=(1,))
    return shapes, dict(static, activation=activation), (b, h, nq, dv)


@PROPERTY
@given(activation_calls(), st.integers(1, 1 << 12), st.sampled_from([1.0, 0.35]),
       st.integers(0, 2 ** 32))
def test_every_activation_is_invisible_to_chunking(call, budget, scale, seed):
    # any budget gives the default budget's output and gradients bit for bit
    # (the batch sums of a shared key, the bias, the CLS key and starrelu's
    # scalars included); both agree with the composed chain to 1e-12 relative
    # (the output bit for bit under softmax) and count its MACs
    shapes, static, w_shape = call
    rng = Rng(seed)
    tensors = {name: Tensor(rng.normal(shape)) for name, shape in shapes.items()}
    w = rng.normal(w_shape)

    def run(fn):
        with MacCounter() as counter:
            out, grads = attention_grads(fn, tensors, static, w, scale)
        return [out] + grads, counter.macs

    got, got_macs = run(attention)
    with mock.patch.object(tz, "_CHUNK_BYTES", budget):
        chunked, _ = run(attention)
    want, want_macs = run(composed_attention)
    assert got_macs == want_macs
    for a, c, e in zip(got, chunked, want):
        assert a.shape == c.shape == e.shape and np.array_equal(a, c)
        if static["activation"] == "softmax" and a is got[0]:
            assert np.array_equal(a, e)
        assert a.size == 0 or np.abs(a - e).max() <= 1e-12 * np.abs(e).max()
