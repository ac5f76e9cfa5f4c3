import itertools
import math
import re
import tracemalloc
import types

import numpy as np
import pytest
from scipy.special import erf

from skattn import (AttentionMaps, MacCounter, NumericsError, Parameter, Rng, ShapeError, Tape,
                    Tensor, attention, backward, concat, conv2d_grouped, cross_entropy,
                    finite_checks, gelu, grad_check, layer_norm, matmul, mean, softmax_rows,
                    transpose)
from skattn import tensor as tz
from oracles import brute_conv2d, loop_permutation


def _zeros(*shape):
    return Tensor(np.zeros(shape))


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(a, b).data, b.data)

    def test_hand_expanded(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0, 6.0], [7.0, 8.0]]))
        assert np.array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])

    def test_zero_annihilator(self):
        out = matmul(Tensor(np.zeros((2, 3))), Tensor(Rng(0).normal((3, 4))))
        assert np.array_equal(out.data, np.zeros((2, 4)))

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))

    @pytest.mark.parametrize("seed", range(3))
    def test_associativity(self, seed):
        rng = Rng(seed)
        a, b, c = (Tensor(rng.normal((4, 5))), Tensor(rng.normal((5, 6))),
                   Tensor(rng.normal((6, 3))))
        left = matmul(matmul(a, b), c).data
        right = matmul(a, matmul(b, c)).data
        assert np.abs(left - right).max() <= 1e-9 * max(1.0, np.abs(left).max())

    def test_batch_broadcast(self):
        a = Tensor(Rng(0).normal((2, 3, 4, 5)))
        b = Tensor(Rng(1).normal((5, 6)))
        assert matmul(a, b).shape == (2, 3, 4, 6)

    def test_mac_count(self):
        a, b = Tensor(np.ones((7, 3))), Tensor(np.ones((3, 5)))
        with MacCounter() as c:
            matmul(a, b)
        assert c.macs == 7 * 3 * 5


class TestSoftmax:
    def test_constant_row(self):
        for c in (-4.0, 0.0, 17.5):
            out = softmax_rows(Tensor([c, c, c]))
            assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_shift_invariance(self):
        x = Rng(3).normal((4, 6))
        base = softmax_rows(Tensor(x)).data
        shifted = softmax_rows(Tensor(x + 11.25)).data
        assert np.abs(base - shifted).max() < 1e-14

    def test_exp_normalize_evaluation(self):
        out = softmax_rows(Tensor([0.0, math.log(2.0)]))
        assert np.allclose(out.data, [1 / 3, 2 / 3], atol=1e-15)

    @pytest.mark.parametrize("seed", range(4))
    def test_rows_sum_to_one_wide_range(self, seed):
        x = Rng(seed).uniform((5, 9)) * 100.0 - 50.0
        sums = softmax_rows(Tensor(x)).data.sum(axis=-1)
        assert np.abs(sums - 1.0).max() < 1e-12

    def test_empty_last_axis(self):
        with pytest.raises(ShapeError):
            softmax_rows(Tensor(np.zeros((3, 0))))


def _swap_last(t):
    return transpose(t, (*range(t.ndim - 2), t.ndim - 1, t.ndim - 2))


def composed_attention(q, k, v, scale=1.0, bias=None, kernel=None, activation="softmax",
                       act_scale=None, act_bias=None, cls_query=None, cls_key=None):
    """The unfused reference for `attention`: matmul(q, k^T) -> add(bias) ->
    mul(scale) -> the row activation -> matmul, recording the weights as the
    fused entry does. For the windows form (`kernel` given) the queries are
    the same-padded windows of the query image: unfold -> transpose first.
    With a CLS key the spatial logits are bordered by two concats: the CLS
    query's zero row above, and the column of each query's product with the
    CLS key on the left. starrelu is mul(mul(r, r), act_scale) + act_bias of
    r = relu(logits)."""
    if kernel is not None:
        q = _swap_last(unfold(q, kernel, padding=(kernel - 1) // 2, groups=tz._data(v).shape[1]))
    logits = matmul(q, _swap_last(k))
    if bias is not None:
        logits = tz.add(logits, bias)
    if cls_key is not None:
        b, h, _, n = logits.shape
        rows = concat([Tensor(np.zeros((b, h, 1, n))), logits], axis=2)
        logits = concat([matmul(cls_query, _swap_last(cls_key)), rows], axis=3)
    if scale != 1.0:
        logits = tz.mul(logits, scale)
    if activation == "softmax":
        attn = softmax_rows(logits)
    elif activation == "relu":
        attn = tz.relu(logits)
    elif activation == "gelu":
        attn = gelu(logits)
    else:
        r = tz.relu(logits)
        attn = tz.mul(tz.mul(r, r), act_scale) + act_bias
    AttentionMaps.record(attn.data)
    return matmul(attn, v)


def unfold(x, k, *, stride=1, padding=0, groups=1):
    """The k x k windows of a zero-padded [B, C, H, W] image as matmul columns
    [B, G, C/G*k*k, H'*W'], H' = (H + 2*padding - k) // stride + 1, as a taped
    entry (im2col: Chellapilla, Puri & Simard, IWFHR 2006). Per group, column
    p is the window at output position p and row (c, i, j) is channel c at
    kernel offset (i, j). Backward is the scatter-add, in (i, j) order, a
    chunk of batch rows at a time. The reference the library's window
    builders (`conv2d_grouped`, `attention`'s windows form) are tested
    against, so it builds its windows with numpy's `sliding_window_view`,
    not with theirs."""
    xd = tz._data(x)
    if xd.ndim != 4:
        raise ShapeError(f"unfold: input must be [B, C, H, W], got {xd.shape}")
    B, C, H, W = xd.shape
    if stride < 1 or groups < 1 or padding < 0:
        raise ShapeError(f"unfold: needs stride >= 1, groups >= 1 and padding >= 0, got "
                         f"stride={stride}, groups={groups}, padding={padding}")
    if C % groups:
        raise ShapeError(f"unfold: {C} channels not divisible by groups={groups}")
    hp, wp = H + 2 * padding, W + 2 * padding
    if hp < k or wp < k:
        raise ShapeError(f"unfold: kernel {k} too large for input {H}x{W} with padding {padding}")
    xp = np.pad(xd, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    cols = windows.transpose(0, 1, 4, 5, 2, 3).copy()  # [B, C, k, k, H', W']; C splits into (G, C/G)
    ho, wo = cols.shape[-2:]
    group_shape = (B, groups, C // groups)

    def bwd(g):
        gxp = np.zeros(group_shape + (hp, wp))
        step = tz._chunk_rows(g[:1].nbytes)
        for lo in range(0, B, step):
            g6 = np.ascontiguousarray(g[lo:lo + step]).reshape((-1,) + group_shape[1:] + (k, k, ho, wo))
            gx = gxp[lo:lo + step]
            for i in range(k):
                for j in range(k):
                    gx[:, :, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += g6[:, :, :, i, j]
        return (gxp.reshape(B, C, hp, wp)[:, :, padding:padding + H, padding:padding + W],)

    with finite_checks(False):  # a move creates no non-finite value, so its output is not scanned
        return tz._make(cols.reshape(B, groups, C // groups * k * k, ho * wo), "unfold", (x,), bwd)


def composed_conv2d(x, weight, bias=None):
    """The unfused reference for `conv2d_grouped`: unfold, same-padded, one
    group per channel -> matmul of the weight as [C, 1, k*k] -> reshape ->
    add(bias)."""
    b, c, h, w = tz._data(x).shape
    k = tz._data(weight).shape[-1]
    cols = unfold(x, k, padding=(k - 1) // 2, groups=c)
    out = matmul(tz.reshape(weight, (c, 1, k * k)), cols)
    out = tz.reshape(out, (b, c, h, w))
    if bias is not None:
        out = tz.add(out, tz.reshape(bias, (c, 1, 1)))
    return out


def _grads(f, inputs, w):
    with Tape() as tape:
        out = f(*inputs)
        loss = (out * w).sum()
    grads = backward(tape, loss)
    return out.data, [grads[t] for t in inputs]


def _operands(lead, nq, nk, dk, dv, k_lead=None, bias_shape=None, seed=0):
    """q, k, v, bias (or None) and an upstream weight w for `attention`."""
    rng = Rng(seed)
    k_lead = lead if k_lead is None else k_lead
    q = Tensor(rng.normal((*lead, nq, dk)))
    k = Tensor(rng.normal((*k_lead, nk, dk)))
    v = Tensor(rng.normal((*lead, nk, dv)))
    bias = None if bias_shape is None else Tensor(rng.normal(bias_shape))
    return q, k, v, bias, rng.normal((*lead, nq, dv))


ROW_ACTIVATIONS = ("softmax", "relu", "gelu", "starrelu")


def call_operands(activation, border, b, seed):
    """The Tensor arguments of one `attention` call by name, its other
    arguments and an upstream weight: the plain form with a shared key and a
    bias (2 heads, 6 queries, 7 keys), or the windows form with the CLS
    border (a 2x3 grid, 2 channels per head, kernel 3, 7 values)."""
    rng = Rng(seed)
    h, dv = 2, 4
    if border:
        n, c = 6, 2
        shapes = dict(q=(b, h * c, 2, 3), k=(h, n, c * 9), v=(b, h, n + 1, dv), bias=(h, 1, n),
                      cls_query=(b, h, n + 1, c), cls_key=(h, 1, c))
        static, nq = dict(kernel=3), n + 1
    else:
        shapes, static, nq = dict(q=(b, h, 6, 3), k=(h, 7, 3), v=(b, h, 7, dv), bias=(h, 1, 7)), {}, 6
    if activation == "starrelu":
        shapes.update(act_scale=(1,), act_bias=(1,))
    tensors = {name: Tensor(rng.normal(shape)) for name, shape in shapes.items()}
    return tensors, dict(static, activation=activation), rng.normal((b, h, nq, dv))


def attention_grads(fn, tensors, static, w, scale=0.3):
    """The output and the gradients of `tensors` of fn(**tensors, **static)."""
    names = list(tensors)
    return _grads(lambda *a: fn(scale=scale, **dict(zip(names, a)), **static), list(tensors.values()), w)


class TestAttention:
    """The fused entry against the matmul -> add -> mul -> activation ->
    matmul chain (`composed_attention`)."""

    @pytest.mark.parametrize("scale", [1.0, 0.5, 1.0 / math.sqrt(8.0)])
    @pytest.mark.parametrize("shape", [(2, 3, 5, 7, 6, 4), (3, 1, 6, 6, 3, 2), (1, 1, 4, 1, 3, 2)])
    def test_matches_composed_chain(self, shape, scale):
        *lead, nq, nk, dk, dv = shape
        q, k, v, _, w = _operands(lead, nq, nk, dk, dv, seed=sum(shape))
        q = Tensor(q.data * 3.0)
        got, got_g = _grads(lambda *a: attention(*a, scale), (q, k, v), w)
        want, want_g = _grads(lambda *a: composed_attention(*a, scale), (q, k, v), w)
        assert np.array_equal(got, want)
        for g_fused, g_chain in zip(got_g, want_g):
            assert np.abs(g_fused - g_chain).max() <= 1e-12

    def test_broadcast_key_and_bias(self):
        # ska's key [H, Nk, dk] and cska's bias [H, 1, Nk] against [B, H, ...] queries
        q, k, v, bias, w = _operands((3, 2), 5, 7, 4, 3, k_lead=(2,), bias_shape=(2, 1, 7), seed=11)
        got, got_g = _grads(lambda *a: attention(*a[:3], 0.5, a[3]), (q, k, v, bias), w)
        want, want_g = _grads(lambda *a: composed_attention(*a[:3], 0.5, a[3]), (q, k, v, bias), w)
        assert np.array_equal(got, want)
        assert [g.shape for g in got_g] == [(3, 2, 5, 4), (2, 7, 4), (3, 2, 7, 3), (2, 1, 7)]
        for g_fused, g_chain in zip(got_g, want_g):
            assert np.abs(g_fused - g_chain).max() <= 1e-12

    def test_grad_check(self):
        q, k, v, bias, w = _operands((2, 2), 4, 5, 3, 3, bias_shape=(2, 1, 5), seed=21)
        params = [Parameter("q", q), Parameter("k", k), Parameter("v", v), Parameter("bias", bias)]
        rows = grad_check(lambda: (attention(q, k, v, 0.7, bias) * w).sum(), params)
        assert all(r.passed for r in rows), [(r.name, r.max_rel_error) for r in rows]

    def test_mac_count_equals_chain(self):
        q, k, v, _, _ = _operands((2, 3), 5, 7, 6, 4, k_lead=(3,))
        with MacCounter() as fused:
            attention(q, k, v, 0.5)
        with MacCounter() as chain:
            composed_attention(q, k, v, 0.5)
        assert fused.macs == chain.macs == 2 * 3 * 5 * 7 * (6 + 4)

    @pytest.mark.parametrize("budget", [1, 2 * 2 * 6 * 7 * 8])  # one map, two maps per chunk
    def test_chunking_is_invisible(self, budget, monkeypatch):
        # every activation, in the plain form and with the CLS border, at
        # batch 5 and at an empty batch
        for activation, border, batch in itertools.product(ROW_ACTIVATIONS, (False, True), (5, 0)):
            tensors, static, w = call_operands(activation, border, batch, seed=31)
            one = attention_grads(attention, tensors, static, w)
            with monkeypatch.context() as patch:
                patch.setattr(tz, "_CHUNK_BYTES", budget)
                chunked = attention_grads(attention, tensors, static, w)
            assert np.array_equal(one[0], chunked[0])
            assert all(np.array_equal(a, b) for a, b in zip(one[1], chunked[1]))

    def test_batch_sums_are_invisible_to_chunking_with_one_value_per_row(self, monkeypatch):
        # a shared [1, 1, 1] key's gradient sums one value per batch row:
        # numpy's sum over 16 such rows is pairwise, chunks add them in turn
        rng = Rng(1)
        q, k, v = (Tensor(rng.normal(shape)) for shape in ((16, 1, 1, 1), (1, 1, 1), (16, 1, 1, 2)))
        w = rng.normal((16, 1, 1, 2))
        one = _grads(lambda *a: attention(*a, 0.5, activation="gelu"), (q, k, v), w)
        monkeypatch.setattr(tz, "_CHUNK_BYTES", 1)
        chunked = _grads(lambda *a: attention(*a, 0.5, activation="gelu"), (q, k, v), w)
        assert all(np.array_equal(a, b) for a, b in zip(one[1], chunked[1]))

    @pytest.mark.parametrize("activation", ROW_ACTIVATIONS)
    @pytest.mark.parametrize("border", [False, True], ids=["plain", "cls_border"])
    def test_every_activation_matches_composed_chain(self, activation, border):
        # softmax equals the chain bit for bit; every other activation to
        # 1e-12 relative, since starrelu's scalar gradients are summed over
        # the batch rows first. Both count the same MACs.
        tensors, static, w = call_operands(activation, border, 3, seed=51)
        with MacCounter() as fused:
            got, got_g = attention_grads(attention, tensors, static, w)
        with MacCounter() as chain:
            want, want_g = attention_grads(composed_attention, tensors, static, w)
        assert fused.macs == chain.macs
        assert [g.shape for g in got_g] == [t.shape for t in tensors.values()]
        if activation == "softmax":
            assert np.array_equal(got, want)
        for a, e in zip([got] + got_g, [want] + want_g):
            assert np.abs(a - e).max() <= 1e-12 * np.abs(e).max()

    @pytest.mark.parametrize("activation", ROW_ACTIVATIONS)
    @pytest.mark.parametrize("border", [False, True], ids=["plain", "cls_border"])
    def test_every_activation_grad_check(self, activation, border):
        tensors, static, w = call_operands(activation, border, 2, seed=61)
        params = [Parameter(name, t) for name, t in tensors.items()]
        rows = grad_check(lambda: (attention(scale=0.7, **tensors, **static) * w).sum(), params)
        assert all(r.passed for r in rows), [(r.name, r.max_rel_error) for r in rows]

    @pytest.mark.parametrize("args,message", [
        (dict(activation="swish"), "activation 'swish'"),
        (dict(activation="starrelu"), "activation 'starrelu'"),
        (dict(act_scale=Tensor(np.ones(1)), act_bias=Tensor(np.ones(1))), "activation 'softmax'"),
        (dict(activation="starrelu", act_scale=Tensor(np.ones(2)), act_bias=Tensor(np.ones(2))),
         "activation 'starrelu'"),
        (dict(cls_query=Tensor(np.zeros((2, 2, 6, 3)))), "CLS"),
        (dict(cls_key=Tensor(np.zeros((2, 1, 3)))), "CLS"),
        (dict(cls_query=Tensor(np.zeros((2, 2, 6, 3))), cls_key=Tensor(np.zeros((2, 1, 3)))), "CLS"),
    ], ids=["unknown", "no_scalars", "softmax_scalars", "scalar_shape", "cls_query_alone",
            "cls_key_alone", "cls_without_windows"])
    def test_activation_and_cls_argument_errors(self, args, message):
        q, k, v, _, _ = _operands((2, 2), 6, 7, 3, 4, k_lead=(2,))
        with pytest.raises(ShapeError, match=f"attention: .*{message}"):
            attention(q, k, v, **args)

    @pytest.mark.parametrize("fault", ["query_rows", "query_width", "key_width", "values", "bias"])
    def test_cls_border_shape_errors(self, fault):
        tensors, static, _ = call_operands("softmax", True, 2, seed=71)
        b, h, n1, c = tensors["cls_query"].shape
        shape = {"query_rows": ("cls_query", (b, h, n1 - 1, c)),
                 "query_width": ("cls_query", (b, h, n1, c + 1)),
                 "key_width": ("cls_key", (h, 1, c + 1)),
                 "values": ("v", tensors["v"].shape[:2] + (n1 - 1,) + tensors["v"].shape[3:]),
                 "bias": ("bias", (h, 1, n1))}[fault]
        tensors[shape[0]] = Tensor(np.zeros(shape[1]))
        with pytest.raises(ShapeError, match="attention"):
            attention(**tensors, **static)

    def test_recorders_receive_the_weights_used(self):
        q, k, _, _, _ = _operands((1, 2), 4, 4, 3, 4, seed=2)
        v = Tensor(np.eye(4)[None, None].repeat(2, axis=1))
        with AttentionMaps() as outer, AttentionMaps() as inner:
            out = attention(q, k, v, 0.25)
        assert len(outer) == len(inner) == 1 and outer[0] is not inner[0]
        # v is the identity, so the output is P itself
        assert np.array_equal(inner[0], out.data) and np.array_equal(outer[0], out.data)
        assert np.array_equal(inner[0], softmax_rows(tz.mul(matmul(q, _swap_last(k)), 0.25)).data)
        attention(q, k, v, 0.25)
        assert len(inner) == 1  # a closed recorder receives nothing

    def test_inputs_and_upstream_gradient_untouched(self):
        q, k, v, bias, _ = _operands((2, 1), 4, 4, 3, 3, bias_shape=(1, 1, 4), seed=3)
        saved = [t.data.copy() for t in (q, k, v, bias)]
        with Tape() as tape:
            attention(q, k, v, 0.5, bias)
        _, _, bwd = tape.entries[-1]
        g = Rng(5).normal((2, 1, 4, 3))
        g_saved = g.copy()
        first = bwd(g)
        second = bwd(g)
        assert np.array_equal(g, g_saved)
        assert all(np.array_equal(t.data, s) for t, s in zip((q, k, v, bias), saved))
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_non_finite_names_attention(self):
        q = Tensor(np.array([[[[np.inf, 0.0], [1.0, 2.0]]]]))
        k, v = Tensor(np.ones((1, 1, 2, 2))), Tensor(np.ones((1, 1, 2, 3)))
        with np.errstate(invalid="ignore"), pytest.raises(NumericsError, match="attention"):
            attention(q, k, v, 1.0)

    def test_empty_batch_with_a_broadcast_key(self):
        # a broadcast key's and bias's gradients are zeros, not missing
        q, k, v, bias, w = _operands((0, 2), 3, 5, 4, 3, k_lead=(2,), bias_shape=(2, 1, 5))
        got, grads = _grads(lambda *a: attention(*a[:3], 0.5, a[3]), (q, k, v, bias), w)
        assert got.shape == (0, 2, 3, 3)
        assert [g.shape for g in grads] == [(0, 2, 3, 4), (2, 5, 4), (0, 2, 5, 3), (2, 1, 5)]
        assert not grads[1].any() and not grads[3].any()

    def test_untaped_forward_keeps_one_chunk_of_weights(self):
        # 64 maps of 64x64 weights are 2 MiB; an untaped forward with no
        # recorder reuses one 1 MiB chunk of them, a taped one or one with an
        # active recorder keeps them all
        q, k, v, _, _ = _operands((64, 1), 64, 64, 2, 2, k_lead=(1,), seed=4)
        peaks, outs = [], []
        for context in (None, Tape, AttentionMaps):
            tracemalloc.start()
            try:
                if context is None:
                    outs.append(attention(q, k, v, 0.5).data)
                else:
                    with context() as recorded:
                        outs.append(attention(q, k, v, 0.5).data)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert np.array_equal(outs[0], outs[1]) and np.array_equal(outs[0], outs[2])
        assert peaks[0] < (3 << 19) < 2 << 20 < min(peaks[1:]), peaks
        # the recorder got every batch row's weights, not the last chunk's
        (weights,) = recorded
        assert np.array_equal(weights, softmax_rows(tz.mul(matmul(q, _swap_last(k)), 0.5)).data)

    def _windows_operands(self, b, h, c, grid, nk, dv, kernel, seed):
        rng = Rng(seed)
        return (Tensor(rng.normal((b, h * c) + grid)), Tensor(rng.normal((h, nk, c * kernel * kernel))),
                Tensor(rng.normal((b, h, nk, dv))), Tensor(rng.normal((h, 1, nk))),
                rng.normal((b, h, grid[0] * grid[1], dv)))

    def test_windows_form_grad_check(self):
        q, k, v, bias, w = self._windows_operands(2, 2, 2, (3, 4), 5, 3, 3, seed=41)
        params = [Parameter("q", q), Parameter("k", k), Parameter("v", v), Parameter("bias", bias)]
        rows = grad_check(lambda: (attention(q, k, v, 0.6, bias, kernel=3) * w).sum(), params)
        assert all(r.passed for r in rows), [(r.name, r.max_rel_error) for r in rows]

    def test_windows_form_eval_forward_holds_no_window_copy(self):
        # hier-eval's cska stage: batch 256, an 8x8 grid, D = 16 in 2 heads;
        # the windows of every batch row would take 18 MiB, the weights 16 MiB
        q, k, v, _, _ = self._windows_operands(256, 2, 8, (8, 8), 64, 8, 3, seed=42)
        window_copy = 256 * 16 * 9 * 64 * 8
        tracemalloc.start()
        try:
            out = attention(q, k, v, 8 ** -0.5, kernel=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (256, 2, 64, 8) and out.data.nbytes == 2 << 20
        assert peak < window_copy, peak
        assert peak < out.data.nbytes + (3 << 20), peak

    def test_windows_form_taped_forward_keeps_no_window_copy(self):
        # a wide-tokens cska layer at batch 4: a 16x16 grid, D = 64 in 4
        # heads. The windows of every batch row take 4.5 MiB, one row's (a
        # chunk, as the weights of a row take 2 MiB) 1.1 MiB. A taped forward
        # keeps only its output and the weights P, which backward reads, and
        # backward copies each chunk's windows again: the gradients equal the
        # unfold chain's bit for bit
        q, k, v, bias, w = self._windows_operands(4, 4, 16, (16, 16), 256, 16, 3, seed=44)
        window_copy = 4 * 64 * 9 * 256 * 8
        tracemalloc.start()
        try:
            with Tape() as tape:
                out = attention(q, k, v, 0.25, bias, kernel=3)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tape) == 1  # the entry, and all its closure holds, is alive
        kept = out.data.nbytes + 4 * 4 * 256 * 256 * 8
        assert held - kept < 64 << 10, held - kept
        assert peak - kept < window_copy // 2, peak - kept
        inputs = (q, k, v, bias)
        got = _grads(lambda *a: attention(*a[:3], 0.25, a[3], kernel=3), inputs, w)
        want = _grads(lambda *a: composed_attention(*a[:3], 0.25, a[3], kernel=3), inputs, w)
        assert np.array_equal(got[0], want[0])
        assert all(np.array_equal(a, b) for a, b in zip(got[1], want[1]))

    @pytest.mark.parametrize("kernel", [0, -1, 2, 4])
    def test_windows_form_rejects_a_kernel_below_one_or_even(self, kernel):
        q, k, v, _, _ = self._windows_operands(1, 2, 1, (3, 3), 9, 2, 1, seed=43)
        with pytest.raises(ShapeError, match="attention: windows need an odd kernel >= 1"):
            attention(q, k, v, kernel=kernel)

    @pytest.mark.parametrize("q_shape,k_shape,v_shape,message", [
        ((2, 4, 3, 3), (2, 9, 18), (2, 3, 9, 2), "windows need"),  # 4 channels in 3 heads
        ((2, 4, 3, 3), (2, 9, 18), (3, 2, 9, 2), "windows need"),  # batch extents differ
        ((2, 4, 9), (2, 9, 18), (2, 2, 9, 2), "windows need"),     # queries are not an image
        ((2, 4, 3, 3), (2, 9, 18), (2, 2, 9), "windows need"),     # values are not [B, H, Nk, dv]
        ((2, 4, 3, 3), (2, 9, 8), (2, 2, 9, 2), "do not match"),   # keys' dk is not c*kernel^2
    ], ids=["heads", "batch", "q_rank", "v_rank", "dk"])
    def test_windows_form_shape_errors(self, q_shape, k_shape, v_shape, message):
        with pytest.raises(ShapeError, match=f"attention: .*{message}"):
            attention(Tensor(np.zeros(q_shape)), Tensor(np.zeros(k_shape)),
                      Tensor(np.zeros(v_shape)), kernel=3)

    def test_shape_errors(self):
        # only [B, H, Nq, dk] queries, [B, H, Nk, dk] or [H, Nk, dk] keys,
        # [B, H, Nk, dv] values and a [H, 1, Nk] bias are accepted
        for q_shape, k_shape, v_shape, bias_shape in [
            ((2, 2, 3, 4), (2, 5, 4), (2, 2, 6, 2), None),        # Nk of keys and values differ
            ((2, 2, 3, 4), (2, 5, 3), (2, 2, 5, 2), None),        # dk of queries and keys differ
            ((2, 2, 3, 4), (2, 5, 4), (3, 2, 5, 2), None),        # batch of queries and values differ
            ((2, 2, 3, 4), (2, 5, 4), (2, 3, 5, 2), None),        # heads of queries and values differ
            ((2, 2, 3, 4), (3, 2, 5, 4), (2, 2, 5, 2), None),     # keys of another batch
            ((2, 2, 3, 4), (3, 5, 4), (2, 2, 5, 2), None),        # shared keys of other heads
            ((2, 2, 3, 4), (1, 2, 5, 4), (2, 2, 5, 2), None),     # a [1, H, Nk, dk] key
            ((2, 2, 3, 4), (5, 4), (2, 2, 5, 2), None),           # 2-D keys
            ((2, 3, 4), (2, 5, 4), (2, 5, 2), None),              # 3-D queries and values
            ((2, 2, 3, 4), (2, 5, 4), (2, 5, 2), None),           # 3-D values
            ((2, 3, 4), (2, 5, 4), (2, 2, 5, 2), None),           # 3-D queries
            ((2, 2, 3, 4), (2, 5, 4), (2, 2, 5, 2), (2, 3, 5)),   # a [H, Nq, Nk] bias
            ((2, 2, 3, 4), (2, 5, 4), (2, 2, 5, 2), (1, 1, 5)),   # a bias of one head
            ((2, 2, 3, 4), (2, 5, 4), (2, 2, 5, 2), (5,)),        # a [Nk] bias
            ((2, 2, 3, 4), (2, 0, 4), (2, 2, 0, 2), None),        # no keys
        ]:
            bias = None if bias_shape is None else Tensor(np.zeros(bias_shape))
            with pytest.raises(ShapeError, match="attention"):
                attention(Tensor(np.zeros(q_shape)), Tensor(np.zeros(k_shape)),
                          Tensor(np.zeros(v_shape)), bias=bias)


def _composed_layer_norm(x, gamma, beta, eps):
    centered = tz.sub(x, x.mean(axis=-1, keepdims=True))
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered * tz.rsqrt(var + eps) * gamma + beta


class TestLayerNorm:
    @pytest.mark.parametrize("shape", [(3, 5, 8), (4, 6), (7,)])
    def test_matches_composed_chain(self, shape):
        rng = Rng(len(shape))
        x = Tensor(rng.normal(shape) * 2.0 + 0.5)
        gamma = Tensor(rng.normal(shape[-1:]))
        beta = Tensor(rng.normal(shape[-1:]))
        w = rng.normal(shape)
        inputs = (x, gamma, beta)
        got, got_g = _grads(lambda *a: layer_norm(*a, 1e-6), inputs, w)
        want, want_g = _grads(lambda *a: _composed_layer_norm(*a, 1e-6), inputs, w)
        assert np.abs(got - want).max() <= 1e-12
        for g_fused, g_chain in zip(got_g, want_g):
            assert np.abs(g_fused - g_chain).max() <= 1e-12

    def test_grad_check(self):
        rng = Rng(31)
        x = Tensor(rng.normal((3, 6)))
        gamma = Tensor(rng.normal((6,)))
        beta = Tensor(rng.normal((6,)))
        w = rng.normal((3, 6))
        params = [Parameter("x", x), Parameter("gamma", gamma), Parameter("beta", beta)]
        rows = grad_check(lambda: (layer_norm(x, gamma, beta, 1e-6) * w).sum(), params)
        assert all(r.passed for r in rows), [(r.name, r.max_rel_error) for r in rows]

    def test_parameter_shape_error(self):
        with pytest.raises(ShapeError, match="layer_norm"):
            layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(4)), 1e-6)


class TestConv2dGrouped:
    def test_depthwise_identity_kernel(self):
        x = Tensor(Rng(0).normal((2, 3, 5, 5)))
        w = np.zeros((3, 1, 3, 3))
        w[:, 0, 1, 1] = 1.0
        out = conv2d_grouped(x, Tensor(w))
        assert np.array_equal(out.data, x.data)

    def test_zero_weights_bias_only(self):
        x = Tensor(Rng(1).normal((1, 4, 3, 3)))
        w = Tensor(np.zeros((4, 1, 3, 3)))
        bias = Tensor(np.arange(4.0))
        out = conv2d_grouped(x, w, bias)
        for c in range(4):
            assert np.array_equal(out.data[0, c], np.full((3, 3), float(c)))

    def test_all_ones_window_sums(self):
        # 3x3 ones image, 3x3 ones kernel, pad 1: interior 9, corners 4, edges 6
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        out = conv2d_grouped(x, w).data[0, 0]
        assert out[1, 1] == 9.0
        assert out[0, 0] == out[0, 2] == out[2, 0] == out[2, 2] == 4.0
        assert out[0, 1] == out[1, 0] == out[1, 2] == out[2, 1] == 6.0
        # each channel has its own kernel: one of twos doubles every window sum
        x2 = Tensor(np.ones((1, 2, 3, 3)))
        w2 = Tensor(np.ones((2, 1, 3, 3)) * np.array([1.0, 2.0]).reshape(2, 1, 1, 1))
        out2 = conv2d_grouped(x2, w2).data[0]
        assert np.array_equal(out2[0], out) and np.array_equal(out2[1], 2.0 * out)
        assert np.abs(out2 - brute_conv2d(x2.data, w2.data, padding=1, groups=2)[0]).max() == 0.0

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_brute_force_ungrouped(self, k):
        # one channel, where the depthwise conv is the ungrouped one
        x = Rng(7).normal((2, 1, 6, 5))
        w = Rng(8).normal((1, 1, k, k))
        b = Rng(9).normal((1,))
        got = conv2d_grouped(Tensor(x), Tensor(w), Tensor(b)).data
        want = brute_conv2d(x, w, b, padding=(k - 1) // 2)
        assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())

    def test_mac_count(self):
        # out_elems * k^2
        x = Tensor(np.ones((1, 4, 8, 8)))
        w = Tensor(np.ones((4, 1, 3, 3)))
        with MacCounter() as c:
            conv2d_grouped(x, w)
        assert c.macs == 4 * 8 * 8 * 9

    def test_empty_batch(self):
        x = Tensor(np.zeros((0, 4, 5, 6)))
        w = Tensor(Rng(12).normal((4, 1, 3, 3)))
        bias = Tensor(Rng(13).normal((4,)))
        with Tape() as tape:
            out = conv2d_grouped(x, w, bias)
            loss = out.sum()
        assert out.shape == (0, 4, 5, 6)
        grads = backward(tape, loss)
        assert grads[x].shape == (0, 4, 5, 6)
        assert np.array_equal(grads[w], np.zeros((4, 1, 3, 3)))
        assert np.array_equal(grads[bias], np.zeros(4))

    def test_kernel_of_extent_zero_rejected(self):
        # a 0x0 kernel would return the bias alone and count 0 MACs
        with pytest.raises(ShapeError, match=re.escape("conv2d: weight must be [1, 1, k, k] with k >= 1 "
                                                       "for 1 input channels, got (1, 1, 0, 0)")):
            conv2d_grouped(_zeros(1, 1, 5, 5), _zeros(1, 1, 0, 0), _zeros(1))

    @pytest.mark.parametrize("batch", [0, 3])
    def test_even_kernel_rejected_for_any_batch(self, batch):
        # same padding is (k-1)/2 on every side; a kernel wider than the
        # input is fine, an even one has no centre
        x = np.ones((batch, 2, 3, 4))
        with pytest.raises(ShapeError, match=re.escape("got (2, 1, 6, 6) (same padding needs an odd k)")):
            conv2d_grouped(x, np.ones((2, 1, 6, 6)))
        assert conv2d_grouped(x, np.ones((2, 1, 7, 7))).shape == x.shape

    def test_eval_forward_holds_one_chunk_of_windows(self):
        # batch-64 depthwise k=3: the output is 1 MiB and every window 9 MiB;
        # an untaped forward copies about 1 MiB of them at a time
        x = Rng(14).normal((64, 8, 16, 16))
        w, b = Tensor(Rng(15).normal((8, 1, 3, 3))), Tensor(Rng(16).normal((8,)))
        tracemalloc.start()
        try:
            out = conv2d_grouped(x, w, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.data.nbytes == 1 << 20
        assert peak < 3 << 20, peak

    def test_taped_forward_and_backward_hold_one_chunk_of_windows(self):
        # wide-tokens' depthwise conv at batch 16: input, output and dx are
        # 2 MiB each, every window 18 MiB, one row's 1.1 MiB. Taped, the
        # forward keeps no window and the weight gradient copies them again
        # a chunk at a time; dW and dbias equal the unfold chain's bit for bit
        x = Tensor(Rng(17).normal((16, 64, 16, 16)))
        w, b = Tensor(Rng(18).normal((64, 1, 3, 3))), Tensor(Rng(19).normal((64,)))
        g = Rng(20).normal((16, 64, 16, 16))
        window_copy = 9 * x.data.nbytes
        tracemalloc.start()
        try:
            with Tape() as tape:
                out = conv2d_grouped(x, w, b)
            held = tracemalloc.get_traced_memory()[0]
            (_, _, bwd), = tape.entries
            grads = bwd(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(tape) == 1
        assert held - out.data.nbytes < 64 << 10, held - out.data.nbytes
        assert peak < window_copy // 2, peak
        want, want_grads = _grads(composed_conv2d, (x, w, b), g)
        assert np.array_equal(out.data, want)
        assert np.array_equal(grads[1], want_grads[1]) and np.array_equal(grads[2], want_grads[2])
        assert np.abs(grads[0] - want_grads[0]).max() <= 1e-12 * np.abs(want_grads[0]).max()


class TestGelu:
    def test_equals_the_erf_expression_bit_for_bit(self):
        # the in-place forward runs the arithmetic of 0.5 * (1 + erf(x / sqrt 2))
        x = np.concatenate([Rng(17).normal((4096,)) * 3.0, np.linspace(-40.0, 40.0, 1601)])
        cdf = 0.5 * (1.0 + erf(x * tz._INV_SQRT2))
        g = Rng(18).normal(x.shape)
        xt = Tensor(x)
        with Tape() as tape:
            out = gelu(xt)
        (_, _, bwd), = tape.entries
        assert np.array_equal(out.data, x * cdf)
        assert np.array_equal(bwd(g)[0], g * (cdf + x * (np.exp(-0.5 * x * x) * tz._INV_SQRT_2PI)))

    def test_untaped_forward_makes_one_temporary(self):
        # hier-eval's stage-0 MLP hidden activation, 8 MiB: an untaped gelu
        # writes its output over its cdf, so it allocates one array of that
        # size (per-op scans off, as inside a model forward)
        x = Tensor(Rng(19).normal((256, 256, 16)))
        tracemalloc.start()
        try:
            with finite_checks(False):
                out = gelu(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.data.nbytes == 8 << 20
        assert peak <= out.data.nbytes + (1 << 20), peak


class TestPlumbing:
    def test_concat(self):
        out = concat([Tensor([1.0]), Tensor([2.0])])
        assert np.array_equal(out.data, [1.0, 2.0])

    def test_concat_off_axis_mismatch(self):
        with pytest.raises(ShapeError):
            concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3)))], axis=1)

    def test_transpose_involution(self):
        x = Tensor(Rng(0).normal((3, 4, 5)))
        assert np.array_equal(x.transpose().transpose().data, x.data)
        assert np.array_equal(x.transpose(1, 0, 2).transpose(1, 0, 2).data, x.data)

    def test_mean(self):
        assert Tensor([2.0, 4.0]).mean().item() == 3.0

    def test_transpose_negative_axes_gradient(self):
        x = Tensor(Rng(1).normal((2, 3, 4)))
        w = Rng(2).normal((2, 4, 3))
        grads = []
        for axes in ((0, 2, 1), (0, -1, 1), (-3, -1, -2)):
            with Tape() as tape:
                loss = (transpose(x, axes) * w).sum()
            grads.append(backward(tape, loss)[x])
        assert grads[0].shape == x.shape
        assert np.array_equal(grads[1], grads[0])
        assert np.array_equal(grads[2], grads[0])

    @pytest.mark.parametrize("axis", [(0, 1), (1, 2), (0, -1), -2])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_mean_over_axes_gradient(self, axis, keepdims):
        x = Tensor(Rng(3).normal((2, 3, 4)))
        count = x.data.size // x.data.sum(axis=axis).size
        w = Rng(4).normal(x.data.mean(axis=axis, keepdims=keepdims).shape)
        with Tape() as tape:
            got_out = mean(x, axis=axis, keepdims=keepdims)
            loss = (got_out * w).sum()
        got = backward(tape, loss)[x]
        with Tape() as tape:
            want_out = tz.reduce_sum(x, axis=axis, keepdims=keepdims) * (1.0 / count)
            loss = (want_out * w).sum()
        want = backward(tape, loss)[x]
        assert np.abs(got_out.data - want_out.data).max() < 1e-15
        assert np.abs(got - want).max() < 1e-15

    @pytest.mark.parametrize("op", ["add", "sub", "mul"])
    def test_broadcast_error_names_the_op_and_both_shapes(self, op):
        message = re.escape(f"{op}: shapes (2, 3) and (4,) do not broadcast")
        with pytest.raises(ShapeError, match=message):
            getattr(tz, op)(Tensor(np.zeros((2, 3))), Tensor(np.zeros(4)))
        with pytest.raises(ShapeError, match=message):  # a constant operand too
            getattr(tz, op)(Tensor(np.zeros((2, 3))), np.zeros(4))

    def test_repr_names_the_shape(self):
        assert repr(Tensor(np.zeros((2, 3)))) == "Tensor(shape=(2, 3))"

    def test_reshape_error(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 3))).reshape(4, 2)

    @pytest.mark.parametrize("call,message", [
        (lambda: tz.gather_last(_zeros(2, 3), [0, 3]), "gather_last: indices must lie in [0, 3)"),
        (lambda: tz.gather_last(_zeros(2, 3), [-1, 0]), "gather_last: indices must lie in [0, 3)"),
        # label -1 is not read as label K-1
        (lambda: cross_entropy(_zeros(2, 3), [-1, 0]), "gather_last: indices must lie in [0, 3)"),
        (lambda: tz.gather_last(_zeros(2, 3), [0, 1, 2]), "gather_last: expected [B, K]"),
        (lambda: concat([_zeros(2, 3), _zeros(3)]), "concat: rank mismatch"),
        (lambda: tz.broadcast_to(_zeros(3), (2, 4)), "broadcast: cannot expand"),
        (lambda: tz.log_softmax_rows(_zeros(2, 0)), "log_softmax: empty last axis"),
        (lambda: tz.dropout(_zeros(3), 1.0, Rng(0)), "dropout rate must be in [0, 1)"),
        (lambda: conv2d_grouped(_zeros(1, 3, 5, 5), _zeros(3, 1, 3, 2)),
         "conv2d: weight must be [3, 1, k, k]"),
        (lambda: conv2d_grouped(_zeros(1, 4, 5, 5), _zeros(2, 1, 3, 3)),
         "conv2d: weight must be [4, 1, k, k] with k >= 1 for 4 input channels, got (2, 1, 3, 3)"),
        (lambda: conv2d_grouped(_zeros(1, 3, 5, 5), _zeros(3, 1, 3, 3), _zeros(4)),
         "conv2d: bias shape (4,) != (3,)"),
    ], ids=["index_K", "negative_index", "negative_label", "index_count", "concat_rank",
            "broadcast", "log_softmax_empty", "dropout_rate", "conv_weight_rank",
            "conv_weight_channels", "conv_bias"])
    def test_argument_errors_name_the_op(self, call, message):
        with pytest.raises(ShapeError, match=re.escape(message)):
            call()

    @pytest.mark.parametrize("op", [
        lambda x: x.transpose(0, 2, 1),
        lambda x: x.reshape(4, 6),
        lambda x: tz.slice_axis(x, 1, 1, 3),
        lambda x: tz.broadcast_to(x, (5, 2, 3, 4)),
    ], ids=["transpose", "reshape", "slice_axis", "broadcast_to"])
    def test_moves_return_views(self, op):
        x = Tensor(Rng(5).normal((2, 3, 4)))
        assert np.shares_memory(op(x).data, x.data)


class TestFiniteChecks:
    @pytest.mark.parametrize("op", ["add", "sub", "mul"])
    def test_non_finite_raises(self, op):
        x = Tensor([1e308])
        with np.errstate(over="ignore"), pytest.raises(NumericsError, match=f"'{op}'"):
            getattr(tz, op)(x, -1e308 if op == "sub" else 1e308)

    @pytest.mark.parametrize("op", [
        lambda x: x.transpose(1, 0),
        lambda x: x.reshape(4),
        lambda x: tz.slice_axis(x, 0, 0, 1),
        lambda x: tz.broadcast_to(x, (3, 2, 2)),
        lambda x: concat([x, x], axis=0),
        lambda x: unfold(x.reshape(1, 1, 2, 2), 1),
        lambda x: tz.gather_last(x, [0, 1]),
    ], ids=["transpose", "reshape", "slice_axis", "broadcast_to", "concat", "unfold",
            "gather_last"])
    def test_moves_are_not_scanned(self, op):
        # they create no non-finite value, so they pass one through; the
        # next op that computes raises
        x = Tensor([[np.nan, 1.0], [2.0, np.inf]])
        with finite_checks(True):
            out = op(x)
            with pytest.raises(NumericsError, match="mul"):
                out * 1.0

    def test_toggle_off(self):
        with np.errstate(over="ignore"), finite_checks(False):
            out = Tensor([1e308]) * 1e308
        assert np.isinf(out.data[0])


class TestRng:
    def test_same_seed_identical(self):
        a = Rng(42).normal((5, 7))
        b = Rng(42).normal((5, 7))
        assert np.array_equal(a, b)

    def test_law_of_large_numbers(self):
        z = Rng(123).normal((1_000_000,))
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    def test_shape(self):
        assert Rng(0).normal((2, 3)).shape == (2, 3)

    def test_split_streams_differ(self):
        root = Rng(0)
        a = root.split("a").normal((8,))
        b = root.split("b").normal((8,))
        assert not np.array_equal(a, b)

    def test_split_deterministic(self):
        a = Rng(5).split("key").normal((4,))
        b = Rng(5).split("key").normal((4,))
        assert np.array_equal(a, b)

    def test_permutation_is_permutation(self):
        perm = Rng(1).permutation(257)
        assert sorted(perm.tolist()) == list(range(257))

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 257, 2000])
    def test_permutation_equals_the_array_loop(self, n):
        for seed in range(5):
            rng, ref = Rng(seed), Rng(seed)
            rng.uniform((seed,))
            ref.uniform((seed,))
            perm, expected = rng.permutation(n), loop_permutation(ref, n)
            assert np.array_equal(perm, expected) and perm.dtype == expected.dtype
            assert rng.counter == ref.counter == seed + max(n - 1, 0)

    def test_stream_bits_are_pinned(self):
        # the first draws of three streams; any change to the mix, the
        # 53-bit conversion or Box-Muller changes every synthetic dataset
        r = Rng(0)
        assert [float(u).hex() for u in r.uniform((3,))] == [
            "0x1.c4415072f63b9p-1", "0x1.b9e279aa86e58p-2", "0x1.b117462002500p-6"]
        r = Rng(1)
        assert [float(z).hex() for z in r.normal((3,))] == [
            "0x1.0c608a7c7af59p+0", "-0x1.8b900180a4b1ap-3", "-0x1.706edc345ce07p-1"]
        assert r.counter == 4
        r = Rng(2).split("k")
        assert float(r.normal()).hex() == "-0x1.2fd6c637c57b9p-1"
        assert float(r.uniform()).hex() == "0x1.d0e946c7b8c3ep-2"

    def test_only_the_empty_tuple_is_a_scalar(self):
        for draw, scalar_raws in (("uniform", 1), ("normal", 2)):
            rng = Rng(3)
            for shape in (0, (0,), (2, 0)):
                out = getattr(rng, draw)(shape)
                assert isinstance(out, np.ndarray) and out.size == 0 and rng.counter == 0
            assert np.ndim(getattr(rng, draw)()) == 0 and rng.counter == scalar_raws
            assert getattr(rng, draw)(1).shape == (1,)

    def test_uniform_range(self):
        u = Rng(2).uniform((10000,))
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_stream_is_counter_based(self):
        # drawing in chunks or all at once yields the same stream
        a = Rng(9)
        chunks = np.concatenate([a.uniform((3,)), a.uniform((5,))])
        whole = Rng(9).uniform((8,))
        assert np.array_equal(chunks, whole)


class TestKeepHeap:
    def test_sets_the_mmap_and_trim_thresholds(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(tz.ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
        tz._keep_heap()
        assert calls == [(-3, 2 ** 30), (-1, 2 ** 31 - 1)]

    def test_silent_no_op_without_mallopt(self, monkeypatch):
        monkeypatch.setattr(tz.ctypes, "CDLL", lambda name: types.SimpleNamespace())
        assert tz._keep_heap() is None

    def test_silent_no_op_without_a_c_library(self, monkeypatch):
        def no_libc(name):
            raise OSError("no C library")

        monkeypatch.setattr(tz.ctypes, "CDLL", no_libc)
        assert tz._keep_heap() is None
