import math
import re

import numpy as np
import pytest

from skattn import (MacCounter, NumericsError, Parameter, Rng, ShapeError, Tape, Tensor,
                    attention, backward, concat, conv2d_grouped, finite_checks, grad_check,
                    layer_norm, matmul, mean, rng_normal, softmax_rows, transpose)
from skattn import tensor as tz
from oracles import brute_conv2d


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


def composed_attention(q, k, v, scale=1.0, bias=None, sink=None):
    """The unfused reference for `attention`: matmul(q, k^T) -> add(bias) ->
    mul(scale) -> softmax_rows -> matmul."""
    logits = matmul(q, _swap_last(k))
    if bias is not None:
        logits = tz.add(logits, bias)
    attn = softmax_rows(logits if scale == 1.0 else tz.mul(logits, scale))
    if sink is not None:
        sink.append(attn.data.copy())
    return matmul(attn, v)


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


class TestAttention:
    """The fused entry against the matmul -> add -> mul -> softmax_rows ->
    matmul chain."""

    @pytest.mark.parametrize("scale", [1.0, 0.5, 1.0 / math.sqrt(8.0)])
    @pytest.mark.parametrize("shape", [(2, 3, 5, 7, 6, 4), (3, 6, 6, 3, 2), (4, 1, 3, 2)])
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
        q, k, v, bias, w = _operands((5, 2), 6, 7, 3, 4, k_lead=(2,), bias_shape=(2, 1, 7), seed=31)
        inputs = (q, k, v, bias)
        one = _grads(lambda *a: attention(*a[:3], 0.3, a[3]), inputs, w)
        monkeypatch.setattr(tz, "_ATTENTION_CHUNK_BYTES", budget)
        chunked = _grads(lambda *a: attention(*a[:3], 0.3, a[3]), inputs, w)
        assert np.array_equal(one[0], chunked[0])
        assert all(np.array_equal(a, b) for a, b in zip(one[1], chunked[1]))

    def test_sink_receives_the_weights_used(self):
        q, k, _, _, _ = _operands((1, 2), 4, 4, 3, 4, seed=2)
        v = Tensor(np.eye(4)[None, None].repeat(2, axis=1))
        sink = []
        out = attention(q, k, v, 0.25, sink=sink)
        assert len(sink) == 1
        # v is the identity, so the output is P itself
        assert np.array_equal(sink[0], out.data)
        assert np.array_equal(sink[0], softmax_rows(tz.mul(matmul(q, _swap_last(k)), 0.25)).data)

    def test_inputs_and_upstream_gradient_untouched(self):
        q, k, v, bias, _ = _operands((2,), 4, 4, 3, 3, bias_shape=(1, 4), seed=3)
        saved = [t.data.copy() for t in (q, k, v, bias)]
        with Tape() as tape:
            attention(q, k, v, 0.5, bias)
        _, _, bwd = tape.entries[-1]
        g = Rng(5).normal((2, 4, 3))
        g_saved = g.copy()
        first = bwd(g)
        second = bwd(g)
        assert np.array_equal(g, g_saved)
        assert all(np.array_equal(t.data, s) for t, s in zip((q, k, v, bias), saved))
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_non_finite_names_attention(self):
        q = Tensor(np.array([[[np.inf, 0.0], [1.0, 2.0]]]))
        k, v = Tensor(np.ones((1, 2, 2))), Tensor(np.ones((1, 2, 3)))
        with np.errstate(invalid="ignore"), pytest.raises(NumericsError, match="attention"):
            attention(q, k, v, 1.0)

    def test_shape_errors(self):
        for q_shape, k_shape, v_shape, bias_shape in [
            ((2, 3, 4), (2, 5, 4), (2, 6, 2), None),     # Nk of keys and values differ
            ((2, 3, 4), (2, 5, 3), (2, 5, 2), None),     # dk of queries and keys differ
            ((2, 3, 4), (2, 5, 4), (3, 5, 2), None),     # values' leading extents differ
            ((2, 3, 4), (3, 5, 4), (2, 5, 2), None),     # keys do not broadcast
            ((3, 4), (2, 5, 4), (5, 2), None),           # keys would widen the queries
            ((2, 3, 4), (2, 5, 4), (2, 5, 2), (2, 5)),   # bias does not broadcast
            ((2, 3, 4), (2, 0, 4), (2, 0, 2), None),     # no keys
            ((4,), (5, 4), (5, 2), None),                # 1-D queries
        ]:
            bias = None if bias_shape is None else Tensor(np.zeros(bias_shape))
            with pytest.raises(ShapeError, match="attention"):
                attention(Tensor(np.zeros(q_shape)), Tensor(np.zeros(k_shape)),
                          Tensor(np.zeros(v_shape)), bias=bias)


def _composed_layer_norm(x, gamma, beta, eps):
    centered = x - x.mean(axis=-1, keepdims=True)
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
        out = conv2d_grouped(x, Tensor(w), stride=1, padding=1, groups=3)
        assert np.array_equal(out.data, x.data)

    def test_zero_weights_bias_only(self):
        x = Tensor(Rng(1).normal((1, 4, 3, 3)))
        w = Tensor(np.zeros((6, 2, 3, 3)))
        bias = Tensor(np.arange(6.0))
        out = conv2d_grouped(x, w, bias, stride=1, padding=1, groups=2)
        for c in range(6):
            assert np.array_equal(out.data[0, c], np.full((3, 3), float(c)))

    def test_all_ones_window_sums(self):
        # 3x3 ones image, 3x3 ones kernel, pad 1: interior 9, corners 4, edges 6
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        out = conv2d_grouped(x, w, stride=1, padding=1).data[0, 0]
        assert out[1, 1] == 9.0
        assert out[0, 0] == out[0, 2] == out[2, 0] == out[2, 2] == 4.0
        assert out[0, 1] == out[1, 0] == out[1, 2] == out[2, 1] == 6.0
        # two input channels double every window sum
        x2 = Tensor(np.ones((1, 2, 3, 3)))
        w2 = Tensor(np.ones((1, 2, 3, 3)))
        out2 = conv2d_grouped(x2, w2, stride=1, padding=1).data[0, 0]
        assert np.array_equal(out2, 2.0 * out)
        assert np.abs(out2 - brute_conv2d(x2.data, w2.data, padding=1)[0, 0]).max() == 0.0

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_matches_brute_force_ungrouped(self, stride, padding):
        x = Rng(7).normal((2, 3, 6, 5))
        w = Rng(8).normal((4, 3, 3, 3))
        b = Rng(9).normal((4,))
        got = conv2d_grouped(Tensor(x), Tensor(w), Tensor(b),
                             stride=stride, padding=padding).data
        want = brute_conv2d(x, w, b, stride=stride, padding=padding)
        assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())

    def test_grouped_equals_independent_convs(self):
        groups = 3
        x = Rng(10).normal((2, 6, 4, 4))
        w = Rng(11).normal((9, 2, 3, 3))
        whole = conv2d_grouped(Tensor(x), Tensor(w), stride=1, padding=1, groups=groups).data
        pieces = []
        for g in range(groups):
            xs = x[:, g * 2:(g + 1) * 2]
            ws = w[g * 3:(g + 1) * 3]
            pieces.append(conv2d_grouped(Tensor(xs), Tensor(ws), stride=1, padding=1).data)
        assert np.abs(whole - np.concatenate(pieces, axis=1)).max() < 1e-12

    def test_indivisible_groups(self):
        with pytest.raises(ShapeError, match="groups"):
            conv2d_grouped(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((4, 1, 3, 3))),
                           stride=1, padding=1, groups=2)

    def test_mac_count(self):
        x = Tensor(np.ones((1, 4, 8, 8)))
        w = Tensor(np.ones((6, 2, 3, 3)))
        with MacCounter() as c:
            conv2d_grouped(x, w, stride=1, padding=1, groups=2)
        assert c.macs == 6 * 8 * 8 * 2 * 9


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

    def test_reshape_error(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 3))).reshape(4, 2)

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
        lambda x: tz.unfold(x.reshape(1, 1, 2, 2), 1),
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
        a = rng_normal(Rng(42), (5, 7))
        b = rng_normal(Rng(42), (5, 7))
        assert np.array_equal(a.data, b.data)

    def test_law_of_large_numbers(self):
        z = Rng(123).normal((1_000_000,))
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    def test_shape(self):
        assert rng_normal(Rng(0), (2, 3)).size == 6

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

    def test_uniform_range(self):
        u = Rng(2).uniform((10000,))
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_stream_is_counter_based(self):
        # drawing in chunks or all at once yields the same stream
        a = Rng(9)
        chunks = np.concatenate([a.uniform((3,)), a.uniform((5,))])
        whole = Rng(9).uniform((8,))
        assert np.array_equal(chunks, whole)
