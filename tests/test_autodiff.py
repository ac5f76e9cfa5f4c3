import tracemalloc

import numpy as np
import pytest

from skattn import (AutodiffError, MixerConfig, Module, OracleError, Parameter, Rng,
                    Tape, Tensor, backward, build_mixer, gather_last, gelu, grad_check,
                    log_softmax_rows, matmul, softmax_rows)
from skattn import tensor as tz
from test_tensor import unfold


class TestBackward:
    def test_linear_map_gradient(self):
        # loss = sum(W x) with x fixed: dW[i, j] = x[j] for every row i
        w = Tensor(Rng(0).normal((3, 2)))
        x = np.array([[5.0], [7.0]])
        with Tape() as tape:
            loss = matmul(w, x).sum()
        grads = backward(tape, loss)
        assert np.array_equal(grads[w], np.tile(x.T, (3, 1)))

    def test_softmax_sum_constant(self):
        x = Tensor(Rng(1).normal((4, 6)))
        with Tape() as tape:
            loss = softmax_rows(x).sum()
        grads = backward(tape, loss)
        assert np.abs(grads[x]).max() < 1e-14

    def test_three_layer_composition_matches_finite_differences(self):
        rng = Rng(2)
        w1, w2, w3 = (Tensor(rng.normal((5, 4))), Tensor(rng.normal((4, 4))),
                      Tensor(rng.normal((4, 2))))
        x = rng.normal((3, 5))

        def f():
            h = gelu(matmul(Tensor(x), w1))
            h = softmax_rows(matmul(h, w2))
            return matmul(h, w3).sum()

        params = [Parameter("w1", w1), Parameter("w2", w2), Parameter("w3", w3)]
        for r in grad_check(f, params, tolerance=1e-6):
            assert r.passed, (r.name, r.max_rel_error)

    def test_seed_gradient_is_one(self):
        x = Tensor([3.0])
        with Tape() as tape:
            loss = x.sum()
        grads = backward(tape, loss)
        assert grads[x] == np.array([1.0])

    def test_fanout_accumulates(self):
        x = Tensor([2.0])
        with Tape() as tape:
            loss = (x * x).sum()
        grads = backward(tape, loss)
        assert grads[x] == np.array([4.0])

    def test_two_backward_passes_identical(self):
        x = Tensor(Rng(3).normal((4, 4)))
        w = Tensor(Rng(4).normal((4, 4)))
        with Tape() as tape:
            loss = softmax_rows(matmul(x, w)).sum(axis=None)
        g1 = backward(tape, loss)[w].copy()
        g2 = backward(tape, loss)[w]
        assert np.array_equal(g1, g2)

    def test_non_scalar_loss(self):
        x = Tensor(np.ones((2, 2)))
        with Tape() as tape:
            y = x * 2.0
        with pytest.raises(AutodiffError, match="scalar"):
            backward(tape, y)

    def test_detached_loss(self):
        with Tape() as tape:
            Tensor([1.0]) * 2.0
        stray = Tensor(0.0)
        with pytest.raises(AutodiffError, match="not produced"):
            backward(tape, stray)

    def test_gradient_slot_populated_with_matching_shape(self):
        w = Tensor(Rng(5).normal((3, 4)))
        with Tape() as tape:
            loss = (w * w).sum()
        backward(tape, loss)
        assert w.grad is not None and w.grad.shape == w.shape

    def test_result_is_keyed_by_the_leaves_and_intermediates_get_no_grad(self):
        x = Tensor([1.0, 2.0])
        with Tape() as tape:
            h = x * 3.0
            hh = h * h
            loss = hh.sum()
        grads = backward(tape, loss)
        assert list(map(id, grads)) == [id(x)]
        assert grads[x] is x.grad
        for t in (loss, hh, h):
            assert t.grad is None
        assert np.array_equal(x.grad, 18.0 * x.data)

    def test_second_pass_over_one_tape_gives_equal_leaf_gradients(self):
        x = Tensor(Rng(8).normal((3, 4)))
        w = Tensor(Rng(9).normal((4, 5)))
        with Tape() as tape:
            h = gelu(matmul(x, w))
            loss = (h * h).sum()
        first = {t: g.copy() for t, g in backward(tape, loss).items()}
        second = backward(tape, loss)
        assert {id(t) for t in second} == {id(t) for t in first} == {id(x), id(w)}
        for t, g in first.items():
            assert np.array_equal(second[t], g)
        assert h.grad is None

    def test_each_gradient_is_freed_once_consumed(self):
        # 16 intermediate gradients of 1 MiB each; at most two are alive at a time
        x = Tensor(np.ones(2 ** 17))
        with Tape() as tape:
            y = x
            for _ in range(16):
                y = y * 1.0001
            loss = y.sum()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            backward(tape, loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start <= 3 * 2 ** 20

    def test_batch_sum_equals_per_sample_sum(self):
        rng = Rng(6)
        w = Tensor(rng.normal((4, 3)))
        xs = rng.normal((5, 2, 4))

        def batch_grad(batch):
            with Tape() as tape:
                loss = softmax_rows(matmul(Tensor(batch), w)).sum()
            return backward(tape, loss)[w]

        whole = batch_grad(xs.reshape(10, 4))
        parts = sum(batch_grad(xs[i]) for i in range(5))
        assert np.abs(whole - parts).max() < 1e-10


class TestGradCheck:
    def test_quadratic_loss(self):
        rng = Rng(7)
        w = Tensor(rng.normal((4, 3)))
        x = rng.normal((3, 5))
        y = rng.normal((4, 5))

        def f():
            r = tz.sub(matmul(w, x), y)
            return (r * r).sum()

        rows = grad_check(f, [Parameter("w", w)], tolerance=1e-7)
        assert rows[0].passed and rows[0].max_rel_error < 1e-7

    def test_zero_function(self):
        w = Tensor(Rng(8).normal((3, 3)))

        def f():
            return (w * 0.0).sum()

        rows = grad_check(f, [Parameter("w", w)])
        assert rows[0].passed and rows[0].max_rel_error == 0.0

    def test_mhsa_block(self):
        cfg = MixerConfig(kind="mhsa", dim=16, heads=2, tokens=8)
        mixer = build_mixer(cfg, Rng(0))
        x = Tensor(Rng(1).normal((1, 8, 16)))
        weights = Rng(2).normal((1, 8, 16))

        def f():
            return (mixer(x) * weights).sum()

        rows = grad_check(f, mixer.named_parameters(), tolerance=1e-5)
        assert all(r.passed for r in rows), [(r.name, r.max_rel_error) for r in rows]

    def test_strided_parameter(self):
        # the data is a transposed view; perturbing it through reshape(-1)
        # would move a copy and leave the loss unchanged
        w = Tensor(Rng(10).normal((3, 4)).T)
        x = Rng(11).normal((3, 5))

        def f():
            out = matmul(w, x)
            return (out * out).sum()

        rows = grad_check(f, [Parameter("w", w)], tolerance=1e-7)
        assert rows[0].passed, rows[0].max_rel_error

    def test_subsampling_is_deterministic_and_bounded(self):
        w = Tensor(Rng(9).normal((40, 40)))  # 1600 coords, sub-sampled

        def f():
            return (w * w).sum()

        r1 = grad_check(f, [Parameter("big", w)])[0]
        r2 = grad_check(f, [Parameter("big", w)])[0]
        assert r1.max_rel_error == r2.max_rel_error

    def test_small_correct_gradients_pass(self):
        # logits of spread 3: a class of small probability has a gradient of
        # 1e-7 to 1e-5, near the central difference's own error at epsilon =
        # 1e-5; 17 of these 100 draws failed a purely relative test
        failed = []
        for seed in range(100):
            rng = Rng(seed)
            x = Tensor(3.0 * rng.normal((4, 5)))
            labels = (rng.uniform((4,)) * 5).astype(int)
            w = rng.normal((4,))
            (row,) = grad_check(lambda: (gather_last(log_softmax_rows(x), labels) * w).sum(),
                                [Parameter("x", x)])
            if not row.passed:
                failed.append((seed, row.max_rel_error))
        assert not failed, failed

    @pytest.mark.parametrize("size", [1e-6, 1.0])
    def test_a_wrong_gradient_fails_at_any_size(self, size):
        # d(size * x)/dx = size, reported 10% too large: the absolute floor
        # does not hide it in a gradient of 1e-6
        x = Tensor(Rng(12).normal((3,)))

        def f():
            out = tz._make(x.data * size, "mul", (x,), lambda g: (g * size * 1.1,))
            return out.sum()

        (row,) = grad_check(f, [Parameter("x", x)])
        assert not row.passed and row.max_rel_error > 100 * 1e-5

    def test_non_deterministic_loss_rejected(self):
        state = {"n": 0}
        w = Tensor([1.0])

        def f():
            state["n"] += 1
            return (w * float(state["n"])).sum()

        with pytest.raises(OracleError, match="deterministic"):
            grad_check(f, [Parameter("w", w)])

    @pytest.mark.parametrize("setting", [
        {"tolerance": 0.0}, {"tolerance": -1e-5}, {"tolerance": float("nan")},
        {"tolerance": float("inf")}, {"epsilon": 0.0}, {"epsilon": -1e-5},
        {"epsilon": float("nan")}, {"epsilon": float("inf")},
        {"max_coords": 0}, {"max_coords": -1},
    ], ids=lambda s: "{}={}".format(*next(iter(s.items()))))
    def test_invalid_settings_rejected(self, setting):
        # tolerance 0 divided atol by zero and failed every parameter;
        # max_coords 0 checked no coordinate of a larger tensor and passed it
        w = Tensor(Rng(13).normal((3, 3)))
        calls = []

        def f():
            calls.append(1)
            return (w * w).sum()

        with pytest.raises(OracleError, match=next(iter(setting))):
            grad_check(f, [Parameter("w", w)], **setting)
        assert not calls


class TestPrimitiveGradients:
    """Finite-difference check for every primitive's backward rule."""

    @pytest.mark.parametrize("name,build", [
        ("matmul", lambda t, w: matmul(t(3, 4), w).sum()),
        ("matmul_batched", lambda t, w: matmul(t(2, 5, 4), w).sum()),
        ("add_broadcast", lambda t, w: (matmul(t(3, 4), w) + t(3, 1)).sum()),
        ("mul_broadcast", lambda t, w: (matmul(t(3, 4), w) * t(4,)).sum()),
        ("softmax", lambda t, w: (softmax_rows(matmul(t(3, 4), w)) * t(3, 4)).sum()),
        ("log_softmax", lambda t, w: (tz.log_softmax_rows(matmul(t(3, 4), w)) * t(3, 4)).sum()),
        ("gelu", lambda t, w: gelu(matmul(t(3, 4), w)).sum()),
        ("relu", lambda t, w: tz.relu(matmul(t(3, 4), w)).sum()),
        ("rsqrt", lambda t, w: (lambda y: tz.rsqrt((y * y) + 1.0).sum())(matmul(t(3, 4), w))),
        ("mean_axis", lambda t, w: (matmul(t(3, 4), w).mean(axis=-1, keepdims=True) * t(3, 1)).sum()),
        ("reshape_transpose", lambda t, w: (matmul(t(3, 4), w).reshape(2, 6).transpose(1, 0) * t(6, 2)).sum()),
        ("concat", lambda t, w: (tz.concat([matmul(t(3, 4), w), matmul(t(3, 4), w)], axis=0) * t(6, 4)).sum()),
        ("slice", lambda t, w: (tz.slice_axis(matmul(t(3, 4), w), 1, 1, 3) * t(3, 2)).sum()),
        ("broadcast", lambda t, w: (tz.broadcast_to(matmul(t(1, 4), w), (5, 4)) * t(5, 4)).sum()),
        ("gather", lambda t, w: tz.gather_last(matmul(t(3, 4), w), [2, 0, 1]).sum()),
        ("unfold_s2p1", lambda t, w: (unfold(
            matmul(t(24, 4), w).reshape(1, 4, 6, 4), 3, stride=2, padding=1, groups=2)
            * t(1, 2, 18, 6)).sum()),
        ("conv_grouped_k3", lambda t, w: (tz.conv2d_grouped(
            matmul(t(24, 4), w).reshape(1, 4, 6, 4),
            t(6, 2, 3, 3), t(6,), groups=2) * t(1, 6, 6, 4)).sum()),
        # depthwise, stride 1, same padding: the sepconv layout
        ("conv_dw_s1p1", lambda t, w: (tz.conv2d_grouped(
            matmul(t(24, 4), w).reshape(1, 4, 6, 4), matmul(t(9, 4), w).reshape(4, 1, 3, 3),
            matmul(t(4, 4), w).sum(axis=-1), groups=4) * t(1, 4, 6, 4)).sum()),
        # a 1x1 kernel: no padding, each window one cell
        ("conv_k1", lambda t, w: (tz.conv2d_grouped(
            matmul(t(24, 4), w).reshape(1, 4, 6, 4), matmul(t(3, 4), w).reshape(6, 2, 1, 1),
            matmul(t(6, 4), w).sum(axis=-1), groups=2) * t(1, 6, 6, 4)).sum()),
        # a plain-array operand gets no gradient slot; the Tensor ones keep theirs
        ("conv_plain_input", lambda t, w: (tz.conv2d_grouped(
            t(1, 4, 6, 4).data, matmul(t(27, 4), w).reshape(6, 2, 3, 3),
            matmul(t(6, 4), w).sum(axis=-1), groups=2) * t(1, 6, 6, 4)).sum()),
        ("conv_plain_weight", lambda t, w: (tz.conv2d_grouped(
            matmul(t(24, 4), w).reshape(1, 4, 6, 4), t(6, 2, 3, 3).data,
            matmul(t(6, 4), w).sum(axis=-1), groups=2) * t(1, 6, 6, 4)).sum()),
    ])
    def test_backward_matches_central_differences(self, name, build):
        rng = Rng(17)
        cache = {}

        def t(*shape):
            if shape not in cache:
                cache[shape] = []
            cache[shape].append(None)
            key = (shape, len(cache[shape]))
            return fixed.setdefault(key, Tensor(rng.normal(shape)))

        fixed = {}
        w = Tensor(rng.normal((4, 4)))

        calls = {"n": 0}

        def f():
            calls["n"] += 1
            cache.clear()
            return build(t, w)

        rows = grad_check(f, [Parameter("w", w)], tolerance=1e-6)
        assert rows[0].passed, (name, rows[0].max_rel_error)


class TestModule:
    def test_hierarchical_names_unique(self):
        class Leaf(Module):
            def __init__(self):
                super().__init__()
                self.register("w", Tensor(np.zeros(2)))

        class Root(Module):
            def __init__(self):
                super().__init__()
                self.add_module("a", Leaf())
                self.add_module("b", Leaf())

        names = [p.name for p in Root().named_parameters()]
        assert names == ["a.w", "b.w"]
        assert len(set(names)) == len(names)

    def test_duplicate_name_rejected(self):
        class Bad(Module):
            def __init__(self, second):
                super().__init__()
                self.register("w", Tensor(np.zeros(1)))
                second(self)

        for second in (lambda m: m.register("w", Tensor(np.zeros(1))),
                       lambda m: m.add_module("w", Module())):
            with pytest.raises(ValueError, match="duplicate name 'w'"):
                Bad(second)

    def test_train_eval_recursive(self):
        class Leaf(Module):
            pass

        class Root(Module):
            def __init__(self):
                super().__init__()
                self.leaf = self.add_module("leaf", Leaf())

        root = Root()
        root.train(True)
        assert root.leaf.training
        root.eval()
        assert not root.leaf.training
