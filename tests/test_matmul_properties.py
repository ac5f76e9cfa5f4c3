"""Property tests of broadcasting `matmul`, and of its biased projection form
`matmul(x, w, bias)`, over random batch extents drawn by hypothesis
(derandomized, so every run draws the same examples)."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from skattn import MacCounter, Parameter, Rng, ShapeError, Tape, Tensor, backward, grad_check, matmul

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40, database=None)


@st.composite
def matmul_shapes(draw):
    """(a, b, batch) for a [..., M, K] @ [..., K, P] call whose output batch
    extents are `batch`: one operand carries them all, the other drops some
    leading axes and sets some others to 1."""
    batch = tuple(draw(st.lists(st.integers(1, 3), max_size=3)))
    m, k, p = (draw(st.integers(1, 5)) for _ in range(3))
    dropped = batch[draw(st.integers(0, len(batch))):]
    broadcast = tuple(1 if draw(st.booleans()) else n for n in dropped)
    if draw(st.booleans()):
        return batch + (m, k), broadcast + (k, p), batch
    return broadcast + (m, k), batch + (k, p), batch


@PROPERTY
@given(matmul_shapes(), st.integers(0, 2 ** 32))
def test_matches_numpy_and_counts_its_macs(shapes, seed):
    a_shape, b_shape, batch = shapes
    rng = Rng(seed)
    a, b = rng.normal(a_shape), rng.normal(b_shape)
    with MacCounter() as counter:
        got = matmul(Tensor(a), Tensor(b)).data
    m, k, p = a_shape[-2], a_shape[-1], b_shape[-1]
    assert got.shape == batch + (m, p)
    assert np.array_equal(got, np.matmul(a, b))
    assert counter.macs == math.prod(batch) * m * k * p


@settings(PROPERTY, max_examples=15)
@given(matmul_shapes(), st.integers(0, 2 ** 32))
def test_grad_check(shapes, seed):
    # the broadcast operand's gradient is summed over the extents it lacks
    a_shape, b_shape, batch = shapes
    rng = Rng(seed)
    a, b = Tensor(rng.normal(a_shape)), Tensor(rng.normal(b_shape))
    w = rng.normal(batch + (a_shape[-2], b_shape[-1]))
    rows = grad_check(lambda: (matmul(a, b) * w).sum(), [Parameter("a", a), Parameter("b", b)])
    assert all(r.max_rel_error < 1e-5 for r in rows), [(r.name, r.max_rel_error) for r in rows]


@PROPERTY
@given(matmul_shapes(), st.integers(0, 2 ** 32), st.sampled_from(["inner", "batch", "rank"]))
def test_mismatched_shapes_raise_shape_error(shapes, seed, fault):
    a_shape, b_shape, batch = shapes
    if fault == "inner":
        b_shape = b_shape[:-2] + (b_shape[-2] + 1, b_shape[-1])
    elif fault == "batch":  # leading extents that neither match nor are 1
        a_shape, b_shape = (2,) + batch + a_shape[-2:], (3,) + batch + b_shape[-2:]
    else:
        a_shape = a_shape[-1:]
    rng = Rng(seed)
    with pytest.raises(ShapeError, match="matmul"):
        matmul(Tensor(rng.normal(a_shape)), Tensor(rng.normal(b_shape)))


@st.composite
def projection_inputs(draw):
    """x [..., M, K] with 0-3 leading axes, a weight [K, P], a [P] bias (an
    array or a Tensor) and an upstream weight of the output's shape."""
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=3)))
    m, k, p = (draw(st.integers(1, 5)) for _ in range(3))
    rng = Rng(draw(st.integers(0, 2 ** 32)))
    bias = rng.normal((p,))
    if draw(st.booleans()):
        bias = Tensor(bias)
    return (Tensor(rng.normal(lead + (m, k))), Tensor(rng.normal((k, p))), bias,
            rng.normal(lead + (m, p)))


def _forward_and_grads(f, x, w, bias, u):
    """f's output, MAC count, tape length and the gradients of sum(f * u)."""
    with Tape() as tape, MacCounter() as counter:
        out = f(x, w, bias)
    entries = len(tape)
    with tape:
        loss = (out * u).sum()
    grads = backward(tape, loss)
    return out.data, counter.macs, entries, [grads[t] for t in (x, w, bias) if isinstance(t, Tensor)]


@PROPERTY
@given(projection_inputs())
def test_bias_form_equals_matmul_then_add(inputs):
    # one taped entry in place of two, with the chain's output, gradients and MACs bit for bit
    x, w, bias, u = inputs
    got, got_macs, got_entries, got_grads = _forward_and_grads(matmul, x, w, bias, u)
    want, want_macs, want_entries, want_grads = _forward_and_grads(
        lambda x, w, bias: matmul(x, w) + bias, x, w, bias, u)
    assert np.array_equal(got, want)
    assert got_macs == want_macs == math.prod(x.shape[:-1]) * w.shape[0] * w.shape[1]
    assert (got_entries, want_entries) == (1, 2)
    assert len(got_grads) == len(want_grads) == 2 + isinstance(bias, Tensor)
    for g, want_g in zip(got_grads, want_grads):
        assert g.shape == want_g.shape and np.array_equal(g, want_g)


@settings(PROPERTY, max_examples=15)
@given(projection_inputs())
def test_bias_form_grad_check(inputs):
    x, w, bias, u = inputs
    params = [Parameter("x", x), Parameter("w", w)]
    if isinstance(bias, Tensor):
        params.append(Parameter("bias", bias))
    rows = grad_check(lambda: (matmul(x, w, bias) * u).sum(), params)
    assert all(r.max_rel_error < 1e-5 for r in rows), [(r.name, r.max_rel_error) for r in rows]


@PROPERTY
@given(projection_inputs(), st.sampled_from(["weight_3d", "bias_extent", "bias_2d", "bias_0d"]))
def test_bias_form_needs_a_2d_weight_and_a_vector_bias(inputs, fault):
    x, w, bias, _ = inputs
    k, p = w.shape
    if fault == "weight_3d":  # a batch of weights that would broadcast without a bias
        w = Tensor(np.zeros((1, k, p)))
    elif fault == "bias_extent":
        bias = np.zeros(p + 1)
    elif fault == "bias_2d":  # [1, P] broadcasts onto the product, but is not a [P] bias
        bias = np.zeros((1, p))
    else:
        bias = np.zeros(())
    with MacCounter() as counter, pytest.raises(ShapeError, match="matmul: a bias needs"):
        matmul(x, w, bias)
    assert counter.macs == 0
