"""Property tests of `layer_norm` over random shapes drawn by hypothesis
(derandomized, so every run draws the same examples)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from skattn import MacCounter, Parameter, Rng, ShapeError, Tape, Tensor, grad_check, layer_norm
from test_tensor import _composed_layer_norm, _grads

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40, database=None)
EPS = 1e-6


@st.composite
def ln_inputs(draw, narrow=True):
    """x of a random shape, its last extent 1 or 2 too when `narrow`, some
    transposed (non-contiguous) views; gamma, beta and an upstream weight.

    Rows of two or more values are standardised to spread 1, then some are
    shifted so that their mean is 100x their spread. A row of nearly equal
    values amplifies every rounding of its mean by 1/spread in xhat and again
    in dx, in the chain as here, so no fixed tolerance would hold for it.
    """
    lead = draw(st.lists(st.integers(1, 4), max_size=3))
    d = draw((st.sampled_from([1, 2]) | st.integers(3, 17)) if narrow else st.integers(3, 17))
    rng = Rng(draw(st.integers(0, 2 ** 32)))
    x = rng.normal(tuple(lead) + (d,))
    if d > 1:
        x = (x - x.mean(axis=-1, keepdims=True)) / x.std(axis=-1, keepdims=True)
    if draw(st.booleans()):
        x = x + 100.0
    if lead and draw(st.booleans()):  # the same values, laid out transposed
        x = np.ascontiguousarray(x.swapaxes(-1, -2)).swapaxes(-1, -2)
    return x, rng.normal((d,)), rng.normal((d,)), rng.normal(x.shape)


@PROPERTY
@given(ln_inputs())
def test_matches_the_composed_chain(inputs):
    # the row means are BLAS products with a column of 1/D, the chain's are
    # sums divided by D: the output and all three gradients agree to 1e-12,
    # and a norm counts no MACs
    x, gamma, beta, w = inputs
    tensors = (Tensor(x), Tensor(gamma), Tensor(beta))
    with MacCounter() as counter:
        got, got_g = _grads(lambda *a: layer_norm(*a, EPS), tensors, w)
    assert counter.macs == 0
    want, want_g = _grads(lambda *a: _composed_layer_norm(*a, EPS), tensors, w)
    assert got.shape == x.shape and np.abs(got - want).max() <= 1e-12
    for g_fused, g_chain in zip(got_g, want_g):
        assert g_fused.shape == g_chain.shape and np.abs(g_fused - g_chain).max() <= 1e-12


@PROPERTY
@given(ln_inputs())
def test_untaped_output_is_the_taped_output(inputs):
    # an untaped layer_norm scales and shifts xhat in place; a taped one keeps xhat for backward
    x, gamma, beta, _ = inputs
    tensors = (Tensor(x), Tensor(gamma), Tensor(beta))
    untaped = layer_norm(*tensors, EPS).data
    with Tape() as tape:
        taped = layer_norm(*tensors, EPS).data
    assert len(tape) == 1 and np.array_equal(untaped, taped)


@settings(PROPERTY, max_examples=15)
@given(ln_inputs(narrow=False))
def test_grad_check(inputs):
    # last extent 3 and up: with 2, every row normalises to +-1 and dx is of
    # the order of eps, below what central differences resolve to 1e-5
    x, gamma, beta, w = inputs
    tensors = [Tensor(x), Tensor(gamma), Tensor(beta)]
    params = [Parameter(n, t) for n, t in zip(("x", "gamma", "beta"), tensors)]
    rows = grad_check(lambda: (layer_norm(*tensors, EPS) * w).sum(), params)
    assert all(r.passed for r in rows), [(r.name, r.max_rel_error) for r in rows]


@PROPERTY
@given(ln_inputs(), st.sampled_from(["gamma", "beta"]), st.sampled_from([-1, 1]))
def test_wrong_parameter_extent_raises(inputs, which, change):
    x, gamma, beta, _ = inputs
    d = x.shape[-1] + change  # an extent of 0 is wrong too
    gamma, beta = (np.ones(d), beta) if which == "gamma" else (gamma, np.zeros(d))
    with pytest.raises(ShapeError, match="layer_norm"):
        layer_norm(Tensor(x), Tensor(gamma), Tensor(beta), EPS)


@PROPERTY
@given(st.integers(2, 64), st.integers(3, 17), st.integers(0, 2 ** 32))
def test_bits_do_not_depend_on_the_input_layout(n, d, seed):
    # a one-image transposed view [1, N, D], as a move of a channel-major
    # [1, D, N] image returns it: its rows reshape to an F-ordered view, not
    # a copy. Output (taped and untaped) and gradients equal those of the
    # contiguous copy bit for bit
    rng = Rng(seed)
    view = rng.normal((1, d, n)).swapaxes(1, 2)
    gamma, beta, w = rng.normal((d,)), rng.normal((d,)), rng.normal((1, n, d))
    results = []
    for x in (view, np.ascontiguousarray(view)):
        tensors = (Tensor(x), Tensor(gamma), Tensor(beta))
        untaped = layer_norm(*tensors, EPS).data
        taped, grads = _grads(lambda *a: layer_norm(*a, EPS), tensors, w)
        results.append([untaped, taped, *grads])
    assert all(np.array_equal(a, b) for a, b in zip(*results))


@PROPERTY
@given(st.integers(2, 9), st.integers(1, 70), st.integers(1, 17), st.booleans(),
       st.integers(0, 2 ** 32))
def test_rows_do_not_depend_on_the_batch(b, n, d, three_d, seed):
    # the first k images of a batch, [k, N, D] or [k, D], normalise to the
    # bits the whole batch gives them, whatever N mod 4
    rng = Rng(seed)
    x = rng.normal((b, n, d) if three_d else (b, d))
    gamma, beta = Tensor(rng.normal((d,))), Tensor(rng.normal((d,)))
    whole = layer_norm(Tensor(x), gamma, beta, EPS).data
    for k in range(1, b):
        assert np.array_equal(layer_norm(Tensor(x[:k]), gamma, beta, EPS).data, whole[:k]), k
