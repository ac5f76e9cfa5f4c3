"""Property tests of `dropout` over random shapes and rates drawn by
hypothesis (derandomized, so every run draws the same examples): gradients
against central differences, the kept entries and their scale, the mask as a
function of the stream's seed and counter, and ShapeError for a rate outside
[0, 1)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from skattn import Parameter, Rng, ShapeError, Tensor, dropout, grad_check

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40, database=None)
RATES = st.sampled_from([0.0, 0.1, 0.5]) | st.floats(0.0, 0.95)


@st.composite
def dropout_inputs(draw):
    """x of a random shape (0-D included), a rate in [0, 1) and a stream seed."""
    shape = tuple(draw(st.lists(st.integers(1, 5), max_size=3)))
    seed = draw(st.integers(0, 2 ** 32))
    return Rng(seed).split("x").normal(shape), draw(RATES), seed


@PROPERTY
@given(dropout_inputs())
def test_grad_check_with_the_mask_fixed_by_reseeding(inputs):
    # each evaluation draws from a fresh stream of one seed, so the mask is
    # fixed. The upstream weights keep |w| >= 0.5: central differences carry
    # an absolute error near 1e-11, which a gradient near 1e-6 would fail on
    xd, rate, seed = inputs
    x = Tensor(xd)
    w_rng = Rng(seed).split("w")
    w = (0.5 + w_rng.uniform(xd.shape)) * np.where(w_rng.uniform(xd.shape) < 0.5, -1.0, 1.0)
    rows = grad_check(lambda: (dropout(x, rate, Rng(seed)) * w).sum(), [Parameter("x", x)])
    assert all(r.passed for r in rows), [(r.name, r.max_rel_error) for r in rows]


@PROPERTY
@given(dropout_inputs())
def test_each_entry_is_zero_or_scaled_by_one_over_the_keep_rate(inputs):
    # an entry is kept where the stream's uniform draw is >= rate
    xd, rate, seed = inputs
    out = dropout(Tensor(xd), rate, Rng(seed)).data
    kept = Rng(seed).uniform(xd.shape) >= rate
    assert out.shape == np.shape(xd)
    assert np.array_equal(out, np.where(kept, xd * (1.0 / (1.0 - rate)), 0.0))
    assert np.allclose(out[kept], (xd / (1.0 - rate))[kept], rtol=1e-15, atol=0.0)
    if rate == 0.0:
        assert np.array_equal(out, xd)


@PROPERTY
@given(dropout_inputs(), st.integers(0, 3))
def test_equal_seeds_give_equal_masks_and_the_counter_advances_by_the_size(inputs, draws):
    xd, rate, seed = inputs
    a, b = Rng(seed), Rng(seed)
    x = Tensor(np.ones(np.shape(xd)))  # the output is the mask itself
    for i in range(1, draws + 1):
        mask_a, mask_b = dropout(x, rate, a).data, dropout(x, rate, b).data
        assert np.array_equal(mask_a, mask_b)
        assert a.counter == b.counter == i * x.size


@PROPERTY
@given(dropout_inputs(), st.floats(1.0, 1e6) | st.floats(-1e6, -1e-300)
       | st.sampled_from([1.0, -1e-12, float("nan"), float("inf"), -float("inf")]))
def test_rate_outside_zero_to_one_raises(inputs, rate):
    xd, _, seed = inputs
    rng = Rng(seed)
    with pytest.raises(ShapeError, match=r"dropout rate must be in \[0, 1\)"):
        dropout(Tensor(xd), rate, rng)
    assert rng.counter == 0  # no draw was made
