"""Property tests of broadcasting `matmul` over random batch extents drawn by
hypothesis (derandomized, so every run draws the same examples)."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from skattn import MacCounter, Parameter, Rng, ShapeError, Tensor, grad_check, matmul

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
