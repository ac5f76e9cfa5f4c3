"""Property tests of `synth_dataset`'s one-pass draw over random kinds, sizes,
grids and seeds drawn by hypothesis (derandomized, so every run draws the
same examples): bit for bit the image-by-image loop of `tests/oracles.py`,
and every prefix of a set is the smaller set of the same seed."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from skattn import synth_dataset
from oracles import loop_synth_dataset

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60, database=None)
KINDS = st.sampled_from(["stripe_orientation", "two_gaussians_patches"])
GRIDS = st.tuples(st.integers(1, 9), st.integers(1, 9))
SEEDS = st.integers(0, 2 ** 64 - 1)


@PROPERTY
@given(KINDS, st.integers(2, 40), GRIDS, SEEDS)
def test_equals_the_image_by_image_loop(kind, n, grid, seed):
    ds = synth_dataset(kind, n, grid=grid, seed=seed)
    images, labels = loop_synth_dataset(kind, n, grid=grid, seed=seed)
    assert np.array_equal(ds.images, images) and np.array_equal(ds.labels, labels)


@PROPERTY
@given(KINDS, st.integers(2, 40), st.integers(2, 40), GRIDS, SEEDS)
def test_a_prefix_is_the_smaller_set(kind, n, k, grid, seed):
    # an image's draws sit at counters that do not depend on n
    k = min(k, n)
    whole = synth_dataset(kind, n, grid=grid, seed=seed)
    head = synth_dataset(kind, k, grid=grid, seed=seed)
    assert np.array_equal(whole.images[:k], head.images)
    assert np.array_equal(whole.labels[:k], head.labels)
