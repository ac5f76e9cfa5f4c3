"""Batch invariance of a model forward, over random model configs drawn by
hypothesis (derandomized, so every run draws the same examples): an image's
logits are the same bits whatever batch holds it, wherever it sits in that
batch, however the forward splits the batch into sub-batches and whatever
the chunk budget `_CHUNK_BYTES`, taped or not."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import skattn.tensor as tz
from skattn import ModelConfig, Rng, Tape, build_model
from skattn.mixers import ACTIVATIONS, KINDS

PROPERTY = settings(derandomize=True, deadline=None, max_examples=30, database=None)


@st.composite
def model_configs(draw):
    """One to three stages of any kind, on grids of odd extents, so that no
    stage's token count N is a multiple of 4; a CLS token (N + 1 tokens) in
    some single-stage attention models."""
    n_stages = draw(st.integers(1, 3))
    patch = draw(st.sampled_from([1, 2]))
    gh, gw = draw(st.sampled_from([1, 3, 5, 7, 9])), draw(st.sampled_from([3, 5, 7]))
    c = draw(st.integers(1, 2))
    image = (c, patch * gh, patch * gw)
    factors = []
    for _ in range(n_stages - 1):
        f = draw(st.sampled_from([f for f in (1, 3) if gh % f == 0 and gw % f == 0]))
        gh, gw = gh // f, gw // f
        factors.append(f)
    stages = []
    for _ in range(n_stages):
        heads = draw(st.integers(1, 3))
        stages.append({"kind": draw(st.sampled_from(KINDS)), "depth": draw(st.integers(1, 2)),
                       "dim": heads * draw(st.integers(2, 5)), "heads": heads})
    return ModelConfig(
        input=image, patch=patch, stages=stages, downsample=factors,
        num_classes=draw(st.integers(2, 5)), mlp_ratio=draw(st.sampled_from([1.0, 2.0])),
        cls_token=n_stages == 1 and stages[0]["kind"] != "sepconv" and draw(st.booleans()),
        activation=draw(st.sampled_from(ACTIVATIONS)), scaled=draw(st.booleans()),
        qkv_bias=draw(st.booleans()))


@PROPERTY
@given(model_configs(), st.integers(2, 12), st.randoms(use_true_random=False),
       st.sampled_from([1, 2000, 1 << 20]))
def test_an_images_logits_do_not_depend_on_its_batch(cfg, n, random, chunk_bytes):
    model = build_model(cfg, seed=random.randrange(1 << 16))
    images = Rng(random.randrange(1 << 16)).normal((n,) + cfg.input)
    # each image alone, under the default chunk budget: the reference
    alone = np.concatenate([model(images[i:i + 1]).data for i in range(n)])
    order = list(range(n))
    random.shuffle(order)
    cuts = sorted(random.sample(range(1, n), random.randrange(n)))
    saved = tz._CHUNK_BYTES
    tz._CHUNK_BYTES = chunk_bytes  # splits the forward into sub-batches of 1 to all n images
    try:
        whole = model(images).data
        shuffled = model(images[order]).data
        split = np.concatenate([model(images[lo:hi]).data
                                for lo, hi in zip([0] + cuts, cuts + [n])])
        with Tape():
            taped = model(images).data
    finally:
        tz._CHUNK_BYTES = saved
    assert alone.shape == (n, cfg.num_classes)
    for got in (whole, shuffled[np.argsort(order)], split, taped):
        assert np.array_equal(got, alone)
