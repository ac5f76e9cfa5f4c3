"""Property tests of checkpoint loading on damaged files: every truncation of
a small checkpoint raises CheckpointError, and every single-byte flip either
loads or raises CheckpointError (hypothesis, derandomized, so every run draws
the same examples)."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from skattn import CheckpointError, ModelConfig, build_model, load_checkpoint, save_checkpoint

PROPERTY = settings(derandomize=True, deadline=None, max_examples=200, database=None)


@pytest.fixture(scope="module")
def skaf(tmp_path_factory) -> tuple:
    """A cska+CLS checkpoint of about 2 kB, and a scratch path to write damaged copies to."""
    cfg = ModelConfig(input=(1, 2, 2), patch=1, num_classes=2, mlp_ratio=1.0, cls_token=True,
                      stages=[{"kind": "cska", "depth": 1, "dim": 2, "heads": 1}])
    root = tmp_path_factory.mktemp("skaf")
    save_checkpoint(build_model(cfg, seed=0), root / "good.skaf", seed=3, step=7)
    return (root / "good.skaf").read_bytes(), root / "damaged.skaf"


@PROPERTY
@given(st.data())
def test_every_truncation_raises_checkpoint_error(skaf, data):
    blob, path = skaf
    path.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1))])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@PROPERTY
@given(st.data())
def test_byte_flip_loads_or_raises_checkpoint_error(skaf, data):
    blob, path = skaf
    damaged = bytearray(blob)
    damaged[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
    path.write_bytes(bytes(damaged))
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass
