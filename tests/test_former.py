import contextlib
import json
import os
import re
import stat
import struct
import tracemalloc

import numpy as np
import pytest

from skattn import (AdamW, AttentionMaps, Block, CheckpointError, ConfigError, MacCounter,
                    MixerConfig, Module, NumericsError, Rng, Tape, Tensor, backward,
                    build_model, canonical_kind, count_parameters, cross_entropy,
                    finite_checks, grad_check, load_checkpoint, Mlp, Model, ModelConfig,
                    save_checkpoint, step, synth_dataset)
from skattn import tensor as tz
from oracles import brute_conv2d


def toy_model_config(kind="ska", **kw):
    base = dict(input=(1, 8, 8), patch=1, num_classes=2, mlp_ratio=2.0,
                stages=[{"kind": kind, "depth": 2, "dim": 16, "heads": 4}])
    base.update(kw)
    return ModelConfig(**base)


class TestBlock:
    @pytest.mark.parametrize("kind", ["mhsa", "ska", "cska", "sepconv"])
    def test_output_shape(self, kind):
        cfg = MixerConfig(kind=kind, dim=8, heads=2, tokens=16,
                          grid=(4, 4) if kind in ("cska", "sepconv") else None)
        block = Block(cfg, 2.0, Rng(0))
        x = Tensor(Rng(1).normal((2, 16, 8)))
        assert block(x).shape == x.shape

    def test_zero_weights_is_identity(self):
        cfg = MixerConfig(kind="ska", dim=8, heads=2, tokens=16)
        block = Block(cfg, 2.0, Rng(0))
        for p in block.named_parameters():
            if not p.name.startswith("norm"):
                p.tensor.data[:] = 0.0
        x = Rng(2).normal((2, 16, 8))
        assert np.array_equal(block(Tensor(x)).data, x)  # exact, residuals only

    def test_sepconv_block_grad_check(self):
        cfg = MixerConfig(kind="sepconv", dim=8, heads=1, tokens=9, grid=(3, 3))
        block = Block(cfg, 2.0, Rng(3))
        x = Tensor(Rng(4).normal((1, 9, 8)))
        w = Rng(5).normal((1, 9, 8))

        def f():
            return (block(x) * w).sum()

        rows = grad_check(f, block.named_parameters(), tolerance=1e-5)
        assert all(r.passed for r in rows), [(r.name, r.max_rel_error) for r in rows]


class TestMlp:
    def test_untaped_forward_peaks_below_three_hidden_activations(self):
        # hier-eval's stage 0 at its eval batch: 256 images of 16x16 tokens,
        # D = 8, hidden 16 (8 MiB). fc1 is one biased matmul entry and gelu
        # writes over its cdf, so at most the fc1 output and gelu's one
        # temporary are alive at once (per-op scans off, as in a model forward)
        mlp = Mlp(8, 16, Rng(0))
        x = Tensor(Rng(1).normal((256, 256, 8)))
        hidden = 256 * 256 * 16 * 8
        tracemalloc.start()
        try:
            with finite_checks(False):
                out = mlp(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == x.shape
        assert peak < 3 * hidden, peak


class TestModel:
    def test_table_placement_config_builds_and_runs(self):
        cfg = ModelConfig(input=(3, 32, 32), patch=2, num_classes=10, mlp_ratio=2.0,
                          stages=[{"kind": "dwconv", "depth": 1, "dim": 8, "heads": 1},
                                  {"kind": "cska", "depth": 1, "dim": 16, "heads": 2},
                                  {"kind": "attn", "depth": 1, "dim": 16, "heads": 2},
                                  {"kind": "attn", "depth": 1, "dim": 16, "heads": 4}])
        model = build_model(cfg, seed=0)
        logits = model(Rng(1).normal((2, 3, 32, 32)))
        assert logits.shape == (2, 10)

    def test_stem_and_downsample_match_brute_force_conv(self):
        cfg = ModelConfig(input=(3, 8, 12), patch=2, num_classes=2,
                          stages=[{"kind": "mhsa", "depth": 1, "dim": 4, "heads": 1},
                                  {"kind": "mhsa", "depth": 1, "dim": 6, "heads": 2}])
        model = build_model(cfg, seed=3)
        down = model.downsamples[0]
        model.stem_b.data = Rng(4).normal((4,))
        down.b.data = Rng(5).normal((6,))
        images = Rng(6).normal((2, 3, 8, 12))

        def rel_err(got, want):
            return np.abs(got - want).max() / np.abs(want).max()

        want = brute_conv2d(images, model.stem_w.data, model.stem_b.data, stride=2)
        got = model.embed(images).data - model.pos.data
        assert rel_err(got, want.reshape(2, 4, 24).transpose(0, 2, 1)) <= 1e-12

        tokens = Rng(7).normal((2, 24, 4))
        want = brute_conv2d(tokens.transpose(0, 2, 1).reshape(2, 4, 4, 6),
                            down.w.data, down.b.data, stride=2)
        got = down(Tensor(tokens)).data
        assert rel_err(got, want.reshape(2, 6, 6).transpose(0, 2, 1)) <= 1e-12

    def test_backward_reaches_the_parameters_and_not_the_images(self):
        cfg = toy_model_config(stages=[_stage("sepconv", heads=1), _stage("ska")])
        model = build_model(cfg, seed=1)
        images = Tensor(Rng(2).normal((2, 1, 8, 8)))
        with Tape() as tape:
            loss = cross_entropy(model(images), np.array([0, 1]))
        grads = backward(tape, loss)
        assert set(map(id, grads)) == {id(p.tensor) for p in model.named_parameters()}
        assert images.grad is None

    def test_same_seed_identical_logits(self):
        cfg = toy_model_config()
        x = Rng(2).normal((3, 1, 8, 8))
        a = build_model(cfg, seed=7)(x).data
        b = build_model(cfg, seed=7)(x).data
        assert np.array_equal(a, b)

    def test_num_classes_sets_logit_extent(self):
        cfg = toy_model_config(num_classes=10)
        logits = build_model(cfg, seed=0)(Rng(0).normal((1, 1, 8, 8)))
        assert logits.shape == (1, 10)

    def test_cls_token_single_stage(self):
        cfg = toy_model_config(kind="ska", cls_token=True)
        model = build_model(cfg, seed=0)
        assert model(Rng(1).normal((2, 1, 8, 8))).shape == (2, 2)

    def test_cls_token_multi_stage_rejected(self):
        with pytest.raises(ConfigError, match="single-stage"):
            ModelConfig(input=(1, 8, 8), patch=1, num_classes=2, cls_token=True,
                        stages=[{"kind": "ska", "depth": 1, "dim": 8, "heads": 1},
                                {"kind": "ska", "depth": 1, "dim": 8, "heads": 1}])

    def test_indivisible_spatial_extent_rejected(self):
        with pytest.raises(ConfigError, match="divisible"):
            ModelConfig(input=(1, 9, 9), patch=2, num_classes=2,
                        stages=[{"kind": "mhsa", "depth": 1, "dim": 8, "heads": 1}])

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            ModelConfig.from_dict({"input": [1, 8, 8], "patch": 1, "num_classes": 2,
                                   "stages": [], "windows": True})

    def test_stage_grids_reach_every_mixer(self):
        cfg = ModelConfig(input=(1, 16, 16), patch=2, num_classes=2, mlp_ratio=2.0,
                          downsample=[2, 1, 2],
                          stages=[{"kind": "dwconv", "depth": 1, "dim": 8, "heads": 1},
                                  {"kind": "cska", "depth": 1, "dim": 8, "heads": 2},
                                  {"kind": "ska", "depth": 1, "dim": 8, "heads": 2},
                                  {"kind": "attn", "depth": 2, "dim": 8, "heads": 2}])
        grids = [(8, 8), (4, 4), (4, 4), (2, 2)]
        assert cfg.stage_grids() == grids
        model = build_model(cfg, seed=0)
        for stage, grid in zip(model.stages, grids):
            for block in stage.blocks:
                assert (block.mixer.cfg.grid, block.mixer.cfg.tokens) == (grid, grid[0] * grid[1])
        assert model(Rng(1).normal((2, 1, 16, 16))).shape == (2, 2)
        with pytest.raises(ConfigError, match="grid 4x4 before stage 2 not divisible by factor 3"):
            ModelConfig(input=(1, 16, 16), patch=2, num_classes=2, downsample=[2, 3],
                        stages=[{"kind": "mhsa", "depth": 1, "dim": 8, "heads": 1}] * 3)

    @pytest.mark.parametrize("shape", [(2, 8, 8), (2, 2, 8, 8), (2, 1, 8, 9), (), (129, 1, 8, 9)])
    def test_wrong_image_shape_rejected(self, shape):
        # checked before the batch is split into sub-batches (of 128 here), so
        # the message names the whole batch's shape
        model = build_model(toy_model_config(), seed=0)
        with pytest.raises(ConfigError, match=rf"expected images \[B, 1, 8, 8\], got {re.escape(str(shape))}"):
            model(np.zeros(shape))

    def test_kind_aliases(self):
        assert canonical_kind("DWConv") == "sepconv"
        assert canonical_kind("attn") == "mhsa"
        with pytest.raises(ConfigError):
            canonical_kind("mlp")

    def test_attention_maps_in_depth_order(self):
        cfg = ModelConfig(input=(1, 8, 8), patch=2, num_classes=2, mlp_ratio=2.0,
                          stages=[{"kind": "sepconv", "depth": 1, "dim": 8, "heads": 1},
                                  {"kind": "ska", "depth": 1, "dim": 8, "heads": 2}])
        model = build_model(cfg, seed=0)
        maps = model.attention_maps(Rng(1).normal((1, 1, 8, 8)))
        assert [kind for _, kind, _ in maps] == ["sepconv", "ska"]
        assert maps[0][2] is None
        assert maps[1][2].shape == (1, 4, 4)  # 2x2 grid after the downsample

    def test_attention_maps_are_the_weights_each_mixer_used(self):
        cfg = ModelConfig(input=(1, 8, 8), patch=2, num_classes=2, mlp_ratio=2.0,
                          stages=[{"kind": "cska", "depth": 1, "dim": 8, "heads": 2},
                                  {"kind": "mhsa", "depth": 2, "dim": 8, "heads": 2}])
        model = build_model(cfg, seed=0)
        mixers = [block.mixer for stage in model.stages for block in stage.blocks]
        inputs = {}
        for mixer in mixers:  # record the tokens that reach each mixer
            def record(x, _mixer=mixer, _fwd=mixer.forward):
                inputs[id(_mixer)] = x
                return _fwd(x)
            mixer.forward = record
        maps = model.attention_maps(Rng(1).normal((2, 1, 8, 8)))
        assert [name for name, _, _ in maps] == ["stage0.block0", "stage1.block0", "stage1.block1"]
        for mixer, (name, _, avg) in zip(mixers, maps):
            with AttentionMaps() as want:
                mixer(inputs[id(mixer)])
            assert len(want) == 1 and np.array_equal(avg, want[0].mean(axis=1)), name

    def test_attention_maps_leave_training_untouched(self):
        # the peek runs in eval mode, so the dropout streams do not advance and
        # the caller's training mode is restored
        data = synth_dataset("stripe_orientation", 16, (8, 8), seed=2)
        losses = []
        for peek in (False, True):
            model = build_model(toy_model_config("ska", dropout=0.1), seed=0)
            model.train(True)
            opt = AdamW(model.named_parameters())
            run = [step(model, data.images[:8], data.labels[:8], opt)]
            if peek:
                model.attention_maps(data.images[:2])
                assert model.training and all(b.mixer.training for b in model.stages[0].blocks)
            run.append(step(model, data.images[8:], data.labels[8:], opt))
            losses.append(run)
        assert losses[0] == losses[1]

    def test_cls_model_grad_check(self):
        cfg = ModelConfig(input=(1, 4, 4), patch=2, num_classes=2, mlp_ratio=1.0,
                          cls_token=True,
                          stages=[{"kind": "cska", "depth": 1, "dim": 8, "heads": 2}])
        model = build_model(cfg, seed=0)
        x = Tensor(Rng(1).normal((2, 1, 4, 4)))
        w = Rng(2).normal((2, 2))

        def f():
            return (model(x) * w).sum()

        rows = grad_check(f, model.named_parameters(), tolerance=1e-4)
        assert {r.name for r in rows} >= {"cls", "pos"}
        assert all(r.passed for r in rows), [(r.name, r.max_rel_error)
                                             for r in rows if not r.passed]

    def test_full_model_grad_check_two_stages(self):
        cfg = ModelConfig(input=(1, 4, 4), patch=1, num_classes=2, mlp_ratio=1.0,
                          stages=[{"kind": "sepconv", "depth": 1, "dim": 4, "heads": 1},
                                  {"kind": "ska", "depth": 1, "dim": 4, "heads": 2}])
        model = build_model(cfg, seed=1)
        x = Tensor(Rng(2).normal((2, 1, 4, 4)))
        w = Rng(3).normal((2, 2))

        def f():
            return (model(x) * w).sum()

        rows = grad_check(f, model.named_parameters(), tolerance=1e-4)
        assert all(r.passed for r in rows), [(r.name, r.max_rel_error)
                                             for r in rows if not r.passed]

    def test_full_model_grad_check_patch_2_three_channels(self):
        # the stem and Downsample flatten each 2x2 patch of 3 (then 4)
        # channels in (i, j, c) order and read their [D, C, 2, 2] weights so
        cfg = ModelConfig(input=(3, 4, 8), patch=2, num_classes=2, mlp_ratio=1.0,
                          stages=[{"kind": "mhsa", "depth": 1, "dim": 4, "heads": 1},
                                  {"kind": "ska", "depth": 1, "dim": 4, "heads": 2}])
        model = build_model(cfg, seed=1)
        x = Tensor(Rng(2).normal((2, 3, 4, 8)))
        w = Rng(3).normal((2, 2))
        rows = grad_check(lambda: (model(x) * w).sum(), model.named_parameters(), tolerance=1e-4)
        assert {"stem_w", "down1.w"} <= {r.name for r in rows}
        assert all(r.passed for r in rows), [(r.name, r.max_rel_error)
                                             for r in rows if not r.passed]


# the toy-train shape, and hier-eval's [dwconv, <kind>, attn, attn] placement;
# then token counts that are not a multiple of 4: the toy shape with a CLS
# token (N = 65; sepconv carries none, so its model pools), and a 7x7 grid
_BATCH_SHAPES = {
    "toy": lambda kind: dict(input=(1, 8, 8), patch=1,
                             stages=[{"kind": kind, "depth": 2, "dim": 32, "heads": 4}]),
    "cls": lambda kind: dict(input=(1, 8, 8), patch=1, cls_token=kind != "sepconv",
                             stages=[{"kind": kind, "depth": 2, "dim": 32, "heads": 4}]),
    "7x7": lambda kind: dict(input=(1, 7, 7), patch=1,
                             stages=[{"kind": kind, "depth": 2, "dim": 32, "heads": 4}]),
    "hier": lambda kind: dict(input=(1, 32, 32), patch=2, stages=[
        {"kind": "dwconv", "depth": 1, "dim": 8, "heads": 1},
        {"kind": kind, "depth": 1, "dim": 16, "heads": 2},
        {"kind": "attn", "depth": 1, "dim": 16, "heads": 2},
        {"kind": "attn", "depth": 1, "dim": 16, "heads": 2}]),
}


class TestBatchInvariance:
    @pytest.mark.parametrize("shape", list(_BATCH_SHAPES))
    @pytest.mark.parametrize("kind", ["mhsa", "ska", "cska", "sepconv"])
    def test_sub_batches_concatenate_to_the_batch(self, kind, shape, monkeypatch):
        # an untaped forward over 64 images equals, bit for bit, the forwards
        # over its sub-batches of 32, 16 and 8, whatever the chunk size
        cfg = ModelConfig(num_classes=2, mlp_ratio=2.0, **_BATCH_SHAPES[shape](kind))
        model = build_model(cfg, seed=3)
        images = Rng(4).normal((64,) + cfg.input)

        def forwards():
            return [np.concatenate([model(images[lo:lo + sub]).data for lo in range(0, 64, sub)])
                    for sub in (64, 32, 16, 8)]

        runs = forwards()
        monkeypatch.setattr(tz, "_CHUNK_BYTES", 1)  # one batch row per chunk
        runs += forwards()
        assert all(np.array_equal(run, runs[0]) for run in runs[1:])


def _count_pieces(monkeypatch):
    """Count the calls of `Model.embed`: one per sub-batch of a forward."""
    calls = []
    embed = Model.embed

    def counted(self, images):
        calls.append(images.shape[0])
        return embed(self, images)

    monkeypatch.setattr(Model, "embed", counted)
    return calls


def _pieces(b, rows):
    return [min(rows, b - lo) for lo in range(0, b, rows)]


def _sub_batch_rows(shape, kind):
    """The rows per sub-batch at the default `_CHUNK_BYTES`: 1 MiB over the
    widest stage's 8 * N * D bytes per image (sepconv's "cls" model pools)."""
    if shape == "cls" and kind == "sepconv":
        return 64
    return {"toy": 64, "cls": 63, "7x7": 83, "hier": 64}[shape]


def _hier_model(kind, **kw):
    return build_model(ModelConfig(num_classes=2, mlp_ratio=2.0, **_BATCH_SHAPES["hier"](kind), **kw),
                       seed=3)


class TestSubBatchedEval:
    """An untaped eval forward runs the whole forward, head included, on
    sub-batches of `_chunk_rows` rows (64 at the toy and hier shapes, 63 with
    a CLS token, 83 on the 7x7 grid; one at a `_CHUNK_BYTES` of 1)."""

    @pytest.mark.parametrize("shape", list(_BATCH_SHAPES))
    @pytest.mark.parametrize("kind", ["mhsa", "ska", "cska", "sepconv"])
    def test_logits_and_macs_equal_the_taped_whole_batch(self, kind, shape, monkeypatch):
        cfg = ModelConfig(num_classes=2, mlp_ratio=2.0, **_BATCH_SHAPES[shape](kind))
        model = build_model(cfg, seed=3)
        calls = _count_pieces(monkeypatch)
        for chunk_bytes, rows in ((tz._CHUNK_BYTES, _sub_batch_rows(shape, kind)), (1, 1)):
            monkeypatch.setattr(tz, "_CHUNK_BYTES", chunk_bytes)
            for b in (1, 2, 63, 64, 65, 256, 257):
                images = Rng(4).normal((b,) + cfg.input)
                with Tape(), MacCounter() as whole:
                    want = model(images).data
                calls.clear()
                with MacCounter() as split:
                    got = model(images).data
                assert calls == _pieces(b, rows)
                assert np.array_equal(got, want), (chunk_bytes, b)
                assert split.macs == whole.macs

    def test_tape_recorder_or_training_keep_the_batch_whole(self, monkeypatch):
        images = Rng(4).normal((65, 1, 32, 32))
        calls = _count_pieces(monkeypatch)
        model = _hier_model("cska")
        with Tape():
            model(images)
        with AttentionMaps() as maps:
            model(images)
        assert calls == [65, 65]
        assert [m.shape[0] for m in maps] == [65, 65, 65]  # one whole-batch map per attention layer

        # dropout draws its masks from one stream per mixer, in layer order: an
        # untaped training forward draws what a taped one does
        runs = []
        for taped in (False, True):
            calls.clear()
            model = _hier_model("cska", dropout=0.1).train()
            with Tape() if taped else contextlib.nullcontext():
                logits = model(images).data
            mixers = [block.mixer for stage in model.stages for block in stage.blocks]
            runs.append((logits, [m._drop_rng.counter for m in mixers]))
            assert calls == [65]
        assert np.array_equal(runs[0][0], runs[1][0]) and runs[0][1] == runs[1][1]
        assert runs[0][1] == [65 * 256 * 8, 65 * 64 * 16, 65 * 16 * 16, 65 * 4 * 16]

    @pytest.mark.parametrize("shape", list(_BATCH_SHAPES))
    def test_overflow_in_a_later_sub_batch_names_the_per_op_culprit(self, shape, monkeypatch):
        # finite images; only image 129, in the last sub-batch, is scaled so
        # far that the stem's output overflows
        cfg = ModelConfig(num_classes=2, mlp_ratio=2.0, **_BATCH_SHAPES[shape]("cska"))
        model = build_model(cfg, seed=3)
        x = Rng(4).normal((130,) + cfg.input)
        x[129] = 1e308 * np.sign(x[129])
        calls = _count_pieces(monkeypatch)
        with np.errstate(all="ignore"), finite_checks(True):
            with Tape(), pytest.raises(NumericsError) as whole:
                model._forward(x)  # taped: one batch, every op scanned
            with pytest.raises(NumericsError) as per_op:
                model._forward(x)  # sub-batches, every op scanned
            with pytest.raises(NumericsError) as checked:
                model(x)
        assert str(checked.value) == str(per_op.value) == str(whole.value)
        assert "produced by" in str(checked.value)
        # taped whole; per-op; the checked pass, then its replay
        pieces = _pieces(130, _sub_batch_rows(shape, "cska"))  # [64, 64, 2] or [63, 63, 4] or [83, 47]
        assert calls == [130] + 3 * pieces

    @pytest.mark.parametrize("kind", ["mhsa", "ska", "cska", "sepconv"])
    def test_batch_256_eval_peaks_below_12_mib(self, kind):
        # hier-eval's eval: 256 images through [dwconv, <kind>, attn, attn],
        # per-op scans off as in a model forward. The whole batch would peak
        # at 28.0 MiB in stage 0's MLP; sub-batches of 64 peak at 7.0 MiB
        model = _hier_model(kind)
        images = Rng(4).normal((256, 1, 32, 32))
        tracemalloc.start()
        try:
            with finite_checks(False):
                logits = model(images)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert logits.shape == (256, 2)
        assert peak < 12 * 2 ** 20, peak


def _stage(kind, heads=2):
    return {"kind": kind, "depth": 1, "dim": 4, "heads": heads}


_NAN_CONFIGS = {
    f"{kind}{'+cls' if cls else ''}": dict(input=(1, 4, 4), patch=1, cls_token=cls,
                                           stages=[_stage(kind)])
    for kind in ("mhsa", "ska", "cska") for cls in (False, True)
}
_NAN_CONFIGS["sepconv"] = dict(input=(1, 4, 4), patch=1, stages=[_stage("sepconv", heads=1)])
_NAN_CONFIGS["dwconv-cska-attn"] = dict(
    input=(1, 8, 8), patch=2, stages=[_stage("dwconv", heads=1), _stage("cska"), _stage("attn")])


class TestFiniteChecksInModels:
    @pytest.mark.parametrize("name", list(_NAN_CONFIGS))
    def test_nan_in_any_parameter_raises(self, name):
        # move ops (transpose, reshape, broadcast, ...) are not scanned, so a
        # NaN that one of them reads first (key, conv_w, cls) must still be
        # caught by the next op that computes
        cfg = ModelConfig(num_classes=2, mlp_ratio=1.0, **_NAN_CONFIGS[name])
        model = build_model(cfg, seed=0)
        x = Rng(1).normal((2, *cfg.input))
        for p in model.named_parameters():
            good = p.tensor.data
            bad = good.copy()
            bad.flat[bad.size // 2] = np.nan
            p.tensor.data = bad
            with finite_checks(True), pytest.raises(NumericsError):
                model(x)
            p.tensor.data = good
        model(x)


def _nan_model(name):
    cfg = ModelConfig(num_classes=2, mlp_ratio=1.0, **_NAN_CONFIGS[name])
    return build_model(cfg, seed=0), Rng(1).normal((2, *cfg.input))


class TestCheckedForward:
    """A model forward under `finite_checks(True)` scans its leaves and its
    logits once and replays with per-op scans only to name a failure."""

    @pytest.mark.parametrize("name", list(_NAN_CONFIGS))
    def test_nan_parameter_is_named(self, name):
        model, x = _nan_model(name)
        for p in model.named_parameters():
            good = p.tensor.data
            bad = good.copy()
            bad.flat[bad.size // 2] = np.nan
            p.tensor.data = bad
            with finite_checks(True), pytest.raises(NumericsError) as info:
                model(x)
            assert f"'{p.name}'" in str(info.value)
            p.tensor.data = good

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_is_named(self, bad):
        model, x = _nan_model("ska")
        x[1, 0, 2, 3] = bad
        with finite_checks(True), pytest.raises(NumericsError, match="input images"):
            model(Tensor(x))

    @pytest.mark.parametrize("name", list(_NAN_CONFIGS))
    def test_overflow_from_finite_leaves_names_the_per_op_culprit(self, name):
        model, x = _nan_model(name)
        model.norm.beta.data = np.full_like(model.norm.beta.data, 1e200)
        model.head_w.data = model.head_w.data * 1e200
        with np.errstate(all="ignore"), finite_checks(True):
            with pytest.raises(NumericsError) as per_op:
                model._forward(x)  # every op scanned, as before the checked forward
            with pytest.raises(NumericsError) as checked:
                model(x)
        assert str(checked.value) == str(per_op.value)
        assert "produced by 'matmul'" in str(checked.value)

    @pytest.mark.parametrize("name", list(_NAN_CONFIGS))
    def test_checks_change_no_output_count_or_record(self, name):
        model, x = _nan_model(name)
        runs = []
        for on in (True, False):
            with finite_checks(on), Tape() as tape, MacCounter() as counter, AttentionMaps() as rec:
                logits = model(x)
            with finite_checks(on):
                maps = model.attention_maps(x)
            runs.append((logits.data, counter.macs, len(tape), rec, maps))
        (a, macs_a, len_a, rec_a, maps_a), (b, macs_b, len_b, rec_b, maps_b) = runs
        assert np.array_equal(a, b) and macs_a == macs_b and len_a == len_b
        attention_blocks = sum(kind != "sepconv" for _, kind, _ in maps_a)
        assert len(rec_a) == len(rec_b) == attention_blocks
        assert all(np.array_equal(p, q) for p, q in zip(rec_a, rec_b))
        assert [(n, k) for n, k, _ in maps_a] == [(n, k) for n, k, _ in maps_b]
        assert all((p is None and q is None) or np.array_equal(p, q)
                   for (_, _, p), (_, _, q) in zip(maps_a, maps_b))

    def test_floating_point_error_replays_and_rolls_back(self, monkeypatch):
        model, x = _nan_model("dwconv-cska-attn")
        with finite_checks(False), Tape() as tape, MacCounter() as counter, AttentionMaps():
            want = model(x).data
        want_len, want_macs = len(tape), counter.macs
        forward = Model._forward
        calls = []
        outer, inner = AttentionMaps(), AttentionMaps(["earlier map"])

        def flaky(self, images):
            out = forward(self, images)
            calls.append(len(inner))
            if len(calls) == 1:  # the first pass has taped, counted and recorded all it would
                raise FloatingPointError("spurious flag")
            return out

        monkeypatch.setattr(Model, "_forward", flaky)
        with finite_checks(True), Tape() as tape, MacCounter() as counter, outer, inner:
            got = model(x)
        assert calls == [3, 3]  # the replay started from the rolled-back recorders
        assert np.array_equal(got.data, want)
        assert len(tape) == want_len and counter.macs == want_macs
        assert inner[0] == "earlier map" and len(inner) == 3 and len(outer) == 2
        assert tape.entries[-1][0] is got

    def test_non_finite_output_of_a_clean_replay_is_named(self, monkeypatch):
        model, x = _nan_model("ska")
        monkeypatch.setattr(Model, "_forward",
                            lambda self, images: Tensor(np.array([[np.nan, 0.0]])))
        with finite_checks(True), pytest.raises(NumericsError, match="model output"):
            model(x)


class TestCountParameters:
    def test_ska_mixer_formula(self):
        from skattn import build_mixer
        cfg = MixerConfig(kind="ska", dim=64, heads=1, tokens=196, qkv_bias=False)
        _, total = count_parameters(build_mixer(cfg, Rng(0)))
        assert total == 196 * 64 + 3 * 64 * 64 == 24832

    def test_mhsa_mixer_formula(self):
        from skattn import build_mixer
        cfg = MixerConfig(kind="mhsa", dim=64, heads=1, qkv_bias=False)
        _, total = count_parameters(build_mixer(cfg, Rng(0)))
        assert total == 4 * 64 * 64 == 16384

    def test_empty_module_counts_zero(self):
        _, total = count_parameters(Module())
        assert total == 0

    def test_names_unique_across_model(self):
        model = build_model(toy_model_config(), seed=0)
        names = [p.name for p in model.named_parameters()]
        assert len(names) == len(set(names))


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = toy_model_config(kind="cska")
        model = build_model(cfg, seed=3)
        x = Rng(4).normal((2, 1, 8, 8))
        want = model(x).data
        path = tmp_path / "model.skaf"
        save_checkpoint(model, path, seed=3, step=11)
        loaded, seed, step = load_checkpoint(path)
        assert (seed, step) == (3, 11)
        assert np.array_equal(loaded(x).data, want)

    @pytest.mark.parametrize("fail_at", [1, 4, 30])
    def test_failed_write_leaves_the_old_file_whole(self, tmp_path, monkeypatch, fail_at):
        path = tmp_path / "model.skaf"
        save_checkpoint(build_model(toy_model_config(), seed=0), path)
        old = path.read_bytes()
        pack, calls = struct.pack, []

        def pack_until_disk_full(*args):
            calls.append(args)
            if len(calls) == fail_at:
                raise OSError("disk full")
            return pack(*args)

        monkeypatch.setattr(struct, "pack", pack_until_disk_full)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(build_model(toy_model_config(kind="cska"), seed=1), path)
        monkeypatch.undo()
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["model.skaf"]

    def test_fsyncs_the_file_then_replaces_then_fsyncs_the_directory(self, tmp_path, monkeypatch):
        path = tmp_path / "model.skaf"
        events = []
        fsync, replace = os.fsync, os.replace

        def recording_fsync(fd):
            st = os.fstat(fd)
            events.append(("fsync dir",) if stat.S_ISDIR(st.st_mode) else ("fsync file", st.st_size))
            fsync(fd)

        def recording_replace(src, dst):
            events.append(("replace",))
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(os, "replace", recording_replace)
        save_checkpoint(build_model(toy_model_config(), seed=0), path)
        # the file is fsynced whole: every byte is written out before the fsync
        assert events == [("fsync file", path.stat().st_size), ("replace",), ("fsync dir",)]

    def test_failed_fsync_leaves_the_old_file_whole(self, tmp_path, monkeypatch):
        path = tmp_path / "model.skaf"
        save_checkpoint(build_model(toy_model_config(), seed=0), path)
        old = path.read_bytes()

        def failing_fsync(fd):
            raise OSError("fsync failed")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="fsync failed"):
            save_checkpoint(build_model(toy_model_config(kind="cska"), seed=1), path)
        monkeypatch.undo()
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["model.skaf"]

    def test_truncated_file(self, tmp_path):
        cfg = toy_model_config()
        model = build_model(cfg, seed=0)
        path = tmp_path / "model.skaf"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.skaf"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_unknown_format_version(self, tmp_path):
        model = build_model(toy_model_config(), seed=0)
        path = tmp_path / "model.skaf"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 9)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    @staticmethod
    def _with_config(blob: bytes, edit) -> bytes:
        """The checkpoint with its config blob replaced by `edit(blob)`, and
        the blob's length field fixed up."""
        (cfg_len,) = struct.unpack("<I", blob[8:12])
        cfg_blob = edit(blob[12:12 + cfg_len])
        return blob[:8] + struct.pack("<I", len(cfg_blob)) + cfg_blob + blob[12 + cfg_len:]

    @classmethod
    def _with_old_field(cls, blob: bytes, key: str, value) -> bytes:
        """The checkpoint with the removed field `key` put back into its
        config blob, as files written while ModelConfig had that field carry it."""
        def edit(cfg_blob):
            cfg = json.loads(cfg_blob)
            assert key not in cfg
            return json.dumps({**cfg, key: value}, sort_keys=True).encode()
        return cls._with_config(blob, edit)

    @pytest.mark.parametrize("edit", [
        lambda b: bytes([b[0] ^ 0x01]) + b[1:],
        lambda b: b"\xff" + b[1:],
        lambda b: b"[1, 2]",
        lambda b: b.replace(b'"heads": 4', b'"heads": "x"'),
        lambda b: b.replace(b'"mlp_ratio": 2.0', b'"mlp_ratio": "2"'),
        lambda b: b.replace(b'"depth": 2', b'"depth": true'),
    ], ids=["flipped-byte", "not-utf8", "json-list", "heads-string", "mlp-ratio-string",
            "depth-bool"])
    def test_malformed_config_blob_rejected(self, tmp_path, edit):
        path = tmp_path / "model.skaf"
        save_checkpoint(build_model(toy_model_config(), seed=0), path)
        blob = path.read_bytes()
        path.write_bytes(self._with_config(blob, edit))
        assert path.read_bytes() != blob
        with pytest.raises(CheckpointError, match="config"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.skaf"
        save_checkpoint(build_model(toy_model_config(), seed=0), path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(CheckpointError, match="trailing bytes"):
            load_checkpoint(path)

    def test_parameter_name_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "model.skaf"
        save_checkpoint(build_model(toy_model_config(), seed=0), path)
        blob = path.read_bytes()
        assert blob.count(b"stem_w") == 1
        path.write_bytes(blob.replace(b"stem_w", b"stem\xffw"))
        with pytest.raises(CheckpointError, match="not present"):
            load_checkpoint(path)

    def test_old_file_with_pos_embed_true_loads_bit_exact(self, tmp_path):
        model = build_model(toy_model_config(kind="cska"), seed=3)
        x = Rng(4).normal((2, 1, 8, 8))
        path = tmp_path / "model.skaf"
        save_checkpoint(model, path, seed=3, step=11)
        path.write_bytes(self._with_old_field(path.read_bytes(), "pos_embed", True))
        loaded, seed, step = load_checkpoint(path)
        assert (seed, step) == (3, 11)
        assert np.array_equal(loaded(x).data, model(x).data)

    @pytest.mark.parametrize("key_init", ["normal", "trunc"])
    def test_old_file_with_key_init_loads_bit_exact(self, tmp_path, key_init):
        # key_init only chose how the static keys were drawn, and the stored
        # keys replace them, so any stored value loads
        model = build_model(toy_model_config(kind="ska", cls_token=True), seed=3)
        x = Rng(4).normal((2, 1, 8, 8))
        path = tmp_path / "model.skaf"
        save_checkpoint(model, path, seed=3, step=11)
        path.write_bytes(self._with_old_field(path.read_bytes(), "key_init", key_init))
        loaded, seed, step = load_checkpoint(path)
        assert (seed, step) == (3, 11)
        assert loaded.cfg == model.cfg
        assert np.array_equal(loaded(x).data, model(x).data)

    def test_old_file_with_pos_embed_false_rejected(self, tmp_path):
        path = tmp_path / "model.skaf"
        save_checkpoint(build_model(toy_model_config(), seed=0), path)
        path.write_bytes(self._with_old_field(path.read_bytes(), "pos_embed", False))
        with pytest.raises(CheckpointError, match="pos_embed"):
            load_checkpoint(path)

    def test_parameter_listed_twice_rejected(self, tmp_path):
        model = build_model(toy_model_config(), seed=0)
        path = tmp_path / "model.skaf"
        save_checkpoint(model, path)
        # same name length and shape: only the repeat betrays the missing norm2.gamma
        blob = path.read_bytes()
        first, second = b"stage0.block0.norm1.gamma", b"stage0.block0.norm2.gamma"
        assert blob.count(second) == 1
        path.write_bytes(blob.replace(second, first))
        with pytest.raises(CheckpointError, match="norm1.gamma.*twice"):
            load_checkpoint(path)
