import json
import struct

import numpy as np
import pytest

from skattn import (Block, BlockConfig, CheckpointError, ConfigError, MixerConfig,
                    Module, NumericsError, Rng, Tensor, attention_trace, build_model,
                    canonical_kind, count_parameters, finite_checks, grad_check,
                    load_checkpoint, ModelConfig, save_checkpoint)
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
        block = Block(BlockConfig(cfg, mlp_ratio=2.0), Rng(0))
        x = Tensor(Rng(1).normal((2, 16, 8)))
        assert block(x).shape == x.shape

    def test_zero_weights_is_identity(self):
        cfg = MixerConfig(kind="ska", dim=8, heads=2, tokens=16)
        block = Block(BlockConfig(cfg, mlp_ratio=2.0), Rng(0))
        for p in block.named_parameters():
            if not p.name.startswith("norm"):
                p.tensor.data[:] = 0.0
        x = Rng(2).normal((2, 16, 8))
        assert np.array_equal(block(Tensor(x)).data, x)  # exact, residuals only

    def test_sepconv_block_grad_check(self):
        cfg = MixerConfig(kind="sepconv", dim=8, heads=1, tokens=9, grid=(3, 3))
        block = Block(BlockConfig(cfg, mlp_ratio=2.0), Rng(3))
        x = Tensor(Rng(4).normal((1, 9, 8)))
        w = Rng(5).normal((1, 9, 8))

        def f():
            return (block(x) * w).sum()

        rows = grad_check(f, block.named_parameters(), tolerance=1e-5)
        assert all(r.passed for r in rows), [(r.name, r.max_rel_error) for r in rows]


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
        got = down(Tensor(tokens), (4, 6)).data
        assert rel_err(got, want.reshape(2, 6, 6).transpose(0, 2, 1)) <= 1e-12

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
            def record(x, attn_sink=None, _mixer=mixer, _fwd=mixer.forward):
                inputs[id(_mixer)] = x
                return _fwd(x, attn_sink)
            mixer.forward = record
        maps = model.attention_maps(Rng(1).normal((2, 1, 8, 8)))
        assert [name for name, _, _ in maps] == ["stage0.block0", "stage1.block0", "stage1.block1"]
        for mixer, (name, _, avg) in zip(mixers, maps):
            _, want = attention_trace(mixer, inputs[id(mixer)])
            assert np.array_equal(avg, want), name

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

    def test_config_mismatch_lists_fields(self, tmp_path):
        model = build_model(toy_model_config(), seed=0)
        path = tmp_path / "model.skaf"
        save_checkpoint(model, path)
        other = toy_model_config(num_classes=5, patch=2, input=(1, 16, 16))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path, config=other)
        assert "num_classes" in str(err.value) and "patch" in str(err.value)

    def test_matching_config_accepted(self, tmp_path):
        model = build_model(toy_model_config(), seed=0)
        path = tmp_path / "model.skaf"
        save_checkpoint(model, path)
        loaded, _, _ = load_checkpoint(path, config=toy_model_config())
        assert loaded.cfg.to_dict() == model.cfg.to_dict()

    @staticmethod
    def _with_config(blob: bytes, edit) -> bytes:
        """The checkpoint with its config blob replaced by `edit(blob)`, and
        the blob's length field fixed up."""
        (cfg_len,) = struct.unpack("<I", blob[8:12])
        cfg_blob = edit(blob[12:12 + cfg_len])
        return blob[:8] + struct.pack("<I", len(cfg_blob)) + cfg_blob + blob[12 + cfg_len:]

    @classmethod
    def _with_pos_embed(cls, blob: bytes, value) -> bytes:
        """The checkpoint with `pos_embed` put back into its config blob, as
        files written while ModelConfig had that field carry it."""
        def edit(cfg_blob):
            cfg = json.loads(cfg_blob)
            assert "pos_embed" not in cfg
            return json.dumps({**cfg, "pos_embed": value}, sort_keys=True).encode()
        return cls._with_config(blob, edit)

    @pytest.mark.parametrize("edit", [
        lambda b: bytes([b[0] ^ 0x01]) + b[1:],
        lambda b: b"\xff" + b[1:],
        lambda b: b"[1, 2]",
        lambda b: b.replace(b'"heads": 4', b'"heads": "x"'),
        lambda b: b.replace(b'"mlp_ratio": 2.0', b'"mlp_ratio": "2"'),
    ], ids=["flipped-byte", "not-utf8", "json-list", "heads-string", "mlp-ratio-string"])
    def test_malformed_config_blob_rejected(self, tmp_path, edit):
        path = tmp_path / "model.skaf"
        save_checkpoint(build_model(toy_model_config(), seed=0), path)
        blob = path.read_bytes()
        path.write_bytes(self._with_config(blob, edit))
        assert path.read_bytes() != blob
        with pytest.raises(CheckpointError, match="config"):
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
        path.write_bytes(self._with_pos_embed(path.read_bytes(), True))
        loaded, seed, step = load_checkpoint(path)
        assert (seed, step) == (3, 11)
        assert np.array_equal(loaded(x).data, model(x).data)

    def test_old_file_with_pos_embed_false_rejected(self, tmp_path):
        path = tmp_path / "model.skaf"
        save_checkpoint(build_model(toy_model_config(), seed=0), path)
        path.write_bytes(self._with_pos_embed(path.read_bytes(), False))
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
