import hashlib
import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import scipy

from skattn import (ConfigError, MixerConfig, ModelConfig, TrainConfig, build_model,
                    load_checkpoint, load_idx_images, save_checkpoint)
from skattn import cli, complexity
from skattn.cli import DEFAULT_CONFIG, load_config, main
from test_train import _write_idx_pair


def run(*argv):
    return main(list(argv))


FAST_TRAIN = ["--set", "train.steps=10", "--set", "train.eval_every=0",
              "--set", "data.n_train=64", "--set", "data.n_test=16"]


def _write_idx(tmp_path, prefix, count, seed=0):
    """An IDX pair of `count` random 8x8 images with 0/1 labels; returns the paths."""
    rng = np.random.default_rng(seed)
    paths = _write_idx_pair(tmp_path, rng.integers(0, 256, size=(count, 8, 8)),
                            rng.integers(0, 2, size=count), prefix=prefix)
    return tuple(str(path) for path in paths)


class TestTrainCommand:
    def test_steps_override_yields_matching_csv(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("train", *FAST_TRAIN, "--out", str(out)) == 0
        lines = (out / "runlog.csv").read_text().strip().splitlines()
        assert lines[0] == "step,loss,grad_norm,lr,eval_acc"
        assert len(lines) == 11
        manifest = json.loads((out / "manifest.json").read_text())
        assert "model.skaf" in manifest["artifacts"]
        assert "runlog.csv" in manifest["artifacts"]

    @pytest.mark.parametrize("argv", [
        ["train"], ["sweep", "--heads", "4"], ["ablate", "--activations", "softmax"],
    ], ids=["train", "sweep", "ablate"])
    def test_manifest_records_versions_seed_and_config_hash(self, tmp_path, argv):
        out = tmp_path / "run"
        assert run(*argv, *FAST_TRAIN, "--seed", "5", "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        cfg = load_config(None, FAST_TRAIN[1::2], seed=5)
        canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
        assert manifest["seed"] == 5
        assert manifest["config_sha256"] == hashlib.sha256(canonical).hexdigest()
        if argv[0] == "train":  # the echoed config is the one hashed
            echo = json.loads((out / "config.json").read_text())
            assert json.dumps(echo, sort_keys=True, separators=(",", ":")).encode() == canonical
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert manifest["versions"] == {"numpy": np.__version__, "scipy": scipy.__version__,
                                        "blas": f"{blas['name']} {blas['version']}"}

    def test_determinism_across_invocations(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("train", *FAST_TRAIN, "--out", str(out1)) == 0
        assert run("train", *FAST_TRAIN, "--out", str(out2)) == 0
        assert (out1 / "runlog.csv").read_bytes() == (out2 / "runlog.csv").read_bytes()
        assert (out1 / "model.skaf").read_bytes() == (out2 / "model.skaf").read_bytes()

    def test_missing_dataset_file_exits_2_naming_path(self, tmp_path, capsys):
        rc = run("train", "--set", "data.images=/nope/missing.idx",
                 "--set", "data.labels=/nope/missing-labels.idx",
                 "--out", str(tmp_path / "x"))
        assert rc == 2
        assert "/nope/missing.idx" in capsys.readouterr().err

    def test_config_file_loaded(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"train": {"steps": 3},
                                        "data": {"n_train": 32, "n_test": 8}}))
        out = tmp_path / "run"
        assert run("train", "--config", str(cfg_path), "--set", "train.eval_every=0",
                   "--out", str(out)) == 0
        assert len((out / "runlog.csv").read_text().strip().splitlines()) == 4

    def test_unknown_set_path_exits_2(self, tmp_path, capsys):
        rc = run("train", "--set", "train.speed=11", "--out", str(tmp_path / "x"))
        assert rc == 2
        assert "train.speed" in capsys.readouterr().err

    def test_bad_value_type_exits_2(self, tmp_path, capsys):
        rc = run("train", "--set", "train.steps=fast", "--out", str(tmp_path / "x"))
        assert rc == 2
        assert "int" in capsys.readouterr().err

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as err:
            run("train", "--turbo")
        assert err.value.code == 2


class TestGradcheckCommand:
    def test_small_grid_all_pass(self, tmp_path):
        out = tmp_path / "gc"
        rc = run("gradcheck", "--mixer", "ska", "--N", "4", "--D", "8",
                 "--heads", "2", "--seeds", "0", "--out", str(out))
        assert rc == 0
        rows = (out / "gradcheck.csv").read_text().strip().splitlines()
        assert rows[0] == "mixer,N,D,heads,seed,param,max_rel_error,status"
        assert all(r.endswith("PASS") for r in rows[1:])

    @pytest.mark.parametrize("heads", ["0", "2,0", "-1"])
    def test_head_count_below_one_exits_2(self, tmp_path, capsys, heads):
        rc = run("gradcheck", "--mixer", "ska", "--N", "4", "--D", "8",
                 "--heads", heads, "--seeds", "0", "--out", str(tmp_path / "gc"))
        assert rc == 2
        assert "--heads" in capsys.readouterr().err
        assert not (tmp_path / "gc").exists()

    @pytest.mark.parametrize("grid,flags", [
        (["--D", "6", "--heads", "4"], ["--D", "--heads"]),
        (["--D", "6", "--heads", "4,5"], ["--D", "--heads"]),
        (["--seeds", ""], ["--seeds"]),
        (["--N", " , "], ["--N"]),
        (["--D", ","], ["--D"]),
        (["--heads", ""], ["--heads"]),
    ], ids=["indivisible", "indivisible_list", "no_seeds", "no_tokens", "no_dims", "no_heads"])
    def test_empty_grid_exits_2_naming_its_flags(self, tmp_path, capsys, grid, flags):
        out = tmp_path / "gc"
        rc = run("gradcheck", "--mixer", "ska", "--N", "4", "--D", "8", "--heads", "2",
                 "--seeds", "0", *grid, "--out", str(out))
        assert rc == 2
        err = capsys.readouterr().err
        assert all(flag in err for flag in flags), err
        assert not out.exists()

    @pytest.mark.parametrize("tolerance", ["0", "-1e-5", "nan", "inf"])
    def test_non_positive_tolerance_exits_2(self, tmp_path, capsys, tolerance):
        out = tmp_path / "gc"
        rc = run("gradcheck", "--mixer", "ska", "--N", "4", "--D", "8", "--heads", "2",
                 "--seeds", "0", f"--tolerance={tolerance}", "--out", str(out))
        assert rc == 2
        assert "--tolerance" in capsys.readouterr().err
        assert not out.exists()

    def test_corrupted_backward_detected(self, tmp_path, monkeypatch):
        real = cli.grad_check

        def corrupted(f, params, **kwargs):
            def leaky():
                # detached term: visible to finite differences, invisible to the tape
                leak = sum(float(np.sin(p.tensor.data).sum()) for p in params)
                return f() + 0.01 * leak
            return real(leaky, params, **kwargs)

        monkeypatch.setattr(cli, "grad_check", corrupted)
        out = tmp_path / "gc"
        rc = run("gradcheck", "--mixer", "ska", "--N", "4", "--D", "8",
                 "--heads", "2", "--seeds", "0", "--out", str(out))
        assert rc == 1
        rows = (out / "gradcheck.csv").read_text().strip().splitlines()
        assert any(r.endswith("FAIL") for r in rows[1:])


class TestCountCommand:
    def test_closed_matches_counted(self, capsys):
        assert run("count", "--mixer", "ska", "--N", "196", "--D", "384", "--bias-free") == 0
        out = capsys.readouterr().out
        assert "closed form match: yes" in out

    def test_kernel_five_warns_and_reports_instrumented(self, capsys):
        assert run("count", "--mixer", "sepconv", "--N", "16", "--D", "8",
                   "--kernel", "5", "--bias-free") == 0
        captured = capsys.readouterr()
        assert "kernel 3" in captured.err
        assert "closed n/a" in captured.out

    def test_closed_form_mismatch_exits_1(self, capsys, monkeypatch):
        # the self-check: counted MACs that disagree with the closed form fail the command
        real = complexity.closed_form
        monkeypatch.setattr(complexity, "closed_form",
                            lambda *a: (real(*a)[0] + 1,) + real(*a)[1:])
        assert run("count", "--mixer", "ska", "--N", "16", "--D", "8", "--bias-free") == 1
        captured = capsys.readouterr()
        assert "closed form match: NO" in captured.out
        assert "instrumented counts do not match the closed forms" in captured.err

    def test_flops_convention_2x(self, capsys):
        assert run("count", "--mixer", "mhsa", "--N", "16", "--D", "8", "--bias-free",
                   "--flops-convention", "2x") == 0
        out = capsys.readouterr().out
        assert str(2 * 8192) in out


class TestCurvesCommand:
    def test_reference_row(self, tmp_path):
        out = tmp_path / "cv"
        assert run("curves", "--mode", "vary_N", "--fixed", "256", "--min", "8",
                   "--max", "264", "--step", "8", "--out", str(out)) == 0
        rows = (out / "curves_vary_N.csv").read_text().strip().splitlines()
        assert rows[0] == "x,sepconv,selfattn,ska,cska"
        row256 = next(r for r in rows if r.startswith("256,"))
        x, sep, attn, ska, cska = row256.split(",")
        assert (float(sep), float(attn), float(ska)) == (256.0, 384.0, 320.0)
        assert abs(float(cska) - 277.333) < 1e-2


class TestAttnmapCommand:
    def _checkpoint(self, tmp_path, kind="ska", zero_key=False):
        cfg = ModelConfig(input=(1, 8, 8), patch=2, num_classes=2, mlp_ratio=2.0,
                          stages=[{"kind": kind, "depth": 1, "dim": 8, "heads": 2}])
        model = build_model(cfg, seed=0)
        if zero_key:
            for p in model.named_parameters():
                if p.name.endswith("mixer.key"):
                    p.tensor.data[:] = 0.0
        path = tmp_path / "model.skaf"
        save_checkpoint(model, path)
        return path

    def test_zero_key_yields_uniform_single_gray_pgm(self, tmp_path):
        ckpt = self._checkpoint(tmp_path, zero_key=True)
        out = tmp_path / "maps"
        assert run("attnmap", "--checkpoint", str(ckpt), "--out", str(out)) == 0
        pgms = sorted(out.glob("*.pgm"))
        assert pgms
        blob = pgms[0].read_bytes()
        header_end = blob.index(b"255\n") + 4
        pixels = set(blob[header_end:])
        assert len(pixels) == 1  # uniform attention: one gray level

    def test_csv_rows_sum_to_one(self, tmp_path):
        ckpt = self._checkpoint(tmp_path)
        out = tmp_path / "maps"
        assert run("attnmap", "--checkpoint", str(ckpt), "--out", str(out)) == 0
        for csv_path in out.glob("*.csv"):
            matrix = np.loadtxt(csv_path, delimiter=",")
            assert np.abs(matrix.sum(axis=-1) - 1.0).max() < 1e-6

    def test_sepconv_layers_skipped_with_notice(self, tmp_path, capsys):
        ckpt = self._checkpoint(tmp_path, kind="sepconv")
        out = tmp_path / "maps"
        assert run("attnmap", "--checkpoint", str(ckpt), "--out", str(out)) == 0
        assert "skipped" in capsys.readouterr().out
        assert not list(out.glob("*.pgm"))
        notes = json.loads((out / "manifest.json").read_text())["notes"]
        assert any("sepconv" in n for n in notes)

    def test_nan_parameter_exits_1_naming_its_path(self, tmp_path, capsys):
        cfg = ModelConfig(input=(1, 8, 8), patch=2, num_classes=2, mlp_ratio=2.0,
                          stages=[{"kind": "ska", "depth": 1, "dim": 8, "heads": 2}])
        model = build_model(cfg, seed=0)
        table = {p.name: p.tensor for p in model.named_parameters()}
        table["stage0.block0.mlp.fc1_w"].data[1, 2] = np.nan
        ckpt = tmp_path / "model.skaf"
        save_checkpoint(model, ckpt)
        assert run("attnmap", "--checkpoint", str(ckpt), "--out", str(tmp_path / "m")) == 1
        assert "'stage0.block0.mlp.fc1_w'" in capsys.readouterr().err

    def test_malformed_checkpoint_exits_2(self, tmp_path, capsys):
        path = self._checkpoint(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob.replace(b'"heads": 2', b'"heads": "x"'))
        assert run("attnmap", "--checkpoint", str(path), "--out", str(tmp_path / "m")) == 2
        assert "checkpoint config is invalid" in capsys.readouterr().err

    def test_missing_checkpoint_exits_2(self, tmp_path, capsys):
        assert run("attnmap", "--checkpoint", str(tmp_path / "nope.skaf"),
                   "--out", str(tmp_path / "m")) == 2

    def test_images_without_labels_exits_2(self, tmp_path, capsys):
        images, _ = _write_idx(tmp_path, "probe", 2)
        rc = run("attnmap", "--checkpoint", str(self._checkpoint(tmp_path)),
                 "--images", images, "--out", str(tmp_path / "m"))
        assert rc == 2
        assert "--labels" in capsys.readouterr().err

    def test_image_shape_mismatch_exits_2(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        images, labels = _write_idx_pair(tmp_path, rng.integers(0, 256, size=(2, 4, 4)),
                                         np.zeros(2), prefix="small")
        rc = run("attnmap", "--checkpoint", str(self._checkpoint(tmp_path)),
                 "--images", str(images), "--labels", str(labels), "--out", str(tmp_path / "m"))
        assert rc == 2
        assert "image shape (1, 4, 4) does not match model input (1, 8, 8)" in capsys.readouterr().err

    def test_labels_without_images_exits_2(self, tmp_path, capsys):
        _, labels = _write_idx(tmp_path, "probe", 2)
        rc = run("attnmap", "--checkpoint", str(self._checkpoint(tmp_path)),
                 "--labels", labels, "--out", str(tmp_path / "m"))
        assert rc == 2
        assert "--images is required" in capsys.readouterr().err


class TestSweepCommand:
    def test_heads_grid(self, tmp_path):
        out = tmp_path / "sw"
        rc = run("sweep", "--heads", "1,2,4", *FAST_TRAIN, "--out", str(out))
        assert rc == 0
        rows = (out / "sweep.csv").read_text().strip().splitlines()
        assert rows[0] == "heads,test_acc,params,flops,seed"
        assert len(rows) == 4
        # params and flops are head-independent; seeds derive from base + index
        params = {r.split(",")[2] for r in rows[1:]}
        flops = {r.split(",")[3] for r in rows[1:]}
        seeds = [int(r.split(",")[4]) for r in rows[1:]]
        assert len(params) == 1 and len(flops) == 1
        assert seeds == [0, 1, 2]

    def test_seed_means_what_it_means_for_train(self, tmp_path, capsys):
        # --seed sets the data seed as well as the training seed, so the
        # first sweep cell (seed + 0) is the same run as `train --seed`
        assert run("train", *FAST_TRAIN, "--seed", "3", "--out", str(tmp_path / "t")) == 0
        train_acc = re.search(r"eval acc (\S+)", capsys.readouterr().out).group(1)
        assert run("sweep", "--heads", "4", *FAST_TRAIN, "--seed", "3",
                   "--out", str(tmp_path / "sw")) == 0
        row = (tmp_path / "sw" / "sweep.csv").read_text().strip().splitlines()[1].split(",")
        assert (row[1], row[4]) == (train_acc, "3")

    def test_indivisible_heads_exit_2(self, tmp_path, capsys):
        rc = run("sweep", "--heads", "3", *FAST_TRAIN, "--out", str(tmp_path / "sw"))
        assert rc == 2
        assert "divisible" in capsys.readouterr().err

    @pytest.mark.parametrize("heads", ["", " , "], ids=["blank", "commas"])
    def test_empty_heads_exit_2_before_writing(self, tmp_path, capsys, heads):
        out = tmp_path / "sw"
        assert run("sweep", "--heads", heads, *FAST_TRAIN, "--out", str(out)) == 2
        assert "--heads" in capsys.readouterr().err
        assert not out.exists()


class TestAblateCommand:
    def test_eight_cells_with_normalization_flags(self, tmp_path):
        out = tmp_path / "ab"
        rc = run("ablate", "--set", "train.steps=5", "--set", "train.eval_every=0",
                 "--set", "data.n_train=32", "--set", "data.n_test=16",
                 "--out", str(out))
        assert rc == 0
        rows = (out / "ablate.csv").read_text().strip().splitlines()
        assert len(rows) == 9
        header = rows[0].split(",")
        for row in rows[1:]:
            rec = dict(zip(header, row.split(",")))
            normalized = rec["normalized"] == "True"
            assert normalized == (rec["activation"] == "softmax")
            dev = float(rec["max_row_sum_dev"])
            if normalized:
                assert dev < 1e-9
            else:
                assert dev > 1e-3

    def test_unknown_activation_exits_2(self, tmp_path, capsys):
        rc = run("ablate", "--activations", "swish", "--out", str(tmp_path / "ab"))
        assert rc == 2
        assert "softmax" in capsys.readouterr().err

    @pytest.mark.parametrize("activations", ["", " , "], ids=["blank", "commas"])
    def test_empty_activations_exit_2_before_writing(self, tmp_path, capsys, activations):
        out = tmp_path / "ab"
        assert run("ablate", "--activations", activations, *FAST_TRAIN, "--out", str(out)) == 2
        assert "--activations" in capsys.readouterr().err
        assert not out.exists()


class TestIdxData:
    def test_train_then_attnmap_on_idx_files(self, tmp_path):
        images, labels = _write_idx(tmp_path, "train", 24)
        test_images, test_labels = _write_idx(tmp_path, "test", 8, seed=1)
        out = tmp_path / "run"
        assert run("train", "--set", f"data.images={images}", "--set", f"data.labels={labels}",
                   "--set", f"data.test_images={test_images}",
                   "--set", f"data.test_labels={test_labels}",
                   "--set", "train.steps=3", "--set", "train.eval_every=0",
                   "--set", "train.batch_size=8", "--out", str(out)) == 0
        rows = (out / "runlog.csv").read_text().strip().splitlines()
        assert len(rows) == 4 and rows[-1].split(",")[4] != ""  # evaluated on the test pair

        maps = tmp_path / "maps"
        ckpt = str(out / "model.skaf")
        assert run("attnmap", "--checkpoint", ckpt, "--images", test_images,
                   "--labels", test_labels, "--index", "5", "--out", str(maps)) == 0
        model, _, _ = load_checkpoint(ckpt)
        probe = load_idx_images(test_images, test_labels).images[5:6]
        for i, (name, _, avg) in enumerate(model.attention_maps(probe)):
            got = np.loadtxt(maps / f"attn_{i:02d}_{name.replace('.', '_')}.csv", delimiter=",")
            np.testing.assert_allclose(got, avg[0], rtol=1e-8, atol=1e-12)
        assert run("attnmap", "--checkpoint", ckpt, "--images", test_images,
                   "--labels", test_labels, "--index", "8", "--out", str(maps)) == 2

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_label_beyond_num_classes_exits_2(self, tmp_path, capsys, split):
        rng = np.random.default_rng(0)
        pairs = {name: _write_idx_pair(tmp_path, rng.integers(0, 256, size=(8, 8, 8)),
                                       np.array([0, 1] * 3 + [5 if name == split else 1, 0]),
                                       prefix=name)
                 for name in ("train", "test")}
        out = tmp_path / "x"
        rc = run("train", "--set", f"data.images={pairs['train'][0]}",
                 "--set", f"data.labels={pairs['train'][1]}",
                 "--set", f"data.test_images={pairs['test'][0]}",
                 "--set", f"data.test_labels={pairs['test'][1]}",
                 "--set", "train.steps=1", "--out", str(out))
        assert rc == 2
        assert f"{split} set holds label 5, but model.num_classes is 2" in capsys.readouterr().err
        assert not (out / "model.skaf").exists()

    def test_test_images_without_test_labels_exits_2(self, tmp_path, capsys):
        images, labels = _write_idx(tmp_path, "train", 8)
        rc = run("train", "--set", f"data.images={images}", "--set", f"data.labels={labels}",
                 "--set", f"data.test_images={images}", "--out", str(tmp_path / "x"))
        assert rc == 2
        assert "data.test_labels" in capsys.readouterr().err


class TestConfigDefaults:
    def test_sections_are_the_dataclass_fields_as_json(self):
        cfg = load_config(None, [])
        assert list(cfg["model"]) == [f.name for f in fields(ModelConfig)]
        assert list(cfg["train"]) == [f.name for f in fields(TrainConfig)]
        assert len(cfg["data"]) == 8
        assert json.loads(json.dumps(cfg)) == cfg  # no tuples: lists all the way down
        # the toy overrides of the dataclass defaults
        assert (cfg["model"]["mlp_ratio"], cfg["train"]["batch_size"],
                cfg["train"]["steps"], cfg["train"]["eval_every"]) == (2.0, 16, 600, 100)
        assert cfg["model"]["stages"] == [{"kind": "ska", "depth": 2, "dim": 32, "heads": 4}]

    def test_negative_seed_exits_2_before_training(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run("train", *FAST_TRAIN, "--seed", "-1", "--out", str(out)) == 2
        assert "seed" in capsys.readouterr().err
        assert not (out / "model.skaf").exists()

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_non_positive_steps_exit_2_before_training(self, tmp_path, capsys, steps):
        out = tmp_path / "x"
        assert run("train", *FAST_TRAIN, "--set", f"train.steps={steps}", "--out", str(out)) == 2
        assert "train.steps" in capsys.readouterr().err
        assert not (out / "model.skaf").exists()

    @pytest.mark.parametrize("assignments,message", [
        (["model.mlp_ratio=0"], "mlp_ratio must be positive"),
        (["model.mlp_ratio=-1.5"], "mlp_ratio must be positive"),
        # 0.01 * dim 32 rounds to an MLP of width 0
        (["model.mlp_ratio=0.01"], "round every stage's MLP width to >= 1, got 0.01"),
        (["model.num_classes=1"], "num_classes must be >= 2"),
        (["model.patch=0"], "patch must be >= 1"),
        (["model.input=[1,8]"], "input must be (channels, height, width)"),
        (["model.input=[1,-8,8]"], "input extents must be >= 1, got (1, -8, 8)"),
        (["model.input=[1,0,8]"], "input extents must be >= 1, got (1, 0, 8)"),
        (["model.stages=[]"], "at least one stage is required"),
        (['model.stages=[{"kind": "ska", "depth": 0, "dim": 8, "heads": 2}]'],
         "stage depth must be >= 1"),
        (["model.downsample=[2]"], "downsample needs 0 factors"),
        (['model.stages=[{"kind": "ska", "depth": 1, "dim": 8, "heads": 2},'
          ' {"kind": "ska", "depth": 1, "dim": 8, "heads": 2}]',
          "model.downsample=[0]"], "downsample factors must be >= 1"),
    ], ids=["mlp_ratio_0", "mlp_ratio_negative", "mlp_width_0", "num_classes", "patch", "input",
            "input_negative", "input_zero", "no_stages", "depth", "downsample_count",
            "downsample_factor"])
    def test_invalid_model_config_exits_2_before_training(self, tmp_path, capsys,
                                                          assignments, message):
        out = tmp_path / "x"
        sets = [arg for a in assignments for arg in ("--set", a)]
        assert run("train", *FAST_TRAIN, *sets, "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not (out / "model.skaf").exists()

    @pytest.mark.parametrize("key", ["eval_every", "clip_norm", "early_stop_acc"])
    def test_negative_switch_rejected_naming_the_key(self, tmp_path, capsys, key):
        with pytest.raises(ConfigError, match=f"train.{key}"):
            TrainConfig(**{key: -1})
        TrainConfig(**{key: 0})  # 0 stays "off"
        out = tmp_path / "x"
        assert run("train", *FAST_TRAIN, "--set", f"train.{key}=-1", "--out", str(out)) == 2
        assert f"train.{key}" in capsys.readouterr().err
        assert not (out / "model.skaf").exists()

    @pytest.mark.parametrize("decay", ["-1", "-0.5"])
    def test_negative_weight_decay_exits_2_before_training(self, tmp_path, capsys, decay):
        out = tmp_path / "x"
        assert run("train", *FAST_TRAIN, "--set", f"train.weight_decay={decay}",
                   "--out", str(out)) == 2
        assert "train.weight_decay" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["count", "--mixer", "ska", "--N", "16", "--D", "8", "--seed", "3"],
        ["gradcheck", "--mixer", "ska", "--N", "4", "--D", "8", "--seed", "5"],
        ["curves", "--seed", "1"],
    ], ids=["count", "gradcheck", "curves"])
    def test_seed_rejected_where_it_would_be_ignored(self, argv):
        with pytest.raises(SystemExit) as err:
            run(*argv)
        assert err.value.code == 2

    def test_synthetic_images_take_the_model_input_size(self, tmp_path):
        out = tmp_path / "x"
        assert run("train", *FAST_TRAIN, "--set", "model.input=[1, 6, 6]", "--out", str(out)) == 0
        model, _, _ = load_checkpoint(out / "model.skaf")
        assert model.cfg.input == (1, 6, 6)

    def test_config_surface(self):
        """Every settable value; a new knob must show up here as a diff."""
        mixer = ["kind", "dim", "heads", "tokens", "grid", "activation", "scaled", "qkv_bias",
                 "cls_token", "kernel", "dropout", "key_init"]
        model = ["input", "patch", "stages", "num_classes", "downsample", "cls_token",
                 "mlp_ratio", "activation", "scaled", "qkv_bias", "kernel", "dropout", "key_init"]
        train = ["optimizer", "lr", "weight_decay", "betas", "batch_size", "steps",
                 "seed", "schedule", "clip_norm", "eval_every", "early_stop_acc"]
        data = ["kind", "n_train", "n_test", "seed", "images", "labels", "test_images",
                "test_labels"]
        assert [f.name for f in fields(MixerConfig)] == mixer
        assert [f.name for f in fields(ModelConfig)] == model
        assert [f.name for f in fields(TrainConfig)] == train
        leaves = {f"{section}.{key}" for section, keys in DEFAULT_CONFIG.items() for key in keys}
        assert leaves == {f"{section}.{key}" for section, keys in
                          (("model", model), ("train", train), ("data", data)) for key in keys}


class TestSetCoercion:
    @pytest.mark.parametrize("assignment,path,want", [
        ("model.scaled=false", ("model", "scaled"), False),
        ("model.qkv_bias=0", ("model", "qkv_bias"), False),
        ("model.cls_token=yes", ("model", "cls_token"), True),
        ("train.lr=0.25", ("train", "lr"), 0.25),
        ("model.mlp_ratio=3", ("model", "mlp_ratio"), 3.0),
        ("train.steps=7", ("train", "steps"), 7),
        ("model.input=[1,4,4]", ("model", "input"), [1, 4, 4]),
        ("train.betas=[0.8, 0.9]", ("train", "betas"), [0.8, 0.9]),
        ("data.images=null", ("data", "images"), None),
        ("data.images=some/file.idx", ("data", "images"), "some/file.idx"),
    ])
    def test_leaf_types(self, assignment, path, want):
        section, key = path
        got = load_config(None, [assignment])[section][key]
        assert got == want and type(got) is type(want)

    def test_null_after_a_path(self):
        cfg = load_config(None, ["data.labels=a.idx", "data.labels=null"])
        assert cfg["data"]["labels"] is None

    @pytest.mark.parametrize("assignment,message", [
        ("model.scaled=maybe", "as bool"),
        ("train.steps=1.5", "as int"),
        ("train.lr=fast", "as float"),
        ("model.input=[1,4", "as JSON"),
        ('model.input={"c": 1}', "expects list, got dict"),
        ("train.steps", "dotted.path=value"),
    ])
    def test_bad_values_rejected(self, tmp_path, capsys, assignment, message):
        with pytest.raises(ConfigError, match=message):
            load_config(None, [assignment])
        assert run("train", "--set", assignment, "--out", str(tmp_path / "x")) == 2
        assert message in capsys.readouterr().err


class TestFloatLeaves:
    @pytest.mark.parametrize("assignment", [
        "model.mlp_ratio=nan", "model.mlp_ratio=inf", "train.lr=inf", "train.lr=-inf",
        "train.clip_norm=nan", "train.weight_decay=1e400",
    ])
    def test_non_finite_set_exits_2_naming_the_key(self, tmp_path, capsys, assignment):
        key = assignment.split("=")[0]
        with pytest.raises(ConfigError, match=f"{key} must be a finite number"):
            load_config(None, [assignment])
        out = tmp_path / "x"
        assert run("train", *FAST_TRAIN, "--set", assignment, "--out", str(out)) == 2
        assert key in capsys.readouterr().err
        assert not (out / "model.skaf").exists()

    def test_non_finite_config_file_value_exits_2_naming_the_key(self, tmp_path, capsys):
        cfg_path = _config_file(tmp_path, {"model": {"mlp_ratio": float("nan")}})
        assert run("train", "--config", cfg_path, *FAST_TRAIN, "--out", str(tmp_path / "x")) == 2
        assert "model.mlp_ratio" in capsys.readouterr().err

    @pytest.mark.parametrize("betas", ["[0.9, 2.0]", "[0.9, 1.0]", "[-0.1, 0.9]", "[0.9]",
                                       "[0.9, 0.99, 0.999]", "[NaN, 0.9]", '["a", 0.9]'])
    def test_betas_must_be_two_values_in_unit_interval(self, tmp_path, capsys, betas):
        with pytest.raises(ConfigError, match="train.betas"):
            TrainConfig(betas=json.loads(betas))
        out = tmp_path / "x"
        assert run("train", *FAST_TRAIN, "--set", f"train.betas={betas}", "--out", str(out)) == 2
        assert "train.betas" in capsys.readouterr().err
        assert not (out / "model.skaf").exists()

    def test_betas_bounds(self):
        assert TrainConfig(betas=[0.0, 0.999999]).betas == (0.0, 0.999999)


class TestCountGrid:
    def test_grid_must_hold_the_tokens_for_every_kind(self, capsys):
        assert run("count", "--mixer", "ska", "--N", "16", "--D", "8", "--grid", "3,3") == 2
        assert "grid 3x3 does not match 16 tokens" in capsys.readouterr().err
        assert run("count", "--mixer", "ska", "--N", "16", "--D", "8", "--grid", "2,8",
                   "--bias-free") == 0

    @pytest.mark.parametrize("grid,message", [
        ("1,2,3", "--grid expects 'GH,GW', got '1,2,3'"),
        ("4,x", "--grid expects comma-separated integers, got '4,x'"),
    ])
    def test_malformed_grid_exits_2(self, grid, message, capsys):
        assert run("count", "--mixer", "ska", "--N", "16", "--D", "8", "--grid", grid) == 2
        assert message in capsys.readouterr().err

    def test_zero_tokens_exits_2(self, capsys):
        assert run("count", "--mixer", "cska", "--N", "0", "--D", "8") == 2
        assert "N must be >= 1" in capsys.readouterr().err


def _config_file(tmp_path, content) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(content))
    return str(path)


class TestConfigFileAsSetBatch:
    """A config file is applied as a batch of --set assignments."""

    def test_string_bools_build_the_set_model(self, tmp_path):
        cfg_path = _config_file(tmp_path, {"model": {"scaled": "false", "qkv_bias": "no"}})
        sets = ["model.scaled=false", "model.qkv_bias=no"]
        from_file = load_config(cfg_path, [])
        assert from_file == load_config(None, sets)
        assert from_file["model"]["scaled"] is False and from_file["model"]["qkv_bias"] is False
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("train", "--config", cfg_path, *FAST_TRAIN, "--out", str(a)) == 0
        assert run("train", *[arg for s in sets for arg in ("--set", s)], *FAST_TRAIN,
                   "--out", str(b)) == 0
        assert (a / "model.skaf").read_bytes() == (b / "model.skaf").read_bytes()

    def test_string_int_trains_like_set(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        cfg_path = _config_file(tmp_path, {"train": {"batch_size": "8"}})
        assert run("train", "--config", cfg_path, *FAST_TRAIN, "--out", str(a)) == 0
        assert run("train", "--set", "train.batch_size=8", *FAST_TRAIN, "--out", str(b)) == 0
        assert (a / "runlog.csv").read_bytes() == (b / "runlog.csv").read_bytes()

        capsys.readouterr()
        cfg_path = _config_file(tmp_path, {"train": {"batch_size": "eight"}})
        assert run("train", "--config", cfg_path, "--out", str(tmp_path / "x")) == 2
        err = capsys.readouterr().err
        assert "as int" in err and "train.batch_size" in err

    @pytest.mark.parametrize("content,message", [
        (None, "config file not found"),
        ("{", "is not valid JSON"),
        ("[1, 2]", "must hold a JSON object"),
    ], ids=["missing", "not_json", "not_an_object"])
    def test_unreadable_config_file_exits_2(self, tmp_path, capsys, content, message):
        path = tmp_path / "cfg.json"
        if content is not None:
            path.write_text(content)
        assert run("train", "--config", str(path), "--out", str(tmp_path / "x")) == 2
        assert message in capsys.readouterr().err

    def test_other_json_types_are_normalised_to_the_leaf_type(self, tmp_path):
        cfg = load_config(_config_file(tmp_path, {"model": {"mlp_ratio": 2, "scaled": 0},
                                                  "train": {"lr": 1}}), [])
        assert cfg["model"]["mlp_ratio"] == 2.0 and type(cfg["model"]["mlp_ratio"]) is float
        assert cfg["model"]["scaled"] is False
        assert cfg["train"]["lr"] == 1.0 and type(cfg["train"]["lr"]) is float

    def test_non_object_section_exits_2(self, tmp_path, capsys):
        cfg_path = _config_file(tmp_path, {"train": 5})
        assert run("train", "--config", cfg_path, "--out", str(tmp_path / "x")) == 2
        assert "train expects dict, got int" in capsys.readouterr().err

    def test_section_object_through_set_rejects_unknown_keys(self, tmp_path, capsys):
        rc = run("train", "--set", 'train={"bogus": 1}', "--out", str(tmp_path / "x"))
        assert rc == 2
        assert "train.bogus" in capsys.readouterr().err

    def test_section_object_through_set_keeps_the_other_keys(self):
        cfg = load_config(None, ['train={"steps": 3}'])
        assert cfg["train"]["steps"] == 3
        assert cfg["train"]["batch_size"] == 16
        assert cfg["train"] == {**load_config(None, [])["train"], "steps": 3}

    def test_readme_example_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        example = re.search(r"### Config files.*?```json\n(.*?)```", readme, flags=re.S)
        (tmp_path / "readme.json").write_text(example.group(1))
        cfg = load_config(str(tmp_path / "readme.json"), [])
        ModelConfig.from_dict(cfg["model"])
        TrainConfig(**cfg["train"])


class TestIdxPairRule:
    """An IDX pair loads only with both halves, and a test pair needs a train pair."""

    def test_labels_alone_names_images(self, tmp_path, capsys):
        _, labels = _write_idx(tmp_path, "train", 8)
        rc = run("train", "--set", f"data.labels={labels}", *FAST_TRAIN,
                 "--out", str(tmp_path / "x"))
        assert rc == 2
        assert "data.images is required" in capsys.readouterr().err

    def test_test_labels_alone_names_test_images(self, tmp_path, capsys):
        _, labels = _write_idx(tmp_path, "test", 8)
        rc = run("train", "--set", f"data.test_labels={labels}", *FAST_TRAIN,
                 "--out", str(tmp_path / "x"))
        assert rc == 2
        assert "data.test_images is required" in capsys.readouterr().err

    def test_test_pair_with_synthetic_train_data_exits_2(self, tmp_path, capsys):
        images, labels = _write_idx(tmp_path, "test", 8)
        rc = run("train", "--set", f"data.test_images={images}",
                 "--set", f"data.test_labels={labels}", *FAST_TRAIN,
                 "--out", str(tmp_path / "x"))
        assert rc == 2
        assert "data.images" in capsys.readouterr().err
        assert not (tmp_path / "x" / "model.skaf").exists()
