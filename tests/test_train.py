import importlib
import math
import struct

import numpy as np
import pytest

from skattn import (AdamW, ConfigError, DataError, Dataset, Module, NumericsError,
                    Parameter, Rng, Tensor, TrainConfig, build_model, clip_grad_norm,
                    cross_entropy, evaluate, load_idx_images, step, synth_dataset, train)
from skattn import ModelConfig
from oracles import loop_synth_dataset, pooled_nearest_centroid, reference_adam


def toy_model(kind="ska", seed=0, dim=16, heads=2, depth=2):
    cfg = ModelConfig(input=(1, 8, 8), patch=1, num_classes=2, mlp_ratio=2.0,
                      stages=[{"kind": kind, "depth": depth, "dim": dim, "heads": heads}])
    return build_model(cfg, seed=seed)


class TestSynthDatasets:
    def test_same_seed_identical(self):
        a = synth_dataset("stripe_orientation", 32, seed=5)
        b = synth_dataset("stripe_orientation", 32, seed=5)
        assert np.array_equal(a.images, b.images) and np.array_equal(a.labels, b.labels)

    def test_stripe_pooled_means_class_identical(self):
        ds = synth_dataset("stripe_orientation", 4000, seed=0)
        pooled = ds.images.mean(axis=(1, 2, 3))
        m0, m1 = pooled[ds.labels == 0].mean(), pooled[ds.labels == 1].mean()
        # same distribution of stripe levels for both classes
        assert abs(m0 - m1) < 0.03

    def test_stripe_defeats_pooled_nearest_centroid(self):
        tr = synth_dataset("stripe_orientation", 2000, seed=0)
        te = synth_dataset("stripe_orientation", 500, seed=1)
        acc = pooled_nearest_centroid(tr.images, tr.labels, te.images, te.labels)
        assert 0.4 <= acc <= 0.6

    def test_two_gaussians_separable_after_pooling(self):
        tr = synth_dataset("two_gaussians_patches", 400, seed=0)
        te = synth_dataset("two_gaussians_patches", 200, seed=1)
        acc = pooled_nearest_centroid(tr.images, tr.labels, te.images, te.labels)
        assert acc >= 0.95

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="stripe_orientation"):
            synth_dataset("moons", 16)

    def test_too_few_samples(self):
        with pytest.raises(DataError):
            synth_dataset("stripe_orientation", 1)

    @pytest.mark.parametrize("kind, grid, n, seed", [
        ("stripe_orientation", (8, 8), 2000, 0), ("stripe_orientation", (8, 8), 500, 1),
        ("stripe_orientation", (16, 16), 512, 0), ("stripe_orientation", (16, 16), 16, 1),
        ("two_gaussians_patches", (32, 32), 256, 0), ("two_gaussians_patches", (32, 32), 256, 1)])
    def test_benchmark_sets_equal_the_image_by_image_loop(self, kind, grid, n, seed):
        # the train and test sets of the toy-train, wide-tokens and hier-eval workloads
        ds = synth_dataset(kind, n, grid=grid, seed=seed)
        images, labels = loop_synth_dataset(kind, n, grid=grid, seed=seed)
        assert np.array_equal(ds.images, images) and np.array_equal(ds.labels, labels)


def _write_idx_pair(tmp_path, images, labels, prefix=""):
    count, rows, cols = images.shape
    img_path = tmp_path / f"{prefix}imgs.idx3-ubyte"
    lab_path = tmp_path / f"{prefix}labs.idx1-ubyte"
    img_path.write_bytes(struct.pack(">IIII", 0x00000803, count, rows, cols)
                         + images.astype(np.uint8).tobytes())
    lab_path.write_bytes(struct.pack(">II", 0x00000801, count)
                         + labels.astype(np.uint8).tobytes())
    return img_path, lab_path


class TestIdxLoader:
    def test_fixture_round_trip(self, tmp_path):
        images = (np.arange(4 * 28 * 28) % 256).reshape(4, 28, 28)
        labels = np.array([3, 1, 4, 1])
        img_path, lab_path = _write_idx_pair(tmp_path, images, labels)
        ds = load_idx_images(img_path, lab_path)
        assert ds.images.shape == (4, 1, 28, 28)
        assert np.array_equal(ds.labels, labels)
        assert ds.images.max() <= 1.0 and ds.images.min() >= 0.0
        assert ds.images[1, 0, 0, 0] == images[1, 0, 0] / 255.0

    def test_wrong_magic_names_value(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">IIII", 0x00000805, 1, 2, 2) + b"\x00" * 4)
        with pytest.raises(DataError, match="0x00000805"):
            load_idx_images(path, path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.idx"
        path.write_bytes(b"")
        with pytest.raises(DataError, match="truncated"):
            load_idx_images(path, path)

    def test_incomplete_header(self, tmp_path):
        # the magic and one of an image file's three extents
        path = tmp_path / "short.idx"
        path.write_bytes(struct.pack(">II", 0x00000803, 2))
        with pytest.raises(DataError, match="incomplete header"):
            load_idx_images(path, path)

    def test_truncated_payload(self, tmp_path):
        images = np.zeros((2, 4, 4))
        labels = np.zeros(2)
        img_path, lab_path = _write_idx_pair(tmp_path, images, labels)
        img_path.write_bytes(img_path.read_bytes()[:-5])
        with pytest.raises(DataError, match="truncated"):
            load_idx_images(img_path, lab_path)

    def test_truncated_labels(self, tmp_path):
        img_path, lab_path = _write_idx_pair(tmp_path, np.zeros((3, 4, 4)), np.zeros(3))
        lab_path.write_bytes(lab_path.read_bytes()[:-1])
        with pytest.raises(DataError, match="truncated IDX file .*labs.*expected 3 labels, got 2"):
            load_idx_images(img_path, lab_path)

    def test_count_mismatch(self, tmp_path):
        img_path, _ = _write_idx_pair(tmp_path, np.zeros((3, 4, 4)), np.zeros(3), prefix="a_")
        _, lab_path = _write_idx_pair(tmp_path, np.zeros((2, 4, 4)), np.zeros(2), prefix="b_")
        with pytest.raises(DataError, match="labels"):
            load_idx_images(img_path, lab_path)


class TestLossAndMetrics:
    def test_uniform_logits_loss_is_log_k(self):
        logits = Tensor(np.zeros((4, 10)))
        loss = cross_entropy(logits, np.array([0, 3, 7, 9]))
        assert abs(loss.item() - math.log(10.0)) < 1e-12

    def test_one_hot_model_scores_perfectly(self):
        class OneHot(Module):
            def forward(self, images):
                b = images.shape[0]
                logits = np.zeros((b, 2))
                logits[np.arange(b), labels_ref[:b]] = 10.0
                return Tensor(logits)

        ds = synth_dataset("stripe_orientation", 64, seed=0)
        labels_ref = ds.labels
        acc, loss = evaluate(OneHot(), ds)
        assert acc == 1.0 and loss < 1e-4

    def test_random_logit_model_near_half(self):
        class RandomLogits(Module):
            def __init__(self):
                super().__init__()
                self.rng = Rng(99)

            def forward(self, images):
                return Tensor(self.rng.normal((images.shape[0], 2)))

        ds = synth_dataset("stripe_orientation", 10_000, seed=0)
        acc, _ = evaluate(RandomLogits(), ds)
        assert abs(acc - 0.5) <= 0.02

    def test_cross_entropy_gradients(self):
        from skattn import grad_check, matmul
        w = Tensor(Rng(4).normal((6, 3)))
        x = Rng(5).normal((4, 6))
        labels = np.array([0, 2, 1, 2])
        rows = grad_check(lambda: cross_entropy(matmul(Tensor(x), w), labels),
                          [Parameter("w", w)], tolerance=1e-6)
        assert rows[0].passed, rows[0].max_rel_error

    def test_a_raising_forward_leaves_the_callers_mode(self):
        # a NaN stem weight makes the checked eval forward raise; the model
        # comes back in train mode, as it went in
        model = toy_model().train()
        model.stem_w.data = np.full_like(model.stem_w.data, np.nan)
        ds = synth_dataset("stripe_orientation", 8, seed=0)
        with np.errstate(all="ignore"), pytest.raises(NumericsError, match="stem_w"):
            evaluate(model, ds)
        assert model.training and all(m.training for m in model.stages)

    def test_empty_dataset_is_error(self):
        ds = Dataset(np.zeros((0, 1, 8, 8)), np.zeros(0, dtype=np.int64))
        with pytest.raises(DataError, match="empty"):
            evaluate(toy_model(), ds)
        with pytest.raises(DataError, match="cannot train on an empty dataset"):
            train(toy_model(), ds, TrainConfig(steps=1))

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_is_error(self, batch_size):
        ds = synth_dataset("stripe_orientation", 8, seed=0)
        with pytest.raises(DataError, match=rf"batch_size must be at least 1, got {batch_size}"):
            evaluate(toy_model(), ds, batch_size=batch_size)

    def test_accuracy_and_loss_do_not_depend_on_batch_size(self):
        # a CLS model (N = 65 tokens): each image's logits are the same bits in
        # any batch, and the batches' logits are scored at once
        cfg = ModelConfig(input=(1, 8, 8), patch=1, num_classes=2, mlp_ratio=2.0, cls_token=True,
                          stages=[{"kind": "ska", "depth": 2, "dim": 16, "heads": 2}])
        model = build_model(cfg, seed=0)
        ds = synth_dataset("stripe_orientation", 300, seed=1)
        results = {b: evaluate(model, ds, batch_size=b) for b in (1, 3, 7, 64, 256)}
        assert len(set(results.values())) == 1, results

    def test_dataset_count_mismatch(self):
        with pytest.raises(DataError, match="labels"):
            Dataset(np.zeros((3, 1, 4, 4)), np.zeros(2, dtype=np.int64))

    def test_dataset_images_must_be_4d(self):
        with pytest.raises(DataError, match=r"images must be \[M, C, H, W\], got \(3, 4, 4\)"):
            Dataset(np.zeros((3, 4, 4)), np.zeros(3, dtype=np.int64))


class TestOptimizers:
    def test_zero_lr_leaves_parameters_unchanged(self):
        w = Tensor(Rng(0).normal((4, 4)))
        p = Parameter("w", w)
        before = w.data.copy()
        opt = AdamW([p], lr=0.0, weight_decay=0.3)
        for _ in range(5):
            w.grad = Rng(1).normal((4, 4))
            opt.step()
        assert np.array_equal(w.data, before)

    def test_adamw_zero_decay_matches_reference_adam(self):
        # quadratic loss 0.5 * ||A theta - b||^2, gradients in closed form
        rng = Rng(3)
        a = rng.normal((6, 4))
        b = rng.normal((6,))
        theta0 = rng.normal((4,))

        def grads_fn(thetas):
            return [a.T @ (a @ thetas[0] - b)]

        history = reference_adam([theta0], grads_fn, lr=1e-2, betas=(0.9, 0.999),
                                 eps=1e-8, steps=100)

        w = Tensor(theta0.copy())
        p = Parameter("w", w)
        opt = AdamW([p], lr=1e-2, betas=(0.9, 0.999), weight_decay=0.0)
        for t in range(100):
            w.grad = a.T @ (a @ w.data - b)
            opt.step()
            assert np.abs(w.data - history[t][0]).max() < 1e-12

    def test_twenty_steps_bit_identical_to_the_written_out_update(self):
        lr, betas, eps, decay = 3e-2, (0.9, 0.999), 1e-8, 0.05
        rng = Rng(9)
        inits = [rng.normal((4, 4)), rng.normal((7,)), rng.normal((2, 3, 5))]
        steps = [[rng.normal((4, 4)), np.broadcast_to(rng.normal((1,)), (7,)),
                  rng.normal((2, 3, 5))] for _ in range(20)]
        tensors = [Tensor(x.copy()) for x in inits]
        tensors[0].data.flags.writeable = False  # as a loaded parameter may be
        params = [Parameter(f"p{i}", t) for i, t in enumerate(tensors)]
        opt = AdamW(params, lr=lr, betas=betas, eps=eps, weight_decay=decay)

        want = [x.copy() for x in inits]
        m = [np.zeros_like(x) for x in inits]
        v = [np.zeros_like(x) for x in inits]
        b1, b2 = betas
        for t, grads in enumerate(steps, start=1):
            for tensor, g in zip(tensors, grads):
                tensor.grad = g
            opt.step()
            for i, g in enumerate(grads):
                m[i] = b1 * m[i] + (1.0 - b1) * g
                v[i] = b2 * v[i] + (1.0 - b2) * g * g
                update = (m[i] / (1.0 - b1 ** t)) / (np.sqrt(v[i] / (1.0 - b2 ** t)) + eps)
                want[i] = want[i] - lr * (update + decay * want[i])
        for tensor, w in zip(tensors, want):
            assert np.array_equal(tensor.data, w)

    def test_clip_grad_norm(self):
        w = Tensor(np.zeros((3,)))
        w.grad = np.array([3.0, 4.0, 0.0])
        p = Parameter("w", w)
        norm = clip_grad_norm([p], 1.0)
        assert norm == 5.0
        assert abs(np.linalg.norm(w.grad) - 1.0) < 1e-12


class TestTrainLoop:
    @pytest.mark.parametrize("kind", ["ska", "sepconv"])
    def test_single_sample_overfit(self, kind):
        # budget established by pilot: 500 AdamW steps at lr 1e-3 reach < 1e-3
        ds = synth_dataset("stripe_orientation", 2, seed=0)
        one = Dataset(ds.images[:1], ds.labels[:1])
        cfg = TrainConfig(steps=500, batch_size=1, lr=1e-3, weight_decay=0.0, seed=0)
        log = train(toy_model(kind), one, cfg)
        assert log.final_loss < 1e-3

    def test_bit_identical_loss_series(self):
        ds = synth_dataset("stripe_orientation", 64, seed=2)
        cfg = TrainConfig(steps=25, batch_size=8, seed=4)
        log1 = train(toy_model(seed=1), ds, cfg)
        log2 = train(toy_model(seed=1), ds, cfg)
        assert log1.losses == log2.losses

    def test_non_finite_loss_aborts_with_diagnostics(self):
        ds = synth_dataset("stripe_orientation", 16, seed=0)
        cfg = TrainConfig(steps=50, batch_size=8, lr=1e18, clip_norm=0.0, seed=0)
        with np.errstate(all="ignore"), pytest.raises(NumericsError, match="step"):
            train(toy_model(), ds, cfg)

    def test_cosine_schedule_decays(self):
        from skattn.train import _lr_at
        cfg = TrainConfig(lr=1.0, schedule="cosine")
        assert _lr_at(cfg, 1, 100) == pytest.approx(1.0)
        assert _lr_at(cfg, 51, 100) == pytest.approx(0.5, abs=0.02)
        assert _lr_at(cfg, 100, 100) < 0.01

    def test_runlog_csv_shape(self):
        ds = synth_dataset("stripe_orientation", 32, seed=0)
        test = synth_dataset("stripe_orientation", 16, seed=1)
        cfg = TrainConfig(steps=10, batch_size=8, eval_every=5, seed=0)
        log = train(toy_model(), ds, cfg, eval_dataset=test)
        lines = log.to_csv().strip().splitlines()
        assert lines[0] == "step,loss,grad_norm,lr,eval_acc"
        assert len(lines) == 11
        assert log.steps == sorted(log.steps)
        assert lines[5].split(",")[4] != ""  # eval at step 5

    def test_runlog_records_each_steps_grad_norm_and_lr(self, monkeypatch):
        # the columns are what `step` returned and the rate it stepped with,
        # round-tripped exactly through repr
        tr = importlib.import_module("skattn.train")  # `skattn.train` is also the function
        seen = []
        real_step = tr.step

        def spy(model, images, labels, optimizer, clip_norm=0.0):
            loss, grad_norm = real_step(model, images, labels, optimizer, clip_norm)
            seen.append((loss, grad_norm, optimizer.lr))
            return loss, grad_norm

        monkeypatch.setattr(tr, "step", spy)
        ds = synth_dataset("stripe_orientation", 32, seed=0)
        cfg = TrainConfig(steps=6, batch_size=8, lr=0.01, schedule="cosine", clip_norm=0.5, seed=0)
        log = train(toy_model(), ds, cfg)
        rows = [line.split(",") for line in log.to_csv().strip().splitlines()[1:]]
        assert [(float(l), float(g), float(lr)) for _, l, g, lr, _ in rows] == seen
        assert [lr for _, _, lr in seen] == [tr._lr_at(cfg, s, 6) for s in range(1, 7)]
        assert len(set(lr for _, _, lr in seen)) == 6 and all(g > 0 for _, g, _ in seen)

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        for optimizer in ("lion", "sgd"):
            with pytest.raises(ConfigError, match=f"unknown optimizer '{optimizer}'"):
                TrainConfig(optimizer=optimizer)
        with pytest.raises(ConfigError, match="unknown schedule 'step'"):
            TrainConfig(schedule="step")
        for steps in (0, -3):
            with pytest.raises(ConfigError, match="train.steps"):
                TrainConfig(steps=steps)
        for seed in (-1, 2 ** 64):
            with pytest.raises(ConfigError, match="seed"):
                TrainConfig(seed=seed)
        assert TrainConfig(seed=2 ** 64 - 1).seed == 2 ** 64 - 1

    @pytest.mark.parametrize("field,value", [
        ("lr", float("nan")), ("lr", float("inf")), ("weight_decay", -0.5),
        ("weight_decay", float("nan")), ("weight_decay", float("inf")),
    ])
    def test_bad_lr_or_weight_decay_rejected(self, field, value):
        # NaN passed the old `lr <= 0` test, and weight_decay was not checked at all
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value})
        assert TrainConfig(weight_decay=0.0).weight_decay == 0.0
