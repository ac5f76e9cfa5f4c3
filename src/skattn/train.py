"""Optimizers, losses, synthetic datasets, IDX ingestion, and the training
loop for toy-scale end-to-end runs.

Everything is deterministic given the seed: data generation, shuffle order,
and parameter updates, so two runs with the same configuration produce
bit-identical loss series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .autodiff import Parameter, Tape, backward
from .errors import ConfigError, DataError, NumericsError
from .tensor import Rng, Tensor, finite_checks

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class TrainConfig:
    optimizer: str = "adamw"
    lr: float = 1e-3
    weight_decay: float = 0.05
    betas: tuple[float, float] = (0.9, 0.999)
    batch_size: int = 32
    steps: int = 1000
    seed: int = 0
    schedule: str = "constant"  # constant | cosine
    clip_norm: float = 5.0  # 0 disables clipping
    eval_every: int = 0  # 0: evaluate only at the end
    early_stop_acc: float = 0.0  # stop once eval accuracy reaches this (0 disables)

    def __post_init__(self):
        self.betas = tuple(self.betas)
        if len(self.betas) != 2 or not all(isinstance(b, (int, float)) and 0 <= b < 1 for b in self.betas):
            raise ConfigError(f"train.betas must be two values in [0, 1), got {list(self.betas)}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"train.lr must be positive and finite, got {self.lr}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ConfigError(f"train.weight_decay must be >= 0 and finite, got {self.weight_decay}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.steps < 1:
            raise ConfigError(f"train.steps must be >= 1, got {self.steps}")
        for key in ("eval_every", "clip_norm", "early_stop_acc"):
            if getattr(self, key) < 0:
                raise ConfigError(f"train.{key} must be >= 0 (0 turns it off), got {getattr(self, key)}")
        if not 0 <= self.seed < 2 ** 64:  # checkpoints store the seed as a u64
            raise ConfigError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.optimizer != "adamw":
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.schedule not in ("constant", "cosine"):
            raise ConfigError(f"unknown schedule {self.schedule!r}")


@dataclass
class Dataset:
    images: np.ndarray  # [M, C, H, W] float64
    labels: np.ndarray  # [M] int64

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4:
            raise DataError(f"images must be [M, C, H, W], got {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise DataError(
                f"{self.images.shape[0]} images but {self.labels.shape[0]} labels")

    def __len__(self) -> int:
        return self.images.shape[0]


@dataclass
class RunLog:
    steps: list[int] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)  # before clipping
    lrs: list[float] = field(default_factory=list)
    eval_at: dict[int, float] = field(default_factory=dict)
    final_loss: float = float("nan")
    final_eval_acc: float | None = None

    def to_csv(self) -> str:
        lines = ["step,loss,grad_norm,lr,eval_acc"]
        for s, l, g, lr in zip(self.steps, self.losses, self.grad_norms, self.lrs):
            acc = self.eval_at.get(s)
            lines.append(f"{s},{l!r},{g!r},{lr!r},{'' if acc is None else repr(acc)}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------

def synth_dataset(kind: str, n: int, grid: tuple[int, int] = (8, 8), seed: int = 0) -> Dataset:
    """Two-class synthetic image sets, deterministic per seed.

    ``two_gaussians_patches``: each class has a fixed patch-mean template
    with offset +-0.25, so pooled statistics separate the classes linearly.

    ``stripe_orientation``: horizontal vs vertical stripes of i.i.d. levels;
    the per-image pooled statistics are identically distributed across
    classes, so only spatial mixing can tell them apart.
    """
    if n < 2:
        raise DataError(f"need at least 2 samples, got {n}")
    gh, gw = grid
    rng = Rng(seed).split(kind)
    labels = (np.arange(n) % 2).astype(np.int64)
    images = np.empty((n, 1, gh, gw))
    pixels = gh * gw
    noise = pixels + pixels % 2  # raws per image's normals: the u1 half, then the u2 half
    # Each image's draws follow the previous image's on the stream, so the
    # whole set is one run of counters, drawn at once and cut into blocks.
    if kind == "stripe_orientation":
        # image pair 2k, 2k+1: [gh levels | noise | gw levels | noise]
        pairs = rng._raw((n + 1) // 2 * (gh + gw + 2 * noise)).reshape((n + 1) // 2, -1)
        for cls, (lo, size, axis) in enumerate(((0, gh, 2), (gh + noise, gw, 1))):
            out = images[cls::2, 0]
            block = pairs[:len(out), lo:lo + size + noise]
            levels = np.expand_dims(Rng._unit(block[:, :size]) * 2.0 - 1.0, axis)
            out[...] = levels + 0.05 * Rng._box_muller(block[:, size:])[:, :pixels].reshape(-1, gh, gw)
    elif kind == "two_gaussians_patches":
        # the two class templates, then one image after another
        z = Rng._box_muller(rng._raw((n + 2) * noise).reshape(n + 2, -1))[:, :pixels].reshape(-1, gh, gw)
        templates = np.array([-0.25, 0.25])[:, None, None] + 0.25 * z[:2]
        images[:, 0] = templates[labels] + 0.3 * z[2:]
    else:
        raise ConfigError(
            f"unknown synthetic dataset {kind!r}; valid: stripe_orientation, two_gaussians_patches")
    return Dataset(images, labels)


def _read_idx(path, expected_magic: int, n_dims: int, unit: str) -> tuple[tuple[int, ...], np.ndarray]:
    """Read an IDX file of unsigned bytes: its header dims and its payload,
    which must hold exactly the product of the dims (`unit`s, for errors)."""
    with open(path, "rb") as f:
        blob = f.read()
    header = 4 * (1 + n_dims)
    if len(blob) < 4:
        raise DataError(f"truncated IDX file {path}: no magic")
    magic = int.from_bytes(blob[:4], "big")
    if magic != expected_magic:
        raise DataError(f"bad IDX magic 0x{magic:08x} in {path}, expected 0x{expected_magic:08x}")
    if len(blob) < header:
        raise DataError(f"truncated IDX file {path}: incomplete header")
    dims = tuple(int.from_bytes(blob[4 * (i + 1):4 * (i + 2)], "big") for i in range(n_dims))
    expected = math.prod(dims)
    payload = blob[header:]
    if len(payload) != expected:
        raise DataError(
            f"truncated IDX file {path}: expected {expected} {unit}, got {len(payload)}")
    return dims, np.frombuffer(payload, dtype=np.uint8)


def load_idx_images(images_path, labels_path) -> Dataset:
    """Load an IDX image/label file pair (the MNIST family container).

    Pixels are scaled to [0, 1] and a channel axis is inserted.
    """
    (count, rows, cols), pixels = _read_idx(images_path, IDX_IMAGES_MAGIC, 3, "pixel bytes")
    images = (pixels.astype(np.float64) / 255.0).reshape(count, 1, rows, cols)
    (label_count,), labels = _read_idx(labels_path, IDX_LABELS_MAGIC, 1, "labels")
    if label_count != count:
        raise DataError(f"{count} images in {images_path} but {label_count} labels in {labels_path}")
    return Dataset(images, labels.astype(np.int64))


# ---------------------------------------------------------------------------
# loss / metrics
# ---------------------------------------------------------------------------

def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean -log softmax(logits)[label] over the batch."""
    picked = T.gather_last(T.log_softmax_rows(logits), labels)
    return T.mul(picked.mean(), -1.0)


def evaluate(model, dataset: Dataset, batch_size: int = 256) -> tuple[float, float]:
    """Top-1 accuracy and mean loss; argmax ties break toward the lowest class.
    The batches' logits are concatenated and scored at once, so neither
    depends on `batch_size`."""
    if len(dataset) == 0:
        raise DataError("cannot evaluate on an empty dataset")
    if batch_size < 1:
        raise DataError(f"batch_size must be at least 1, got {batch_size}")
    was_training = model.training
    model.eval()
    try:
        logits = np.concatenate([model(Tensor(dataset.images[lo:lo + batch_size])).data
                                 for lo in range(0, len(dataset), batch_size)])
    finally:
        model.train(was_training)
    correct = int((np.argmax(logits, axis=1) == dataset.labels).sum())
    return correct / len(dataset), cross_entropy(Tensor(logits), dataset.labels).data.item()


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

class AdamW:
    """Adam with decoupled weight decay."""

    def __init__(self, params: list[Parameter], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.05):
        self.params = list(params)
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m = {p.name: np.zeros_like(p.tensor.data) for p in self.params}
        self._v = {p.name: np.zeros_like(p.tensor.data) for p in self.params}

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.betas
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for p in self.params:
            g = p.tensor.grad
            if g is None:
                continue
            # in place, in the order of b1*m + (1-b1)*g and b2*v + (1-b2)*g*g: same bits
            m, v = self._m[p.name], self._v[p.name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += ((1.0 - b2) * g) * g
            update = (m / bias1) / (np.sqrt(v / bias2) + self.eps)
            # not in place: a loaded parameter may be a read-only view
            p.tensor.data = p.tensor.data - self.lr * (update + self.weight_decay * p.tensor.data)


def build_optimizer(cfg: TrainConfig, params: list[Parameter]):
    return AdamW(params, lr=cfg.lr, betas=cfg.betas, weight_decay=cfg.weight_decay)


def clip_grad_norm(params: list[Parameter], max_norm: float) -> float:
    """Returns the pre-clip global norm; rescales gradients when above max."""
    total = 0.0
    for p in params:
        if p.tensor.grad is not None:
            total += float((p.tensor.grad ** 2).sum())
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for p in params:
            if p.tensor.grad is not None:
                p.tensor.grad = p.tensor.grad * scale
    return norm


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------

def step(model, images: np.ndarray, labels: np.ndarray, optimizer,
         clip_norm: float = 0.0) -> tuple[float, float]:
    """One forward/backward/update on a batch; returns (loss, grad_norm)."""
    params = model.named_parameters()
    with Tape() as tape:
        logits = model(Tensor(images))
        loss = cross_entropy(logits, labels)
    for p in params:
        p.tensor.grad = None
    backward(tape, loss)
    grad_norm = clip_grad_norm(params, clip_norm)
    optimizer.step()
    return loss.data.item(), grad_norm


def _lr_at(cfg: TrainConfig, step_index: int, total_steps: int) -> float:
    if cfg.schedule == "cosine":
        frac = (step_index - 1) / max(total_steps, 1)
        return cfg.lr * 0.5 * (1.0 + math.cos(math.pi * frac))
    return cfg.lr


def train(model, dataset: Dataset, cfg: TrainConfig,
          eval_dataset: Dataset | None = None) -> RunLog:
    """Run the loop; per-epoch order comes from a seeded Fisher-Yates shuffle.

    Finite checking is disabled inside the hot loop for speed, but the loss
    is checked every step; a non-finite loss aborts with diagnostics.
    """
    if len(dataset) == 0:
        raise DataError("cannot train on an empty dataset")
    m = len(dataset)
    order_rng = Rng(cfg.seed).split("order")
    optimizer = build_optimizer(cfg, model.named_parameters())
    log = RunLog()
    model.train(True)

    perm = order_rng.permutation(m)
    cursor = 0
    with finite_checks(False):
        for step_index in range(1, cfg.steps + 1):
            if cursor >= m:
                perm = order_rng.permutation(m)
                cursor = 0
            idx = perm[cursor:cursor + cfg.batch_size]
            cursor += cfg.batch_size
            optimizer.lr = _lr_at(cfg, step_index, cfg.steps)
            loss, grad_norm = step(model, dataset.images[idx], dataset.labels[idx],
                                   optimizer, cfg.clip_norm)
            if not math.isfinite(loss):
                raise NumericsError(
                    f"non-finite loss at step {step_index} "
                    f"(lr={optimizer.lr:.3g}, grad_norm={grad_norm:.3g})")
            log.steps.append(step_index)
            log.losses.append(loss)
            log.grad_norms.append(grad_norm)
            log.lrs.append(optimizer.lr)
            if (eval_dataset is not None and cfg.eval_every > 0
                    and step_index % cfg.eval_every == 0):
                acc, _ = evaluate(model, eval_dataset)
                log.eval_at[step_index] = acc
                if cfg.early_stop_acc > 0 and acc >= cfg.early_stop_acc:
                    break

    if eval_dataset is not None and log.steps[-1] not in log.eval_at:
        acc, _ = evaluate(model, eval_dataset)
        log.eval_at[log.steps[-1]] = acc
    log.final_loss = log.losses[-1]
    if log.eval_at:
        log.final_eval_acc = log.eval_at[max(log.eval_at)]
    model.eval()
    return log
