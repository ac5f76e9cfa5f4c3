"""Blocks and hierarchical models around the token mixers.

A block is norm -> mixer -> residual, then norm -> MLP -> residual. Models
stack stages of blocks with per-stage mixer selection, a patch embedding in
front, patch-merge downsampling between stages (both `merge_patches`), and a
classifier head (global average pool, or the CLS state for single-stage
CLS configs).

Checkpoints are a small binary format (magic "SKAF") that round-trips
parameters bit-exactly.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import tensor as T
from .autodiff import Module
from .errors import CheckpointError, ConfigError, NumericsError
from .mixers import KINDS, MixerConfig, TokenMixer, build_mixer
from .tensor import Rng, Tensor

_KIND_ALIASES = {**{k: k for k in KINDS}, "attn": "mhsa", "dwconv": "sepconv"}


def canonical_kind(kind: str) -> str:
    k = kind.strip().lower()
    if k not in _KIND_ALIASES:
        raise ConfigError(f"unknown mixer kind {kind!r}; valid: {sorted(set(_KIND_ALIASES))}")
    return _KIND_ALIASES[k]


class LayerNorm(Module):
    """Per-token normalization over the channel axis, with affine scale/shift.

    The forward is one fused taped entry (`tensor.layer_norm`) whose backward
    is the closed form.
    """

    def __init__(self, dim: int, eps: float = 1e-6):
        super().__init__()
        self.eps = eps
        self.gamma = self.register("gamma", Tensor(np.ones(dim)))
        self.beta = self.register("beta", Tensor(np.zeros(dim)))

    def forward(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gamma, self.beta, self.eps)


class Mlp(Module):
    """Channel mixer: linear -> GELU -> linear."""

    def __init__(self, dim: int, hidden: int, rng: Rng):
        super().__init__()
        self.fc1_w = self.register("fc1_w", Tensor(rng.split("fc1").normal((dim, hidden)) / np.sqrt(dim)))
        self.fc1_b = self.register("fc1_b", Tensor(np.zeros(hidden)))
        self.fc2_w = self.register("fc2_w", Tensor(rng.split("fc2").normal((hidden, dim)) / np.sqrt(hidden)))
        self.fc2_b = self.register("fc2_b", Tensor(np.zeros(dim)))

    def forward(self, x: Tensor) -> Tensor:
        h = T.gelu(T.matmul(x, self.fc1_w, self.fc1_b))
        return T.matmul(h, self.fc2_w, self.fc2_b)


class Block(Module):
    """One mixer block: x + mixer(norm(x)), then x + MLP(norm(x)), the MLP
    `mlp_ratio` times the mixer's width."""

    def __init__(self, mixer_cfg: MixerConfig, mlp_ratio: float, rng: Rng):
        super().__init__()
        dim = mixer_cfg.dim
        self.norm1 = self.add_module("norm1", LayerNorm(dim))
        self.mixer: TokenMixer = self.add_module("mixer", build_mixer(mixer_cfg, rng.split("mixer")))
        self.norm2 = self.add_module("norm2", LayerNorm(dim))
        self.mlp = self.add_module("mlp", Mlp(dim, int(round(mlp_ratio * dim)), rng.split("mlp")))

    def forward(self, x: Tensor) -> Tensor:
        x = x + self.mixer(self.norm1(x))
        return x + self.mlp(self.norm2(x))


@dataclass
class StageConfig:
    kind: str
    depth: int
    dim: int
    heads: int

    def __post_init__(self):
        self.kind = canonical_kind(self.kind)
        if self.depth < 1:
            raise ConfigError(f"stage depth must be >= 1, got {self.depth}")


@dataclass
class ModelConfig:
    """Full model description: geometry, stages, and mixer options.

    ``downsample`` lists the patch-merge factor applied before each stage
    after the first (length = len(stages) - 1; defaults to all 2s).
    Mixer-level options (activation, scaled, qkv_bias, cls_token, kernel,
    dropout, key_init) apply to every stage and default to MixerConfig's.
    """

    input: tuple[int, int, int]
    patch: int
    stages: list[StageConfig]
    num_classes: int
    downsample: list[int] = field(default_factory=list)
    cls_token: bool = MixerConfig.cls_token
    mlp_ratio: float = 4.0
    activation: str = MixerConfig.activation
    scaled: bool = MixerConfig.scaled
    qkv_bias: bool = MixerConfig.qkv_bias
    kernel: int = MixerConfig.kernel
    dropout: float = MixerConfig.dropout
    key_init: str = MixerConfig.key_init

    def __post_init__(self):
        self.input = tuple(self.input)
        if len(self.input) != 3:
            raise ConfigError(f"input must be (channels, height, width), got {self.input}")
        if min(self.input) < 1:
            raise ConfigError(f"input extents must be >= 1, got {self.input}")
        try:
            self.stages = [s if isinstance(s, StageConfig) else StageConfig(**s)
                           for s in self.stages]
        except TypeError as e:
            raise ConfigError(f"bad stage entry: {e}") from None
        if not self.stages:
            raise ConfigError("at least one stage is required")
        if not self.downsample:
            self.downsample = [2] * (len(self.stages) - 1)
        self.downsample = [int(f) for f in self.downsample]
        if len(self.downsample) != len(self.stages) - 1:
            raise ConfigError(
                f"downsample needs {len(self.stages) - 1} factors, got {len(self.downsample)}")
        if any(f < 1 for f in self.downsample):
            raise ConfigError("downsample factors must be >= 1")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.cls_token and len(self.stages) > 1:
            raise ConfigError("cls_token is only supported in single-stage models")
        if self.patch < 1:
            raise ConfigError(f"patch must be >= 1, got {self.patch}")
        # a stage's dim below 1 is the error its mixer's config names
        if not 0 < self.mlp_ratio < math.inf or any(round(self.mlp_ratio * s.dim) < 1 <= s.dim
                                                    for s in self.stages):
            raise ConfigError("mlp_ratio must be positive and finite, and round every stage's "
                              f"MLP width to >= 1, got {self.mlp_ratio}")
        self.stage_grids()

    def stage_grids(self) -> list[tuple[int, int]]:
        """The (grid_h, grid_w) token grid of every stage. Raises ConfigError
        when the patch or a downsample factor does not divide its extent."""
        _, h, w = self.input
        if h % self.patch or w % self.patch:
            raise ConfigError(f"input {h}x{w} not divisible by patch {self.patch}")
        grids = [(h // self.patch, w // self.patch)]
        for s, f in enumerate(self.downsample, start=1):
            gh, gw = grids[-1]
            if gh % f or gw % f:
                raise ConfigError(f"grid {gh}x{gw} before stage {s} not divisible by factor {f}")
            grids.append((gh // f, gw // f))
        return grids

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown model config keys: {sorted(unknown)}")
        return cls(**d)


class Stage(Module):
    def __init__(self, stage_cfg: StageConfig, mixer_cfg: MixerConfig, mlp_ratio: float, rng: Rng):
        super().__init__()
        self.blocks = []
        for i in range(stage_cfg.depth):
            block = Block(mixer_cfg, mlp_ratio, rng.split(f"block{i}"))
            self.add_module(f"block{i}", block)
            self.blocks.append(block)

    def forward(self, x: Tensor) -> Tensor:
        for block in self.blocks:
            x = block(x)
        return x


def merge_patches(x, grid: tuple[int, int], weight: Tensor, bias: Tensor) -> Tensor:
    """The conv with a [C_out, C, f, f] weight and stride f, as one biased
    matmul of flattened patches (ViT: Dosovitskiy et al., arXiv 2010.11929,
    §3.1). `x` holds B channels-last images on the (H, W) `grid` in row-major
    order ([B, H*W, C] tokens or a [B, H, W, C] view). Each f x f patch is
    flattened in (i, j, c) order, so that its copy moves runs of f*C values,
    and the weight is read in that order too. A plain array (the images)
    moves through numpy, not the tape, so no gradient is computed for it."""
    ops = T if isinstance(x, Tensor) else np
    (h, w), b, c, f = grid, x.shape[0], x.shape[-1], weight.shape[-1]
    patches = ops.transpose(ops.reshape(x, (b, h // f, f, w // f, f, c)), (0, 1, 3, 2, 4, 5))
    patches = ops.reshape(patches, (b, h // f * (w // f), f * f * c))
    return T.matmul(patches, weight.transpose(2, 3, 1, 0).reshape(f * f * c, weight.shape[0]), bias)


class Downsample(Module):
    """Patch-merge between stages: `merge_patches` of the tokens on `grid`."""

    def __init__(self, dim_in: int, dim_out: int, factor: int, grid: tuple[int, int], rng: Rng):
        super().__init__()
        self.grid = grid
        fan_in = dim_in * factor * factor
        self.w = self.register("w", Tensor(rng.normal((dim_out, dim_in, factor, factor)) / np.sqrt(fan_in)))
        self.b = self.register("b", Tensor(np.zeros(dim_out)))

    def forward(self, x: Tensor) -> Tensor:
        return merge_patches(x, self.grid, self.w, self.b)


class Model(Module):
    """Patch embed -> stages (with downsampling) -> pool/CLS -> linear head."""

    def __init__(self, cfg: ModelConfig, rng: Rng):
        super().__init__()
        self.cfg = cfg
        c, h, w = cfg.input
        grids = cfg.stage_grids()
        d0 = cfg.stages[0].dim

        stem_rng = rng.split("stem")
        fan_in = c * cfg.patch * cfg.patch
        self.stem_w = self.register("stem_w", Tensor(stem_rng.normal((d0, c, cfg.patch, cfg.patch)) / np.sqrt(fan_in)))
        self.stem_b = self.register("stem_b", Tensor(np.zeros(d0)))
        n0 = grids[0][0] * grids[0][1]
        self.pos = self.register("pos", Tensor(rng.split("pos").normal((1, n0, d0)) * 0.02))
        self.cls = None
        if cfg.cls_token:
            self.cls = self.register("cls", Tensor(rng.split("cls").normal((1, 1, d0)) * 0.02))

        self.stages = []
        self.downsamples = []
        for s, stage_cfg in enumerate(cfg.stages):
            grid = grids[s]
            mixer_cfg = MixerConfig(
                kind=stage_cfg.kind, dim=stage_cfg.dim, heads=stage_cfg.heads,
                tokens=grid[0] * grid[1], grid=grid,
                activation=cfg.activation, scaled=cfg.scaled, qkv_bias=cfg.qkv_bias,
                cls_token=cfg.cls_token, kernel=cfg.kernel, dropout=cfg.dropout,
                key_init=cfg.key_init,
            )
            stage = Stage(stage_cfg, mixer_cfg, cfg.mlp_ratio, rng.split(f"stage{s}"))
            self.add_module(f"stage{s}", stage)
            self.stages.append(stage)
            if s + 1 < len(cfg.stages):
                down = Downsample(stage_cfg.dim, cfg.stages[s + 1].dim, cfg.downsample[s],
                                  grid, rng.split(f"down{s + 1}"))
                self.add_module(f"down{s + 1}", down)
                self.downsamples.append(down)

        d_last = cfg.stages[-1].dim
        self.norm = self.add_module("norm", LayerNorm(d_last))
        self.head_w = self.register("head_w", Tensor(rng.split("head").normal((d_last, cfg.num_classes)) / np.sqrt(d_last)))
        self.head_b = self.register("head_b", Tensor(np.zeros(cfg.num_classes)))
        # bytes of one image's residual stream in the widest stage (CLS included):
        # `_forward` may run on sub-batches of about `_CHUNK_BYTES` of it
        self._row_bytes = 8 * max((gh * gw + int(cfg.cls_token)) * s.dim
                                  for (gh, gw), s in zip(grids, cfg.stages))

    def embed(self, images: np.ndarray) -> Tensor:
        """The patch tokens of [B, C, H, W] images, position embedding (and
        CLS) included."""
        tokens = merge_patches(images.transpose(0, 2, 3, 1), self.cfg.input[1:],
                               self.stem_w, self.stem_b) + self.pos
        if self.cls is not None:
            cls_tok = T.broadcast_to(self.cls, (tokens.shape[0],) + self.cls.shape[1:])
            tokens = T.concat([cls_tok, tokens], axis=1)
        return tokens

    def forward(self, images) -> Tensor:
        """The logits of `_forward`, with one finite check when `finite_checks`
        is on: the images and every parameter are scanned once, the forward
        (in sub-batches, when `_forward` splits it) runs with per-op scans off
        and numpy's floating-point flags raising, and the logits are scanned
        once. After a flag raised in any sub-batch or non-finite logits, the
        active tape, attention-map recorders and MAC counters are rolled back
        and the whole forward is replayed with per-op scans on, which name
        the first op that made a non-finite value."""
        if not T._FINITE_CHECKS[0]:
            return self._forward(images)
        x = images if isinstance(images, Tensor) else Tensor(images)
        leaves = [("input images", x)] + [(f"parameter '{p.name}'", p.tensor)
                                          for p in self.named_parameters()]
        for what, t in leaves:
            if not np.isfinite(t.data).all():
                raise NumericsError(f"non-finite values in {what}")
        entries = T._TAPES[-1].entries if T._TAPES else []
        n_entries = len(entries)
        macs = [counter.macs for counter in T._MAC_COUNTERS]
        n_maps = [len(maps) for maps in T._ATTENTION_MAPS]
        try:
            with T.finite_checks(False), np.errstate(over="raise", invalid="raise", divide="raise"):
                out = self._forward(x)
            if np.isfinite(out.data).all():
                return out
        except FloatingPointError:
            pass
        del entries[n_entries:]
        for counter, n in zip(T._MAC_COUNTERS, macs):
            counter.macs = n
        for maps, n in zip(T._ATTENTION_MAPS, n_maps):
            del maps[n:]
        out = self._forward(x)
        if not np.isfinite(out.data).all():
            raise NumericsError("non-finite values in the model output")
        return out

    def _forward(self, images) -> Tensor:
        """Stem, stages and downsamples, final norm, readout and head: the
        logits. Untaped, with no `AttentionMaps` recorder and in eval mode, it
        runs on sub-batches of `_chunk_rows` rows of the widest stage's
        residual stream, so one sub-batch's activations are alive at a time.
        Backward needs the whole batch, a recorder one map per layer, and
        dropout draws its masks layer by layer from one stream. Every other
        op, the head too, treats each image alone, so in eval mode an image's
        logits are the same bits in any batch."""
        x = T._data(images)
        c, h, w = self.cfg.input
        if x.ndim != 4 or x.shape[1:] != (c, h, w):
            raise ConfigError(f"expected images [B, {c}, {h}, {w}], got {x.shape}")
        whole = T._TAPES or T._ATTENTION_MAPS or self.training
        rows = max(len(x), 1) if whole else T._chunk_rows(self._row_bytes)
        logits = []
        for lo in range(0, max(len(x), 1), rows):  # an empty batch is one empty piece
            tokens = self.stages[0](self.embed(x[lo:lo + rows]))
            for down, stage in zip(self.downsamples, self.stages[1:]):
                tokens = stage(down(tokens))
            tokens = self.norm(tokens)
            if self.cls is not None:
                readout = T.slice_axis(tokens, 1, 0, 1)
            else:
                readout = tokens.mean(axis=1, keepdims=True)
            # [b, 1, D] @ [D, C]: one product per image
            out = T.matmul(readout, self.head_w, self.head_b)
            logits.append(out.reshape(out.shape[0], out.shape[2]))
        return logits[0] if len(logits) == 1 else T.concat(logits, axis=0)

    def attention_maps(self, images) -> list[tuple[str, str, np.ndarray | None]]:
        """Head-averaged post-activation attention per block, in depth order,
        captured during one eval-mode forward pass (the caller's mode is
        restored, and dropout streams do not advance).

        Returns (block_name, mixer_kind, map) triples; sepconv blocks yield
        None (they have no attention map).
        """
        was_training = self.training
        self.eval()
        try:
            with T.AttentionMaps() as recorded:
                self.forward(images)
        finally:
            self.train(was_training)
        captured = iter(recorded)  # one entry per attention block, in depth order
        maps = []
        for s, stage in enumerate(self.stages):
            for i, block in enumerate(stage.blocks):
                kind = block.mixer.kind
                avg = None if kind == "sepconv" else next(captured).mean(axis=1)
                maps.append((f"stage{s}.block{i}", kind, avg))
        return maps


def build_model(cfg: ModelConfig, seed: int = 0) -> Model:
    return Model(cfg, Rng(seed))


def count_parameters(module: Module) -> tuple[dict[str, int], int]:
    """Exact parameter sizes by name, plus the total."""
    sizes = {p.name: p.tensor.size for p in module.named_parameters()}
    return sizes, sum(sizes.values())


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

_MAGIC = b"SKAF"
_VERSION = 1


def save_checkpoint(model: Model, path, *, seed: int = 0, step: int = 0) -> None:
    """Write a SKAF file to a temp file in the same directory, which then
    replaces `path`: a failed write leaves the old file whole and no temp.
    The temp file is fsynced before the replace and the directory after it,
    so a power loss leaves either the old file or the whole new one."""
    cfg_blob = json.dumps(model.cfg.to_dict(), sort_keys=True).encode()
    params = model.named_parameters()
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(_MAGIC)
            f.write(struct.pack("<I", _VERSION))
            f.write(struct.pack("<I", len(cfg_blob)))
            f.write(cfg_blob)
            f.write(struct.pack("<QQ", seed, step))
            f.write(struct.pack("<I", len(params)))
            for p in params:
                name = p.name.encode()
                f.write(struct.pack("<H", len(name)))
                f.write(name)
                f.write(struct.pack("<B", p.tensor.ndim))
                for extent in p.tensor.shape:
                    f.write(struct.pack("<I", extent))
                f.write(p.tensor.data.astype("<f8").tobytes())
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)  # makes the replace itself durable
    finally:
        os.close(dir_fd)


def _read(f, n: int, what: str) -> bytes:
    blob = f.read(n)
    if len(blob) != n:
        raise CheckpointError(f"truncated checkpoint: expected {n} bytes for {what}")
    return blob


def load_checkpoint(path, config: ModelConfig | None = None) -> tuple[Model, int, int]:
    """Rebuild a model from a checkpoint file.

    When `config` is given, it must match the stored one; differing fields
    are listed in the error. Returns (model, rng_seed, step). Any malformed
    file raises CheckpointError.
    """
    # read from memory, so a corrupt length field cannot ask for gigabytes
    with io.BytesIO(Path(path).read_bytes()) as f:
        magic = _read(f, 4, "magic")
        if magic != _MAGIC:
            raise CheckpointError(f"bad checkpoint magic {magic!r}, expected {_MAGIC!r}")
        version = struct.unpack("<I", _read(f, 4, "version"))[0]
        if version != _VERSION:
            raise CheckpointError(f"unsupported checkpoint format version {version}")
        cfg_len = struct.unpack("<I", _read(f, 4, "config length"))[0]
        cfg_blob = _read(f, cfg_len, "config")
        try:
            cfg_dict = json.loads(cfg_blob.decode())
            # files from before pos_embed was dropped store it; every model has a position embedding
            pos_embed = cfg_dict.pop("pos_embed", True)
            if pos_embed is not True:
                raise CheckpointError(
                    f"checkpoint stores pos_embed={json.dumps(pos_embed)}; only true is supported")
            stored_cfg = ModelConfig.from_dict(cfg_dict)
            model = build_model(stored_cfg, seed=0)
        except (ConfigError, TypeError, ValueError, AttributeError) as e:
            raise CheckpointError(f"checkpoint config is invalid: {e}") from None
        if config is not None:
            want, got = config.to_dict(), stored_cfg.to_dict()
            diff = [k for k in want if want[k] != got[k]]
            if diff:
                detail = ", ".join(f"{k}: given {want[k]!r} != stored {got[k]!r}" for k in diff)
                raise CheckpointError(f"checkpoint config mismatch: {detail}")
        seed, step = struct.unpack("<QQ", _read(f, 16, "seed/step"))
        n_params = struct.unpack("<I", _read(f, 4, "parameter count"))[0]

        table = {p.name: p.tensor for p in model.named_parameters()}
        if n_params != len(table):
            raise CheckpointError(
                f"checkpoint holds {n_params} parameters but the model has {len(table)}")
        seen = set()
        for _ in range(n_params):
            name_len = struct.unpack("<H", _read(f, 2, "name length"))[0]
            name = _read(f, name_len, "name").decode(errors="backslashreplace")
            if name not in table:
                raise CheckpointError(f"checkpoint parameter {name!r} not present in model")
            if name in seen:
                raise CheckpointError(f"checkpoint lists parameter {name!r} twice")
            seen.add(name)
            ndim = struct.unpack("<B", _read(f, 1, "rank"))[0]
            shape = tuple(struct.unpack("<I", _read(f, 4, "extent"))[0] for _ in range(ndim))
            tensor = table[name]
            if shape != tensor.shape:
                raise CheckpointError(
                    f"checkpoint parameter {name!r} has shape {shape}, model expects {tensor.shape}")
            count = int(np.prod(shape)) if shape else 1
            blob = _read(f, 8 * count, f"data of {name}")
            tensor.data = np.frombuffer(blob, dtype="<f8").astype(np.float64).reshape(shape)
        trailing = f.read(1)
        if trailing:
            raise CheckpointError("trailing bytes after checkpoint payload")
    return model, seed, step
