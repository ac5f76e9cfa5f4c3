"""Blocks and hierarchical models around the token mixers.

A block is norm -> mixer -> residual, then norm -> MLP -> residual. Models
stack stages of blocks with per-stage mixer selection, a strided patch
embedding in front, patch-merge downsampling between stages, and a
classifier head (global average pool, or the CLS state for single-stage
CLS configs).

Checkpoints are a small binary format (magic "SKAF") that round-trips
parameters bit-exactly.
"""

from __future__ import annotations

import io
import json
import os
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import tensor as T
from .autodiff import Module
from .errors import CheckpointError, ConfigError
from .mixers import MixerConfig, TokenMixer, build_mixer
from .tensor import Rng, Tensor

_KIND_ALIASES = {
    "attn": "mhsa",
    "mhsa": "mhsa",
    "ska": "ska",
    "cska": "cska",
    "sepconv": "sepconv",
    "dwconv": "sepconv",
}


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
        h = T.gelu(T.matmul(x, self.fc1_w) + self.fc1_b)
        return T.matmul(h, self.fc2_w) + self.fc2_b


@dataclass
class BlockConfig:
    mixer: MixerConfig
    mlp_ratio: float

    def __post_init__(self):
        if self.mlp_ratio <= 0:
            raise ConfigError(f"mlp_ratio must be positive, got {self.mlp_ratio}")


class Block(Module):
    """One mixer block: x + mixer(norm(x)), then x + MLP(norm(x))."""

    def __init__(self, cfg: BlockConfig, rng: Rng):
        super().__init__()
        dim = cfg.mixer.dim
        self.norm1 = self.add_module("norm1", LayerNorm(dim))
        self.mixer: TokenMixer = self.add_module("mixer", build_mixer(cfg.mixer, rng.split("mixer")))
        self.norm2 = self.add_module("norm2", LayerNorm(dim))
        self.mlp = self.add_module("mlp", Mlp(dim, int(round(cfg.mlp_ratio * dim)), rng.split("mlp")))

    def forward(self, x: Tensor, attn_sink: list | None = None) -> Tensor:
        x = x + self.mixer(self.norm1(x), attn_sink)
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
            block = Block(BlockConfig(mixer_cfg, mlp_ratio=mlp_ratio), rng.split(f"block{i}"))
            self.add_module(f"block{i}", block)
            self.blocks.append(block)

    def forward(self, x: Tensor, attn_sink: list | None = None) -> Tensor:
        for block in self.blocks:
            x = block(x, attn_sink)
        return x


class Downsample(Module):
    """Patch-merge between stages: strided conv, kernel = stride = factor."""

    def __init__(self, dim_in: int, dim_out: int, factor: int, rng: Rng):
        super().__init__()
        self.factor = factor
        fan_in = dim_in * factor * factor
        self.w = self.register("w", Tensor(rng.normal((dim_out, dim_in, factor, factor)) / np.sqrt(fan_in)))
        self.b = self.register("b", Tensor(np.zeros(dim_out)))

    def forward(self, x: Tensor, grid: tuple[int, int]) -> Tensor:
        b, n, d = x.shape
        img = x.transpose(0, 2, 1).reshape(b, d, *grid)
        img = T.conv2d_grouped(img, self.w, self.b, stride=self.factor, padding=0, groups=1)
        _, d_out, nh, nw = img.shape
        return img.reshape(b, d_out, nh * nw).transpose(0, 2, 1)


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
                                  rng.split(f"down{s + 1}"))
                self.add_module(f"down{s + 1}", down)
                self.downsamples.append(down)

        d_last = cfg.stages[-1].dim
        self.norm = self.add_module("norm", LayerNorm(d_last))
        self.head_w = self.register("head_w", Tensor(rng.split("head").normal((d_last, cfg.num_classes)) / np.sqrt(d_last)))
        self.head_b = self.register("head_b", Tensor(np.zeros(cfg.num_classes)))
        self._grids = grids

    def embed(self, images) -> Tensor:
        x = images if isinstance(images, Tensor) else Tensor(images)
        c, h, w = self.cfg.input
        if x.ndim != 4 or x.shape[1:] != (c, h, w):
            raise ConfigError(f"expected images [B, {c}, {h}, {w}], got {x.shape}")
        x = T.conv2d_grouped(x, self.stem_w, self.stem_b, stride=self.cfg.patch, padding=0)
        b, d0 = x.shape[0], x.shape[1]
        tokens = x.reshape(b, d0, x.shape[2] * x.shape[3]).transpose(0, 2, 1) + self.pos
        if self.cls is not None:
            cls_tok = T.broadcast_to(self.cls, (b, 1, d0))
            tokens = T.concat([cls_tok, tokens], axis=1)
        return tokens

    def forward(self, images, attn_sink: list | None = None) -> Tensor:
        tokens = self.embed(images)
        for s, stage in enumerate(self.stages):
            if s > 0:
                tokens = self.downsamples[s - 1](tokens, self._grids[s - 1])
            tokens = stage(tokens, attn_sink)
        x = self.norm(tokens)
        if self.cls is not None:
            readout = T.slice_axis(x, 1, 0, 1).reshape(x.shape[0], x.shape[2])
        else:
            readout = x.mean(axis=1)
        return T.matmul(readout, self.head_w) + self.head_b

    def attention_maps(self, images) -> list[tuple[str, str, np.ndarray | None]]:
        """Head-averaged post-activation attention per block, in depth order,
        captured during one forward pass.

        Returns (block_name, mixer_kind, map) triples; sepconv blocks yield
        None (they have no attention map).
        """
        sink: list[np.ndarray] = []
        self.forward(images, attn_sink=sink)
        captured = iter(sink)  # one entry per attention block, in depth order
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
    replaces `path`: a failed write leaves the old file whole and no temp."""
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
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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
