"""Token mixers with a common (B, N, D) -> (B, N, D) contract.

Four interchangeable kinds, built by two classes:

* ``mhsa``     -- multi-head self-attention: dynamic queries, keys, values.
* ``ska``      -- static key attention: the key projection is replaced by a
  learned per-head matrix of shape [N, d_h]; logits are Q @ key^T, so the
  key is bound to token positions instead of being computed from the input.
* ``cska``     -- convolutional static key attention: the logits come from a
  grouped convolution over the query feature map laid out as an image
  [D, grid_h, grid_w], one channel group per head, N output channels per
  group (one logit per key position for every query position).
* ``sepconv``  -- depthwise-separable convolution: pointwise -> depthwise
  k x k -> pointwise, a purely convolutional mixer with no attention map.

The three attention kinds differ only in where the logits come from, so they
are one class, `Attention`, whose kind picks its key parameters. Each kind's
logits are one product q @ k^T (+ bias): mhsa's k is dynamic, ska's is the
static key, and cska's q is the k x k windows of the query image and k the
conv kernels (bordered by a CLS key column when there is a CLS token).
Everything after the logits is shared: optional 1/sqrt(d_h) scaling, the
row activation, attention times values, head merge and an output
projection. Logits through the product with the values are one fused taped
entry, `tensor.attention`, for every kind, activation and CLS setting.
`SepConv` is the no-attention control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .autodiff import Module
from .errors import ConfigError, ShapeError
from .tensor import Rng, Tensor

KINDS = ("mhsa", "ska", "cska", "sepconv")
ACTIVATIONS = ("softmax", "gelu", "relu", "starrelu")
# kinds that lay their tokens out on a (grid_h, grid_w) grid and convolve it
# with a kernel x kernel window
GRID_KINDS = ("cska", "sepconv")

# StarReLU s * relu(x)^2 + b initial scalars: 1/sqrt(1.25) and -sqrt(0.2)
_STARRELU_SCALE = 0.8944
_STARRELU_BIAS = -0.4472


@dataclass
class MixerConfig:
    """Configuration shared by all four mixer kinds.

    ``tokens`` is the spatial token count (excluding any CLS token). A
    ``grid`` (grid_h, grid_w) may be given for any kind and must hold exactly
    ``tokens`` cells; cska and sepconv lay the tokens out on it, so they
    require one. ``qkv_bias`` toggles every bias in the mixer (projections
    and the cska key convolution); bias-free mode is what the closed-form
    parameter counts assume.
    """

    kind: str
    dim: int
    heads: int = 1
    tokens: int = 0
    grid: tuple[int, int] | None = None
    activation: str = "softmax"
    scaled: bool = True
    qkv_bias: bool = True
    cls_token: bool = False
    kernel: int = 3
    dropout: float = 0.0
    key_init: str = "normal"  # "normal" (unit std) or "trunc" (std 0.02, clipped at 2 sigma)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown mixer kind {self.kind!r}; valid: {', '.join(KINDS)}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(
                f"unknown activation {self.activation!r}; valid: {', '.join(ACTIVATIONS)}")
        if self.dim <= 0 or self.heads <= 0:
            raise ConfigError(f"dim and heads must be positive, got {self.dim}, {self.heads}")
        if self.dim % self.heads:
            raise ConfigError(f"dim {self.dim} not divisible by heads {self.heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.key_init not in ("normal", "trunc"):
            raise ConfigError(f"unknown key_init {self.key_init!r}")
        if self.kind in ("ska", "cska") and self.tokens < 1:
            raise ConfigError(f"{self.kind} requires a fixed token count, got {self.tokens}")
        if self.grid is not None:
            self.grid = tuple(self.grid)
            gh, gw = self.grid
            if gh < 1 or gw < 1:
                raise ConfigError(f"grid extents must be >= 1, got {gh}x{gw}")
            if gh * gw != self.tokens:
                raise ConfigError(f"grid {gh}x{gw} does not match {self.tokens} tokens")
        if self.kind in GRID_KINDS:
            if self.grid is None:
                raise ConfigError(f"{self.kind} requires a (grid_h, grid_w) token grid")
            if self.kernel < 1 or self.kernel % 2 == 0:
                raise ConfigError(f"{self.kind} kernel must be odd and positive, got {self.kernel}")
        if self.kind == "sepconv" and self.cls_token:
            raise ConfigError("sepconv cannot carry a CLS token (no attention path)")

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads

    @property
    def total_tokens(self) -> int:
        """Token count the mixer expects at its input (spatial + CLS)."""
        return self.tokens + (1 if self.cls_token else 0)


@dataclass(frozen=True)
class MixerProperties:
    """Structural descriptor: how weights are shared across positions and
    how many input-dependent weight applications the mixer performs."""

    kind: str
    weight_sharing: str  # "none" | "spatially-global"
    dynamic_weights: int


_PROPERTIES = {
    "sepconv": MixerProperties("sepconv", "spatially-global", 0),
    "mhsa": MixerProperties("mhsa", "none", 2),
    "ska": MixerProperties("ska", "none", 1),
    "cska": MixerProperties("cska", "spatially-global", 1),
}


def mixer_properties(kind: str) -> MixerProperties:
    if kind not in _PROPERTIES:
        raise ConfigError(f"unknown mixer kind {kind!r}")
    return _PROPERTIES[kind]


def _linear_init(rng: Rng, fan_in: int, fan_out: int) -> Tensor:
    return Tensor(rng.normal((fan_in, fan_out)) * (1.0 / math.sqrt(fan_in)))


def _key_param(rng: Rng, shape, key_init: str) -> Tensor:
    """A static key: unit normal, or ``"trunc"`` (std 0.02, redrawn beyond 2 sigma)."""
    z = rng.normal(shape)
    if key_init == "trunc":
        while True:
            bad = np.abs(z) > 2.0
            if not bad.any():
                break
            z[bad] = rng.normal((int(bad.sum()),))
        z = z * 0.02
    return Tensor(z)


def _split_heads(x: Tensor, heads: int) -> Tensor:
    b, n, d = x.shape
    return x.reshape(b, n, heads, d // heads).transpose(0, 2, 1, 3)


def _merge_heads(x: Tensor) -> Tensor:
    b, h, n, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, n, h * dh)


class TokenMixer(Module):
    """Base of every mixer: the config, its kind and the dropout stream."""

    def __init__(self, cfg: MixerConfig, rng: Rng):
        super().__init__()
        self.cfg = cfg
        self._drop_rng = rng.split("dropout")

    @property
    def kind(self) -> str:
        return self.cfg.kind

    def _dropout(self, out: Tensor) -> Tensor:
        if self.training and self.cfg.dropout > 0.0:
            out = T.dropout(out, self.cfg.dropout, self._drop_rng)
        return out


class Attention(TokenMixer):
    """One attention mixer for mhsa, ska and cska; the kind picks the logits.

    Queries and values are projections of the input (``wq``/``wv``, with
    ``bq``/``bv`` when qkv_bias is on), each one `tensor.matmul` entry with
    its bias. The logits source by kind:

    * mhsa: Q @ K^T with a dynamic key K = x @ ``wk``. The key projection
      carries no bias even with qkv_bias on: a key bias shifts every logit
      in a row by the same amount, so softmax attention is exactly invariant
      to it and the parameter would be inert. Length-flexible.
    * ska: Q @ key^T with a learned ``key`` of shape [heads, N, d_h], so
      the token count is fixed at build time (N+1 rows with a CLS token) and
      an input of any other length is a ShapeError. No key bias.
    * cska: a grouped convolution of the queries laid out as an image
      [B, D, grid_h, grid_w] (``conv_w``/``conv_b``; groups = heads, N output
      channels per group, same-size padding) gives every query position one
      logit per key position. Like ska's, it is one product: the query
      windows [B, H, Nq, d_h*k*k] are its queries and the kernels as
      [H, Nk, d_h*k*k] its keys, with ``conv_b`` as a [H, 1, Nk] logit
      bias, so at kernel 1 it is ska with key[h, j] = conv_w[h*N + j, :, 0, 0]
      (the weight transport). With a CLS token every query gains one extra
      key column from a learned per-head ``cls_key`` dotted with its query,
      and the CLS query's spatial-key row is zero (it has no spatial
      position): `tensor.attention`'s CLS border.

    The rest is one path: a single `tensor.attention` entry takes the
    logits' operands, the optional 1/sqrt(d_h) scaling and the row
    activation (starrelu with ``act_scale``/``act_bias``) and returns the
    weighted values; then head merge, output projection ``wo``/``bo`` (one
    biased `tensor.matmul` entry) and dropout. An active
    `tensor.AttentionMaps` receives a copy of the post-activation map.
    """

    def __init__(self, cfg: MixerConfig, rng: Rng):
        super().__init__(cfg, rng)
        d, h, n, dh = cfg.dim, cfg.heads, cfg.tokens, cfg.head_dim
        self.act_scale = self.act_bias = None
        if cfg.activation == "starrelu":
            self.act_scale = self.register("act_scale", Tensor(np.full((1,), _STARRELU_SCALE)))
            self.act_bias = self.register("act_bias", Tensor(np.full((1,), _STARRELU_BIAS)))
        self.wq = self.register("wq", _linear_init(rng.split("wq"), d, d))
        if cfg.kind == "mhsa":
            self.wk = self.register("wk", _linear_init(rng.split("wk"), d, d))
        self.wv = self.register("wv", _linear_init(rng.split("wv"), d, d))
        self.wo = self.register("wo", _linear_init(rng.split("wo"), d, d))
        self.bq = self.bv = self.bo = None
        if cfg.qkv_bias:
            self.bq = self.register("bq", Tensor(np.zeros(d)))
            self.bv = self.register("bv", Tensor(np.zeros(d)))
            self.bo = self.register("bo", Tensor(np.zeros(d)))
        if cfg.kind == "ska":
            self.key = self.register(
                "key", _key_param(rng.split("key"), (h, cfg.total_tokens, dh), cfg.key_init))
        elif cfg.kind == "cska":
            k = cfg.kernel
            self.conv_b = self.cls_key = None
            conv_w = rng.split("conv_key").normal((h * n, dh, k, k)) / math.sqrt(dh * k * k)
            self.conv_w = self.register("conv_w", Tensor(conv_w))
            if cfg.qkv_bias:
                self.conv_b = self.register("conv_b", Tensor(np.zeros(h * n)))
            if cfg.cls_token:
                self.cls_key = self.register(
                    "cls_key", _key_param(rng.split("cls_key"), (h, 1, dh), cfg.key_init))

    def _logit_operands(self, x: Tensor, q: Tensor) -> dict:
        """`tensor.attention`'s logit operands; cska's are its query image, its
        kernels as [H, Nk, d_h*k*k] and, with a CLS token, the CLS border's."""
        cfg = self.cfg
        h = cfg.heads
        if cfg.kind == "mhsa":
            return dict(q=_split_heads(q, h), k=_split_heads(T.matmul(x, self.wk), h))
        if cfg.kind == "ska":
            return dict(q=_split_heads(q, h), k=self.key)
        q_spatial = T.slice_axis(q, 1, 1, cfg.total_tokens) if cfg.cls_token else q
        return dict(q=q_spatial.transpose(0, 2, 1).reshape(q.shape[0], cfg.dim, *cfg.grid),
                    k=self.conv_w.reshape(h, cfg.tokens, -1),
                    bias=None if self.conv_b is None else self.conv_b.reshape(h, 1, cfg.tokens),
                    kernel=cfg.kernel, cls_key=self.cls_key,
                    cls_query=_split_heads(q, h) if cfg.cls_token else None)

    def forward(self, x: Tensor) -> Tensor:
        cfg = self.cfg
        if cfg.kind != "mhsa" and x.shape[1] != cfg.total_tokens:
            raise ShapeError(
                f"{cfg.kind} built for {cfg.total_tokens} tokens but input carries {x.shape[1]}")
        q = T.matmul(x, self.wq, self.bq)
        v = _split_heads(T.matmul(x, self.wv, self.bv), cfg.heads)
        out = T.attention(v=v, scale=1.0 / math.sqrt(cfg.head_dim) if cfg.scaled else 1.0,
                          activation=cfg.activation, act_scale=self.act_scale,
                          act_bias=self.act_bias, **self._logit_operands(x, q))
        return self._dropout(T.matmul(_merge_heads(out), self.wo, self.bo))


class SepConv(TokenMixer):
    """Depthwise-separable convolution mixer: pointwise, depthwise, pointwise.

    Purely linear (the block's MLP supplies the nonlinearity), so a
    center-one depthwise kernel with identity pointwise maps is the
    identity.
    """

    def __init__(self, cfg: MixerConfig, rng: Rng):
        super().__init__(cfg, rng)
        d, k = cfg.dim, cfg.kernel
        self.pw1 = self.register("pw1", _linear_init(rng.split("pw1"), d, d))
        self.dw = self.register("dw", Tensor(rng.split("dw").normal((d, 1, k, k)) / k))
        self.pw2 = self.register("pw2", _linear_init(rng.split("pw2"), d, d))
        self.b1 = self.bdw = self.b2 = None
        if cfg.qkv_bias:
            self.b1 = self.register("b1", Tensor(np.zeros(d)))
            self.bdw = self.register("bdw", Tensor(np.zeros(d)))
            self.b2 = self.register("b2", Tensor(np.zeros(d)))

    def forward(self, x: Tensor) -> Tensor:
        cfg = self.cfg
        b, n, d = x.shape
        gh, gw = cfg.grid
        if n != gh * gw:
            raise ShapeError(f"sepconv built for a {gh}x{gw} grid but input carries {n} tokens")
        h = T.matmul(x, self.pw1, self.b1)
        img = h.transpose(0, 2, 1).reshape(b, d, gh, gw)
        img = T.conv2d_grouped(img, self.dw, self.bdw, groups=d)
        h = img.reshape(b, d, n).transpose(0, 2, 1)
        return self._dropout(T.matmul(h, self.pw2, self.b2))


def build_mixer(cfg: MixerConfig, rng: Rng) -> TokenMixer:
    return (SepConv if cfg.kind == "sepconv" else Attention)(cfg, rng)
