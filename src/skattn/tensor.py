"""Dense float64 tensors, taped primitives, and a deterministic RNG.

Every operation here is a pure function from input tensors to an output
tensor. When a `Tape` is active the operation also records a backward rule,
so reverse-mode differentiation (see `autodiff`) can replay the tape. MACs
(multiply-accumulates) are tallied into any active `MacCounter` by `matmul`
(a convolution is `unfold` + `matmul`) and by the fused `attention` entry,
which counts both of its products (queries times keys, weights times
values); everything else counts as zero.

Ops that only move values (`_MOVE_OPS`) may return numpy's strided or
read-only views, and no op writes into its inputs. Broadcasting follows
numpy semantics; gradients are reduced back onto the operand shapes.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
from scipy.special import erf

from .errors import NumericsError, ShapeError

_TAPES: list["Tape"] = []
_MAC_COUNTERS: list["MacCounter"] = []
_FINITE_CHECKS = [True]


class Tensor:
    """N-dimensional float64 array with an optional gradient slot."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return self.data.item()

    def __repr__(self):
        return f"Tensor(shape={self.shape})"

    # ergonomic sugar; all routed through the taped primitives below
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise ShapeError("tensor/tensor division is not supported; use mul + rsqrt")
        return mul(self, 1.0 / float(other))

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes or None)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis=axis, keepdims=keepdims)


class Tape:
    """Ordered record of operations for one reverse-mode pass.

    Entries are appended in execution order, so inputs always precede the
    operations that consume them. Used as a context manager::

        with Tape() as tape:
            loss = model(x)
        grads = backward(tape, loss)
    """

    def __init__(self):
        self.entries: list[tuple[Tensor, tuple[Tensor, ...], object]] = []

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPES.pop()
        assert popped is self

    def __len__(self):
        return len(self.entries)


class MacCounter:
    """Accumulates the multiply-accumulates of matmul and attention while active."""

    def __init__(self):
        self.macs = 0

    def __enter__(self) -> "MacCounter":
        _MAC_COUNTERS.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _MAC_COUNTERS.pop()
        assert popped is self


class finite_checks:
    """Context manager toggling NaN/Inf detection after each primitive."""

    def __init__(self, enabled: bool):
        self.enabled = enabled

    def __enter__(self):
        self.prev = _FINITE_CHECKS[0]
        _FINITE_CHECKS[0] = self.enabled
        return self

    def __exit__(self, exc_type, exc, tb):
        _FINITE_CHECKS[0] = self.prev


def _add_macs(n: int) -> None:
    for counter in _MAC_COUNTERS:
        counter.macs += n


def _data(x) -> np.ndarray:
    if isinstance(x, Tensor):
        return x.data
    return np.asarray(x, dtype=np.float64)


# ops that only move values create no non-finite value, so their outputs are not scanned
_MOVE_OPS = frozenset({"reshape", "transpose", "concat", "slice", "broadcast", "unfold", "gather_last"})


def _make(out_data: np.ndarray, op: str, inputs: tuple, backward) -> Tensor:
    if _FINITE_CHECKS[0] and op not in _MOVE_OPS and not np.all(np.isfinite(out_data)):
        raise NumericsError(f"non-finite values produced by '{op}'")
    out = Tensor(out_data)
    tensors = tuple(t for t in inputs if isinstance(t, Tensor))
    if _TAPES and tensors:
        _TAPES[-1].entries.append((out, tensors, backward))
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back onto the original operand shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] > 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise / structural primitives
# ---------------------------------------------------------------------------

def _broadcast_op(op: str, ufunc, a, b, da, db) -> Tensor:
    """add, sub, mul and matmul: `ufunc(a, b)`; each Tensor operand's gradient
    is its local partial `da(g, b)` or `db(g, a)`, summed back onto its shape."""
    ad, bd = _data(a), _data(b)
    try:
        out = ufunc(ad, bd)
    except ValueError:
        raise ShapeError(f"{op}: shapes {ad.shape} and {bd.shape} do not broadcast") from None

    def bwd(g):
        grads = []
        if isinstance(a, Tensor):
            grads.append(_unbroadcast(da(g, bd), ad.shape))
        if isinstance(b, Tensor):
            grads.append(_unbroadcast(db(g, ad), bd.shape))
        return tuple(grads)

    return _make(out, op, (a, b), bwd)


def add(a, b) -> Tensor:
    return _broadcast_op("add", np.add, a, b, lambda g, _: g, lambda g, _: g)


def sub(a, b) -> Tensor:
    return _broadcast_op("sub", np.subtract, a, b, lambda g, _: g, lambda g, _: -g)


def mul(a, b) -> Tensor:
    return _broadcast_op("mul", np.multiply, a, b, np.multiply, np.multiply)


def _reduce(x: Tensor, op: str, forward, axis, keepdims, average: bool) -> Tensor:
    """reduce_sum and mean: the gradient is spread back over the reduced axes,
    divided by the count of elements each output averages if `average` is set."""
    xd = _data(x)
    out = forward(xd, axis=axis, keepdims=keepdims)
    count = xd.size // max(out.size, 1) if average else 1

    def bwd(g):
        g_exp = g if axis is None or keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g_exp / count, xd.shape),)

    return _make(out, op, (x,), bwd)


def reduce_sum(x: Tensor, axis=None, keepdims=False) -> Tensor:
    return _reduce(x, "sum", np.ndarray.sum, axis, keepdims, average=False)


def mean(x: Tensor, axis=None, keepdims=False) -> Tensor:
    return _reduce(x, "mean", np.ndarray.mean, axis, keepdims, average=True)


def reshape(x: Tensor, shape) -> Tensor:
    xd = _data(x)
    shape = tuple(shape)
    try:
        out = xd.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {xd.shape} as {shape}") from None

    def bwd(g):
        return (g.reshape(xd.shape),)

    return _make(out, "reshape", (x,), bwd)


def transpose(x: Tensor, axes=None) -> Tensor:
    xd = _data(x)
    out = np.transpose(xd, axes)
    inv = None if axes is None else tuple(np.argsort([a % xd.ndim for a in axes]))

    def bwd(g):
        return (np.transpose(g, inv),)

    return _make(out, "transpose", (x,), bwd)


def concat(tensors, axis: int = -1) -> Tensor:
    datas = [_data(t) for t in tensors]
    base = datas[0].shape
    for d in datas[1:]:
        if d.ndim != datas[0].ndim:
            raise ShapeError(f"concat: rank mismatch {base} vs {d.shape}")
        for ax in range(d.ndim):
            if ax != (axis % d.ndim) and d.shape[ax] != base[ax]:
                raise ShapeError(f"concat: shapes {base} and {d.shape} differ off-axis")
    out = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum(sizes)[:-1]

    def bwd(g):
        pieces = np.split(g, offsets, axis=axis)
        return tuple(p for p, t in zip(pieces, tensors) if isinstance(t, Tensor))

    return _make(out, "concat", tuple(tensors), bwd)


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    xd = _data(x)
    index = [slice(None)] * xd.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)
    out = xd[index]

    def bwd(g):
        gx = np.zeros_like(xd)
        gx[index] = g
        return (gx,)

    return _make(out, "slice", (x,), bwd)


def broadcast_to(x: Tensor, shape) -> Tensor:
    xd = _data(x)
    shape = tuple(shape)
    try:
        out = np.broadcast_to(xd, shape)
    except ValueError:
        raise ShapeError(f"broadcast: cannot expand {xd.shape} to {shape}") from None

    def bwd(g):
        return (_unbroadcast(g, xd.shape),)

    return _make(out, "broadcast", (x,), bwd)


# ---------------------------------------------------------------------------
# contractions
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    """Batched matrix product [..., M, K] @ [..., K, P] -> [..., M, P].

    Leading batch extents broadcast by equality or 1. Counts M*K*P MACs per
    output matrix.
    """
    ad, bd = _data(a), _data(b)
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-D, got {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul: inner extents differ: {ad.shape} @ {bd.shape}")
    try:
        batch = np.broadcast_shapes(ad.shape[:-2], bd.shape[:-2])
    except ValueError:
        raise ShapeError(f"matmul: batch extents do not broadcast: {ad.shape} @ {bd.shape}") from None
    _add_macs(math.prod(batch) * ad.shape[-2] * ad.shape[-1] * bd.shape[-1])
    return _broadcast_op("matmul", np.matmul, a, b,
                         lambda g, bd: np.matmul(g, np.swapaxes(bd, -1, -2)),
                         lambda g, ad: np.matmul(np.swapaxes(ad, -1, -2), g))


def unfold(x, k: int, *, stride: int = 1, padding: int = 0, groups: int = 1) -> Tensor:
    """The k x k windows of a zero-padded [B, C, H, W] image as matmul columns
    [B, G, C/G*k*k, H'*W'], H' = (H + 2*padding - k) // stride + 1 (im2col:
    Chellapilla, Puri & Simard, IWFHR 2006). Per group, column p is the window
    at output position p and row (c, i, j) is channel c at kernel offset
    (i, j). Backward is the scatter-add. Counts no MACs.
    """
    xd = _data(x)
    if xd.ndim != 4:
        raise ShapeError(f"unfold: input must be [B, C, H, W], got {xd.shape}")
    B, C, H, W = xd.shape
    if C % groups:
        raise ShapeError(f"unfold: {C} channels not divisible by groups={groups}")
    ho = (H + 2 * padding - k) // stride + 1
    wo = (W + 2 * padding - k) // stride + 1
    if ho <= 0 or wo <= 0:
        raise ShapeError(f"unfold: kernel {k} too large for input {H}x{W} with padding {padding}")
    xp = np.pad(xd, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    xg = xp.reshape(B, groups, C // groups, xp.shape[2], xp.shape[3])
    cols = np.empty((B, groups, C // groups, k, k, ho, wo))
    for i in range(k):
        for j in range(k):
            cols[:, :, :, i, j] = xg[:, :, :, i:i + stride * ho:stride, j:j + stride * wo:stride]

    def bwd(g):
        g6 = g.reshape(cols.shape)
        gxp = np.zeros_like(xg)
        for i in range(k):
            for j in range(k):
                gxp[:, :, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += g6[:, :, :, i, j]
        return (gxp.reshape(xp.shape)[:, :, padding:padding + H, padding:padding + W],)

    return _make(cols.reshape(B, groups, -1, ho * wo), "unfold", (x,), bwd)


def conv2d_grouped(x: Tensor, weight: Tensor, bias: Tensor | None = None, *,
                   stride: int = 1, padding: int = 0, groups: int = 1) -> Tensor:
    """Grouped 2D convolution with zero padding.

    x: [B, C_in, H, W]; weight: [C_out, C_in/groups, k, k]; bias: [C_out].
    Output [B, C_out, H', W'] with H' = (H + 2*padding - k) // stride + 1.
    Each output group reads only its own input group. It is `unfold`, then
    one `matmul` of the weight as [G, C_out/G, C_in/G*k*k] with the columns
    (out_elems * (C_in/groups) * k^2 MACs), a reshape and the bias `add`.
    """
    xd, wd = _data(x), _data(weight)
    if xd.ndim != 4:
        raise ShapeError(f"conv2d: input must be [B, C, H, W], got {xd.shape}")
    if wd.ndim != 4 or wd.shape[2] != wd.shape[3]:
        raise ShapeError(f"conv2d: weight must be [C_out, C_in/G, k, k], got {wd.shape}")
    B, cin, H, _ = xd.shape
    cout, cg, k, _ = wd.shape
    if cin % groups or cout % groups:
        raise ShapeError(f"conv2d: channels ({cin} in, {cout} out) not divisible by groups={groups}")
    if cg != cin // groups:
        raise ShapeError(f"conv2d: weight expects {cg} channels/group but input provides {cin // groups}")
    if bias is not None and _data(bias).shape != (cout,):
        raise ShapeError(f"conv2d: bias shape {_data(bias).shape} != ({cout},)")
    cols = unfold(x, k, stride=stride, padding=padding, groups=groups)
    out = matmul(reshape(weight, (groups, cout // groups, cg * k * k)), cols)
    out = reshape(out, (B, cout, (H + 2 * padding - k) // stride + 1, -1))
    if bias is not None:
        out = add(out, reshape(bias, (cout, 1, 1)))
    return out


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

def _softmax_inplace(buf: np.ndarray) -> np.ndarray:
    """Stable softmax along the last axis, overwriting `buf` (which the
    caller owns) with the weights: shift by the row max, exp, normalise."""
    buf -= buf.max(axis=-1, keepdims=True)
    np.exp(buf, out=buf)
    buf /= buf.sum(axis=-1, keepdims=True)
    return buf


def _softmax_grad_inplace(dy: np.ndarray, y: np.ndarray,
                          tmp: np.ndarray | None = None) -> np.ndarray:
    """Softmax backward y * (dy - <dy, y>) per row, overwriting `dy` (and
    `tmp`, a buffer of dy's shape, when given)."""
    dy -= np.multiply(dy, y, out=tmp).sum(axis=-1, keepdims=True)
    dy *= y
    return dy


def softmax_rows(x: Tensor) -> Tensor:
    """Stable softmax along the last axis; rows sum to 1."""
    xd = _data(x)
    if xd.ndim == 0 or xd.shape[-1] == 0:
        raise ShapeError(f"softmax: empty last axis in shape {xd.shape}")
    y = _softmax_inplace(xd.copy())

    def bwd(g):
        return (_softmax_grad_inplace(g.copy(), y),)

    return _make(y, "softmax_rows", (x,), bwd)


# `attention` works in chunks along axis 0 whose [..., Nq, Nk] logits take
# about this many bytes (at least one map each)
_ATTENTION_CHUNK_BYTES = 1 << 20


class _ChunkGrad:
    """The gradient of an operand of `attention` that broadcasts against the
    chunked extents `lead`, gathered chunk by chunk.

    An operand with the full axis 0 takes each chunk's `_unbroadcast` in its
    slice. Otherwise the chunks are summed over axis 0 row by row, in the
    order of numpy's own reduction over that axis, so the result equals
    `_unbroadcast` of the whole gradient bit for bit.
    """

    def __init__(self, shape: tuple[int, ...], lead: tuple[int, ...]):
        self.shape = shape
        self.full = len(shape) == len(lead) + 2 and shape[0] == lead[0]
        self.grad = np.empty(shape) if self.full else None

    def add(self, sl: slice, g: np.ndarray) -> None:
        if self.full:
            self.grad[sl] = _unbroadcast(g, g.shape[:1] + self.shape[1:])
        elif self.grad is None:
            self.grad = g.sum(axis=0)
        else:
            for row in g:
                self.grad += row

    def result(self) -> np.ndarray:
        if self.full:
            return self.grad
        tail = self.shape[1:] if len(self.shape) == self.grad.ndim + 1 else self.shape
        return _unbroadcast(self.grad, tail).reshape(self.shape)


def attention(q, k, v, scale: float = 1.0, bias=None, sink: list | None = None) -> Tensor:
    """Fused softmax(scale * (q @ k^T + bias)) @ v for queries [..., Nq, dk],
    keys [..., Nk, dk] and values [..., Nk, dv].

    v has q's leading extents; k and the optional bias broadcast against
    them (bias against the [..., Nq, Nk] logits). The work runs in chunks
    along axis 0 whose logits take about `_ATTENTION_CHUNK_BYTES`. Each
    chunk's logits are computed straight into the weights P that backward
    keeps, and backward computes each chunk's logit gradient dS in one
    chunk-sized scratch buffer, so no full-size logits or dS exist. The
    arithmetic runs in the order of matmul -> add -> mul -> softmax_rows ->
    matmul, so the output equals that chain bit for bit. Counts
    Nq*Nk*(dk + dv) MACs per map, as the chain's two matmuls do. When `sink`
    is a list, a copy of P is appended to it.
    """
    qd, kd, vd = _data(q), _data(k), _data(v)
    bd = None if bias is None else _data(bias)
    if qd.ndim < 2 or kd.ndim < 2 or vd.ndim != qd.ndim:
        raise ShapeError(f"attention: need [..., Nq, dk] queries, [..., Nk, dk] keys and "
                         f"[..., Nk, dv] values, got {qd.shape}, {kd.shape} and {vd.shape}")
    (nq, dk), (nk, dv) = qd.shape[-2:], vd.shape[-2:]
    if kd.shape[-2:] != (nk, dk) or vd.shape[:-2] != qd.shape[:-2] or nk == 0:
        raise ShapeError(f"attention: queries {qd.shape}, keys {kd.shape} and values "
                         f"{vd.shape} do not match")
    lead = qd.shape[:-2] or (1,)  # one map gets a leading axis to chunk along
    q3, v3 = qd.reshape(lead + (nq, dk)), vd.reshape(lead + (nk, dv))
    try:
        kb = np.broadcast_to(kd, lead + (nk, dk))
        bb = None if bd is None else np.broadcast_to(bd, lead + (nq, nk))
    except ValueError:
        raise ShapeError(f"attention: keys {kd.shape} or bias {None if bd is None else bd.shape} "
                         f"do not broadcast against queries {qd.shape}") from None
    step = max(1, _ATTENTION_CHUNK_BYTES // max(1, 8 * math.prod(lead[1:]) * nq * nk))
    chunks = [slice(i, i + step) for i in range(0, lead[0], step)]
    p = np.empty(lead + (nq, nk))
    out = np.empty(lead + (nq, dv))
    for sl in chunks:
        pc = p[sl]
        np.matmul(q3[sl], np.swapaxes(kb[sl], -1, -2), out=pc)
        if bb is not None:
            pc += bb[sl]
        pc *= scale
        _softmax_inplace(pc)
        np.matmul(pc, v3[sl], out=out[sl])
    if sink is not None:
        sink.append(p.reshape(qd.shape[:-1] + (nk,)).copy())
    _add_macs(math.prod(lead) * nq * nk * (dk + dv))

    def bwd(g):
        g3 = g.reshape(lead + (nq, dv))
        dq = np.empty(q3.shape) if isinstance(q, Tensor) else None
        dkt = _ChunkGrad(kd.shape[:-2] + (dk, nk), lead) if isinstance(k, Tensor) else None
        dvs = np.empty(v3.shape) if isinstance(v, Tensor) else None
        db = _ChunkGrad(bd.shape, lead) if isinstance(bias, Tensor) else None
        scratch = np.empty((2, min(step, lead[0])) + lead[1:] + (nq, nk))  # dS and a temporary
        for sl in chunks:
            pc, gc = p[sl], g3[sl]
            if dvs is not None:
                np.matmul(np.swapaxes(pc, -1, -2), gc, out=dvs[sl])
            ds, tmp = scratch[:, :pc.shape[0]]
            np.matmul(gc, np.swapaxes(v3[sl], -1, -2), out=ds)
            _softmax_grad_inplace(ds, pc, tmp)
            ds *= scale
            if dq is not None:
                np.matmul(ds, kb[sl], out=dq[sl])
            if dkt is not None:
                dkt.add(sl, np.matmul(np.swapaxes(q3[sl], -1, -2), ds))
            if db is not None:
                db.add(sl, ds)
        grads = []
        if dq is not None:
            grads.append(dq.reshape(qd.shape))
        if dkt is not None:
            grads.append(np.swapaxes(dkt.result(), -1, -2))
        if dvs is not None:
            grads.append(dvs.reshape(vd.shape))
        if db is not None:
            grads.append(db.result())
        return tuple(grads)

    return _make(out.reshape(qd.shape[:-1] + (dv,)), "attention", (q, k, v, bias), bwd)


def layer_norm(x, gamma, beta, eps: float) -> Tensor:
    """Normalise over the last axis, then scale by `gamma` and shift by `beta`
    (both of the last axis's extent).

    The forward runs the arithmetic of the composed mean/sub/mul/rsqrt chain
    in its order; backward uses the closed form
    dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), with
    dxhat = g * gamma, keeping only xhat, inv and gamma.
    """
    xd, gd, bd = _data(x), _data(gamma), _data(beta)
    if xd.ndim == 0 or gd.shape != xd.shape[-1:] or bd.shape != xd.shape[-1:]:
        raise ShapeError(f"layer_norm: gamma {gd.shape} and beta {bd.shape} must both be "
                         f"the last extent of {xd.shape}")
    centered = xd - xd.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + eps)
    xhat = centered * inv
    out = xhat * gd + bd

    def bwd(g):
        grads = []
        if isinstance(x, Tensor):
            dxhat = g * gd
            dx = dxhat - dxhat.mean(axis=-1, keepdims=True)
            dx -= xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            dx *= inv
            grads.append(dx)
        if isinstance(gamma, Tensor):
            grads.append(_unbroadcast(g * xhat, gd.shape))
        if isinstance(beta, Tensor):
            grads.append(_unbroadcast(g, bd.shape))
        return tuple(grads)

    return _make(out, "layer_norm", (x, gamma, beta), bwd)


def log_softmax_rows(x: Tensor) -> Tensor:
    xd = _data(x)
    if xd.ndim == 0 or xd.shape[-1] == 0:
        raise ShapeError(f"log_softmax: empty last axis in shape {xd.shape}")
    shifted = xd - xd.max(axis=-1, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))

    def bwd(g):
        return (g - np.exp(out) * g.sum(axis=-1, keepdims=True),)

    return _make(out, "log_softmax_rows", (x,), bwd)


def relu(x: Tensor) -> Tensor:
    xd = _data(x)
    out = np.maximum(xd, 0.0)

    def bwd(g):
        return (g * (xd > 0),)

    return _make(out, "relu", (x,), bwd)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
    xd = _data(x)
    cdf = 0.5 * (1.0 + erf(xd * _INV_SQRT2))
    out = xd * cdf

    def bwd(g):
        pdf = np.exp(-0.5 * xd * xd) * _INV_SQRT_2PI
        return (g * (cdf + xd * pdf),)

    return _make(out, "gelu", (x,), bwd)


def rsqrt(x: Tensor) -> Tensor:
    xd = _data(x)
    out = 1.0 / np.sqrt(xd)

    def bwd(g):
        return (g * (-0.5) * out ** 3,)

    return _make(out, "rsqrt", (x,), bwd)


def gather_last(x: Tensor, indices) -> Tensor:
    """Pick one entry per row of a 2-D tensor: out[i] = x[i, indices[i]]."""
    xd = _data(x)
    idx = np.asarray(indices, dtype=np.int64)
    if xd.ndim != 2 or idx.ndim != 1 or idx.shape[0] != xd.shape[0]:
        raise ShapeError(f"gather_last: expected [B, K] with [B] indices, got {xd.shape}, {idx.shape}")
    rows = np.arange(xd.shape[0])
    out = xd[rows, idx]

    def bwd(g):
        gx = np.zeros_like(xd)
        gx[rows, idx] = g
        return (gx,)

    return _make(out, "gather_last", (x,), bwd)


def dropout(x: Tensor, rate: float, rng: "Rng") -> Tensor:
    """Inverted dropout; draws its mask from `rng`."""
    if not 0.0 <= rate < 1.0:
        raise ShapeError(f"dropout rate must be in [0, 1), got {rate}")
    xd = _data(x)
    if rate == 0.0:
        return _make(xd.copy(), "dropout", (x,), lambda g: (g,))
    keep = rng.uniform(xd.shape) >= rate
    scale = 1.0 / (1.0 - rate)
    mask = keep * scale
    out = xd * mask

    def bwd(g):
        return (g * mask,)

    return _make(out, "dropout", (x,), bwd)


# ---------------------------------------------------------------------------
# deterministic RNG
# ---------------------------------------------------------------------------

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _key_to_u64(key) -> int:
    if isinstance(key, str):
        return int.from_bytes(hashlib.blake2b(key.encode(), digest_size=8).digest(), "little")
    return int(key) & 0xFFFFFFFFFFFFFFFF


class Rng:
    """Counter-based splitmix64 stream: same seed, same bits, any platform.

    Each draw is a pure function of (seed, counter), so streams are
    reproducible and children forked via `split` are independent.
    """

    def __init__(self, seed: int):
        self.seed = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)
        self.counter = 0

    def _raw(self, n: int) -> np.ndarray:
        idx = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        return _mix64(self.seed + _GOLDEN * idx)

    def split(self, key) -> "Rng":
        k = np.array([_key_to_u64(key)], dtype=np.uint64)
        child = _mix64(np.array([self.seed], dtype=np.uint64) ^ _mix64(k + _GOLDEN))[0]
        return Rng(int(child))

    def uniform(self, shape=()) -> np.ndarray:
        """i.i.d. uniform [0, 1) samples."""
        n = int(np.prod(shape)) if shape else 1
        u = (self._raw(n) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        return u.reshape(shape) if shape else u[0]

    def normal(self, shape=()) -> np.ndarray:
        """i.i.d. standard normal samples via Box-Muller."""
        n = int(np.prod(shape)) if shape else 1
        m = (n + 1) // 2
        u1 = ((self._raw(m) >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53  # (0, 1]
        u2 = (self._raw(m) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        r = np.sqrt(-2.0 * np.log(u1))
        z = np.empty(2 * m)
        z[0::2] = r * np.cos(2.0 * np.pi * u2)
        z[1::2] = r * np.sin(2.0 * np.pi * u2)
        z = z[:n]
        return z.reshape(shape) if shape else z[0]

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n)."""
        perm = np.arange(n)
        if n > 1:
            raws = self._raw(n - 1)
            for i in range(n - 1, 0, -1):
                j = int(raws[n - 1 - i] % np.uint64(i + 1))
                perm[i], perm[j] = perm[j], perm[i]
        return perm


def rng_normal(rng: Rng, shape) -> Tensor:
    """Standard-normal tensor drawn from the deterministic stream."""
    return Tensor(rng.normal(tuple(shape)))
