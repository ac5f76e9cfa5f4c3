"""Dense float64 tensors, taped primitives, and a deterministic RNG.

Every operation here is a pure function from input tensors to an output
tensor. When a `Tape` is active the operation also records a backward rule,
so reverse-mode differentiation (see `autodiff`) can replay the tape. MACs
(multiply-accumulates) are tallied into any active `MacCounter` by `matmul`,
by `conv2d_grouped` (the matmul of its weight with the input's windows) and
by the fused `attention` entry, which counts both of its products (queries
times keys, weights times values); everything else counts as zero.

Ops that only move values (`_MOVE_OPS`) may return numpy's strided or
read-only views, and no op writes into its inputs. Broadcasting follows
numpy semantics; gradients are reduced back onto the operand shapes.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib.util
import math
import sys

import numpy as np

from .errors import NumericsError, ShapeError


def _load_erf():
    """scipy's erf ufunc, without running scipy.special's package init.

    That init loads scipy's array-API layer (numpy.random, numpy.testing,
    numpy.ma, numpy.f2py, ...), about 16 MiB that nothing here uses. The
    ufunc lives in the compiled `scipy.special._ufuncs`, which imports only
    its sibling extensions, so it is imported under a bare, unexecuted
    `scipy.special` package entry that is removed again afterwards. The
    result is the object `scipy.special.erf` names: a later
    `import scipy.special` runs the real init and reuses the loaded module.
    """
    special = sys.modules.get("scipy.special")
    if special is not None:
        return special.erf
    try:
        spec = importlib.util.find_spec("scipy.special")
        sys.modules["scipy.special"] = importlib.util.module_from_spec(spec)
        try:
            from scipy.special._ufuncs import erf
        finally:
            del sys.modules["scipy.special"]
    except ImportError:
        from scipy.special import erf
    return erf


erf = _load_erf()

_TAPES: list["Tape"] = []
_MAC_COUNTERS: list["MacCounter"] = []
_ATTENTION_MAPS: list["AttentionMaps"] = []
_FINITE_CHECKS = [True]

_M_TRIM_THRESHOLD = -1  # glibc's mallopt parameter numbers
_M_MMAP_THRESHOLD = -3


def _keep_heap() -> None:
    """Keep what this process frees in its heap, for the next step to reuse.

    glibc would mmap large blocks and trim a freed heap top, so each step
    would fault back in the pages the last one freed (`backward` frees each
    gradient once consumed). The cost: freed memory is not handed back to the
    OS. Changes only this process's allocator; a no-op without `mallopt`.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no such symbol, or no C library to open
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 1 << 30)
    mallopt(_M_TRIM_THRESHOLD, 2 ** 31 - 1)


_keep_heap()  # once, at import: every entry point imports this module before it builds a model


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

    # the methods `src/` calls, each routed through a taped primitive below;
    # other ops (sub, matmul, ...) are called as functions
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def reshape(self, *shape):
        return reshape(self, shape)

    def transpose(self, *axes):
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
    """Accumulates the multiply-accumulates of matmul, conv2d_grouped and attention while active."""

    def __init__(self):
        self.macs = 0

    def __enter__(self) -> "MacCounter":
        _MAC_COUNTERS.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _MAC_COUNTERS.pop()
        assert popped is self


class AttentionMaps(list):
    """Receives a copy of every attention map computed while active: the
    post-activation weights [B, H, Nq, Nk] of each attention entry or chain,
    in execution order. Used as a context manager::

        with AttentionMaps() as maps:
            model(x)
    """

    def __enter__(self) -> "AttentionMaps":
        _ATTENTION_MAPS.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _ATTENTION_MAPS.pop()
        assert popped is self

    @staticmethod
    def record(weights: np.ndarray) -> None:
        """Append a copy of `weights` to every active recorder."""
        for maps in _ATTENTION_MAPS:
            maps.append(weights.copy())


class finite_checks:
    """Context manager toggling NaN/Inf detection (on by default).

    A primitive or module called directly scans each output it computes and
    raises NumericsError naming the op. A model forward (`former.Model`)
    scans its images and parameters once, runs with numpy's floating-point
    flags raising and per-op scans off, and scans its logits once; after a
    raised flag or non-finite logits it replays with per-op scans on, to name
    the op.
    """

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
_MOVE_OPS = frozenset({"reshape", "transpose", "concat", "slice", "broadcast", "gather_last"})


def _taped(*inputs) -> bool:
    """Whether the active tape, if any, records an entry with these inputs:
    one of them is a Tensor. Ops that keep arrays only for backward ask first."""
    return bool(_TAPES) and any(isinstance(t, Tensor) for t in inputs)


def _make(out_data: np.ndarray, op: str, inputs: tuple, backward) -> Tensor:
    if _FINITE_CHECKS[0] and op not in _MOVE_OPS and not np.all(np.isfinite(out_data)):
        raise NumericsError(f"non-finite values produced by '{op}'")
    out = Tensor(out_data)
    if _taped(*inputs):
        _TAPES[-1].entries.append((out, tuple(t for t in inputs if isinstance(t, Tensor)), backward))
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


# the batch loops of `conv2d_grouped` and `attention`, and `Model._forward`'s
# untaped sub-batches, take chunks of about this many bytes
_CHUNK_BYTES = 1 << 20


def _chunk_rows(row_bytes: int) -> int:
    """Batch rows per chunk: as many rows of `row_bytes` as fit in `_CHUNK_BYTES`, at least one."""
    return max(1, _CHUNK_BYTES // max(1, row_bytes))


# ---------------------------------------------------------------------------
# elementwise / structural primitives
# ---------------------------------------------------------------------------

def _broadcast_op(op: str, ufunc, a, b, da, db) -> Tensor:
    """add, sub and mul: `ufunc(a, b)`; each Tensor operand's gradient
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
    try:
        out = forward(xd, axis=axis, keepdims=keepdims)
    except ValueError:  # numpy's AxisError, or an axis named twice
        raise ShapeError(f"{op}: cannot reduce {xd.shape} over axis {axis}") from None
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
    if not datas or datas[0].ndim == 0 or not -datas[0].ndim <= axis < datas[0].ndim:
        raise ShapeError(f"concat: needs inputs of rank >= 1 and an axis of that rank, got "
                         f"{[d.shape for d in datas]} and axis {axis}")
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
    if not (-xd.ndim <= axis < xd.ndim and 0 <= start <= stop <= xd.shape[axis]):
        raise ShapeError(f"slice_axis: [{start}, {stop}) is not a range of axis {axis} of {xd.shape}")
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

def matmul(a, b, bias=None) -> Tensor:
    """Batched matrix product [..., M, K] @ [..., K, P] -> [..., M, P].

    Leading batch extents broadcast by equality or 1. Counts M*K*P MACs per
    output matrix. With `bias`, a projection: b must be a 2-D weight [K, P]
    and bias a [P] vector, added to the product in place, as one taped entry
    whose output and gradients equal those of matmul -> add bit for bit; any
    other weight or bias shape is a ShapeError.
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
    cd = None if bias is None else _data(bias)
    if cd is not None and (bd.ndim != 2 or cd.shape != bd.shape[-1:]):
        raise ShapeError(f"matmul: a bias needs a [K, P] weight and a [P] bias, "
                         f"got {bd.shape} and {cd.shape}")
    _add_macs(math.prod(batch) * ad.shape[-2] * ad.shape[-1] * bd.shape[-1])
    out = np.matmul(ad, bd)
    if cd is not None:
        out += cd

    def bwd(g):
        grads = []
        if isinstance(a, Tensor):
            grads.append(_unbroadcast(np.matmul(g, np.swapaxes(bd, -1, -2)), ad.shape))
        if isinstance(b, Tensor):
            grads.append(_unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), bd.shape))
        if isinstance(bias, Tensor):
            grads.append(_unbroadcast(g, cd.shape))
        return tuple(grads)

    return _make(out, "matmul", (a, b, bias), bwd)


def _windows(xd: np.ndarray, k: int) -> np.ndarray:
    """The k x k windows, k odd, of the [B, C, H, W] array `xd` zero-padded by
    (k-1)/2 on every side, as a read-only strided view [B, C, k, k, H, W] of
    a padded copy. Callers copy what they keep."""
    B, C, H, W = xd.shape
    p = (k - 1) // 2
    xp = np.zeros((B, C, H + 2 * p, W + 2 * p))
    xp[:, :, p:p + H, p:p + W] = xd
    return np.lib.stride_tricks.as_strided(xp, (B, C, k, k, H, W), xp.strides + xp.strides[2:],
                                           writeable=False)


def _copy_windows(buf: np.ndarray, win: np.ndarray) -> np.ndarray:
    """Copy a chunk's windows `win`, a `_windows` view of batch rows lo:hi,
    into the first hi - lo rows of the reused chunk buffer `buf` and return
    those rows. No window copy outlives its chunk: a backward that reads the
    windows again copies them again."""
    chunk = buf[:len(win)]
    chunk.reshape(win.shape)[...] = win
    return chunk


def _window_products(lhs: np.ndarray, windows, out: np.ndarray) -> None:
    """out[b] = lhs @ (the windows of batch row b), for lhs [G, M, K] and out
    [B, G, M, P], in chunks of batch rows whose windows take about
    `_CHUNK_BYTES`. `windows(lo, hi)` gives rows lo:hi (hi clipped at B) as
    a view whose rows hold G*K*P values each; they are copied into one chunk
    buffer reused by every chunk. Each matrix product is the one BLAS call
    that a single whole-batch matmul would make for that row."""
    B, G, _, P = out.shape
    K = lhs.shape[-1]
    rows = _chunk_rows(8 * G * K * P)
    buf = np.empty((min(rows, B), G, K, P))
    for lo in range(0, B, rows):
        np.matmul(lhs, _copy_windows(buf, windows(lo, lo + rows)), out=out[lo:lo + rows])


def conv2d_grouped(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Depthwise 2D convolution, stride 1 and same padding, as one taped entry.

    x: [B, C, H, W], zero-padded by (k-1)/2; weight: [C, 1, k, k], k odd, one
    kernel per channel; bias: [C]; output [B, C, H, W]. Each output channel
    reads only its own input channel. The forward takes the matmul of the
    weight as [C, 1, k*k] with the input's window columns [C, k*k, H*W]
    (im2col), then adds the bias in place: out_elems * k^2 MACs. Output,
    weight and bias gradients equal those of the im2col -> matmul -> reshape
    -> add chain bit for bit.

    The windows are copied and multiplied a chunk of batch rows at a time,
    about `_CHUNK_BYTES` of windows each, into one reused chunk buffer
    (memory-efficient im2col: Cho & Brand, "MEC", arXiv 1706.06873), so a
    chunk is still in cache when its matmul reads it and the k^2-fold copy of
    the input never exists, taped or not. The weight gradient copies each
    chunk's windows again for its per-row products, which it sums over the
    batch as one whole-batch matmul's would be. Each row's product is the
    same BLAS call as in one whole-batch matmul, so chunking changes no bit.

    The input gradient is the transposed convolution (Dumoulin & Visin,
    arXiv 1603.07285), here a same-padded one too: the output gradient's
    windows correlated with the kernel flipped in both spatial axes, in
    chunks of batch rows the same way. It sums the chain's column-gradient
    scatter in another order, so it agrees with it to rounding (tested to
    1e-12 relative).
    """
    xd, wd = _data(x), _data(weight)
    if xd.ndim != 4:
        raise ShapeError(f"conv2d: input must be [B, C, H, W], got {xd.shape}")
    B, C, H, W = xd.shape
    if wd.ndim != 4 or wd.shape[:2] != (C, 1) or wd.shape[2] != wd.shape[3] or wd.shape[2] % 2 == 0:
        raise ShapeError(f"conv2d: weight must be [{C}, 1, k, k] with k >= 1 for {C} input "
                         f"channels, got {wd.shape} (same padding needs an odd k)")
    k = wd.shape[2]
    bd = None if bias is None else _data(bias)
    if bd is not None and bd.shape != (C,):
        raise ShapeError(f"conv2d: bias shape {bd.shape} != ({C},)")
    w3 = wd.reshape(C, 1, k * k)
    _add_macs(B * C * k * k * H * W)
    out = np.empty((B, C, 1, H * W))
    _window_products(w3, lambda lo, hi: _windows(xd[lo:hi], k), out)
    out = out.reshape(B, C, H, W)
    if bd is not None:
        out += bd.reshape(C, 1, 1)

    def bwd(g):
        grads = []
        if isinstance(x, Tensor):
            flipped = np.ascontiguousarray(wd[:, :, ::-1, ::-1]).reshape(w3.shape)  # C-contiguous for BLAS
            dx = np.empty((B, C, 1, H * W))
            _window_products(flipped, lambda lo, hi: _windows(g[lo:hi], k), dx)
            grads.append(dx.reshape(B, C, H, W))
        if isinstance(weight, Tensor):  # each row's product, as one matmul makes it, then their sum
            g4, rows = g.reshape(B, C, 1, H * W), _chunk_rows(8 * C * k * k * H * W)
            buf, dw = np.empty((min(rows, B), C, k * k, H * W)), np.empty((B,) + w3.shape)
            for lo in range(0, B, rows):
                cols = _copy_windows(buf, _windows(xd[lo:lo + rows], k))
                np.matmul(g4[lo:lo + rows], np.swapaxes(cols, -1, -2), out=dw[lo:lo + rows])
            grads.append(_unbroadcast(dw, w3.shape).reshape(wd.shape))
        if isinstance(bias, Tensor):
            grads.append(_unbroadcast(g, (C, 1, 1)).reshape(C))
        return tuple(grads)

    return _make(out, "conv2d_grouped", (x, weight, bias), bwd)


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


def _add_rows(acc: np.ndarray | None, g: np.ndarray) -> np.ndarray:
    """`acc` (zeros when None) plus the rows of `g` added one by one, so summing
    chunk by chunk equals summing at once bit for bit; numpy's `g.sum(axis=0)`
    adds them in that order too, unless a row holds one value (then pairwise)."""
    if acc is None:
        acc = np.zeros(g.shape[1:])
    for row in g:
        acc += row
    return acc


def _add_windows(gx: np.ndarray, g6: np.ndarray) -> None:
    """Adjoint of same-padded stride-1 windows: add each tap (i, j) of g6 [B, C, k, k, H, W],
    in (i, j) order, onto the cells of gx [B, C, H, W] it read, clipped at the border."""
    k, (h, w) = g6.shape[2], gx.shape[2:]
    pad = (k - 1) // 2
    for i in range(k):
        y0, y1 = max(0, i - pad), min(h, h + i - pad)
        for j in range(k):
            x0, x1 = max(0, j - pad), min(w, w + j - pad)
            gx[:, :, y0:y1, x0:x1] += g6[:, :, i, j, y0 + pad - i:y1 + pad - i, x0 + pad - j:x1 + pad - j]


def attention(q, k, v, scale: float = 1.0, bias=None, kernel: int | None = None, *,
              activation: str = "softmax", act_scale=None, act_bias=None,
              cls_query=None, cls_key=None) -> Tensor:
    """Fused act(scale * (q @ k^T + bias)) @ v for queries [B, H, Nq, dk],
    keys [B, H, Nk, dk] (mhsa) or one [H, Nk, dk] shared by every batch row
    (ska, cska), values [B, H, Nk, dv] and an optional bias [H, 1, Nk] (cska).
    The row activation act is softmax, relu, exact gelu or starrelu,
    act_scale * relu(s)^2 + act_bias with [1] scalars. Any other shape or
    activation is a ShapeError.

    The work runs in chunks of batch rows whose logits take about
    `_CHUNK_BYTES`. Each chunk's logits are computed straight into the
    weights P, kept whole only when backward or an active `AttentionMaps`
    (which gets a copy) reads them; under any act but softmax a taped call
    keeps the scaled logits S whole too, for the derivative. Backward
    computes each chunk's logit gradient dS in one chunk-sized scratch buffer
    and adds every gradient shared by the batch rows row by row, so chunking
    changes no bit. The arithmetic runs in the order of matmul -> add -> mul
    -> act -> matmul, so under softmax the output equals that chain bit for
    bit. Counts Nq*Nk*(dk + dv) MACs per map, as the chain's two matmuls do.

    With `kernel`, the windows form (cska): q is a query image [B, H*c, gh,
    gw], and head h's gh*gw queries are the same-padded kernel x kernel
    windows of its c channels (dk = c*kernel^2, ordered (c, i, j)), copied a
    chunk at a time into one reused buffer, in forward and again in backward
    for a key Tensor's gradient, so the kernel^2-fold copy never exists. With
    `cls_query` [B, H, gh*gw+1, c] (every token's queries, CLS first) and
    `cls_key` [H, 1, c], cska's CLS border: logit column 0 is each query's
    product with the CLS key ((gh*gw+1)*c more MACs), the CLS query's spatial
    logits are zero, and the values carry gh*gw+1 rows.
    """
    qd, kd, vd = _data(q), _data(k), _data(v)
    bd = None if bias is None else _data(bias)
    o = 0 if cls_key is None else 1  # the CLS border's width
    if kernel is None:
        if qd.ndim != 4 or vd.ndim != 4:
            raise ShapeError(f"attention: need [B, H, Nq, dk] queries and [B, H, Nk, dv] values, "
                             f"got {qd.shape} and {vd.shape}")
        nq, dk = qd.shape[2:]
    elif (kernel < 1 or kernel % 2 == 0 or qd.ndim != 4 or vd.ndim != 4 or vd.shape[1] < 1
          or qd.shape[0] != vd.shape[0] or qd.shape[1] % vd.shape[1]):
        raise ShapeError(f"attention: windows need an odd kernel >= 1, a [B, H*c, gh, gw] query image "
                         f"and [B, H, Nk, dv] values, got {kernel}, {qd.shape} and {vd.shape}")
    else:
        nq, dk = qd.shape[2] * qd.shape[3] + o, qd.shape[1] // vd.shape[1] * kernel * kernel
    B, H, nk, dv = vd.shape
    cqd, ckd = (None, None) if not o else (_data(cls_query), _data(cls_key))
    if (kd.shape not in ((B, H, nk - o, dk), (H, nk - o, dk)) or nk == o
            or kernel is None and qd.shape[:2] != (B, H)
            or bd is not None and bd.shape != (H, 1, nk - o)
            or (cls_query is None) != (cls_key is None)
            or o and (kernel is None or cqd.shape != (B, H, nq, qd.shape[1] // H)
                      or ckd.shape != (H, 1, cqd.shape[-1]))):
        raise ShapeError(f"attention: queries {qd.shape}, keys {kd.shape}, values {vd.shape}, "
                         f"bias {None if bd is None else bd.shape} and CLS query and key "
                         f"{None if not o else (cqd.shape, ckd.shape)} do not match")
    starrelu = activation == "starrelu"
    if (activation not in ("softmax", "relu", "gelu", "starrelu")
            or starrelu != (act_scale is not None and act_bias is not None)
            or starrelu and not _data(act_scale).shape == _data(act_bias).shape == (1,)):
        raise ShapeError(f"attention: activation {activation!r} is not softmax, relu or gelu "
                         f"with no scalars, or starrelu with a [1] act_scale and act_bias")
    sd, sbd = (_data(act_scale), _data(act_bias)) if starrelu else (None, None)
    shared = kd.ndim == 3
    taped = _taped(q, k, v, bias, cls_query, cls_key, act_scale, act_bias)
    step = _chunk_rows(8 * H * nq * nk)
    # an empty batch still gets one (empty) chunk, which sums a shared operand's zero gradient
    chunks = [slice(i, min(i + step, B)) for i in range(0, max(B, 1), step)]

    def buffer(whole: bool, tail: tuple) -> np.ndarray:  # for every batch row, or one chunk's
        return np.empty((B if whole else min(step, B), H) + tail)

    def rows(buf: np.ndarray, sl: slice) -> np.ndarray:  # a chunk's rows of either kind of buffer
        return buf[sl] if len(buf) == B else buf[:sl.stop - sl.start]

    def keys(sl: slice) -> np.ndarray:
        return kd if shared else kd[sl]

    def queries(sl: slice, buf) -> np.ndarray:  # a chunk's queries as [n, H, dk, Nq], windows copied into buf
        if kernel is None:
            return np.swapaxes(qd[sl], -1, -2)
        return _copy_windows(buf, _windows(qd[sl], kernel))

    qbuf = None if kernel is None else buffer(False, (dk, nq - o))
    p = buffer(taped or bool(_ATTENTION_MAPS), (nq, nk))
    s = p if activation == "softmax" else buffer(taped, (nq, nk))  # softmax works in place
    out = np.empty((B, H, nq, dv))
    for sl in chunks:
        sc, pc = rows(s, sl), rows(p, sl)
        np.matmul(np.swapaxes(queries(sl, qbuf), -1, -2), np.swapaxes(keys(sl), -1, -2),
                  out=sc[:, :, o:, o:])
        if bd is not None:
            sc[:, :, o:, o:] += bd
        if o:
            sc[:, :, 0, 1:] = 0.0
            np.matmul(cqd[sl], np.swapaxes(ckd, -1, -2), out=sc[:, :, :, :1])
        sc *= scale
        if activation == "softmax":
            _softmax_inplace(pc)
        elif activation == "gelu":
            np.multiply(_gelu_cdf(sc, out=pc), sc, out=pc)
        else:
            np.maximum(sc, 0.0, out=pc)
            if starrelu:
                np.multiply(np.square(pc, out=pc), sd, out=pc)
                pc += sbd
        np.matmul(pc, vd[sl], out=out[sl])
    AttentionMaps.record(p)
    _add_macs(B * H * ((nq - o) * (nk - o) * dk + (nq * ckd.shape[-1] if o else 0) + nq * nk * dv))

    def bwd(g):
        dq = None if not isinstance(q, Tensor) else np.empty(qd.shape) if kernel is None else np.zeros(qd.shape)
        wbuf = None if kernel is None else buffer(False, (dk, nq - o))  # a chunk's window gradient, then windows
        # a shared key's gradient, like those of the bias, the CLS key and
        # starrelu's scalars, is summed over batch rows by `_add_rows`
        dkt = np.empty((B, H, dk, nk - o)) if isinstance(k, Tensor) and not shared else None
        dvs = np.empty(vd.shape) if isinstance(v, Tensor) else None
        dcq = np.empty(cqd.shape) if isinstance(cls_query, Tensor) else None
        db = dck = dsc = dsb = None
        scratch = np.empty((2, min(step, B), H, nq, nk))  # dS and a temporary
        for sl in chunks:
            pc, sc, gc = p[sl], s[sl], g[sl]
            if dvs is not None:
                np.matmul(np.swapaxes(pc, -1, -2), gc, out=dvs[sl])
            ds, tmp = scratch[:, :pc.shape[0]]
            np.matmul(gc, np.swapaxes(vd[sl], -1, -2), out=ds)
            if activation == "softmax":
                _softmax_grad_inplace(ds, pc, tmp)
            elif activation == "relu":
                np.multiply(ds, sc > 0, out=ds)
            elif activation == "gelu":
                ds *= _gelu_slope(sc, _gelu_cdf(sc, out=tmp))
            else:  # d/ds of act_scale * relu(s)^2 + act_bias is 2 * act_scale * relu(s)
                r = np.maximum(sc, 0.0, out=tmp)
                if isinstance(act_scale, Tensor):
                    dsc = _add_rows(dsc, np.square(r) * ds)
                if isinstance(act_bias, Tensor):
                    dsb = _add_rows(dsb, ds)
                ds *= sd
                ds *= r
                ds += ds
            ds *= scale
            spatial = ds[:, :, o:, o:]
            if dq is not None and kernel is not None:
                dc = rows(wbuf, sl)
                np.matmul(spatial, keys(sl), out=np.swapaxes(dc, -1, -2))
                _add_windows(dq[sl], dc.reshape((-1, qd.shape[1], kernel, kernel) + qd.shape[2:]))
            elif dq is not None:
                np.matmul(ds, keys(sl), out=dq[sl])
            if isinstance(k, Tensor) and shared:
                dkt = _add_rows(dkt, np.matmul(queries(sl, wbuf), spatial))
            elif isinstance(k, Tensor):
                np.matmul(queries(sl, wbuf), spatial, out=dkt[sl])
            if isinstance(bias, Tensor):
                db = _add_rows(db, spatial)
            if dcq is not None:
                np.matmul(ds[:, :, :, :1], ckd, out=dcq[sl])
            if isinstance(cls_key, Tensor):
                dck = _add_rows(dck, np.matmul(np.swapaxes(cqd[sl], -1, -2), ds[:, :, :, :1]))
        grads = (dq,
                 None if dkt is None else np.swapaxes(dkt, -1, -2),
                 dvs,
                 None if db is None else db.sum(axis=1, keepdims=True),
                 dcq,
                 None if dck is None else np.swapaxes(dck, -1, -2),
                 None if dsc is None else dsc.sum().reshape(1),
                 None if dsb is None else dsb.sum().reshape(1))
        return tuple(g for g in grads if g is not None)

    return _make(out, "attention", (q, k, v, bias, cls_query, cls_key, act_scale, act_bias), bwd)


def layer_norm(x, gamma, beta, eps: float) -> Tensor:
    """Normalise over the last axis, then scale by `gamma` and shift by `beta`
    (both of the last axis's extent).

    The forward runs the arithmetic of the composed mean/sub/mul/rsqrt chain
    in its order, forming xhat in place and, when no tape records this entry
    (backward reads xhat), the output over xhat; backward uses the
    closed form dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)),
    with dxhat = g * gamma, keeping only xhat, inv and gamma. Each row mean,
    the forward's two and the backward's two, is a BLAS product with a [D, 1]
    column of 1/D, one per index of the first axis: numpy's reductions over
    rows a few values wide are slow, and one product over all B*N rows
    rounds a row according to B*N mod 4, so an image's bits would depend on
    its batch. It sums x_i * (1/D) where the chain sums x_i and divides by
    D, so results agree with the chain to rounding (tested to 1e-12).
    """
    xd, gd, bd = _data(x), _data(gamma), _data(beta)
    if xd.ndim == 0 or gd.shape != xd.shape[-1:] or bd.shape != xd.shape[-1:]:
        raise ShapeError(f"layer_norm: gamma {gd.shape} and beta {bd.shape} must both be "
                         f"the last extent of {xd.shape}")
    d = xd.shape[-1]
    rows = (xd.shape[0], math.prod(xd.shape[1:-1]), d) if xd.ndim > 1 else (1, 1, d)
    col = np.full((d, 1), 1.0 / max(d, 1))  # x @ col holds the row means
    # C order whatever x's layout: reshaping a one-image transposed view gives
    # an F-ordered view, whose BLAS product rounds differently
    x2 = np.ascontiguousarray(xd.reshape(rows))
    xhat = x2 - x2 @ col
    inv = (xhat * xhat) @ col
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    xhat = xhat.reshape(xd.shape)
    out = np.multiply(xhat, gd, out=None if _taped(x, gamma, beta) else xhat)
    out += bd

    def bwd(g):
        grads = []
        if isinstance(x, Tensor):
            dxhat = g.reshape(rows) * gd
            dx = dxhat - dxhat @ col
            xhat2 = xhat.reshape(rows)
            dxhat *= xhat2
            dx -= xhat2 * (dxhat @ col)
            dx *= inv
            grads.append(dx.reshape(xd.shape))
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


def _gelu_cdf(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The standard normal cdf 0.5 * (1 + erf(x / sqrt(2))), written into `out`."""
    erf(np.multiply(x, _INV_SQRT2, out=out), out=out)
    out += 1.0
    out *= 0.5
    return out


def _gelu_slope(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """GELU's derivative cdf(x) + x * pdf(x), given cdf(x)."""
    return cdf + x * (np.exp(-0.5 * x * x) * _INV_SQRT_2PI)


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) GELU. Backward reads the cdf; when no tape records
    this entry the output is written over it, so one temporary is made."""
    xd = _data(x)
    cdf = _gelu_cdf(xd, out=np.empty(xd.shape))
    out = np.multiply(xd, cdf, out=None if _taped(x) else cdf)

    def bwd(g):
        return (g * _gelu_slope(xd, cdf),)

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
    if idx.size and (idx.min() < 0 or idx.max() >= xd.shape[1]):
        raise ShapeError(f"gather_last: indices must lie in [0, {xd.shape[1]}), "
                         f"got {idx.min()}..{idx.max()}")
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
    mask = (rng.uniform(xd.shape) >= rate) * (1.0 / (1.0 - rate))
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


def _key_to_u64(key: str) -> int:
    return int.from_bytes(hashlib.blake2b(key.encode(), digest_size=8).digest(), "little")


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

    def split(self, key: str) -> "Rng":
        k = np.array([_key_to_u64(key)], dtype=np.uint64)
        child = _mix64(np.array([self.seed], dtype=np.uint64) ^ _mix64(k + _GOLDEN))[0]
        return Rng(int(child))

    @staticmethod
    def _unit(raw: np.ndarray) -> np.ndarray:
        """Uniform [0, 1) from the top 53 bits of each raw."""
        return (raw >> np.uint64(11)).astype(np.float64) * 2.0 ** -53

    @staticmethod
    def _box_muller(raw: np.ndarray) -> np.ndarray:
        """Normals from raws [..., 2m]: the first m give u1, the last m give u2,
        and each (u1, u2) pair gives a (cos, sin) pair in turn."""
        m = raw.shape[-1] // 2
        r = np.sqrt(-2.0 * np.log(Rng._unit(raw[..., :m]) + 2.0 ** -53))  # u1 in (0, 1], exactly
        angle = 2.0 * np.pi * Rng._unit(raw[..., m:])
        z = np.empty(raw.shape)
        z[..., 0::2] = r * np.cos(angle)
        z[..., 1::2] = r * np.sin(angle)
        return z

    def uniform(self, shape=()) -> np.ndarray:
        """i.i.d. uniform [0, 1) samples."""
        u = self._unit(self._raw(int(np.prod(shape))))
        return u[0] if shape == () else u.reshape(shape)

    def normal(self, shape=()) -> np.ndarray:
        """i.i.d. standard normal samples via Box-Muller."""
        n = int(np.prod(shape))
        z = self._box_muller(self._raw(n + n % 2))[:n]
        return z[0] if shape == () else z.reshape(shape)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n)."""
        perm = list(range(n))
        if n > 1:
            for i, r in zip(range(n - 1, 0, -1), self._raw(n - 1).tolist()):
                j = r % (i + 1)
                perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm, dtype=np.int64)
