"""Closed-form operation counts per mixer and an instrumented verifier.

Per-image costs for one mixer over N tokens of width D, bias-free:

    kind      FLOPs (MACs)        params          F/P ratio
    sepconv   N(9D + 2D^2)        9D + 2D^2       N
    mhsa      N(2ND + 4D^2)       4D^2            N + N^2/(2D)
    ska       N(2ND + 3D^2)       ND + 3D^2       N + N^2/(N + 3D)
    cska      N(10ND + 3D^2)      9ND + 3D^2      N + N^2/(9N + 3D)

FLOPs are multiply-accumulates: a matmul contributes M*K*P, a grouped conv
out_elems * (C_in/G) * k^2; softmax, activations, norms, and biases count
zero. The cska/sepconv closed forms assume kernel 3 (the 9 and 10
coefficients embed k^2 = 9); heads never appear because per-head matmuls
and channel groups both cancel H exactly.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigError, NumericsError
from .former import canonical_kind, count_parameters
from .mixers import GRID_KINDS, MixerConfig, build_mixer
from .tensor import MacCounter, Rng, Tensor


def _kernel_mismatch(kind: str, k: int) -> str | None:
    """Why the closed forms do not hold for `kind` at kernel `k`, or None."""
    if kind in GRID_KINDS and k != 3:
        return f"closed forms for {kind} are defined only for kernel 3, got {k}"
    return None


def closed_form(kind: str, n: int, d: int, k: int = 3) -> tuple[int, int, Fraction]:
    """Exact (flops, params, flops/params) for a bias-free mixer."""
    kind = canonical_kind(kind)
    if n < 1 or d < 1:
        raise ConfigError(f"N and D must be >= 1, got N={n}, D={d}")
    mismatch = _kernel_mismatch(kind, k)
    if mismatch:
        raise ConfigError(mismatch)
    if kind == "sepconv":
        flops, params = n * (9 * d + 2 * d * d), 9 * d + 2 * d * d
    elif kind == "mhsa":
        flops, params = n * (2 * n * d + 4 * d * d), 4 * d * d
    elif kind == "ska":
        flops, params = n * (2 * n * d + 3 * d * d), n * d + 3 * d * d
    else:  # cska
        flops, params = n * (10 * n * d + 3 * d * d), 9 * n * d + 3 * d * d
    return flops, params, Fraction(flops, params)


def _near_square_grid(n: int) -> tuple[int, int]:
    gh = int(n ** 0.5)
    while gh > 1 and n % gh:
        gh -= 1
    return gh, n // gh


def counting_config(kind: str, n: int, d: int, heads: int = 1, kernel: int = 3,
                    cls_token: bool = False, grid: tuple[int, int] | None = None) -> MixerConfig:
    """Bias-free MixerConfig for counting; the token grid defaults to the
    near-square factorisation of `n`."""
    kind = canonical_kind(kind)
    if n < 1:
        raise ConfigError(f"N must be >= 1, got {n}")
    if grid is None:
        grid = _near_square_grid(n)
    return MixerConfig(kind=kind, dim=d, heads=heads, tokens=n, grid=grid,
                       qkv_bias=False, cls_token=cls_token, kernel=kernel)


@dataclass
class ComplexityReport:
    kind: str
    tokens: int
    dim: int
    heads: int
    kernel: int
    flops_counted: int
    params_counted: int
    flops_closed: int | None
    params_closed: int | None
    ratio_closed: Fraction | None
    closed_form_comparable: bool
    warning: str | None = None


def count_ops(cfg: MixerConfig) -> ComplexityReport:
    """Build the mixer, run one B=1 forward, and tally MACs.

    Closed-form columns are filled whenever the formulas structurally apply
    (no CLS token; kernel 3 for the convolutional kinds); exact equality
    with the instrumented counts additionally requires bias-free mode,
    reflected in `closed_form_comparable`. `warning` says why a kernel
    leaves the closed-form columns empty.
    """
    mixer = build_mixer(cfg, Rng(0))
    x = Tensor(Rng(1).normal((1, cfg.total_tokens, cfg.dim)))
    with MacCounter() as counter:
        mixer(x)
    _, params_counted = count_parameters(mixer)

    mismatch = _kernel_mismatch(cfg.kind, cfg.kernel)
    structural = not cfg.cls_token and mismatch is None
    comparable = structural and not cfg.qkv_bias
    flops_c = params_c = ratio_c = None
    if structural:
        flops_c, params_c, ratio_c = closed_form(cfg.kind, cfg.tokens, cfg.dim, cfg.kernel)
    return ComplexityReport(
        kind=cfg.kind, tokens=cfg.tokens, dim=cfg.dim, heads=cfg.heads, kernel=cfg.kernel,
        flops_counted=counter.macs, params_counted=params_counted,
        flops_closed=flops_c, params_closed=params_c, ratio_closed=ratio_c,
        closed_form_comparable=comparable,
        warning=None if mismatch is None else f"{mismatch}; reporting instrumented values")


_CURVE_ORDER = ("sepconv", "selfattn", "ska", "cska")
_CURVE_KINDS = {"sepconv": "sepconv", "selfattn": "mhsa", "ska": "ska", "cska": "cska"}


def emit_curves(mode: str = "vary_N", fixed: int = 256, start: int = 1,
                stop: int = 1024, step: int = 1) -> str:
    """CSV of F/P ratios for all four mixers as N or D sweeps.

    Header ``x,sepconv,selfattn,ska,cska``; one row per sampled point,
    six significant digits. Each row is checked against the expected
    ordering sepconv <= cska <= ska <= selfattn.
    """
    if mode not in ("vary_N", "vary_D"):
        raise ConfigError(f"mode must be vary_N or vary_D, got {mode!r}")
    if start < 1 or stop < start or step < 1:
        raise ConfigError(f"invalid range [{start}, {stop}] step {step}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["x"] + list(_CURVE_ORDER))
    for x in range(start, stop + 1, step):
        n, d = (x, fixed) if mode == "vary_N" else (fixed, x)
        ratios = {name: closed_form(kind, n, d)[2] for name, kind in _CURVE_KINDS.items()}
        if not ratios["sepconv"] <= ratios["cska"] <= ratios["ska"] <= ratios["selfattn"]:
            raise NumericsError(f"ratio ordering violated at N={n}, D={d}: {ratios}")
        writer.writerow([x] + [f"{float(ratios[name]):.6g}" for name in _CURVE_ORDER])
    return buf.getvalue()
