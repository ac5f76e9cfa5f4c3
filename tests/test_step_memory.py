"""Memory guards on a taped train step of wide-tokens' geometry (a 16x16
grid, D = 64 in 4 heads, depth 2) at batch 2: no backward rule keeps a
k^2-fold window copy (cska's query windows, a convolution's input windows)
until backward, and the step's tracemalloc peak stays under a measured bound."""

import tracemalloc
import types

import numpy as np
import pytest

from skattn import (AdamW, ModelConfig, Tape, Tensor, build_model, cross_entropy, step,
                    synth_dataset)

BATCH, GRID, DIM, HEADS, KERNEL = 2, 16, 64, 4, 3
TOKENS = GRID * GRID
# one batch row's k^2-fold window copy: cska's [H, c*k^2, N] query windows and
# sepconv's [D, k^2, N] input windows both hold D*k^2*N values
ROW_WINDOWS = DIM * KERNEL * KERNEL * TOKENS
# tracemalloc peaks of one step (after a first one made AdamW's state), measured
# at 31.1 MiB (cska) and 11.5 MiB (sepconv); with every batch row's windows kept
# for backward they were 34.5 and 16.2 MiB
PEAK_BOUND_MIB = {"cska": 32.5, "sepconv": 13.0}


def _model_and_batch(kind):
    cfg = ModelConfig(input=(1, GRID, GRID), patch=1, num_classes=2, mlp_ratio=2.0,
                      stages=[{"kind": kind, "depth": 2, "dim": DIM, "heads": HEADS}],
                      kernel=KERNEL)
    ds = synth_dataset("stripe_orientation", BATCH, grid=(GRID, GRID), seed=1)
    return build_model(cfg, seed=0), ds.images, ds.labels


def _held_arrays(obj, found, seen):
    """The ndarrays a backward closure can reach: its cells, and the cells of
    the functions, tuples and lists in them."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        found.append(obj)
    elif isinstance(obj, types.FunctionType):
        for cell in obj.__closure__ or ():
            _held_arrays(cell.cell_contents, found, seen)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            _held_arrays(item, found, seen)


def _root(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


@pytest.mark.parametrize("kind", ["cska", "sepconv"])
def test_no_tape_entry_holds_a_window_copy(kind):
    # besides the tensors the tape records (cska's [H*N, d_h, k, k] key
    # weight is as large as one row's windows), the only arrays a closure
    # holds that are that large are cska's attention weights P [B, H, N, N],
    # which backward reads
    model, images, labels = _model_and_batch(kind)
    with Tape() as tape:
        cross_entropy(model(Tensor(images)), labels)
    recorded = {id(_root(t.data)) for out, inputs, _ in tape.entries for t in (out, *inputs)}
    large = []
    for _, _, bwd in tape.entries:
        found = []
        _held_arrays(bwd, found, set())
        large += [a.shape for a in found if a.size >= ROW_WINDOWS and id(_root(a)) not in recorded]
    weights = [(BATCH, HEADS, TOKENS, TOKENS)] * 2 if kind == "cska" else []
    assert large == weights, large


@pytest.mark.parametrize("kind", ["cska", "sepconv"])
def test_train_step_peak_is_under_its_bound(kind):
    model, images, labels = _model_and_batch(kind)
    optimizer = AdamW(model.named_parameters(), lr=1e-3)
    step(model, images, labels, optimizer)
    tracemalloc.start()
    try:
        step(model, images, labels, optimizer)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PEAK_BOUND_MIB[kind] * (1 << 20), peak / (1 << 20)
