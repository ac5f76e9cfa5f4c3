"""Benchmark of skattn: closed-loop training and evaluation of the four token
mixers, with correctness gates and an optional per-layer trace.

    python3 bench/run.py --workload toy-train --seed 0 --seconds 25 --trace 0

Every workload builds one model per mixer kind (mhsa, ska, cska, sepconv)
from the generated data and model seed, and runs the four in one process,
round-robin, in a closed loop: each round gives every model one train step
(`skattn.train.step`, as `train()` does: AdamW, clip 5.0, its data order)
and, every `eval_every` steps of that model, one `evaluate()` call per eval
batch of the held-out set. Every workload trains and evaluates, so that
each end-to-end metric exists on each. Interleaving puts a slow phase of a
shared machine on all four models alike. Step times are sampled for
`--seconds`; after that, toy-train models still short of 95% test accuracy
(criterion 6) go on alone until they reach it or fail to within 3000 steps.

Step, eval and set-up times are CPU time of the process (`process_time`),
with BLAS held to one thread: on a few cores shared with other tenants,
wall time mostly measures how often the scheduler runs someone else, and
CPU time does not count that. A step's CPU time is its wall time on an
idle machine; it would not show a gain from running work on more threads.
The eval metrics weigh each mixer equally (see `end_to_end`). In the
per-layer trace, op, scope and closure times are wall time, which is
cheaper to read once per op; a step's or eval batch's total stays CPU time.

With `--trace 0` the last line of stdout is a JSON object with every
end-to-end metric; with `--trace 1` the same loop runs with three rounds in
four of the sampled ones traced (see `tracing.py`) and the object holds
every per-layer metric.
Either way the run fails (exit 1, `"correct": false`) when a gate fails:
non-finite loss or raised error, a mixer scope whose MACs differ from
B x closed_form(kind, N, D), scope MACs that do not sum to the whole-model
count, traced and untraced twins that differ in any bit, or a toy-train
model that never reaches 95%. Each run writes its environment stamp, the
per-metric sample counts and, when traced, the module-level spans to
`bench/out/`.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

# One BLAS thread: on a few shared cores a second BLAS thread waits on
# whatever else the host runs, which is noise, not the program. Set before
# numpy loads its BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "skattn").is_dir():  # measure the checkout's source, never an install
    sys.exit(f"bench: no skattn sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

try:
    import importlib

    import numpy as np
    import scipy

    from skattn.errors import SkattnError
    from skattn.former import ModelConfig, build_model
    from skattn.tensor import Rng, finite_checks
    from tracing import Tracer

    TR = importlib.import_module("skattn.train")  # the package re-exports a train() function
except ImportError as exc:  # run outside a checkout of the repository
    sys.stderr.write(f"bench: cannot import skattn from {ROOT / 'src'}: {exc}\n")
    sys.exit(2)

KINDS = ("mhsa", "ska", "cska", "sepconv")
SETUP_REPEATS = 3
MAX_STEPS_TO_95 = 3000  # criterion 6's step budget
TRACED_ROUNDS = 4       # in a traced run, every 4th round runs untraced
MIB = 2.0 ** 20


@dataclass(frozen=True)
class Workload:
    name: str
    data: str                      # synthetic dataset kind
    image: tuple[int, int, int]    # (C, H, W)
    patch: int
    stages: tuple                  # stage dicts; "{kind}" marks the varied mixer
    batch: int
    n_train: int
    n_test: int
    eval_batch: int
    eval_every: int                # train steps of a model between its evals
    eval_checks: bool              # per-op finite checks during evals
    primary: str                   # "step" or "eval": the unit per-layer numbers are per
    until_95: bool = False

    def model_config(self, kind: str) -> ModelConfig:
        stages = [dict(s, kind=kind if s["kind"] == "{kind}" else s["kind"]) for s in self.stages]
        return ModelConfig(input=self.image, patch=self.patch, stages=stages, num_classes=2,
                           mlp_ratio=2.0)


def _single(depth, dim, heads):
    return ({"kind": "{kind}", "depth": depth, "dim": dim, "heads": heads},)


WORKLOADS = {
    # The CLI default toy config on the criterion-6 task: small tensors, so
    # per-primitive Python and tape overhead, LayerNorm's chain and the
    # optimizer dominate. sepconv is the control without attention. The
    # held-out set is evaluated every 100 steps, as train() does, in batches
    # of 20 rather than evaluate()'s 256, for enough eval batches to time.
    "toy-train": Workload(
        "toy-train", "stripe_orientation", (1, 8, 8), 1, _single(2, 32, 4), batch=16,
        n_train=2000, n_test=500, eval_batch=20, eval_every=100, eval_checks=False,
        primary="step", until_95=True),
    # N=256 tokens: the O(N^2) attention core, cska's conv with H*N output
    # channels and tape bytes (B*H*N^2) dominate. 16 held-out images are
    # evaluated every 2 steps so that eval is timed here too.
    "wide-tokens": Workload(
        "wide-tokens", "stripe_orientation", (1, 16, 16), 1, _single(2, 64, 4), batch=8,
        n_train=512, n_test=16, eval_batch=8, eval_every=2, eval_checks=False,
        primary="step"),
    # Criterion 7's placement [dwconv, <kind>, attn, attn]: eval at batch 256
    # with per-op finite checks on, as evaluate() runs outside train(),
    # through the stride convs of the stem and Downsample; eval batches
    # take most of the time and build no tape. Each train step (criterion 7's
    # batch 8) is followed by an eval batch, so every step starts on caches
    # an eval batch left: a step every k evals would put a fixed 1/k of the
    # steps on cold caches and the 90th percentile on that edge.
    "hier-eval": Workload(
        "hier-eval", "two_gaussians_patches", (1, 32, 32), 2,
        ({"kind": "dwconv", "depth": 1, "dim": 8, "heads": 1},
         {"kind": "{kind}", "depth": 1, "dim": 16, "heads": 2},
         {"kind": "attn", "depth": 1, "dim": 16, "heads": 2},
         {"kind": "attn", "depth": 1, "dim": 16, "heads": 2}),
        batch=8, n_train=256, n_test=256, eval_batch=256, eval_every=1, eval_checks=True,
        primary="eval"),
}

REPORTED_OPS = ("matmul", "conv2d_grouped", "softmax_rows", "mul", "add", "sub", "mean",
                "rsqrt", "gelu", "transpose", "reshape", "log_softmax_rows")
FORMER_PARTS = ("stem", "norm", "mlp", "down", "head")


# ---------------------------------------------------------------------------
# one model per mixer kind
# ---------------------------------------------------------------------------

@dataclass
class Lane:
    kind: str
    model: object
    opt: object
    order: Rng
    perm: np.ndarray
    clip: float
    cursor: int = 0
    steps: int = 0
    stopped: bool = False
    step_s: list = field(default_factory=list)
    step_traced: list = field(default_factory=list)
    eval_s: list = field(default_factory=list)
    eval_traced: list = field(default_factory=list)
    eval_sizes: list = field(default_factory=list)
    data_s: float = 0.0
    losses: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)
    to_95_s: float = 0.0
    steps_to_95: int = 0


def new_lane(w: Workload, kind: str, seed: int, n_train: int) -> Lane:
    """A fresh model and optimizer, set up the way `train()` sets them up."""
    model = build_model(w.model_config(kind), seed=seed)
    tc = TR.TrainConfig(optimizer="adamw", lr=1e-3, weight_decay=0.05, batch_size=w.batch,
                        seed=seed, clip_norm=5.0)
    order = Rng(tc.seed).split("order")
    opt = TR.build_optimizer(tc, model.named_parameters())
    model.train(True)
    return Lane(kind, model, opt, order, order.permutation(n_train), tc.clip_norm)


def datasets(w: Workload, seed: int):
    grid = w.image[1:]
    train_ds = TR.synth_dataset(w.data, w.n_train, grid=grid, seed=seed)
    test_ds = TR.synth_dataset(w.data, w.n_test, grid=grid, seed=seed + 1)
    chunks = [TR.Dataset(test_ds.images[lo:lo + w.eval_batch], test_ds.labels[lo:lo + w.eval_batch])
              for lo in range(0, w.n_test, w.eval_batch)]
    return train_ds, chunks


def next_batch(w: Workload, lane: Lane, train_ds):
    """The batch `train()` would draw next: seeded Fisher-Yates per epoch."""
    if lane.cursor >= len(train_ds):
        lane.perm = lane.order.permutation(len(train_ds))
        lane.cursor = 0
    idx = lane.perm[lane.cursor:lane.cursor + w.batch]
    lane.cursor += w.batch
    return train_ds.images[idx], train_ds.labels[idx]


def pursuing_95(w: Workload, lane: Lane) -> bool:
    return w.until_95 and not lane.stopped and lane.steps_to_95 == 0


def run_step(w: Workload, lane: Lane, train_ds, tracer: Tracer | None, sample: bool = True) -> None:
    t0 = perf_counter()
    images, labels = next_batch(w, lane, train_ds)
    lane.data_s += perf_counter() - t0
    if tracer:
        tracer.begin("step", lane.kind)
    t0 = process_time()
    try:
        with finite_checks(False):  # as inside train()
            loss, _ = TR.step(lane.model, images, labels, lane.opt, lane.clip)
        error = None if math.isfinite(loss) else f"non-finite loss {loss}"
    except SkattnError as exc:
        error = f"{type(exc).__name__}: {exc}"
    dt = process_time() - t0
    if tracer:
        tracer.end(dt)
    lane.attempted += 1
    if error:
        lane.failures.append(f"{lane.kind} step {lane.steps + 1}: {error}")
        lane.stopped = True
        return
    if pursuing_95(w, lane):
        lane.to_95_s += dt
    lane.steps += 1
    lane.losses.append(loss)
    if sample:
        lane.step_s.append(dt)
        lane.step_traced.append(tracer is not None)


def run_eval(w: Workload, lane: Lane, chunks, tracer: Tracer | None) -> None:
    """One evaluate() call per eval batch of the held-out set."""
    correct = 0
    spent = 0.0
    for chunk in chunks:
        if tracer:
            tracer.begin("eval", lane.kind)
        t0 = process_time()
        try:
            with finite_checks(w.eval_checks):
                acc, loss = TR.evaluate(lane.model, chunk, batch_size=w.eval_batch)
            error = None if math.isfinite(loss) else f"non-finite eval loss {loss}"
        except SkattnError as exc:
            error = f"{type(exc).__name__}: {exc}"
        dt = process_time() - t0
        if tracer:
            tracer.end(dt)
        lane.attempted += 1
        if error:
            lane.failures.append(f"{lane.kind} eval after step {lane.steps}: {error}")
            lane.stopped = True
            return
        spent += dt
        correct += round(acc * len(chunk))
        lane.eval_s.append(dt)
        lane.eval_traced.append(tracer is not None)
        lane.eval_sizes.append(len(chunk))
    if pursuing_95(w, lane):
        lane.to_95_s += spent
        if correct >= 0.95 * w.n_test:
            lane.steps_to_95 = lane.steps
        elif lane.steps >= MAX_STEPS_TO_95:
            lane.failures.append(f"{lane.kind} below 95% after {lane.steps} steps")
            lane.stopped = True


def run_loop(w: Workload, lanes, train_ds, chunks, seconds: float, tracer: Tracer | None) -> None:
    """Rounds for `seconds`, every model in every round; step times are
    sampled in these rounds only. Then toy-train models still short of 95%
    go on alone, steps unsampled, for the time-to-95 count and its gate.
    Eval batches are timed throughout: toy-train has only two eval points
    per model inside the window, too few moments to sample a shared
    machine's speed."""
    start = perf_counter()
    rnd = 0
    while True:
        window = perf_counter() - start < seconds
        busy = [lane for lane in lanes
                if not lane.stopped and (window or pursuing_95(w, lane))]
        if not busy:
            break
        traced = tracer is not None and window and rnd % TRACED_ROUNDS != 0
        if tracer:
            tracer.install() if traced else tracer.uninstall()
        op_tracer = tracer if traced else None
        for lane in busy:
            run_step(w, lane, train_ds, op_tracer, window)
            if not lane.stopped and lane.steps % w.eval_every == 0:
                run_eval(w, lane, chunks, op_tracer)
        rnd += 1
    for lane in lanes:  # train() ends with an eval unless its last step had one
        if not lane.stopped and lane.steps % w.eval_every:
            run_eval(w, lane, chunks, None)


def warm_up(w: Workload, seed: int):
    """Data synthesis, model builds, and one step and one eval batch per model."""
    train_ds, chunks = datasets(w, seed)
    for kind in KINDS:
        lane = new_lane(w, kind, seed, len(train_ds))
        run_step(w, lane, train_ds, None)
        run_eval(w, lane, chunks[:1], None)
    return train_ds, chunks


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------

def _head(ds, n: int):
    return TR.Dataset(ds.images[:n], ds.labels[:n])


def _twin_run(w: Workload, lane: Lane, train_ds, chunk):
    """One train step and one small eval batch; returns every float it produced."""
    images, labels = next_batch(w, lane, train_ds)
    with finite_checks(False):
        out = [TR.step(lane.model, images, labels, lane.opt, lane.clip)[0]]
    with finite_checks(w.eval_checks):
        out.extend(TR.evaluate(lane.model, _head(chunk, w.batch), batch_size=w.eval_batch))
    return [float(v).hex() for v in out], [p.tensor.data for p in lane.model.named_parameters()]


def check_tracing(w: Workload, seed: int, train_ds, chunks) -> list[str]:
    """Traced twins must match untraced twins bit for bit, and every traced
    forward must pass the MAC gates."""
    errors = []
    for kind in KINDS:
        plain = new_lane(w, kind, seed, len(train_ds))
        twin = new_lane(w, kind, seed, len(train_ds))
        tracer = Tracer()
        tracer.register(kind, twin.model, twin.opt)
        want, want_params = _twin_run(w, plain, train_ds, chunks[0])
        tracer.install()
        try:
            got, got_params = _twin_run(w, twin, train_ds, chunks[0])
        finally:
            tracer.uninstall()
        if got != want or not all(np.array_equal(a, b) for a, b in zip(got_params, want_params)):
            errors.append(f"{kind}: traced run differs from untraced: {got} vs {want}")
        errors.extend(f"{kind}: {e}" for e in tracer.gate_errors)
    return errors


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(values) -> tuple[float, float]:
    """(value, percentile): p90, or the highest percentile that still has at
    least ten samples beyond it (the maximum below eleven samples)."""
    s = sorted(values)
    n = len(s)
    if n >= 100:
        rank = math.ceil(0.9 * n)
    else:
        rank = n - 10 if n > 10 else n
    return s[rank - 1], 100.0 * rank / n


def end_to_end(lanes, setup_s: float, peak_rss_mb: float, notes: dict) -> dict:
    metrics = {"setup_s": (setup_s, "s")}
    for lane in lanes:
        metrics[f"train_step_ms.{lane.kind}"] = (1e3 * statistics.median(lane.step_s), "ms")
        value, pct = tail(lane.step_s)
        metrics[f"train_step_ms_p90.{lane.kind}"] = (1e3 * value, "ms")
        notes[f"train_step_ms_p90.{lane.kind}"] = f"p{pct:.0f} of {len(lane.step_s)} steps"
    # Each mixer weighs the same in the eval metrics: how many eval batches
    # each model gets depends on the seed (toy-train evaluates until 95%),
    # and pooling them would let that mix move the numbers.
    per_image = [statistics.median(t / n for t, n in zip(l.eval_s, l.eval_sizes)) for l in lanes]
    metrics["eval_images_per_s"] = (len(lanes) / sum(per_image), "1/s")
    notes["eval_images_per_s"] = "median eval batch per mixer, harmonic mean over mixers"
    tails = [tail(l.eval_s) for l in lanes]
    metrics["eval_batch_ms_p90"] = (1e3 * statistics.mean(v for v, _ in tails), "ms")
    notes["eval_batch_ms_p90"] = "mean over mixers of " + ", ".join(
        f"p{pct:.0f} of {len(l.eval_s)}" for l, (_, pct) in zip(lanes, tails))
    metrics["peak_rss_mb"] = (peak_rss_mb, "MiB")
    return metrics


def _median_diff(samples, flags) -> float:
    on = [t for t, f in zip(samples, flags) if f]
    off = [t for t, f in zip(samples, flags) if not f]
    return statistics.median(on) - statistics.median(off) if on and off else 0.0


def _summed(accs, key) -> float:
    return sum(a.get(key, 0.0) for a in accs)


def per_layer(w: Workload, lanes, tracer: Tracer, blas_macs_per_s: float, notes: dict) -> dict:
    """Per-layer numbers, per unit of the workload's primary op (a train step,
    or an eval batch on hier-eval), from the traced ops."""
    P = w.primary
    accs = [tracer.totals.get((P, k), {}) for k in KINDS]
    ops = _summed(accs, "ops") or 1

    def total(key):
        return _summed(accs, key)

    def rate(macs, seconds):
        return macs / seconds if seconds else 0.0

    m = {}
    for op in REPORTED_OPS:
        m[f"tensor.{op}.fwd_ms"] = (1e3 * total(f"op.{op}.fwd_s") / ops, "ms")
        m[f"tensor.{op}.bwd_ms"] = (1e3 * total(f"op.{op}.bwd_s") / ops, "ms")
        m[f"tensor.{op}.calls"] = (total(f"op.{op}.calls") / ops, "count")
    for op in ("matmul", "conv2d_grouped"):
        m[f"tensor.{op}.macs_per_s"] = (rate(total(f"op.{op}.macs"), total(f"op.{op}.fwd_s")), "1/s")
    m["tensor.blas_ref_macs_per_s"] = (blas_macs_per_s, "1/s")
    m["tensor.transpose.copy_mb"] = (total("transpose.copy_bytes") / ops / MIB, "MiB")
    notes["tensor.transpose.copy_mb"] = "computed: bytes of non-contiguous transpose results"

    m["autodiff.backward_ms"] = (1e3 * total("backward_s") / ops, "ms")
    m["autodiff.walk_ms"] = (1e3 * (total("backward_s") - total("closures_s")) / ops, "ms")
    m["autodiff.tape_entries"] = (total("tape_entries") / ops, "count")
    m["autodiff.tape_mb"] = (total("tape_bytes") / ops / MIB, "MiB")

    parts = {p: [0.0, 0.0] for p in FORMER_PARTS}
    for kind, acc in zip(KINDS, accs):
        mix = [0.0, 0.0, 0.0, 0.0]  # fwd_s, bwd_s, macs, tape_bytes
        children = 0.0
        for path, (cat, mixer_kind) in tracer.categories(kind).items():
            fwd, bwd = acc.get(f"scope.{path}.fwd_s", 0.0), acc.get(f"scope.{path}.bwd_s", 0.0)
            if "." not in path:
                children += fwd
            if cat in parts:
                parts[cat][0] += fwd
                parts[cat][1] += bwd
            if cat == "mixer" and mixer_kind == kind:
                mix[0] += fwd
                mix[1] += bwd
                mix[2] += acc.get(f"scope.{path}.macs", 0.0)
                mix[3] += acc.get(f"scope.{path}.tape_bytes", 0.0)
        parts["head"][0] += acc.get("model.fwd_s", 0.0) - children
        parts["head"][1] += acc.get("scope.model.bwd_s", 0.0)
        n = acc.get("ops", 0) or 1
        m[f"mixers.{kind}.fwd_ms"] = (1e3 * mix[0] / n, "ms")
        m[f"mixers.{kind}.bwd_ms"] = (1e3 * mix[1] / n, "ms")
        m[f"mixers.{kind}.macs"] = (mix[2] / n, "count")
        m[f"mixers.{kind}.macs_per_s"] = (rate(mix[2], mix[0]), "1/s")
        m[f"mixers.{kind}.tape_mb"] = (mix[3] / n / MIB, "MiB")
    for part, (fwd, bwd) in parts.items():
        m[f"former.{part}.fwd_ms"] = (1e3 * fwd / ops, "ms")
        m[f"former.{part}.bwd_ms"] = (1e3 * bwd / ops, "ms")

    steps = [tracer.totals.get(("step", k), {}) for k in KINDS]
    evals = [tracer.totals.get(("eval", k), {}) for k in KINDS]
    n_steps = _summed(steps, "ops") or 1
    for name, key in (("step_ms", "op_s"), ("fwd_ms", "model.fwd_s"), ("bwd_ms", "backward_s"),
                      ("opt_ms", "opt_s"), ("clip_ms", "clip_s"), ("loss_ms", "loss_s")):
        m[f"train.{name}"] = (1e3 * _summed(steps, key) / n_steps, "ms")
    m["train.eval_ms"] = (1e3 * _summed(evals, "op_s") / (_summed(evals, "ops") or 1), "ms")
    m["train.data_ms"] = (1e3 * sum(l.data_s for l in lanes) / sum(l.steps for l in lanes), "ms")
    for lane in lanes:
        m[f"train.steps_to_95.{lane.kind}"] = (lane.steps_to_95, "count")
    m["train.time_to_95_s"] = (sum(l.to_95_s for l in lanes) if w.until_95 else 0.0, "s")
    notes["train.time_to_95_s"] = "summed over mixers; includes the tracing of traced rounds"

    diffs = [_median_diff(l.step_s, l.step_traced) if P == "step"
             else _median_diff(l.eval_s, l.eval_traced) for l in lanes]
    m["trace.overhead_ms"] = (1e3 * statistics.mean(diffs), "ms")
    notes["trace.overhead_ms"] = f"median traced minus untraced {P} time, mean over mixers"
    return m


def blas_reference(shapes, seconds_per_shape: float = 0.2) -> float:
    """MAC/s of plain np.matmul at the workload's three hottest matmul shapes."""
    rng = np.random.default_rng(0)
    macs = seconds = 0.0
    for (sa, sb), _ in sorted(shapes.items(), key=lambda kv: -kv[1])[:3]:
        a, b = rng.standard_normal(sa), rng.standard_normal(sb)
        per_call = np.matmul(a, b).size * sa[-1]
        calls = 0
        t0 = perf_counter()
        while perf_counter() - t0 < seconds_per_shape:
            np.matmul(a, b)
            calls += 1
        seconds += perf_counter() - t0
        macs += calls * per_call
    return macs / seconds if seconds else 0.0


# ---------------------------------------------------------------------------
# environment and the run
# ---------------------------------------------------------------------------

def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _blas_threads() -> int | str:
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
        for path in libs:
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(), "nproc": len(os.sched_getaffinity(0)),
            "git_commit": _git_commit()}


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result object, details for the out file)."""
    setup = []
    for _ in range(SETUP_REPEATS):
        t0 = process_time()
        train_ds, chunks = warm_up(w, seed)
        setup.append(process_time() - t0)
    # fresh models: the warm-up steps moved the ones above
    lanes = [new_lane(w, kind, seed, len(train_ds)) for kind in KINDS]
    tracer = None
    if trace:
        tracer = Tracer()
        for lane in lanes:
            tracer.register(lane.kind, lane.model, lane.opt)
    run_loop(w, lanes, train_ds, chunks, seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = [f for lane in lanes for f in lane.failures]
    gates = list(failures)
    if tracer:
        gates.extend(tracer.gate_errors)
    gates.extend(check_tracing(w, seed, train_ds, chunks))
    attempted = sum(lane.attempted for lane in lanes)

    notes: dict = {}
    metrics = {}
    if not failures:
        if trace:
            metrics = per_layer(w, lanes, tracer, blas_reference(tracer.matmul_shapes), notes)
        else:
            metrics = end_to_end(lanes, statistics.median(setup), peak_rss_mb, notes)
    result = {"correct": not gates, "attempted": attempted, "failed": len(failures),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    details = {"workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
               "environment": environment(), "gate_failures": gates, "notes": notes,
               "setup_s": setup,
               "step_ms": {l.kind: [round(1e3 * t, 3) for t in l.step_s] for l in lanes},
               "eval_ms": {l.kind: [round(1e3 * t, 3) for t in l.eval_s] for l in lanes},
               "spans": tracer.spans() if tracer else []}
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result, details = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                   bool(args.trace))
    out_dir = ROOT / "bench" / "out"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({**details, "result": result}, indent=1) + "\n")

    print("environment " + json.dumps(details["environment"], sort_keys=True))
    for gate in details["gate_failures"]:
        print(f"GATE FAILED: {gate}")
    for name, entry in result["metrics"].items():
        note = details["notes"].get(name)
        print(f"{name} = {entry['value']:.6g} {entry['unit']}" + (f"  ({note})" if note else ""))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
