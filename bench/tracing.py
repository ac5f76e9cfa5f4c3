"""Per-layer trace of skattn, taken from outside the library.

`Tracer.install()` replaces, until `uninstall()` restores the originals:

* every public primitive of `skattn.tensor`: each call is timed, counted,
  and its output tagged with the (module scope, op) that produced it;
  matmul and conv2d_grouped also tally their MACs;
* `forward` of every Module instance of the registered models, under its
  dotted path, and `Model.embed` (the stem); each call runs inside a nested
  `MacCounter`, so MACs are known per scope;
* `cross_entropy`, `clip_grad_norm` and `backward` of `skattn.train`
  (`backward` also in `skattn.autodiff`); the backward wrapper measures the
  bytes the tape holds, then wraps each `Tape.entries` backward closure so
  that its time lands on the tagged (scope, op);
* `step` of each registered optimizer.

The wrappers pass arguments and results through untouched, so traced
arithmetic is the untraced arithmetic bit for bit. Totals accumulate per
(phase, model kind); module-level spans are kept in memory and returned by
`spans()` for writing out when the run ends.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

import numpy as np

from skattn import autodiff as AD
from skattn import tensor as T
from skattn.complexity import closed_form
from skattn.former import Downsample, LayerNorm, Mlp, Model
from skattn.mixers import TokenMixer
from skattn.tensor import MacCounter, Tensor

TR = importlib.import_module("skattn.train")  # the package re-exports a train() function

PRIMITIVES = ("add", "sub", "mul", "reduce_sum", "mean", "reshape", "transpose", "concat",
              "slice_axis", "broadcast_to", "matmul", "conv2d_grouped", "softmax_rows",
              "log_softmax_rows", "relu", "gelu", "rsqrt", "gather_last", "dropout")
_COUNTS_MACS = ("matmul", "conv2d_grouped")
# module scopes whose MACs are summed against the whole-model count
_LEAVES = ("mixer", "norm", "mlp", "down", "stem")


def _category(module) -> str | None:
    if isinstance(module, TokenMixer):
        return "mixer"
    if isinstance(module, LayerNorm):
        return "norm"
    if isinstance(module, Mlp):
        return "mlp"
    if isinstance(module, Downsample):
        return "down"
    return None


def _named_modules(module, prefix=""):
    # Module keeps its children in `_modules`; their names are the dotted
    # prefixes of the parameter names
    for name, child in module._modules.items():
        path = prefix + name
        yield path, child
        yield from _named_modules(child, path + ".")


def _root_buffer(arr: np.ndarray) -> np.ndarray:
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def _closure_arrays(fn):
    for cell in fn.__closure__ or ():
        try:
            value = cell.cell_contents
        except ValueError:  # empty cell
            continue
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, Tensor):
            yield value.data


class Tracer:
    """Collects per-layer time, call counts, MACs and tape bytes."""

    def __init__(self):
        self.totals: dict[tuple[str, str], defaultdict] = {}
        self.matmul_shapes: defaultdict = defaultdict(int)
        self.gate_errors: list[str] = []
        self._models: dict[str, Model] = {}
        self._optimizers: dict[str, object] = {}
        self._scopes: dict[int, dict[str, tuple[str | None, object]]] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._spans: list[tuple] = []
        self._open: list[int] = []
        self._scope = ["model"]
        self._acc = defaultdict(float)  # sink for work outside any op
        self._tags: dict[int, tuple[str, str]] = {}
        self._call_macs: dict[str, int] = {}
        self.installed = False

    # -- registration and (un)installation ---------------------------------

    def register(self, kind: str, model: Model, optimizer=None) -> None:
        self._models[kind] = model
        self._scopes[id(model)] = {path: (_category(m), m) for path, m in _named_modules(model)}
        if optimizer is not None:
            self._optimizers[kind] = optimizer

    def install(self) -> None:
        if self.installed:
            return
        for name in PRIMITIVES:
            self._patch(T, name, self._wrap_primitive(name, getattr(T, name)))
        self._patch(TR, "cross_entropy", self._wrap_phase("loss", TR.cross_entropy))
        self._patch(TR, "clip_grad_norm", self._wrap_phase("clip", TR.clip_grad_norm))
        wrapped_backward = self._wrap_backward(AD.backward)
        self._patch(AD, "backward", wrapped_backward)
        self._patch(TR, "backward", wrapped_backward)
        for opt in self._optimizers.values():
            self._patch(opt, "step", self._wrap_phase("opt", opt.step))
        for model in self._models.values():
            scopes = self._scopes[id(model)]
            self._patch(model, "forward", self._wrap_root(model, model.forward))
            self._patch(model, "embed", self._wrap_module("embed", "stem", model.embed, model))
            for path, (category, module) in scopes.items():
                self._patch(module, "forward", self._wrap_module(path, category, module.forward, module))
        self.installed = True

    def uninstall(self) -> None:
        for obj, name, original in reversed(self._patched):
            if isinstance(obj, type(T)):
                setattr(obj, name, original)
            else:
                delattr(obj, name)  # the instance falls back to its class method
        self._patched.clear()
        self.installed = False

    def _patch(self, obj, name, wrapper) -> None:
        self._patched.append((obj, name, getattr(obj, name)))
        setattr(obj, name, wrapper)

    # -- ops and spans -------------------------------------------------------

    def begin(self, phase: str, kind: str) -> None:
        """Open one unit of work (a train step or an eval batch) of a model."""
        self._acc = self.totals.setdefault((phase, kind), defaultdict(float))
        self._acc["ops"] += 1
        self._tags.clear()  # ids of tensors that are gone may be reused
        self._open_span(f"{phase}:{kind}")

    def end(self, seconds: float) -> None:
        self._acc["op_s"] += seconds
        self._close_span()
        self._acc = defaultdict(float)

    def _open_span(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self._spans.append([name, perf_counter(), 0.0, parent])
        self._open.append(len(self._spans) - 1)

    def _close_span(self) -> None:
        self._spans[self._open.pop()][2] = perf_counter()

    def spans(self) -> list[dict]:
        t0 = self._spans[0][1] if self._spans else 0.0
        return [{"name": n, "start_us": round((s - t0) * 1e6, 1),
                 "end_us": round((e - t0) * 1e6, 1), "parent": p}
                for n, s, e, p in self._spans]

    # -- wrappers ------------------------------------------------------------

    def _wrap_primitive(self, op: str, fn):
        tracer = self
        counts_macs = op in _COUNTS_MACS

        def primitive(*args, **kwargs):
            t0 = perf_counter()
            if counts_macs:
                with MacCounter() as counter:
                    out = fn(*args, **kwargs)
            else:
                out = fn(*args, **kwargs)
            dt = perf_counter() - t0
            acc = tracer._acc
            acc["op." + op + ".fwd_s"] += dt
            acc["op." + op + ".calls"] += 1
            if counts_macs:
                acc["op." + op + ".macs"] += counter.macs
                if op == "matmul":
                    a, b = args[0], args[1]
                    tracer.matmul_shapes[(np.shape(getattr(a, "data", a)),
                                          np.shape(getattr(b, "data", b)))] += counter.macs
            elif op == "transpose":
                # Tensor.__init__ copies every non-contiguous result; a
                # permutation view is contiguous only when it is trivial
                x = args[0]
                axes = args[1] if len(args) > 1 else kwargs.get("axes")
                view = np.transpose(x.data if isinstance(x, Tensor) else np.asarray(x), axes)
                if not view.flags.c_contiguous:
                    acc["transpose.copy_bytes"] += out.data.nbytes
            tracer._tags[id(out)] = (tracer._scope[-1], op)
            return out

        return primitive

    def _wrap_module(self, path: str, category: str | None, fn, module):
        tracer = self

        def forward(*args, **kwargs):
            tracer._scope.append(path)
            tracer._open_span(path)
            t0 = perf_counter()
            try:
                with MacCounter() as counter:
                    out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer._close_span()
                tracer._scope.pop()
            acc = tracer._acc
            acc["scope." + path + ".fwd_s"] += dt
            acc["scope." + path + ".macs"] += counter.macs
            tracer._call_macs[path] = tracer._call_macs.get(path, 0) + counter.macs
            if category == "mixer":
                cfg = module.cfg
                want = args[0].shape[0] * closed_form(cfg.kind, cfg.tokens, cfg.dim, cfg.kernel)[0]
                if counter.macs != want:
                    tracer.gate_errors.append(
                        f"{path} ({cfg.kind}, N={cfg.tokens}, D={cfg.dim}): counted "
                        f"{counter.macs} MACs, closed form gives {want}")
            return out

        return forward

    def _wrap_root(self, model: Model, fn):
        tracer = self
        scopes = self._scopes[id(model)]
        categories = {path: cat for path, (cat, _) in scopes.items()}
        categories["embed"] = "stem"
        d_last = model.cfg.stages[-1].dim
        classes = model.cfg.num_classes

        def forward(images, *args, **kwargs):
            tracer._call_macs = {}
            tracer._open_span("model")
            t0 = perf_counter()
            try:
                with MacCounter() as counter:
                    out = fn(images, *args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer._close_span()
            acc = tracer._acc
            acc["model.fwd_s"] += dt
            acc["model.macs"] += counter.macs
            leaves = sum(m for path, m in tracer._call_macs.items()
                         if categories.get(path) in _LEAVES)
            head = out.shape[0] * d_last * classes
            if leaves + head != counter.macs:
                tracer.gate_errors.append(
                    f"scope MACs {leaves} + head {head} != whole-model count {counter.macs}")
            return out

        return forward

    def _wrap_phase(self, name: str, fn):
        tracer = self

        def timed(*args, **kwargs):
            tracer._scope.append(name)
            tracer._open_span(name)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._acc[name + "_s"] += perf_counter() - t0
                tracer._close_span()
                tracer._scope.pop()

        return timed

    def _wrap_backward(self, fn):
        tracer = self

        def backward(tape, loss):
            acc = tracer._acc
            tags = tracer._tags
            seen: set[int] = set()
            entries = tape.entries
            for i, (out, inputs, bwd) in enumerate(entries):
                scope, op = tags.get(id(out), ("model", "?"))
                held = 0
                arrays = [out.data, *(t.data for t in inputs), *_closure_arrays(bwd)]
                for arr in arrays:
                    root = _root_buffer(arr)
                    if id(root) not in seen:
                        seen.add(id(root))
                        held += root.nbytes
                acc["tape_bytes"] += held
                acc["scope." + scope + ".tape_bytes"] += held
                entries[i] = (out, inputs, tracer._timed_closure(bwd, scope, op))
            acc["tape_entries"] += len(entries)
            tracer._open_span("backward")
            t0 = perf_counter()
            try:
                return fn(tape, loss)
            finally:
                acc["backward_s"] += perf_counter() - t0
                tracer._close_span()
                tags.clear()

        return backward

    def _timed_closure(self, bwd, scope: str, op: str):
        acc = self._acc
        op_key = "op." + op + ".bwd_s"
        scope_key = "scope." + scope + ".bwd_s"

        def closure(g):
            t0 = perf_counter()
            grads = bwd(g)
            dt = perf_counter() - t0
            acc[op_key] += dt
            acc[scope_key] += dt
            acc["closures_s"] += dt
            return grads

        return closure

    # -- reporting -----------------------------------------------------------

    def categories(self, kind: str) -> dict[str, tuple[str | None, str | None]]:
        """Dotted path -> (category, mixer kind) for the model of `kind`."""
        out = {path: (cat, module.kind if cat == "mixer" else None)
               for path, (cat, module) in self._scopes[id(self._models[kind])].items()}
        out["embed"] = ("stem", None)
        return out
