"""Tests of the benchmark itself, on tiny sizes.

    python3 -m pytest bench/tests -q
"""

import importlib
import json

import numpy as np
import pytest

import run
from skattn.complexity import closed_form
from skattn.former import ModelConfig, build_model
from skattn.tensor import MacCounter, Rng, Tensor
from tracing import Tracer

TR = importlib.import_module("skattn.train")

TINY = run.Workload(
    "tiny", "stripe_orientation", (1, 4, 4), 1, run._single(1, 8, 2), batch=4,
    n_train=16, n_test=8, eval_batch=4, eval_every=2, eval_checks=True, primary="step")


def _tiny_configs(qkv_bias):
    for kind in run.KINDS:
        yield ModelConfig(input=(1, 4, 4), patch=1, num_classes=3, mlp_ratio=2.0,
                          qkv_bias=qkv_bias, stages=[{"kind": kind, "depth": 2, "dim": 8, "heads": 2}])
        yield ModelConfig(input=(1, 8, 8), patch=2, num_classes=2, mlp_ratio=2.0,
                          qkv_bias=qkv_bias,
                          stages=[{"kind": "dwconv", "depth": 1, "dim": 4, "heads": 1},
                                  {"kind": kind, "depth": 1, "dim": 8, "heads": 2}])


@pytest.mark.parametrize("qkv_bias", [False, True])
def test_scope_macs_match_closed_forms_and_sum_to_model_count(qkv_bias):
    for cfg in _tiny_configs(qkv_bias):
        model = build_model(cfg, seed=0)
        images = Tensor(Rng(1).normal((3, *cfg.input)))
        with MacCounter() as whole:
            model(images)
        tracer = Tracer()
        tracer.register("k", model)
        tracer.install()
        try:
            tracer.begin("eval", "k")
            model(images)
            tracer.end(0.0)
        finally:
            tracer.uninstall()
        acc = tracer.totals[("eval", "k")]
        assert tracer.gate_errors == []
        leaves = 0
        for path, (cat, kind) in tracer.categories("k").items():
            macs = acc[f"scope.{path}.macs"]
            if cat == "mixer":
                mixer = model
                for name in path.split("."):
                    mixer = mixer._modules[name]
                want = 3 * closed_form(kind, mixer.cfg.tokens, mixer.cfg.dim)[0]
                assert macs == want, (path, macs, want)
            if cat in ("mixer", "norm", "mlp", "down", "stem"):
                leaves += macs
        head = 3 * cfg.stages[-1].dim * cfg.num_classes
        assert leaves + head == whole.macs == acc["model.macs"]


def test_mac_gate_reports_a_mismatch():
    model = build_model(next(_tiny_configs(False)), seed=0)
    cfg = model.stages[0].blocks[0].mixer.cfg
    tracer = Tracer()
    tracer.register("k", model)
    tracer.install()
    try:
        cfg.dim = 4  # the closed form now describes another mixer
        model(Tensor(Rng(1).normal((2, 1, 4, 4))))
    finally:
        tracer.uninstall()
        cfg.dim = 8
    assert tracer.gate_errors
    assert all(e.startswith("stage0.block") and "closed form" in e for e in tracer.gate_errors)


def test_tracing_leaves_outputs_bit_identical():
    train_ds, chunks = run.datasets(TINY, seed=3)
    assert run.check_tracing(TINY, 3, train_ds, chunks) == []
    # and over several steps with the trace switched on and off between them
    plain = [run.new_lane(TINY, k, 3, len(train_ds)) for k in run.KINDS]
    traced = [run.new_lane(TINY, k, 3, len(train_ds)) for k in run.KINDS]
    tracer = Tracer()
    for lane in traced:
        tracer.register(lane.kind, lane.model, lane.opt)
    for i in range(6):
        for a, b in zip(plain, traced):
            run.run_step(TINY, a, train_ds, None)
            tracer.install() if i % 2 else tracer.uninstall()
            run.run_step(TINY, b, train_ds, tracer if i % 2 else None)
    tracer.uninstall()
    for a, b in zip(plain, traced):
        assert [x.hex() for x in a.losses] == [x.hex() for x in b.losses]
    assert tracer.gate_errors == []


def test_loop_draws_the_batches_train_draws():
    train_ds, chunks = run.datasets(TINY, seed=5)
    lane = run.new_lane(TINY, "cska", 5, len(train_ds))
    for _ in range(9):  # crosses two epoch boundaries
        run.run_step(TINY, lane, train_ds, None)
    model = build_model(TINY.model_config("cska"), seed=5)
    log = TR.train(model, train_ds, TR.TrainConfig(steps=9, batch_size=TINY.batch, seed=5))
    assert [x.hex() for x in lane.losses] == [x.hex() for x in log.losses]


def test_tail_is_p90_or_the_rank_with_ten_samples_beyond():
    assert run.tail(list(range(1, 201))) == (180, 90.0)
    assert run.tail(list(range(1, 31))) == (20, pytest.approx(66.7, abs=0.1))
    assert run.tail([3, 1, 2]) == (3, 100.0)


@pytest.mark.parametrize("trace,section", [(False, "end_to_end"), (True, "per_layer")])
def test_emitted_metrics_are_those_of_benchmark_json(trace, section):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    result, details = run.run_workload(TINY, seed=0, seconds=0.5, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert details["gate_failures"] == []
    want = {m["name"]: m["unit"] for m in spec[section]}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert got == want
    assert all(np.isfinite(e["value"]) for e in result["metrics"].values())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
