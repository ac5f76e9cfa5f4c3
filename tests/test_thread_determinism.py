"""Results do not depend on how many threads OpenBLAS runs.

Run as a script, this file prints the BLAS numpy has loaded with its thread
count, then one hash of each mixer kind's logits (a CLS model included) and
of three AdamW steps' losses and parameters. The test runs it twice, with
OPENBLAS_NUM_THREADS=1 and =2, and compares the hashes. The thread count is
read once, when numpy loads OpenBLAS, hence the subprocesses.
"""

import ctypes
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest


def blas_threads() -> str:
    """"openblas <threads>" for the OpenBLAS numpy has loaded, else "unknown"."""
    import numpy  # noqa: F401  (loads its BLAS)

    try:
        with open("/proc/self/maps") as maps:  # the shared objects this process has mapped
            paths = {line.split()[-1] for line in maps if "openblas" in line.rsplit("/", 1)[-1]}
    except OSError:
        return "unknown"
    for path in sorted(paths):
        lib = ctypes.CDLL(path)  # the handle of the copy already loaded
        for name in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads64_"):
            if hasattr(lib, name):
                return f"openblas {getattr(lib, name)()}"
    return "unknown"


def digest() -> str:
    from skattn import AdamW, ModelConfig, Rng, build_model, step
    from skattn.mixers import KINDS

    h = hashlib.sha256()
    # wide-tokens geometry (16x16 grid, D = 64), whose products are large
    # enough for OpenBLAS to split across threads, and a toy CLS model (N = 65)
    configs = [dict(input=(1, 16, 16), stages=[{"kind": k, "depth": 1, "dim": 64, "heads": 4}])
               for k in KINDS]
    configs.append(dict(input=(1, 8, 8), cls_token=True,
                        stages=[{"kind": "ska", "depth": 2, "dim": 32, "heads": 4}]))
    for i, kw in enumerate(configs):
        cfg = ModelConfig(patch=1, num_classes=2, mlp_ratio=2.0, **kw)
        model = build_model(cfg, seed=i)
        images = Rng(100 + i).normal((8,) + cfg.input)
        labels = (images.mean(axis=(1, 2, 3)) > 0).astype(int)
        h.update(model(images).data.tobytes())
        optimizer = AdamW(model.named_parameters(), lr=1e-3)
        for _ in range(3):
            loss, _ = step(model, images, labels, optimizer)
            h.update(repr(loss).encode())
        for p in model.named_parameters():
            h.update(p.tensor.data.tobytes())
    return h.hexdigest()


def test_logits_and_steps_do_not_depend_on_the_blas_thread_count():
    src = str(Path(__file__).resolve().parents[1] / "src")
    blas, hashes = [], []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True,
                             timeout=300)
        assert run.returncode == 0, run.stderr
        lines = run.stdout.splitlines()
        blas.append(lines[0])
        hashes.append(lines[1])
    if blas != ["openblas 1", "openblas 2"]:
        pytest.skip(f"needs numpy on OpenBLAS with two threads available, got {blas}")
    assert len(hashes[0]) == 64 and hashes[0] == hashes[1]


if __name__ == "__main__":
    print(blas_threads())
    print(digest())
