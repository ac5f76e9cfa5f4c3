"""Batch command-line interface; every workflow is a subcommand.

    skattn train     --config cfg.json --set train.steps=10 --out runs/a
    skattn gradcheck --out runs/gc
    skattn count     --mixer ska --N 196 --D 384 --bias-free
    skattn curves    --mode vary_N --fixed 256 --max 1024 --out runs/fig
    skattn attnmap   --checkpoint runs/a/model.skaf --out runs/maps
    skattn sweep     --heads 1,2,4,8 --out runs/sweep
    skattn ablate    --out runs/ablate

Config files are JSON with three sections (model, train, data), applied as a
batch of --set dotted.path=value assignments, so both are parsed and checked
alike. Exit codes: 0 success, 1
numerical failure, 2 configuration or IO error. Artifacts land under --out
together with a manifest.json enumerating them.
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import io
import json
import math
import sys
from dataclasses import asdict
from itertools import product
from pathlib import Path

import numpy as np
import scipy

from .autodiff import grad_check
from .complexity import count_ops, counting_config, emit_curves
from .errors import (CheckpointError, ConfigError, DataError, NumericsError,
                     OracleError, SkattnError)
from .former import ModelConfig, build_model, count_parameters, load_checkpoint, save_checkpoint
from .mixers import ACTIVATIONS, KINDS, build_mixer
from .tensor import MacCounter, Rng, Tensor
from .train import Dataset, TrainConfig, load_idx_images, synth_dataset, train

# The model and train sections are the dataclass defaults plus the toy
# overrides; the JSON round trip turns tuples into lists, as `_coerce` expects.
DEFAULT_CONFIG = json.loads(json.dumps({
    "model": ModelConfig(input=(1, 8, 8), patch=1, num_classes=2, mlp_ratio=2.0,
                         stages=[{"kind": "ska", "depth": 2, "dim": 32, "heads": 4}]).to_dict(),
    "train": asdict(TrainConfig(batch_size=16, steps=600, eval_every=100)),
    "data": {
        "kind": "stripe_orientation",
        "n_train": 2000,
        "n_test": 500,
        "seed": 0,
        "images": None,
        "labels": None,
        "test_images": None,
        "test_labels": None,
    },
}))


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _coerce(old, raw: str, path: str):
    if isinstance(old, bool):
        low = raw.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ConfigError(f"cannot parse {raw!r} as bool for {path}")
    if isinstance(old, int):
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"cannot parse {raw!r} as int for {path}") from None
    if isinstance(old, float):
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"cannot parse {raw!r} as float for {path}") from None
        if not math.isfinite(value):
            raise ConfigError(f"{path} must be a finite number, got {raw!r}")
        return value
    if isinstance(old, (list, dict)):
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            raise ConfigError(f"cannot parse {raw!r} as JSON for {path}") from None
        if not isinstance(value, type(old)):
            raise ConfigError(f"{path} expects {type(old).__name__}, got {type(value).__name__}")
        return value
    # None-defaulted leaves (e.g. file paths) accept raw strings or JSON null
    if raw == "null":
        return None
    return raw


def _assign(config: dict, dotted: str, raw: str) -> None:
    """Set the leaf at `dotted` from its text form, typed by `_coerce`. A JSON
    object given for a section sets each of its keys the same way."""
    *parents, leaf = dotted.split(".")
    node = config
    for key in parents:
        node = node.get(key) if isinstance(node, dict) else None
    if not isinstance(node, dict) or leaf not in node:
        raise ConfigError(f"unknown config key {dotted!r}")
    value = _coerce(node[leaf], raw, dotted)
    if isinstance(node[leaf], dict):
        for key, item in value.items():
            _assign(config, f"{dotted}.{key}", _as_text(item))
    else:
        node[leaf] = value


def _as_text(value) -> str:
    """A JSON value as `--set` text: a string as itself, anything else as JSON."""
    return value if isinstance(value, str) else json.dumps(value)


def load_config(path: str | None, sets: list[str] | None, seed: int | None = None) -> dict:
    """Defaults, then the file at `path`, then `sets`; `seed` sets train.seed and data.seed."""
    config = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        try:
            on_disk = json.loads(p.read_text())
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file {p} is not valid JSON: {e}") from None
        if not isinstance(on_disk, dict):
            raise ConfigError(f"config file {p} must hold a JSON object")
        # a config file is a batch of --set assignments, one per top-level key
        for key, value in on_disk.items():
            _assign(config, key, _as_text(value))
    for assignment in sets or []:
        if "=" not in assignment:
            raise ConfigError(f"--set expects dotted.path=value, got {assignment!r}")
        dotted, raw = assignment.split("=", 1)
        _assign(config, dotted.strip(), raw)
    if seed is not None:
        config["train"]["seed"] = config["data"]["seed"] = seed
    return config


def _load_idx_pair(images: str | None, labels: str | None,
                   names: tuple[str, str]) -> Dataset | None:
    """Load an IDX (images, labels) pair, or return None when both paths are
    absent; `names` are the config keys or flags that gave the two paths."""
    if not images and not labels:
        return None
    for path, name in zip((images, labels), names):
        if not path:
            raise ConfigError(f"{name} is required when loading IDX files")
        if not Path(path).exists():
            raise DataError(f"dataset file not found: {path}")
    return load_idx_images(images, labels)


def _datasets_from(data_cfg: dict, grid: tuple[int, int]) -> tuple[Dataset, Dataset | None]:
    """The train and test sets; synthetic images are `grid`, the model's input size."""
    train_ds = _load_idx_pair(data_cfg["images"], data_cfg["labels"],
                              ("data.images", "data.labels"))
    test_ds = _load_idx_pair(data_cfg["test_images"], data_cfg["test_labels"],
                             ("data.test_images", "data.test_labels"))
    if train_ds is not None:
        return train_ds, test_ds
    if test_ds is not None:
        raise ConfigError("data.test_images/data.test_labels need data.images and data.labels")
    train_ds = synth_dataset(data_cfg["kind"], data_cfg["n_train"], grid, data_cfg["seed"])
    test_ds = synth_dataset(data_cfg["kind"], data_cfg["n_test"], grid, data_cfg["seed"] + 1)
    return train_ds, test_ds


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, command: str, artifacts: list[Path], notes: list[str] | None = None,
                    cfg: dict | None = None) -> None:
    """List the artifacts with the library versions that made them; for a
    command run from a config, also its seed and the sha256 of its canonical
    JSON (sorted keys, no spaces)."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    manifest = {
        "command": command,
        "artifacts": sorted(str(a.relative_to(out)) for a in artifacts),
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__,
                     "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}"},
    }
    if cfg is not None:
        canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
        manifest["seed"] = cfg["train"]["seed"]
        manifest["config_sha256"] = hashlib.sha256(canonical.encode()).hexdigest()
    if notes:
        manifest["notes"] = notes
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    path.write_text(buf.getvalue())


def write_pgm(path: Path, matrix: np.ndarray) -> None:
    """8-bit binary PGM, min-max normalized per map."""
    m = np.asarray(matrix, dtype=np.float64)
    lo, hi = float(m.min()), float(m.max())
    if hi > lo:
        img = np.round((m - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        img = np.zeros(m.shape, dtype=np.uint8)
    header = f"P5\n{m.shape[1]} {m.shape[0]}\n255\n".encode()
    path.write_bytes(header + img.tobytes())


def _parse_int_list(raw: str, flag: str) -> list[int]:
    try:
        values = [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"{flag} expects comma-separated integers, got {raw!r}") from None
    if not values:
        raise ConfigError(f"{flag} names no values, got {raw!r}")
    return values


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    cfg = load_config(args.config, args.set, args.seed)
    seed = cfg["train"]["seed"]
    model, log, _, _ = _train_cell(cfg, seed)

    out = _out_dir(args)
    runlog = out / "runlog.csv"
    runlog.write_text(log.to_csv())
    ckpt = out / "model.skaf"
    save_checkpoint(model, ckpt, seed=seed, step=log.steps[-1])
    config_echo = out / "config.json"
    config_echo.write_text(json.dumps(cfg, indent=2) + "\n")
    _write_manifest(out, "train", [runlog, ckpt, config_echo], cfg=cfg)
    acc = "n/a" if log.final_eval_acc is None else f"{log.final_eval_acc:.4f}"
    print(f"trained {log.steps[-1]} steps: "
          f"final loss {log.final_loss:.6g}, eval acc {acc}")
    return 0


def cmd_gradcheck(args) -> int:
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        raise ConfigError(f"--tolerance must be positive and finite, got {args.tolerance!r}")
    kinds = [args.mixer] if args.mixer else list(KINDS)
    ns = _parse_int_list(args.tokens, "--N")
    ds = _parse_int_list(args.dims, "--D")
    hs = _parse_int_list(args.heads, "--heads")
    if any(h < 1 for h in hs):
        raise ConfigError(f"--heads expects head counts of at least 1, got {args.heads!r}")
    seeds = _parse_int_list(args.seeds, "--seeds")
    grid = [cell for cell in product(kinds, ns, ds, hs, seeds) if cell[2] % cell[3] == 0]
    if not grid:
        raise ConfigError(f"the grid is empty: no --D in {args.dims!r} is divisible by "
                          f"a --heads in {args.heads!r}")

    rows = []
    all_passed = True
    for kind, n, d, h, seed in grid:
        cfg = counting_config(kind, n, d, heads=h)
        cfg.qkv_bias = True
        mixer = build_mixer(cfg, Rng(seed))
        x = Tensor(Rng(seed + 1000).normal((1, cfg.total_tokens, d)))
        weights = Rng(seed + 2000).normal((1, cfg.total_tokens, d))

        def loss():
            return (mixer(x) * weights).sum()

        for r in grad_check(loss, mixer.named_parameters(), tolerance=args.tolerance):
            rows.append([kind, n, d, h, seed, r.name, f"{r.max_rel_error:.3e}",
                         "PASS" if r.passed else "FAIL"])
            all_passed &= r.passed

    out = _out_dir(args)
    report = out / "gradcheck.csv"
    _write_csv(report, ["mixer", "N", "D", "heads", "seed", "param", "max_rel_error", "status"], rows)
    _write_manifest(out, "gradcheck", [report])
    failed = sum(1 for r in rows if r[-1] == "FAIL")
    print(f"gradcheck: {len(rows) - failed}/{len(rows)} parameters passed "
          f"at tolerance {args.tolerance:g} -> {report}")
    if not all_passed:
        raise NumericsError(f"{failed} gradient check(s) failed; see {report}")
    return 0


def cmd_count(args) -> int:
    grid = None
    if args.grid:
        parts = _parse_int_list(args.grid, "--grid")
        if len(parts) != 2:
            raise ConfigError(f"--grid expects 'GH,GW', got {args.grid!r}")
        grid = (parts[0], parts[1])
    cfg = counting_config(args.mixer, args.tokens, args.dim, heads=args.heads,
                          kernel=args.kernel, cls_token=args.cls_token, grid=grid)
    if not args.bias_free:
        cfg.qkv_bias = True
    report = count_ops(cfg)

    if report.warning:
        print(f"warning: {report.warning}", file=sys.stderr)
    print(f"mixer={report.kind} N={report.tokens} D={report.dim} H={report.heads} "
          f"k={report.kernel} bias_free={not cfg.qkv_bias} cls={cfg.cls_token}")
    closed_f = "n/a" if report.flops_closed is None else str(report.flops_closed)
    closed_p = "n/a" if report.params_closed is None else str(report.params_closed)
    print(f"  MACs:   counted {report.flops_counted}  closed {closed_f}")
    print(f"  params: counted {report.params_counted}  closed {closed_p}")
    if report.ratio_closed is not None:
        print(f"  ratio (closed): {float(report.ratio_closed):.6g}")
    if report.closed_form_comparable:
        match = (report.flops_counted == report.flops_closed
                 and report.params_counted == report.params_closed)
        print(f"  closed form match: {'yes' if match else 'NO'}")
        if not match:
            raise NumericsError("instrumented counts do not match the closed forms")
    return 0


def cmd_curves(args) -> int:
    csv_text = emit_curves(mode=args.mode, fixed=args.fixed, start=args.min,
                           stop=args.max, step=args.step)
    out = _out_dir(args)
    path = out / f"curves_{args.mode}.csv"
    path.write_text(csv_text)
    _write_manifest(out, "curves", [path])
    print(f"wrote {path}")
    return 0


def cmd_attnmap(args) -> int:
    model, _, _ = load_checkpoint(args.checkpoint)
    c, h, w = model.cfg.input
    ds = _load_idx_pair(args.images, args.labels, ("--images", "--labels"))
    if ds is not None:
        if not 0 <= args.index < len(ds):
            raise ConfigError(f"--index {args.index} out of range for {len(ds)} images")
        image = ds.images[args.index:args.index + 1]
        if image.shape[1:] != (c, h, w):
            raise ConfigError(f"image shape {image.shape[1:]} does not match model input {(c, h, w)}")
    else:
        image = Rng(args.seed).normal((1, c, h, w))

    maps = model.attention_maps(image)
    out = _out_dir(args)
    artifacts = []
    notes = []
    for i, (name, kind, avg) in enumerate(maps):
        if avg is None:
            note = f"skipped layer {i} ({name}): {kind} has no attention map"
            notes.append(note)
            print(note)
            continue
        matrix = avg[0]
        csv_path = out / f"attn_{i:02d}_{name.replace('.', '_')}.csv"
        np.savetxt(csv_path, matrix, delimiter=",", fmt="%.9g")
        pgm_path = csv_path.with_suffix(".pgm")
        write_pgm(pgm_path, matrix)
        artifacts += [csv_path, pgm_path]
    _write_manifest(out, "attnmap", artifacts, notes)
    print(f"wrote {len(artifacts)} attention-map files to {out}")
    return 0


def _model_forward_macs(model) -> int:
    c, h, w = model.cfg.input
    x = Rng(0).normal((1, c, h, w))
    with MacCounter() as counter:
        model(Tensor(x))
    return counter.macs


def _train_cell(cell: dict, seed: int):
    """Train one config under `seed`; return the model, its run log, its test
    accuracy (nan without a test set) and 8 probe images (test, else train)."""
    cell["train"]["seed"] = seed
    model_cfg = ModelConfig.from_dict(cell["model"])
    train_cfg = TrainConfig(**cell["train"])
    train_ds, test_ds = _datasets_from(cell["data"], model_cfg.input[1:])
    for split, ds in (("train", train_ds), ("test", test_ds)):
        if ds is not None and (ds.labels >= model_cfg.num_classes).any():
            raise DataError(f"{split} set holds label {ds.labels.max()}, but model.num_classes "
                            f"is {model_cfg.num_classes}")
    model = build_model(model_cfg, seed=seed)
    log = train(model, train_ds, train_cfg, eval_dataset=test_ds)
    acc = float("nan") if log.final_eval_acc is None else log.final_eval_acc
    return model, log, acc, (train_ds if test_ds is None else test_ds).images[:8]


def cmd_sweep(args) -> int:
    cfg = load_config(args.config, args.set, args.seed)
    heads = _parse_int_list(args.heads, "--heads")
    rows = []
    for i, h in enumerate(heads):
        cell = copy.deepcopy(cfg)
        for stage in cell["model"]["stages"]:
            stage["heads"] = h
        cell_seed = cfg["train"]["seed"] + i
        model, _, acc, _ = _train_cell(cell, cell_seed)
        _, params = count_parameters(model)
        flops = _model_forward_macs(model)
        rows.append([h, f"{acc:.4f}", params, flops, cell_seed])
        print(f"heads={h}: acc={acc:.4f} params={params} flops={flops} seed={cell_seed}")
    out = _out_dir(args)
    path = out / "sweep.csv"
    _write_csv(path, ["heads", "test_acc", "params", "flops", "seed"], rows)
    _write_manifest(out, "sweep", [path], cfg=cfg)
    return 0


def _max_row_sum_deviation(model, images: np.ndarray) -> float:
    worst = 0.0
    for _, _, avg in model.attention_maps(images):
        if avg is None:
            continue
        worst = max(worst, float(np.abs(avg.sum(axis=-1) - 1.0).max()))
    return worst


def cmd_ablate(args) -> int:
    cfg = load_config(args.config, args.set, args.seed)
    acts = [a.strip() for a in args.activations.split(",") if a.strip()]
    if not acts:
        raise ConfigError(f"--activations names no activation, got {args.activations!r}")
    unknown = [a for a in acts if a not in ACTIVATIONS]
    if unknown:
        raise ConfigError(
            f"unknown activation(s) {', '.join(map(repr, unknown))}; "
            f"valid: {', '.join(ACTIVATIONS)}")
    rows = []
    for i, (act, scaled) in enumerate(product(acts, (True, False))):
        cell = copy.deepcopy(cfg)
        cell["model"]["activation"] = act
        cell["model"]["scaled"] = scaled
        if args.mixer:
            for stage in cell["model"]["stages"]:
                stage["kind"] = args.mixer
        cell_seed = cfg["train"]["seed"] + i
        model, _, acc, probe = _train_cell(cell, cell_seed)
        row_dev = _max_row_sum_deviation(model, probe)
        normalized = act == "softmax"
        rows.append([act, scaled, normalized, f"{row_dev:.6g}", f"{acc:.4f}", cell_seed])
        print(f"activation={act} scaled={scaled}: acc={acc:.4f} "
              f"row_sum_dev={row_dev:.3g} normalized={normalized} seed={cell_seed}")
    out = _out_dir(args)
    path = out / "ablate.csv"
    _write_csv(path, ["activation", "scaled", "normalized", "max_row_sum_dev", "test_acc", "seed"], rows)
    _write_manifest(out, "ablate", [path], cfg=cfg)
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="skattn", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        p.add_argument("--out", default="out", help="output directory (default: out)")
        if config:
            p.add_argument("--seed", type=int, default=None, help="override train.seed and data.seed")
            p.add_argument("--config", default=None, help="JSON config file (model/train/data)")
            p.add_argument("--set", action="append", default=[], metavar="PATH=VALUE",
                           help="override a config leaf, e.g. train.steps=10")

    p = sub.add_parser("train", help="train a model and emit runlog + checkpoint")
    common(p)
    p.set_defaults(func=cmd_train)

    # no prefix matching, so --seed cannot pass for --seeds
    p = sub.add_parser("gradcheck", help="finite-difference gradient checks over a mixer grid",
                       allow_abbrev=False)
    common(p, config=False)
    p.add_argument("--mixer", choices=KINDS, default=None, help="restrict to one mixer kind")
    p.add_argument("--N", dest="tokens", default="4,16", help="token counts (comma-separated)")
    p.add_argument("--D", dest="dims", default="8,32", help="embedding dims")
    p.add_argument("--heads", default="1,2,4", help="head counts")
    p.add_argument("--seeds", default="0,1,2", help="seeds")
    p.add_argument("--tolerance", type=float, default=1e-5)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("count", help="closed-form vs instrumented operation counts")
    p.add_argument("--mixer", required=True, choices=KINDS)
    p.add_argument("--N", dest="tokens", type=int, required=True)
    p.add_argument("--D", dest="dim", type=int, required=True)
    p.add_argument("--heads", type=int, default=1)
    p.add_argument("--kernel", type=int, default=3)
    p.add_argument("--grid", default=None, help="token grid as 'GH,GW' (default: near-square)")
    p.add_argument("--bias-free", action="store_true", help="count without biases (matches closed forms)")
    p.add_argument("--cls-token", action="store_true")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("curves", help="F/P-ratio curves for all four mixers")
    common(p, config=False)
    p.add_argument("--mode", choices=["vary_N", "vary_D"], default="vary_N")
    p.add_argument("--fixed", type=int, default=256, help="the non-swept extent")
    p.add_argument("--min", type=int, default=1)
    p.add_argument("--max", type=int, default=1024)
    p.add_argument("--step", type=int, default=1)
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("attnmap", help="dump head-averaged attention maps per layer")
    common(p, config=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--images", default=None, help="IDX images file for the probe input")
    p.add_argument("--labels", default=None, help="IDX labels file")
    p.add_argument("--index", type=int, default=0, help="which image to probe")
    p.add_argument("--seed", type=int, default=0, help="seed of the random probe image (without --images)")
    p.set_defaults(func=cmd_attnmap)

    p = sub.add_parser("sweep", help="train the toy config across head counts")
    common(p)
    p.add_argument("--heads", default="1,2,4,8", help="head counts to sweep")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("ablate", help="activation x scaling grid on the toy task")
    common(p)
    p.add_argument("--mixer", choices=KINDS, default="cska",
                   help="mixer kind placed in every stage (default: cska)")
    p.add_argument("--activations", default=",".join(ACTIVATIONS),
                   help="activation names for the grid (comma-separated)")
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataError, CheckpointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        what = f"file not found: {e.filename or e}" if isinstance(e, FileNotFoundError) else e
        print(f"error: {what}", file=sys.stderr)
        return 2
    except (NumericsError, OracleError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 1
    except SkattnError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
