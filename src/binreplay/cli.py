"""Command-line entry point: synth | train | eval | report | import-idx.

Configs are JSON (unknown keys rejected), metrics are CSV.  Exit codes:
0 success, 1 validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import struct
import sys

import numpy as np

from . import datasets, learner, replay, serialize
from .graph import BitwidthConfig, GraphError
from .learner import ContinualConfig
from .quant import QuantError

BITS_STRINGS = ("float", "32", "16", "8")
BIN_BITS_STRINGS = ("float", "32", "16", "8", "4", "1")


class ConfigError(ValueError):
    pass


DEFAULT_CONFIG = {
    "model": {"preset": "reference", "channels": 32},
    "bitwidth": {"q_f": "8", "q_b_nonbin": "16", "q_b_bin": "4"},
    "replay": {"quota": 80, "b_n": 16, "b_r": 64},
    "protocol": {
        "num_experiences": 5,
        "epochs": 5,
        "lr": 0.3,
        "seed": 0,
        "pretrain_epochs": 8,
        "pretrain_lr": 0.2,
        "head_only": False,
    },
    "dataset": None,  # directory holding train.brds / test.brds
    "output_dir": "out",
}


# run-config values: (check, what the value must be) for every leaf of
# DEFAULT_CONFIG; JSON's true and false are not integers here
def _int_at_least(lo: int):
    return (lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= lo,
            f"an integer >= {lo}")


def _one_of(allowed):
    return (lambda v: v in allowed), f"one of {allowed}"


def _positive(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v) and v > 0


def _path(v) -> bool:
    return isinstance(v, str) and v != ""


VALUE_CHECKS = {
    "model.preset": _one_of(("reference",)),
    "model.channels": _int_at_least(1),
    "bitwidth.q_f": _one_of(BITS_STRINGS),
    "bitwidth.q_b_nonbin": _one_of(BITS_STRINGS),
    "bitwidth.q_b_bin": _one_of(BIN_BITS_STRINGS),
    "replay.quota": _int_at_least(1),
    "replay.b_n": _int_at_least(1),
    "replay.b_r": _int_at_least(0),
    "protocol.num_experiences": _int_at_least(1),
    "protocol.epochs": _int_at_least(1),
    "protocol.lr": (_positive, "a finite number > 0"),
    "protocol.seed": _int_at_least(0),
    "protocol.pretrain_epochs": _int_at_least(1),
    "protocol.pretrain_lr": (_positive, "a finite number > 0"),
    "protocol.head_only": (lambda v: isinstance(v, bool), "true or false"),
    "dataset": (_path, "a directory holding train.brds and test.brds"),
    "output_dir": (_path, "a directory path"),
}


def _check_values(cfg: dict, where: str = "config"):
    for dotted, (ok, what) in VALUE_CHECKS.items():
        v = cfg
        for part in dotted.split("."):
            v = v[part]
        if not ok(v):
            raise ConfigError(f"{where}.{dotted} must be {what}, got {v!r}")


def _check_keys(d: dict, allowed, where: str):
    for k in d:
        if k not in allowed:
            raise ConfigError(f"unknown key {k!r} in {where} (allowed: {sorted(allowed)})")


def _merged(defaults: dict, user: dict, where: str) -> dict:
    _check_keys(user, set(defaults), where)
    out = copy.deepcopy(defaults)
    for k, v in user.items():
        if isinstance(defaults[k], dict) and defaults[k]:
            if not isinstance(v, dict):
                raise ConfigError(f"{where}.{k} must be an object")
            out[k] = _merged(defaults[k], v, f"{where}.{k}")
        else:
            out[k] = v
    return out


def load_run_config(path: str) -> dict:
    try:
        with open(path) as f:
            raw = json.load(f)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}:{e.colno}: {e.msg}")
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    sweep = raw.pop("sweep", None)
    cfg = _merged(DEFAULT_CONFIG, raw, "config")
    _check_values(cfg)
    if sweep is not None:
        if not (isinstance(sweep, dict) and len(sweep) == 1
                and all(isinstance(v, list) for v in sweep.values())):
            raise ConfigError("config.sweep must map one dotted key to a list of values")
        (key, values), = sweep.items()
        if key not in VALUE_CHECKS:
            raise ConfigError(f"sweep key {key!r} does not name a config field")
        for v in values:
            _check_values(_variant(cfg, key, v), f"sweep {key}={v!r}: config")
        cfg["sweep"] = sweep
    return cfg


def _variant(cfg: dict, dotted: str, value) -> dict:
    """A copy of cfg with the field that dotted names set to value."""
    out = copy.deepcopy(cfg)
    *parents, leaf = dotted.split(".")
    cur = out
    for p in parents:
        cur = cur[p]
    cur[leaf] = value
    return out


def continual_config(cfg: dict) -> ContinualConfig:
    bw = BitwidthConfig.from_strings(
        cfg["bitwidth"]["q_f"], cfg["bitwidth"]["q_b_nonbin"], cfg["bitwidth"]["q_b_bin"]
    )
    proto, rep = cfg["protocol"], cfg["replay"]
    return ContinualConfig(
        num_experiences=proto["num_experiences"],
        epochs=proto["epochs"],
        b_n=rep["b_n"],
        b_r=0 if proto["head_only"] else rep["b_r"],
        learning_rate=proto["lr"],
        pretrain_learning_rate=proto["pretrain_lr"],
        pretrain_epochs=proto["pretrain_epochs"],
        quota=rep["quota"],
        seed=proto["seed"],
        bitwidth=bw,
        train_graph_layers=not proto["head_only"],
        channels=cfg["model"]["channels"],
    )


def _write_text_atomic(path: str, text: str):
    with serialize.atomic_write(path) as f:
        f.write(text.encode())


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args) -> int:
    shape = tuple(int(s) for s in args.shape.split(","))
    if len(shape) != 3:
        raise ConfigError(f"--shape must be H,W,C, got {args.shape!r}")
    if args.samples_per_class < 3:
        raise ConfigError(f"--samples-per-class must be >= 3 so that every class has a train "
                          f"and a test row, got {args.samples_per_class}")
    xs, ys = datasets.make_synthetic(args.classes, args.samples_per_class,
                                     shape=shape, seed=args.seed)
    (tr_x, tr_y), (te_x, te_y) = datasets.stratified_split(xs, ys, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    serialize.write_dataset(os.path.join(args.out, "train.brds"), tr_x, tr_y, args.classes)
    serialize.write_dataset(os.path.join(args.out, "test.brds"), te_x, te_y, args.classes)
    print(f"wrote {len(tr_x)} train / {len(te_x)} test samples of shape {shape} to {args.out}")
    return 0


def _reading(read, path: str, what: str):
    """read(path); a path that cannot be opened is a ConfigError."""
    try:
        return read(path)
    except OSError as e:
        raise ConfigError(f"cannot read {what} {path}: {e.strerror}") from None


def _read_dataset(path: str):
    xs, ys, n_classes = _reading(serialize.read_dataset, path, "dataset")
    if not len(xs):
        raise ConfigError(f"dataset {path} holds no rows")
    return xs, ys, n_classes


def _load_dataset_dir(path: str):
    train = _read_dataset(os.path.join(path, "train.brds"))
    test = _read_dataset(os.path.join(path, "test.brds"))
    if train[2] != test[2]:
        raise ConfigError(f"train/test class counts disagree in {path}")
    return train, test


def run_training(cfg: dict, tag: str = "") -> str:
    (tr_x, tr_y, n_classes), (te_x, te_y, _) = _load_dataset_dir(cfg["dataset"])
    ccfg = continual_config(cfg)
    log, g, head, mem = learner.run_protocol(ccfg, tr_x, tr_y, te_x, te_y, n_classes)
    out = cfg["output_dir"]
    os.makedirs(out, exist_ok=True)
    suffix = f"_{tag}" if tag else ""
    metrics_path = os.path.join(out, f"metrics{suffix}.csv")
    _write_text_atomic(metrics_path, log.to_csv())
    _write_text_atomic(os.path.join(out, f"timings{suffix}.csv"), log.timings_csv())
    serialize.write_checkpoint(os.path.join(out, f"checkpoint{suffix}.brck"),
                               g, ccfg.bitwidth, head)
    serialize.write_replay_memory(os.path.join(out, f"replay{suffix}.brrm"), mem)
    print(f"[{tag or 'run'}] final accuracy {log.final_accuracy:.4f} -> {metrics_path}")
    return metrics_path


def cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    if args.seed is not None:
        cfg["protocol"]["seed"] = args.seed
    if args.out is not None:
        cfg["output_dir"] = args.out
    sweep = cfg.pop("sweep", None)
    if not sweep:
        run_training(cfg)
        return 0
    (key, values), = sweep.items()
    for v in values:
        run_training(_variant(cfg, key, v), tag=f"{key.split('.')[-1]}{v}")
    return 0


def cmd_eval(args) -> int:
    g, head, bw = _reading(serialize.read_checkpoint, args.checkpoint, "checkpoint")
    path = os.path.join(args.dataset, "test.brds") if os.path.isdir(args.dataset) else args.dataset
    xs, ys, n_classes = _read_dataset(path)
    if xs.shape[1:] != g.input_shape:
        raise ConfigError(f"dataset shape {xs.shape[1:]} != model input {g.input_shape}")
    if n_classes != head.max_classes:
        raise ConfigError(f"dataset classes {n_classes} != head classes {head.max_classes}")
    acc, per_class = learner.per_class_accuracy(g, head, xs, ys, bw)
    print(f"accuracy {acc!r}")
    for cls, a in sorted(per_class.items()):
        print(f"class {cls}: {a:.4f}")
    return 0


def _parse_metrics_csv(path: str):
    with open(path) as f:
        header = f.readline().strip().split(",")
        rows = [dict(zip(header, line.strip().split(","))) for line in f if line.strip()]
    if not rows:
        raise ConfigError(f"{path}: no metrics rows")
    return rows


def cmd_report(args) -> int:
    paths = sorted(
        os.path.join(args.metrics_dir, p)
        for p in _reading(os.listdir, args.metrics_dir, "metrics dir")
        if p.startswith("metrics") and p.endswith(".csv")
    )
    if not paths:
        raise ConfigError(f"no metrics CSVs in {args.metrics_dir}")
    lines = ["config,final_accuracy,replay_bits,float32_replay_bits,replay_reduction,mac_ratio"]
    print(f"{'config':<24} {'final_acc':>9} {'replay_bits':>12} {'reduction':>9} {'mac_ratio':>9}")
    for p in paths:
        rows = _parse_metrics_csv(p)
        last = rows[-1]
        acc = float(last["test_accuracy"])
        bits = int(last["replay_bits"])
        fwd, bwd = int(last["fwd_macs"]), int(last["bwd_macs"])
        ratio = bwd / fwd if fwd else 0.0
        name = os.path.splitext(os.path.basename(p))[0]
        lines.append(f"{name},{acc!r},{bits},{32 * bits},32,{ratio!r}")
        print(f"{name:<24} {acc:>9.4f} {bits:>12} {'32x':>9} {ratio:>9.2f}")
    out_path = os.path.join(args.metrics_dir, "report.csv")
    _write_text_atomic(out_path, "\n".join(lines) + "\n")
    print(f"wrote {out_path}")
    return 0


def _read_idx(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        head = f.read(4)
        if len(head) != 4 or head[:2] != b"\0\0":
            raise ConfigError(f"{path}: not an IDX file")
        dtype_code, rank = head[2], head[3]
        dtypes = {0x08: np.uint8, 0x09: np.int8, 0x0B: np.int16, 0x0C: np.int32,
                  0x0D: np.float32, 0x0E: np.float64}
        if dtype_code not in dtypes:
            raise ConfigError(f"{path}: unsupported IDX dtype 0x{dtype_code:02x}")
        dim_bytes = f.read(4 * rank)
        if len(dim_bytes) != 4 * rank:
            raise ConfigError(f"{path}: IDX header claims {rank} dimensions; the file ends first")
        dims = struct.unpack(f">{rank}I", dim_bytes)
        dt = np.dtype(dtypes[dtype_code]).newbyteorder(">")
        payload = f.read()
    if len(payload) != math.prod(dims) * dt.itemsize:
        raise ConfigError(f"{path}: IDX dimensions {dims} need {math.prod(dims) * dt.itemsize} "
                          f"bytes of data; the file holds {len(payload)}")
    return np.frombuffer(payload, dtype=dt).reshape(dims)


def cmd_import_idx(args) -> int:
    """Convert IDX image/label pairs into the repo dataset format."""
    images = _reading(_read_idx, args.images, "IDX file").astype(np.float64)
    labels = _reading(_read_idx, args.labels, "IDX file").astype(np.int64)
    if images.ndim not in (3, 4) or labels.ndim != 1:
        raise ConfigError(f"expected N x H x W (x C) images and N labels, "
                          f"got shapes {images.shape} and {labels.shape}")
    if len(images) != len(labels) or not len(labels):
        raise ConfigError(f"{len(images)} images and {len(labels)} labels: "
                          "the counts must match and be > 0")
    if images.ndim == 3:
        images = images[..., None]
    images = images / max(1.0, float(images.max())) * 2.0 - 1.0
    serialize.write_dataset(args.out, images, labels, int(labels.max()) + 1)
    print(f"wrote {len(images)} samples to {args.out}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binreplay",
        description="Binary-network continual learning with 1-bit latent replay.",
        epilog="Config defaults: " + json.dumps(DEFAULT_CONFIG),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--samples-per-class", type=int, default=200)
    p.add_argument("--shape", default="12,12,1", help="input shape H,W,C")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="run the continual-learning protocol")
    p.add_argument("--config", required=True, help="JSON run config")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--out", default=None, help="override config output dir")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True, help="dataset file or directory")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="summarize metrics CSVs")
    p.add_argument("--metrics-dir", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("import-idx", help="convert IDX images/labels to a dataset file")
    p.add_argument("--images", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_import_idx)
    return parser


def main(argv=None) -> int:
    threads = os.environ.get("BINREPLAY_THREADS")
    if threads is not None:
        try:
            if int(threads) < 1:
                raise ValueError
        except ValueError:
            print(f"error: BINREPLAY_THREADS must be a positive integer, got {threads!r}",
                  file=sys.stderr)
            return 1
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, serialize.FormatError, GraphError, QuantError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # runtime failure
        print(f"runtime error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
