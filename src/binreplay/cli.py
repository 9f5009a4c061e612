"""Command-line entry point: synth | train | eval | report | import-idx.

Configs are JSON (unknown keys rejected), metrics are CSV.  Exit codes:
0 success, 1 validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import struct
import sys
import time

import numpy as np

from . import datasets, learner, serialize
from .graph import BITWIDTHS, BitwidthConfig
from .learner import ContinualConfig
from .quant import is_number


class ConfigError(ValueError):
    pass


# checks of run-config values: (check, what the value must be); JSON's true
# and false are not integers here
def _int_in(lo: int, hi=math.inf):
    return (lambda v: isinstance(v, int) and not isinstance(v, bool) and lo <= v <= hi,
            f"an integer >= {lo}" if hi == math.inf else f"an integer in [{lo}, {hi}]")


def _one_of(allowed):
    return (lambda v: v in allowed), f"one of {allowed}"


def _positive(v) -> bool:
    return is_number(v) and v > 0


def _path(v) -> bool:
    return isinstance(v, str) and v != ""


_ENGINE = ContinualConfig()


def _sets(field: str, check, what: str) -> tuple:
    """The row of a key that sets ContinualConfig's field, whose default is the engine's."""
    return getattr(_ENGINE, field), check, what, field


def _bits(field: str, allowed) -> tuple:
    """The row of a key that sets BitwidthConfig's field, as the string "float" or a width."""
    return (str(getattr(_ENGINE.bitwidth, field)), *_one_of(("float", *map(str, reversed(allowed)))), field)


# every run-config key, dotted as in a sweep: (default, check, what the value
# must be, the ContinualConfig or BitwidthConfig field it sets, if one)
SETTINGS = {
    "model.preset": ("reference", *_one_of(("reference",)), None),
    "model.channels": _sets("channels", *_int_in(1)),
    **{f"bitwidth.{f}": _bits(f, allowed) for f, allowed in BITWIDTHS.items()},
    "replay.quota": _sets("quota", *_int_in(1, serialize.MAX_QUOTA)),
    "replay.b_n": _sets("b_n", *_int_in(1)),
    "replay.b_r": _sets("b_r", *_int_in(0)),
    "protocol.num_experiences": _sets("num_experiences", *_int_in(1)),
    "protocol.epochs": _sets("epochs", *_int_in(1)),
    "protocol.lr": _sets("learning_rate", _positive, "a finite number > 0"),
    "protocol.seed": _sets("seed", *_int_in(0)),
    "protocol.pretrain_epochs": _sets("pretrain_epochs", *_int_in(1)),
    "protocol.pretrain_lr": _sets("pretrain_learning_rate", _positive, "a finite number > 0"),
    "protocol.head_only": (not _ENGINE.train_graph_layers, lambda v: isinstance(v, bool),
                           "true or false", None),
    "dataset": (None, _path, "a directory holding train.brds and test.brds", None),
    "output_dir": ("out", _path, "a directory path", None),
}


def _check_values(cfg: dict, where: str = "config"):
    for key, (_, ok, what, _) in SETTINGS.items():
        if not ok(cfg[key]):
            raise ConfigError(f"{where}.{key} must be {what}, got {cfg[key]!r:.60}")


def _read_into(cfg: dict, raw: dict, where: str = "config", prefix: str = ""):
    """Set cfg[dotted key] from the JSON object raw, which holds the keys under prefix."""
    allowed = {key[len(prefix):].split(".")[0] for key in SETTINGS if key.startswith(prefix)}
    for k in raw:
        if k not in allowed:
            raise ConfigError(f"unknown key {k!r} in {where} (allowed: {sorted(allowed)})")
    for k, v in raw.items():
        if prefix + k in SETTINGS:
            cfg[prefix + k] = v
        elif not isinstance(v, dict):
            raise ConfigError(f"{where}.{k} must be an object")
        else:
            _read_into(cfg, v, f"{where}.{k}", f"{prefix}{k}.")


def _nested(cfg: dict) -> dict:
    """The JSON object layout of a flat {dotted key: value} config."""
    out: dict = {}
    for key, v in cfg.items():
        *parents, leaf = key.split(".")
        cur = out
        for p in parents:
            cur = cur.setdefault(p, {})
        cur[leaf] = v
    return out


def _sweep_tag(key: str, value) -> str:
    """The suffix of a sweep variant's output names: the key's last part and
    the value, each path separator made "_", so every output stays in
    output_dir."""
    tag = f"{key.split('.')[-1]}{value}"
    for sep in filter(None, (os.sep, os.altsep)):
        tag = tag.replace(sep, "_")
    return tag


def load_run_config(path: str) -> dict:
    """The run config at path as {dotted key: value}, defaults filled in and
    every value checked; a sweep, checked the same way, stays under "sweep"."""
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}:{e.colno}: {e.msg}")
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}")
    except (ValueError, RecursionError) as e:  # not UTF-8, or nested too deep for json
        raise ConfigError(f"{path}: {e}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    sweep = raw.pop("sweep", None)
    cfg = {key: default for key, (default, *_) in SETTINGS.items()}
    _read_into(cfg, raw)
    _check_values(cfg)
    if sweep is not None:
        if not (isinstance(sweep, dict) and len(sweep) == 1
                and all(isinstance(v, list) for v in sweep.values())):
            raise ConfigError("config.sweep must map one dotted key to a list of values")
        (key, values), = sweep.items()
        if key not in SETTINGS:
            raise ConfigError(f"sweep key {key!r:.60} does not name a config field")
        for v in values:
            _check_values({**cfg, key: v}, f"sweep {key}={v!r:.60}: config")
        if not values or len(set(values)) < len(values):
            raise ConfigError(f"sweep {key} must list one or more values, no two equal, got {values!r:.60}")
        tags = [_sweep_tag(key, v) for v in values]
        if len(set(tags)) < len(tags):
            raise ConfigError(f"sweep {key} values {values!r:.60} would share an output tag: {tags!r:.60}")
        cfg["sweep"] = sweep
    return cfg


def continual_config(cfg: dict) -> ContinualConfig:
    """The engine's config: each SETTINGS row that names a field sets it."""
    fields = {f: cfg[key] for key, (*_, f) in SETTINGS.items() if f}
    bits = {f: fields.pop(f) for f in BITWIDTHS}
    ccfg = ContinualConfig(**fields, bitwidth=BitwidthConfig(
        **{f: None if s == "float" else int(s) for f, s in bits.items()}))
    if cfg["protocol.head_only"]:  # the baseline: no replay, and only the head learns
        ccfg.b_r, ccfg.train_graph_layers = 0, False
    return ccfg


def _write_text_atomic(path: str, text: str):
    with serialize.atomic_write(path) as f:
        f.write(text.encode())


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args) -> int:
    try:
        shape = tuple(int(s) for s in args.shape.split(","))
    except ValueError:
        shape = ()
    if len(shape) != 3 or min(shape) < 1:
        raise ConfigError(f"--shape must be H,W,C, each at least 1, got {args.shape!r}")
    if not 2 <= args.classes <= serialize.MAX_CLASSES:
        raise ConfigError(f"--classes must be in [2, {serialize.MAX_CLASSES}], got {args.classes}")
    if not 3 <= args.samples_per_class <= serialize.MAX_ROWS // args.classes:
        raise ConfigError(f"--samples-per-class must be >= 3 so that every class has a train and a "
                          f"test row, and at most {serialize.MAX_ROWS // args.classes} so that "
                          f"{args.classes} classes fit a dataset file, got {args.samples_per_class}")
    # before anything is generated: --out and both output paths checked, nothing made
    near = os.path.abspath(args.out)  # the nearest of --out and its ancestors that exists
    while not os.path.exists(near):
        near = os.path.dirname(near)
    if not os.path.isdir(near):
        what = "it" if near == os.path.abspath(args.out) else near
        raise ConfigError(f"cannot make --out directory {args.out}: {what} is not a directory")
    paths = [os.path.join(args.out, name) for name in ("train.brds", "test.brds")]
    for path in paths:
        if os.path.isdir(path):
            raise ConfigError(f"cannot write {path}: it is a directory")
    xs, ys = datasets.make_synthetic(args.classes, args.samples_per_class,
                                     shape=shape, seed=args.seed)
    (tr_x, tr_y), (te_x, te_y) = datasets.stratified_split(xs, ys, seed=args.seed)
    _io(_makedirs, args.out, "make --out directory")  # once there is data: a failed synth leaves none
    serialize.write_dataset(paths[0], tr_x, tr_y, args.classes)
    serialize.write_dataset(paths[1], te_x, te_y, args.classes)
    print(f"wrote {len(tr_x)} train / {len(te_x)} test samples of shape {shape} to {args.out}")
    return 0


def _io(call, path: str, what: str):
    """call(path); an OSError, such as a missing file, is a ConfigError that
    says what could not be done to path."""
    try:
        return call(path)
    except OSError as e:
        raise ConfigError(f"cannot {what} {path}: {e.strerror}") from None


_makedirs = functools.partial(os.makedirs, exist_ok=True)


def _read_dataset(path: str):
    xs, ys, n_classes = _io(serialize.read_dataset, path, "read dataset")
    if not len(xs):
        raise ConfigError(f"dataset {path} holds no rows")
    return xs, ys, n_classes


def _load_dataset_dir(path: str):
    train = _read_dataset(os.path.join(path, "train.brds"))
    test = _read_dataset(os.path.join(path, "test.brds"))
    if train[2] != test[2]:
        raise ConfigError(f"train/test class counts disagree in {path}")
    return train, test


def _outputs(cfg: dict, tag: str) -> tuple[str, str, str, str]:
    """A variant's checkpoint, replay memory, metrics and timings paths."""
    suffix = f"_{tag}" if tag else ""
    return tuple(os.path.join(cfg["output_dir"], f"{name}{suffix}{ext}") for name, ext in (
        ("checkpoint", ".brck"), ("replay", ".brrm"), ("metrics", ".csv"), ("timings", ".csv")))


def run_training(cfg: dict, tag: str, bitwidth: BitwidthConfig, run) -> str:
    """Write one variant's outputs: run is what learner.deploy_and_run returned."""
    log, g, head, mem = run
    checkpoint, replay_memory, metrics, timings = _outputs(cfg, tag)
    # state first: a run whose weights the checkpoint refuses (NaN or inf)
    # leaves no metrics for report to read
    serialize.write_checkpoint(checkpoint, g, bitwidth, head)
    serialize.write_replay_memory(replay_memory, mem)
    _write_text_atomic(metrics, log.to_csv())
    _write_text_atomic(timings, log.timings_csv())
    print(f"[{tag or 'run'}] final accuracy {log.final_accuracy:.4f} -> {metrics}")
    return metrics


def cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    if args.seed is not None:
        cfg["protocol.seed"] = args.seed
    if args.out is not None:
        cfg["output_dir"] = args.out
    _check_values(cfg)  # the overrides, before anything runs
    # a plain config runs as an untagged sweep of its own dataset
    sweep = cfg.pop("sweep", None)
    (key, values), = (sweep or {"dataset": [cfg["dataset"]]}).items()
    variants = [({**cfg, key: v}, _sweep_tag(key, v) if sweep else "") for v in values]
    # before the first run: every input read, every output path checked, every output directory made
    data = {c["dataset"]: _load_dataset_dir(c["dataset"]) for c, _ in variants}
    for path in (p for c, tag in variants for p in _outputs(c, tag)):
        if os.path.isdir(path):
            raise ConfigError(f"cannot write {path}: it is a directory")
    for out in dict.fromkeys(c["output_dir"] for c, _ in variants):
        _io(_makedirs, out, "make output_dir")
    # consecutive variants that agree on the dataset and learner.PRETRAIN_FIELDS
    # deploy copies of one pretraining
    last = pre = None
    for c, tag in variants:
        (tr_x, tr_y, n_classes), (te_x, te_y, _) = data[c["dataset"]]
        ccfg = continual_config(c)
        started = time.perf_counter()  # row 0 counts the pretraining, if this variant runs it
        pre_key = (c["dataset"], *(getattr(ccfg, f) for f in learner.PRETRAIN_FIELDS))
        if pre_key != last:
            last, pre = pre_key, None  # the previous Pretrained goes before the next is built
            pre = learner.pretrain_first_experience(ccfg, tr_x, tr_y, n_classes)
        run_training(c, tag, ccfg.bitwidth, learner.deploy_and_run(pre, ccfg, te_x, te_y, started))
    return 0


def cmd_eval(args) -> int:
    g, head, bw = _io(serialize.read_checkpoint, args.checkpoint, "read checkpoint")
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
    """Test accuracy, replay bits and forward and backward MACs from the last
    row of a metrics CSV, whose header must be MetricsLog.CSV_COLUMNS."""
    columns = learner.MetricsLog.CSV_COLUMNS
    try:
        with _io(functools.partial(open, encoding="utf-8"), path, "read metrics file") as f:
            header, *rows = [line.strip().split(",") for line in f if line.strip()] or [[]]
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: {e}") from None
    if tuple(header) != columns or not rows or any(len(r) != len(columns) for r in rows):
        raise ConfigError(f"{path}: expected the header {','.join(columns)} "
                          f"and rows of {len(columns)} cells")
    last = dict(zip(columns, rows[-1]))
    try:
        return (float(last["test_accuracy"]), int(last["replay_bits"]),
                int(last["fwd_macs"]), int(last["bwd_macs"]))
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from None


def cmd_report(args) -> int:
    paths = sorted(
        os.path.join(args.metrics_dir, p)
        for p in _io(os.listdir, args.metrics_dir, "read metrics dir")
        if p.startswith("metrics") and p.endswith(".csv")
    )
    if not paths:
        raise ConfigError(f"no metrics CSVs in {args.metrics_dir}")
    finals = [_parse_metrics_csv(p) for p in paths]  # every file, before any output
    lines = ["config,final_accuracy,replay_bits,float32_replay_bits,replay_reduction,mac_ratio"]
    print(f"{'config':<24} {'final_acc':>9} {'replay_bits':>12} {'reduction':>9} {'mac_ratio':>9}")
    for p, (acc, bits, fwd, bwd) in zip(paths, finals):
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
    images = _io(_read_idx, args.images, "read IDX file").astype(np.float64)
    labels = _io(_read_idx, args.labels, "read IDX file").astype(np.int64)
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
        epilog="Config defaults: "
        + json.dumps(_nested({key: default for key, (default, *_) in SETTINGS.items()})),
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
    except ValueError as e:  # ConfigError, FormatError and every other refusal
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # runtime failure
        print(f"runtime error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
