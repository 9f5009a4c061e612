"""Span tracing for one `binreplay` CLI process, from outside the program.

Run as a child process in place of `python3 -m binreplay.cli`:

    python3 perfbench/tracer.py SPANS_JSON -- <binreplay CLI arguments>

It wraps the public functions listed in WRAPPED, in their defining module
and at every by-name import of them inside the package (`graph` binds
`quantize`, `dequantize` and `qmatmul`; `learner` binds `forward`,
`backward`, `sgd_step`, ...), runs `binreplay.cli.main`, restores the
originals, and writes the spans it kept in memory to SPANS_JSON.

A span is (name, start, end, parent); times are CLOCK_MONOTONIC nanoseconds,
which the parent process shares. The root span `cli.process` starts before
the package is imported, so its self time is start-up plus CLI glue.

The benchmark process imports this module for `aggregate` and `self_times`,
which turn span files into self times; importing it wraps nothing.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict


def _now() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


# Public functions per layer. Plumbing that only runs inside one of these
# (bitpack.pack / from01 / popcount, the private im2col helpers, the
# activation snap) is left unwrapped, so its time stays in the caller's
# self time: `bitpack.bin_conv2d.s` is the whole XNOR kernel.
WRAPPED = {
    "datasets": ("make_synthetic", "stratified_split"),
    "serialize": ("read_dataset", "write_dataset", "read_checkpoint", "write_checkpoint",
                  "read_replay_memory", "write_replay_memory"),
    "learner": ("run_protocol", "build_reference_model", "build_nc_experiences",
                "initialize_bn_stats", "calibrate_activations", "freeze_backbone",
                "frozen_region_hash", "pretrain_first_experience", "run_experience",
                "evaluate", "per_class_accuracy"),
    "graph": ("forward", "backward", "sgd_step", "fake_quant", "snap_to_fixed_grid",
              "softmax_ce", "infer_shapes", "mac_count"),
    "quant": ("quantize", "dequantize", "qmatmul", "requantize", "calibrate_range",
              "quant_params"),
    "bitpack": ("bin_conv2d", "bin_matmul", "binarize", "BitTensor.unpack"),
    "replay": ("update_after_experience", "sample_minibatch", "memory_footprint_bits"),
    "cwr": ("init", "begin_experience", "record_training", "consolidate", "predict",
            "train_logits", "apply_head_gradient"),
}
ROOT = "cli.process"


def _conv_macs(x, w, spec) -> int:
    n, h, wd, _ = x.shape
    oh, ow = spec.out_hw(h, wd)
    return n * oh * ow * spec.kernel_h * spec.kernel_w * spec.in_channels * spec.out_channels


# Work counted at the same boundary as the span: name -> (counter, function
# of (args, result)). Counters are summed over calls, except payload_bits,
# which keeps the largest value seen.
COUNTERS = {
    "bitpack.bin_conv2d": ("macs", lambda a, r: _conv_macs(*a[:3])),
    "graph.forward": ("rows", lambda a, r: int(a[1].shape[0])),
    "graph.fake_quant": ("elements", lambda a, r: int(a[0].size)),
    "quant.quantize": ("elements", lambda a, r: int(a[0].size)),
    "replay.sample_minibatch": ("samples", lambda a, r: len(r)),
    "replay.update_after_experience": ("samples", lambda a, r: len(a[1])),
    "replay.memory_footprint_bits": ("payload_bits", lambda a, r: int(r.payload_bits)),
    "serialize.write_checkpoint": ("bytes", lambda a, r: os.path.getsize(a[0])),
    "serialize.write_replay_memory": ("bytes", lambda a, r: os.path.getsize(a[0])),
}


class Tracer:
    """Holds the spans of one process and the patches that produce them."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.spans: list[list[int]] = []  # [name_id, start, end, parent]
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.stack: list[int] = []
        self.patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def open(self, name: str, start: int | None = None) -> int:
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append([self._name_id(name), _now() if start is None else start, 0, parent])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = _now()
        self.stack.pop()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        name_id = self._name_id(name)
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name_id, 0, 0, stack[-1] if stack else -1])
            stack.append(idx)
            spans[idx][1] = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = _now()
                stack.pop()
            counts[name]["calls"] += 1
            if counter is not None:
                key, measure = counter
                value = measure(args, result)
                if key == "payload_bits":
                    counts[name][key] = max(counts[name][key], value)
                else:
                    counts[name][key] += value
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every WRAPPED function, and every binding of it in the package."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package.__name__ or n.startswith(package.__name__ + "."))]
        for layer, funcs in WRAPPED.items():
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for qual in funcs:
                owner, attr = mod, qual
                if "." in qual:
                    cls, attr = qual.split(".")
                    owner = getattr(mod, cls)
                original = owner.__dict__[attr]
                wrapper = self.wrap(f"{layer}.{qual}", original)
                self._patch(owner, attr, original, wrapper)
                if owner is mod:
                    for other in modules:
                        if other is not mod and other.__dict__.get(attr) is original:
                            self._patch(other, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self.patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> bool:
        """Put every original back; True when no wrapper is left anywhere."""
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        return all(owner.__dict__.get(attr) is original for owner, attr, original in self.patches)

    def dump(self, path: str, **extra) -> None:
        doc = {"names": self.names, "spans": self.spans,
               "counts": {k: dict(v) for k, v in self.counts.items()}, **extra}
        with open(path, "w") as f:
            json.dump(doc, f, separators=(",", ":"))


def self_times(doc) -> list[float]:
    """Per span: its duration minus the durations of its direct children, in s."""
    spans = doc["spans"]
    child_ns = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    return [(end - start - child_ns[i]) / 1e9 for i, (_, start, end, _) in enumerate(spans)]


def aggregate(docs) -> dict:
    """Sum self time, inclusive time and counters by span name over span files.

    Returns {name: {"s": self, "total_s": inclusive, "calls": n, <counters>}}.
    """
    out: dict = defaultdict(lambda: defaultdict(float))
    for doc in docs:
        names = doc["names"]
        for (name_id, start, end, _), self_s in zip(doc["spans"], self_times(doc)):
            rec = out[names[name_id]]
            rec["s"] += self_s
            rec["total_s"] += (end - start) / 1e9
        for name, counts in doc["counts"].items():
            for key, value in counts.items():
                if key == "payload_bits":
                    out[name][key] = max(out[name][key], value)
                else:
                    out[name][key] += value
    return {k: dict(v) for k, v in out.items()}


def main(argv) -> int:
    start = _now()
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- <binreplay CLI arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    root = tracer.open(ROOT, start=start)
    import binreplay
    from binreplay import cli

    for layer in WRAPPED:
        __import__(f"binreplay.{layer}")
    tracer.install(binreplay)
    try:
        code = cli.main(cli_args)
    finally:
        restored = tracer.restore()
    tracer.close(root)
    tracer.dump(spans_path, exit_code=code, restored=restored,
                patched=len(tracer.patches))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
