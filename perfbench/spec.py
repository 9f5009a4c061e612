"""Metric and workload declarations; BENCHMARK.json is generated from them.

    python3 perfbench/spec.py > BENCHMARK.json

`python3 perfbench/selftest.py` fails if the committed file differs.
"""

from __future__ import annotations

import json
import sys

RUN_SECONDS = 40

WORKLOAD_WHY = {
    "nc-protocol": "paper protocol: backward and the block3 XNOR conv dominate, replay is small",
    "eval-stream": "inference only: XNOR convs, activation snapping and the per-class second pass",
}

# name, unit, better, bound (share of the parent's median it may worsen by).
# Times get the largest bound allowed: on a shared 2-core VM, identical runs
# drift by up to about 20% within minutes (see README.md, "Noise").
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("experience_s", "s", "lower", 0.25),
    ("pretrain_s", "s", "lower", 0.25),
    ("train_rows_per_s", "1/s", "higher", 0.25),
    ("eval_rows_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("replay_bits", "bit", "lower", 0.05),
    ("state_bytes", "B", "lower", 0.05),
)

# (span, key, unit, better): the metric "<span>.<key>", a traced counter or time.
# "s" is self time, "total_s" inclusive time.
SPAN_METRICS = (
    ("bitpack.bin_conv2d", "s", "s", "lower"),
    ("bitpack.bin_conv2d", "calls", "count", "lower"),
    ("bitpack.bin_conv2d", "macs", "count", "lower"),
    ("bitpack.binarize", "s", "s", "lower"),
    ("bitpack.binarize", "calls", "count", "lower"),
    ("bitpack.BitTensor.unpack", "s", "s", "lower"),
    ("bitpack.BitTensor.unpack", "calls", "count", "lower"),
    ("graph.forward", "s", "s", "lower"),
    ("graph.forward", "calls", "count", "lower"),
    ("graph.forward", "rows", "count", "lower"),
    ("graph.backward", "s", "s", "lower"),
    ("graph.backward", "calls", "count", "lower"),
    ("graph.sgd_step", "s", "s", "lower"),
    ("graph.fake_quant", "s", "s", "lower"),
    ("graph.fake_quant", "elements", "count", "lower"),
    ("quant.quantize", "s", "s", "lower"),
    ("quant.quantize", "elements", "count", "lower"),
    ("quant.dequantize", "s", "s", "lower"),
    ("quant.qmatmul", "s", "s", "lower"),
    ("quant.qmatmul", "calls", "count", "lower"),
    ("quant.calibrate_range", "s", "s", "lower"),
    ("replay.sample_minibatch", "s", "s", "lower"),
    ("replay.sample_minibatch", "samples", "count", "lower"),
    ("replay.update_after_experience", "s", "s", "lower"),
    ("replay.update_after_experience", "samples", "count", "lower"),
    ("cwr.train_logits", "s", "s", "lower"),
    ("cwr.apply_head_gradient", "s", "s", "lower"),
    ("cwr.consolidate", "s", "s", "lower"),
    ("cwr.predict", "s", "s", "lower"),
    ("serialize.read_dataset", "s", "s", "lower"),
    ("serialize.read_checkpoint", "s", "s", "lower"),
    ("serialize.write_checkpoint", "s", "s", "lower"),
    ("serialize.write_checkpoint", "bytes", "B", "lower"),
    ("serialize.write_replay_memory", "s", "s", "lower"),
    ("serialize.write_replay_memory", "bytes", "B", "lower"),
    ("learner.pretrain_first_experience", "s", "s", "lower"),
    ("learner.pretrain_first_experience", "total_s", "s", "lower"),
    ("learner.run_experience", "s", "s", "lower"),
    ("learner.run_experience", "total_s", "s", "lower"),
    ("learner.evaluate", "s", "s", "lower"),
    ("learner.evaluate", "total_s", "s", "lower"),
    ("learner.per_class_accuracy", "s", "s", "lower"),
    ("learner.per_class_accuracy", "total_s", "s", "lower"),
    ("datasets.make_synthetic", "s", "s", "lower"),
)

# Metrics derived from several spans; computed in run.py.
DERIVED_METRICS = (
    ("bitpack.bin_conv2d.gmacs_per_s", "GMAC/s", "higher"),
    ("graph.forward.rows_per_output_row", "ratio", "lower"),
    ("replay.payload_bits", "bit", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

LAYERS = ("cli", "learner", "graph", "bitpack", "quant", "replay", "cwr", "serialize", "datasets")


def per_layer() -> list[tuple[str, str, str]]:
    out = [(f"{span}.{key}", unit, better) for span, key, unit, better in SPAN_METRICS]
    out += list(DERIVED_METRICS)
    out += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    return out


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOAD_WHY.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer()],
    }


if __name__ == "__main__":
    json.dump(benchmark_json(), sys.stdout, indent=2)
    sys.stdout.write("\n")
