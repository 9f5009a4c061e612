"""Time and size the reference deployment step of two source trees.

Usage: python3 tools/step80.py OLD_SRC NEW_SRC [--pairs N] [--steps N]

OLD_SRC and NEW_SRC are `src` directories, each holding the binreplay
package. The step is one training step of the reference model above the
replay level: 80 packed replay-level rows of shape 12x12x32 (seed 0), its
train-mode forward from the replay level and its `graph.backward`, with no
parameter update, at each bitwidth of the bytes gate (tools/bytes_gate.py).
Each pair runs one child per tree, alternating which tree goes first, with
every BLAS and thread variable pinned to 1. A child times --steps steps per
width and reports the median forward and backward ms, the tracemalloc
peak of one more backward, and the median ms of --steps infer forwards of
one 256-row eval batch (`learner.EVAL_BATCH`) from the input, as `eval`
runs it, and the tracemalloc peak of one more. It also times the binary
conv's two kernels, `bitpack.conv_rows` and the XNOR GEMM
`bitpack._xnor_gemm` (3x3, padding 1, 32 -> 32 channels), on the step's
80 rows and on one 256-row eval batch of 12x12x32 packed rows: the median
ms of --steps calls each. Two lines per
width, the step's and the eval forward's, and one per kernel batch give the
median over the children of each tree; the last line is all of it as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from bytes_gate import CONFIGS  # run as a script, this file's directory is on the path

# name -> (q_f, q_b_nonbin, q_b_bin): the bitwidths of the bytes gate's configs
# of 32 channels, with no head-only run and no sweep, in their order
WIDTHS = {name: tuple(None if bits == "float" else int(bits) for bits in row[:3])
          for name, row in CONFIGS.items() if row[3:] == (False, 32, None)}
KERNEL_ROWS = (80, 256)  # the step's rows, and one batch of learner.EVAL_BATCH rows
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "BINREPLAY_THREADS")


def kernels(steps: int) -> dict:
    """{rows: {conv_rows_ms, gemm_ms}} of the binreplay package on the path: the median of steps calls each."""
    import time

    import numpy as np

    from binreplay import bitpack

    rng = np.random.default_rng(0)
    spec = bitpack.BinConvSpec(3, 3, 1, 1, 32, 32)
    # the weights as packed rows, one per output channel: the patches of 32 random 3x3x32 images
    weights = bitpack.conv_rows(bitpack.from01(rng.integers(0, 2, size=(32, 3, 3, 32))),
                                bitpack.BinConvSpec(3, 3, 1, 0, 32, 32))
    k = 3 * 3 * 32

    def median_ms(fn):
        times = []
        for _ in range(steps + 1):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return 1e3 * statistics.median(times[1:])

    out = {}
    for n in KERNEL_ROWS:
        x = bitpack.from01(rng.integers(0, 2, size=(n, 12, 12, 32)))
        rows = bitpack.conv_rows(x, spec)
        out[str(n)] = {"conv_rows_ms": median_ms(lambda: bitpack.conv_rows(x, spec)),
                       "gemm_ms": median_ms(lambda: bitpack._xnor_gemm(rows, weights, k))}
    return out


def child(steps: int) -> dict:
    """{width: {forward_ms, backward_ms, peak_bytes, eval_forward_ms, eval_peak_bytes}} of the binreplay package on
    the path, and its kernels."""
    import time
    import tracemalloc

    import numpy as np

    from binreplay import bitpack
    from binreplay.graph import BitwidthConfig, backward, forward
    from binreplay.learner import (ContinualConfig, build_reference_model, calibrate_activations,
                                   freeze_backbone, initialize_bn_stats)

    out = {"kernels": kernels(steps)}
    for name, bits in WIDTHS.items():
        bw = BitwidthConfig(*bits)
        rng = np.random.default_rng(0)
        cfg = ContinualConfig(bitwidth=bw)
        g = build_reference_model((12, 12, 1), channels=32, seed=0)
        xs = rng.uniform(-1.0, 1.0, size=(64, 12, 12, 1))
        initialize_bn_stats(g, xs)
        calibrate_activations(g, xs, bw.q_f)
        freeze_backbone(g, cfg)
        batch = np.random.default_rng(0).uniform(-1.0, 1.0, size=(KERNEL_ROWS[1], 12, 12, 1))  # its own draws
        evals = []
        for _ in range(steps + 1):
            t0 = time.perf_counter()
            forward(g, batch, bw, mode="infer")
            evals.append(time.perf_counter() - t0)
        tracemalloc.start()
        try:
            forward(g, batch, bw, mode="infer")
            eval_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        latents = bitpack.from01(rng.integers(0, 2, size=(cfg.b_n + cfg.b_r, 12, 12, 32)))
        direction = None
        fwd, bwd = [], []
        for _ in range(steps + 1):
            t0 = time.perf_counter()
            y, cache = forward(g, latents, bw, mode="train", from_level=g.replay_level)
            t1 = time.perf_counter()
            if direction is None:
                direction = rng.normal(size=y.shape)
            backward(g, cache, direction, bw, from_level=g.replay_level)
            t2 = time.perf_counter()
            fwd.append(t1 - t0)
            bwd.append(t2 - t1)
        tracemalloc.start()
        try:
            backward(g, cache, direction, bw, from_level=g.replay_level)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out[name] = {"forward_ms": 1e3 * statistics.median(fwd[1:]),
                     "backward_ms": 1e3 * statistics.median(bwd[1:]), "peak_bytes": peak,
                     "eval_forward_ms": 1e3 * statistics.median(evals[1:]), "eval_peak_bytes": eval_peak}
    return out


def run_child(src: str, steps: int) -> dict:
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src), **dict.fromkeys(THREAD_VARS, "1")}
    p = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", "--steps", str(steps)],
                       env=env, capture_output=True, text=True)
    if p.returncode:
        sys.exit(f"step child from {src} exited {p.returncode}:\n{p.stderr}")
    return json.loads(p.stdout)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", metavar="SRC")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--steps", type=int, default=30)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.steps)))
        return 0
    if len(args.trees) != 2 or args.pairs < 1 or args.steps < 1:
        parser.error("give OLD_SRC and NEW_SRC, and --pairs and --steps of at least 1")
    runs: dict[str, list] = {"old": [], "new": []}
    for i in range(args.pairs):
        for side in ("old", "new") if i % 2 == 0 else ("new", "old"):
            runs[side].append(run_child(args.trees[side == "new"], args.steps))
    def medians(pick) -> dict:  # per side, the median over its children of each value pick reads
        row = {side: {key: statistics.median(pick(r)[key] for r in rs) for key in pick(rs[0])}
               for side, rs in runs.items()}
        return {**row, "runs": {side: [pick(r) for r in rs] for side, rs in runs.items()}}

    result = {name: medians(lambda r: r[name]) for name in WIDTHS}
    for name, row in result.items():
        old, new = row["old"], row["new"]
        print(f"{name:<9} forward {old['forward_ms']:6.2f} -> {new['forward_ms']:6.2f} ms   "
              f"backward {old['backward_ms']:6.2f} -> {new['backward_ms']:6.2f} ms   "
              f"peak {old['peak_bytes'] / 1e6:5.2f} -> {new['peak_bytes'] / 1e6:5.2f} MB", flush=True)
        print(f"{name:<9} eval forward of {KERNEL_ROWS[1]} rows: {old['eval_forward_ms']:6.2f} -> "
              f"{new['eval_forward_ms']:6.2f} ms   peak {old['eval_peak_bytes'] / 1e6:5.2f} -> "
              f"{new['eval_peak_bytes'] / 1e6:5.2f} MB", flush=True)
    batches = {n: medians(lambda r: r["kernels"][n]) for n in map(str, KERNEL_ROWS)}
    for n, row in batches.items():
        old, new = row["old"], row["new"]
        print(f"{n:>3} rows  conv_rows {old['conv_rows_ms']:6.2f} -> {new['conv_rows_ms']:6.2f} ms "
              f"({old['conv_rows_ms'] / new['conv_rows_ms']:.2f}x)   "
              f"gemm {old['gemm_ms']:6.2f} -> {new['gemm_ms']:6.2f} ms ({old['gemm_ms'] / new['gemm_ms']:.2f}x)",
              flush=True)
    print(json.dumps({"pairs": args.pairs, "steps": args.steps, "widths": result, "kernels": batches}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
