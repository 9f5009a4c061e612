"""Self-test of the benchmark's tracing; run from the root of a source checkout:

    python3 perfbench/selftest.py

Checks, on a small `binreplay train` run in this process:
- a traced run writes the same metrics.csv bytes as an untraced one;
- by-name imports are wrapped too (`learner` calls the wrapped `forward`);
- afterwards every module attribute is the original object again;
- self times sum to the root span;
and that BENCHMARK.json is what spec.py declares. Every `--trace 1` run of
run.py repeats the byte and restore checks on the workload's own commands
and holds each traced child's self times to its wall time
(run.SELF_SUM_TOLERANCE).
Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import spec  # noqa: E402
import tracer  # noqa: E402

SMALL = {
    "model": {"preset": "reference", "channels": 4},
    "bitwidth": {"q_f": "8", "q_b_nonbin": "16", "q_b_bin": "4"},
    "replay": {"quota": 8, "b_n": 4, "b_r": 8},
    "protocol": {"num_experiences": 2, "epochs": 1, "lr": 0.3, "seed": 1,
                 "pretrain_epochs": 1, "pretrain_lr": 0.2, "head_only": False},
}


def _bindings(package) -> dict:
    """Every function-valued attribute of the package's modules and classes."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == package.__name__ or name.startswith(package.__name__ + ".")):
            continue
        for attr, value in vars(mod).items():
            if isinstance(value, types.FunctionType):
                out[(name, attr)] = value
            elif isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    if isinstance(cvalue, types.FunctionType):
                        out[(name, f"{attr}.{cattr}")] = cvalue
    return out


def main() -> int:
    import binreplay
    from binreplay import cli

    for layer in tracer.WRAPPED:
        __import__(f"binreplay.{layer}")
    failures = []

    def check(ok: bool, what: str):
        print(f"{'PASS' if ok else 'FAIL'}  {what}")
        if not ok:
            failures.append(what)

    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(committed == spec.benchmark_json(), "BENCHMARK.json matches perfbench/spec.py")

    work = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        data = work / "data"
        check(cli.main(["synth", "--out", str(data), "--classes", "4",
                        "--samples-per-class", "20", "--seed", "3"]) == 0, "synth exits 0")
        outputs = {}
        before = _bindings(binreplay)
        for traced in (False, True):
            out = work / ("traced" if traced else "plain")
            cfg = work / f"{out.name}.json"
            cfg.write_text(json.dumps({**SMALL, "dataset": str(data), "output_dir": str(out)}))
            t = tracer.Tracer()
            root = t.open(tracer.ROOT)
            if traced:
                t.install(binreplay)
                check(cli.learner.forward is not before[("binreplay.graph", "forward")],
                      "learner's by-name import of graph.forward is wrapped")
            try:
                code = cli.main(["train", "--config", str(cfg)])
            finally:
                restored = t.restore()
            t.close(root)
            check(code == 0, f"{out.name} train exits 0")
            outputs[traced] = (out / "metrics.csv").read_bytes()
        check(outputs[False] == outputs[True], "traced metrics.csv is byte-identical to untraced")
        check(restored, "tracer reports every patch restored")
        after = _bindings(binreplay)
        changed = sorted(k for k in before if after.get(k) is not before[k])
        check(not changed, f"original functions restored ({len(before)} bindings; changed: {changed[:5]})")

        doc = json.loads(json.dumps({"names": t.names, "spans": t.spans,
                                     "counts": {k: dict(v) for k, v in t.counts.items()}}))
        names = doc["names"]
        parents = {names[doc["spans"][p][0]] for n, _, _, p in doc["spans"]
                   if names[n] == "graph.forward" and p >= 0}
        check("learner.run_experience" in parents, "graph.forward spans nest under learner spans")
        self_sum = sum(tracer.self_times(doc))
        root_s = (t.spans[0][2] - t.spans[0][1]) / 1e9
        check(abs(self_sum - root_s) < 1e-6, f"self times sum to the root span ({self_sum:.4f} s)")
        agg = tracer.aggregate([doc])
        not_in_train = ("serialize.read_checkpoint", "learner.per_class_accuracy",
                        "datasets.make_synthetic")
        missing = [f"{span}.{key}" for span, key, *_ in spec.SPAN_METRICS
                   if span not in not_in_train and agg.get(span, {}).get(key, 0) <= 0]
        check(not missing, f"every train-side span metric is measured (missing: {missing})")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest:", "FAILED " + "; ".join(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
