"""Every committed BENCH_*.json record can be read as a before/after claim:
it names its environment with every thread variable pinned to 1, both sides
wrote the same metrics.csv and failed no run, and each end-to-end metric of
BENCHMARK.json has a parent and a change median."""

import ast
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
END_TO_END = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def _thread_vars():
    """The thread variables the benchmark pins, read from perfbench/run.py
    without running it."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    (value,) = [n.value for n in tree.body if isinstance(n, ast.Assign)
                and any(getattr(t, "id", None) == "THREAD_VARS" for t in n.targets)]
    return ast.literal_eval(value)


def test_the_named_records_are_committed():
    assert {"BENCH_13.json", "BENCH_18.json", "BENCH_20.json", "BENCH_21.json", "BENCH_23.json", "BENCH_24.json",
            "BENCH_25.json", "BENCH_27.json", "BENCH_28.json", "BENCH_29.json", "BENCH_30.json"} <= {p.name for p in RECORDS}


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_holds_a_pinned_environment_and_a_median_per_side(path):
    record = json.loads(path.read_text())
    env = record["env"]
    assert all(env.get(k) for k in ("python", "numpy", "blas")), env
    threads = _thread_vars()
    assert len(threads) == 6 and {k: env["threads"].get(k) for k in threads} == {k: "1" for k in threads}
    assert record["workloads"]
    for name, w in record["workloads"].items():
        sha = w["metrics_sha256"]
        assert len(sha["parent"]) == 1 and sha["parent"] == sha["change"], name
        assert w["failed"] == {"parent": 0, "change": 0}, name
        for metric in END_TO_END:
            for side in ("parent", "change"):
                median = w["metrics"][metric][side]["median"]
                assert isinstance(median, (int, float)) and math.isfinite(median), (name, metric, side)
