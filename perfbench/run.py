"""binreplay benchmark: drives the `binreplay` CLI on the workloads in workloads.py.

    python3 perfbench/run.py --workload nc-protocol --seed 7 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

Run it from the root of a source checkout; children import `binreplay` from
`src/`. One child process runs at a time, with BLAS/OpenMP threads pinned to 1.

--trace 0 alternates three set-up rounds (set-up time is the median over
their set-ups) with repeats of the workload's command, for about --seconds
of repeats in all, and prints the end-to-end metrics (medians over the
repeats). --trace 1 sets up once
plainly and once traced, repeats the command plainly for --seconds, runs it
once more traced (perfbench/tracer.py), and prints the per-layer metrics of
the traced set-up and command. Every repeat is checked; a failed check counts
the repeat as failed. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A record with the environment, per-repeat figures and the metrics.csv
SHA-256 goes to .perfbench_results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
import tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Workload, expected_metrics_columns, replayed_train_rows  # noqa: E402

ROOT = HERE.parent
THREAD_VARS = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1", "BINREPLAY_THREADS": "1",
}
# setup_s is the median of the set-ups made in this many rounds, spread over
# the run because the host's speed drifts within minutes. A round repeats the
# set-up until it has taken this long: a plain synth lasts a fraction of a second.
SETUP_ROUNDS, SETUP_ROUND_SECONDS = 3, 1.0
CHILD_TIMEOUT_S = 170.0
# A traced child's self times must sum to its wall time as the parent sees
# it, within this share plus this slack (interpreter start before the
# tracer's first statement, writing the spans, and interpreter exit).
SELF_SUM_TOLERANCE = (0.05, 0.5)


class SetupError(RuntimeError):
    pass


def _now() -> float:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC) / 1e9


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Child:
    args: list[str]
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    output: str
    spans: dict | None = None


class Runner:
    """Runs `binreplay` CLI commands as child processes inside one work dir."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, **THREAD_VARS)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.n = 0

    def cli(self, args: list[str], traced: bool = False) -> Child:
        self.n += 1
        log = self.work / f"child{self.n}.log"
        spans_path = self.work / f"child{self.n}.spans.json"
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans_path), "--", *args]
        else:
            argv = [sys.executable, "-m", "binreplay.cli", *args]
        t0 = _now()
        with open(log, "wb") as out:
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=out,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
        wall = _now() - t0
        child = Child(args, proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0, log.read_text(errors="replace"))
        if traced and spans_path.exists():
            child.spans = json.loads(spans_path.read_text())
        return child


# ---------------------------------------------------------------------------
# one workload run


def _csv_rows(path: Path) -> list[dict[str, str]]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:] if line]


def _eval_output(out: str) -> tuple[str | None, dict[int, float]]:
    acc, classes = None, {}
    for line in out.splitlines():
        if line.startswith("accuracy "):
            acc = line.split()[1]
        elif line.startswith("class "):
            cls, value = line[len("class "):].split(":")
            classes[int(cls)] = float(value)
    return acc, classes


def _check_eval(child: Child, n_classes: int, want_acc: str | None) -> list[str]:
    """Exit code, accuracy equal to want_acc, one line per class, and the
    per-class lines (4 decimals, equal class sizes) averaging to the total."""
    if child.code != 0:
        return [f"eval exited {child.code}: {child.output.strip()[-300:]}"]
    acc, classes = _eval_output(child.output)
    errors = []
    if acc is None:
        errors.append("eval printed no accuracy")
    elif want_acc is not None and acc != want_acc:
        errors.append(f"eval accuracy {acc} != {want_acc}")
    if sorted(classes) != list(range(n_classes)):
        errors.append(f"eval class lines {sorted(classes)} != 0..{n_classes - 1}")
    elif acc is not None and abs(float(acc) - statistics.fmean(classes.values())) > 1e-4:
        errors.append(f"per-class accuracies do not average to {acc}")
    return errors


@dataclass
class TrainOutcome:
    metrics_csv: bytes
    rows: list[dict[str, str]]
    experience_s: list[float]
    pretrain_s: float
    rows_per_s: float
    state_bytes: int
    errors: list[str] = field(default_factory=list)


def _read_train(w: Workload, child: Child, out: Path) -> TrainOutcome | None:
    if child.code != 0:
        return None
    metrics = (out / "metrics.csv").read_bytes()
    rows = _csv_rows(out / "metrics.csv")
    ms = [float(r["elapsed_ms"]) for r in _csv_rows(out / "timings.csv")]
    errors = []
    for col, want in expected_metrics_columns(w).items():
        got = [int(r[col]) for r in rows]
        if got != want:
            errors.append(f"metrics.csv {col} {got} != expected {want}")
    return TrainOutcome(
        metrics_csv=metrics, rows=rows, experience_s=[m / 1000 for m in ms[1:]],
        pretrain_s=ms[0] / 1000, rows_per_s=replayed_train_rows(w) / (sum(ms[1:]) / 1000),
        state_bytes=(out / "checkpoint.brck").stat().st_size + (out / "replay.brrm").stat().st_size,
        errors=errors)


def _write_config(w: Workload, path: Path, dataset: Path, out: Path) -> None:
    path.write_text(json.dumps({**w.train, "dataset": str(dataset), "output_dir": str(out)}))


@dataclass
class Setup:
    seconds: float
    data: Path
    stream: Path | None = None
    checkpoint: Path | None = None
    train: TrainOutcome | None = None
    children: list[Child] = field(default_factory=list)


def set_up(w: Workload, seed: int, runner: Runner, tag: str, traced: bool = False) -> Setup:
    """Synthesize the data; on eval-stream also the stream and the checkpoint."""
    base = runner.work / tag
    children = []
    t0 = _now()
    children.append(runner.cli(w.data.synth_args(str(base / "data"), seed), traced))
    if w.is_eval:
        children.append(runner.cli(w.stream.synth_args(str(base / "stream"), seed), traced))
        _write_config(w, base / "ckpt.json", base / "data", base / "state")
        children.append(runner.cli(["train", "--config", str(base / "ckpt.json")], traced))
    seconds = _now() - t0
    for c in children:
        if c.code != 0:
            raise SetupError(f"set-up command {' '.join(c.args)} exited {c.code}: {c.output[-300:]}")
    s = Setup(seconds, base / "data", children=children)
    if w.is_eval:
        s.stream = base / "stream" / "train.brds"
        s.checkpoint = base / "state" / "checkpoint.brck"
        s.train = _read_train(w, children[-1], base / "state")
        if s.train.errors:
            raise SetupError("; ".join(s.train.errors))
    return s


@dataclass
class Rep:
    child: Child  # the workload's timed command
    eval_rows_per_s: float
    accuracy: str | None  # printed by the timed eval; equal on every repeat
    train: TrainOutcome | None
    errors: list[str]
    evals: list[Child] = field(default_factory=list)  # eval children after a train


def _eval(runner: Runner, checkpoint: Path, dataset: Path, traced: bool) -> Child:
    return runner.cli(["eval", "--checkpoint", str(checkpoint), "--dataset", str(dataset)], traced)


def run_rep(w: Workload, s: Setup, runner: Runner, i: int, traced: bool = False) -> Rep:
    """One repeat. eval-stream: `eval` of the stream. Train workloads: `train`,
    then `eval` of its checkpoint on the test split (must print the last
    test_accuracy of metrics.csv), then a timed `eval` on the train split."""
    if w.is_eval:
        child = _eval(runner, s.checkpoint, s.stream, traced)
        errors = _check_eval(child, w.stream.classes, None)
        acc, _ = _eval_output(child.output)
        return Rep(child, w.stream.train_rows / child.wall_s, acc, None, errors)
    out = runner.work / f"rep{i}{'-traced' if traced else ''}"
    _write_config(w, runner.work / f"rep{i}.json", s.data, out)
    child = runner.cli(["train", "--config", str(runner.work / f"rep{i}.json")], traced)
    train = _read_train(w, child, out)
    if train is None:
        return Rep(child, 0.0, None, None, [f"train exited {child.code}: {child.output.strip()[-300:]}"])
    test = _eval(runner, out / "checkpoint.brck", s.data / "test.brds", traced)
    timed = _eval(runner, out / "checkpoint.brck", s.data / "train.brds", traced)
    errors = (train.errors + _check_eval(test, w.data.classes, train.rows[-1]["test_accuracy"])
              + _check_eval(timed, w.data.classes, None))
    acc, _ = _eval_output(timed.output)
    return Rep(child, w.data.train_rows / timed.wall_s, acc, train, errors, [test, timed])


def measure(w: Workload, seed: int, runner: Runner, seconds: float, deadline: float,
            rounds: int) -> tuple[list[Setup], list[Rep]]:
    """Set up in `rounds` rounds, each followed by its share of `seconds` of
    repeats. A repeat starts if it is expected to end by half a repeat after
    its round's share, and before `deadline`; the first always starts."""
    setups, reps, busy = [], [], 0.0
    for k in range(1, rounds + 1):
        t0 = _now()
        while _now() - t0 < SETUP_ROUND_SECONDS:  # true at first: one or more
            setups.append(set_up(w, seed, runner, f"setup{len(setups)}"))
        while not reps or busy + busy / len(reps) / 2 <= seconds * k / rounds:
            if reps and _now() + busy / len(reps) > deadline:
                break
            t0 = _now()
            reps.append(run_rep(w, setups[0], runner, len(reps)))
            busy += _now() - t0
    return setups, reps


def check_same(reps: list[Rep]) -> None:
    """Determinism: every repeat's metrics.csv (or eval accuracy) equals the first's."""
    first = reps[0]
    for r in reps[1:]:
        if first.train and r.train and r.train.metrics_csv != first.train.metrics_csv:
            r.errors.append("metrics.csv differs from the first run of this workload")
        if r.accuracy != first.accuracy:
            r.errors.append(f"accuracy {r.accuracy} differs from the first run's {first.accuracy}")


# ---------------------------------------------------------------------------
# metrics


def samples(w: Workload, setups: list[Setup], reps: list[Rep]) -> dict[str, list[float]]:
    """Every measured figure of the run, per end-to-end metric. On eval-stream
    the train metrics come from the checkpoint builds in set-up; on train
    workloads eval_rows_per_s comes from the timed `eval` of each repeat's
    checkpoint on the train split."""
    trains = [s.train for s in setups] if w.is_eval else [r.train for r in reps if r.train]
    ok = [r for r in reps if r.train or w.is_eval]
    if not trains or not ok:
        return {}
    last = trains[0].rows[-1]
    return {
        "setup_s": [s.seconds for s in setups],
        "wall_s": [r.child.wall_s for r in ok],
        "cpu_s": [r.child.cpu_s for r in ok],
        "experience_s": [x for t in trains for x in t.experience_s],
        "pretrain_s": [t.pretrain_s for t in trains],
        "train_rows_per_s": [t.rows_per_s for t in trains],
        "eval_rows_per_s": [r.eval_rows_per_s for r in ok],
        "peak_rss_mb": [r.child.rss_mb for r in ok],
        "replay_bits": [float(last["replay_bits"])],
        "state_bytes": [float(trains[0].state_bytes)],
    }


def end_to_end(figures: dict[str, list[float]]) -> dict[str, float]:
    return {name: statistics.median(values) for name, values in figures.items()}


def layer_metrics(docs: list[dict], eval_docs: list[dict], rows_classified: int,
                  overhead_s: float) -> dict[str, float]:
    """Per-layer metrics over the span files of a traced set-up and repeat.
    rows_per_output_row counts only the forward rows of the eval commands."""
    agg = tracer.aggregate(docs)
    out = {}
    for span, key, _, _ in spec.SPAN_METRICS:
        out[f"{span}.{key}"] = float(agg.get(span, {}).get(key, 0.0))
    conv = agg.get("bitpack.bin_conv2d", {})
    out["bitpack.bin_conv2d.gmacs_per_s"] = conv.get("macs", 0) / conv["total_s"] / 1e9 if conv else 0.0
    eval_rows = tracer.aggregate(eval_docs).get("graph.forward", {}).get("rows", 0)
    out["graph.forward.rows_per_output_row"] = eval_rows / rows_classified
    out["replay.payload_bits"] = float(agg.get("replay.memory_footprint_bits", {}).get("payload_bits", 0))
    out["trace.overhead_s"] = overhead_s
    for layer, share in module_self(agg).items():
        out[f"{layer}.self_s"] = share
    return out


def module_self(agg: dict) -> dict[str, float]:
    """Self time summed per layer (the first component of the span name)."""
    out = dict.fromkeys(spec.LAYERS, 0.0)
    for name, rec in agg.items():
        out[name.split(".")[0]] += rec["s"]
    return out


def check_trace(children: list[Child]) -> list[str]:
    """Trace self-test: wrappers were installed and restored, and the self
    times of each traced child sum to its wall time within tolerance."""
    errors = []
    share, slack = SELF_SUM_TOLERANCE
    for c in children:
        if c.spans is None:
            errors.append(f"traced {c.args[0]} wrote no spans (exit {c.code})")
            continue
        if not c.spans["restored"] or c.spans["patched"] == 0:
            errors.append(f"traced {c.args[0]}: wrappers not restored ({c.spans['patched']} patched)")
        self_sum = sum(tracer.self_times(c.spans))
        if abs(c.wall_s - self_sum) > share * c.wall_s + slack:
            errors.append(f"traced {c.args[0]}: self times sum to {self_sum:.3f} s, wall {c.wall_s:.3f} s")
    return errors


# ---------------------------------------------------------------------------
# environment and output


def environment() -> dict:
    import platform

    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None)
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():  # a plain source tree has no SHA; src_sha256 names the code
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        src.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": THREAD_VARS, "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": cpu, "git_sha": sha, "src_sha256": src.hexdigest(),
    }


def traced_run(w: Workload, seed: int, runner: Runner, setup: Setup, reps: list[Rep],
               record: dict) -> dict[str, float]:
    """Set up and repeat once more with every child traced; check the traced
    outputs against the plain ones and the spans against the wall times."""
    traced_setup = set_up(w, seed, runner, "setup-traced", traced=True)
    traced = run_rep(w, setup, runner, 0, traced=True)
    reps.append(traced)
    check_same(reps)
    run_children = [traced.child] + traced.evals
    children = traced_setup.children + run_children
    traced.errors += check_trace(children)
    record["trace_self_check"] = [
        [c.args[0], c.wall_s, sum(tracer.self_times(c.spans)) if c.spans else None] for c in children]
    pairs = [(setup.data / "train.brds", traced_setup.data / "train.brds"),
             (setup.data / "test.brds", traced_setup.data / "test.brds")]
    if w.is_eval:
        pairs.append((setup.stream, traced_setup.stream))
    for plain, traced_path in pairs:
        if plain.read_bytes() != traced_path.read_bytes():
            traced.errors.append(f"traced synth wrote a different {plain.name}")
    if w.is_eval and traced_setup.train.metrics_csv != setup.train.metrics_csv:
        traced.errors.append("traced checkpoint build wrote a different metrics.csv")
    if traced.errors:
        return {}
    setup_docs = [c.spans for c in traced_setup.children]
    run_docs = [c.spans for c in run_children]
    if w.is_eval:
        eval_docs, classified = [traced.child.spans], w.stream.train_rows
    else:
        eval_docs, classified = [c.spans for c in traced.evals], w.data.test_rows + w.data.train_rows
    overhead = traced.child.wall_s - statistics.median(r.child.wall_s for r in reps[:-1])
    record["shares"] = {"set-up": module_self(tracer.aggregate(setup_docs)),
                        "run": module_self(tracer.aggregate(run_docs))}
    return layer_metrics(setup_docs + run_docs, eval_docs, classified, overhead)


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    deadline = _now() + 150.0
    runner = Runner(work)
    setups, reps = measure(w, seed, runner, seconds, deadline, 1 if trace else SETUP_ROUNDS)
    for s in setups[1:]:
        if w.is_eval and s.train.metrics_csv != setups[0].train.metrics_csv:
            raise SetupError("checkpoint build is not deterministic: metrics.csv differs between set-ups")
    record = {"workload": w.name, "seed": seed, "trace": int(trace)}
    if trace:
        metrics = traced_run(w, seed, runner, setups[0], reps, record)
    else:
        record["samples"] = samples(w, setups, reps)
        metrics = end_to_end(record["samples"])
        check_same(reps)
    failed = sum(1 for r in reps if r.errors)
    first_train = next((r.train for r in reps if r.train), None) or setups[0].train
    record.update({
        "attempted": len(reps), "failed": failed,
        "error_rate": failed / len(reps),
        "metrics_sha256": hashlib.sha256(first_train.metrics_csv).hexdigest() if first_train else None,
        # the eval's accuracy on eval-stream, the last test_accuracy otherwise; it
        # varies with the seed, so it is checked and recorded but not bounded
        "final_accuracy": reps[0].accuracy if w.is_eval else
        (first_train.rows[-1]["test_accuracy"] if first_train else None),
        "metrics": metrics,
        "errors": [e for r in reps for e in r.errors],
        "reps": [{"wall_s": r.child.wall_s, "cpu_s": r.child.cpu_s, "rss_mb": r.child.rss_mb,
                  "eval_rows_per_s": r.eval_rows_per_s,
                  "children_s": [c.wall_s for c in [r.child] + r.evals],
                  "experience_s": r.train.experience_s if r.train else None} for r in reps],
        "setup_s": [s.seconds for s in setups],
    })
    return record


def units(trace: bool) -> dict[str, str]:
    if trace:
        return {n: u for n, u, _ in spec.per_layer()}
    return {n: u for n, u, _, _ in spec.END_TO_END}


def print_record(rec: dict, trace: bool) -> None:
    unit = units(trace)
    print(f"== {rec['workload']} (seed {rec['seed']}): {rec['attempted']} runs, "
          f"error_rate {rec['error_rate']:.3f}, final_accuracy {rec['final_accuracy']}, "
          f"metrics_sha256 {rec['metrics_sha256']}")
    for e in rec["errors"]:
        print(f"   FAILED: {e}")
    for name, value in rec["metrics"].items():
        print(f"   {name:<40} {value:>16.6g} {unit[name]}")
    if "shares" in rec:
        print_shares({rec["workload"]: rec["shares"]})


def print_shares(shares: dict[str, dict]) -> None:
    """Module self time as a share of each workload's traced set-up and run."""
    cols = [(w, phase) for w in shares for phase in ("run", "set-up")]
    print("   module self-time share   " + " ".join(f"{w[:12] + ' ' + p:>20}" for w, p in cols))
    for layer in spec.LAYERS:
        cells = []
        for w, phase in cols:
            total = sum(shares[w][phase].values()) or 1.0
            cells.append(f"{100 * shares[w][phase][layer] / total:>19.1f}%")
        print(f"   {layer:<24}" + " ".join(cells))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="synth seed of the workload's data")
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # on SIGTERM, unwind like an exception: Runner.cli kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "binreplay" / "cli.py").is_file():
        print(f"error: no binreplay sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    env = environment()
    results_dir = ROOT / ".perfbench_results"
    results_dir.mkdir(exist_ok=True)
    records = []
    for name in names:
        work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            rec = run_workload(WORKLOADS[name], args.seed, args.seconds, trace, work)
        except SetupError as e:
            print(f"error: {name}: set-up failed: {e}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(work, ignore_errors=True)
        rec["env"] = env
        (results_dir / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(rec, indent=1))
        print_record(rec, trace)
        records.append(rec)
    if trace and len(records) > 1:
        print_shares({r["workload"]: r["shares"] for r in records if "shares" in r})
    print("env " + json.dumps(env))
    unit = units(trace)
    want = list(unit)
    metrics = {}
    for rec in records:
        prefix = f"{rec['workload']}." if len(records) > 1 else ""
        for name in want:
            if name in rec["metrics"]:
                metrics[prefix + name] = {"value": rec["metrics"][name], "unit": unit[name]}
    failed = sum(r["failed"] for r in records)
    complete = all(set(want) <= set(r["metrics"]) for r in records)
    print(json.dumps({"correct": failed == 0 and complete,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
