"""Check that two source trees write the same bytes on the gate configs.

Usage: python3 tools/bytes_gate.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are `src` directories, each holding the binreplay
package. Each tree runs `binreplay synth` once and then, for every gate
config, `train` and `eval` in subprocesses, on nc-protocol data: 10 classes of
100 samples of shape 12x12x1 from synth seed 7, protocol seed 1, 1 epoch per
experience and 2 pretrain epochs. One line per config gives the SHA-256 of
train.brds, test.brds, metrics.csv, checkpoint.brck, replay.brrm and the
`eval` stdout. A sweep config is one `train` that writes a tagged output set
per value; it gets one such line per value, named by the tag. The exit code is
1 if any of them differs between the trees.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile

# name -> (q_f, q_b_nonbin, q_b_bin, head_only, model channels, sweep); with
# 5 channels the 720-bit latents and 45-bit patch rows end in pad bits. The
# paper's bitwidth study is one sweep, whose variants share a pretraining.
CONFIGS = {
    "8/16/4": ("8", "16", "4", False, 32, None),
    "16/8/1": ("16", "8", "1", False, 32, None),
    "float": ("float", "float", "float", False, 32, None),
    "8/8/8": ("8", "8", "8", False, 32, None),
    "32/32/32": ("32", "32", "32", False, 32, None),
    "8/16/16": ("8", "16", "16", False, 32, None),
    "head-only": ("8", "16", "4", True, 32, None),
    "channels-5": ("8", "16", "4", False, 5, None),
    "sweep": ("8", "16", "4", False, 32, {"bitwidth.q_b_bin": ["1", "4", "16"]}),
}
SYNTH = ["--classes", "10", "--samples-per-class", "100", "--shape", "12,12,1", "--seed", "7"]
OUTPUTS = ("train.brds", "test.brds", "metrics.csv", "checkpoint.brck", "replay.brrm", "eval")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _binreplay(src: str, *args: str) -> bytes:
    """stdout of `binreplay ARGS` run from the package under src."""
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    p = subprocess.run([sys.executable, "-m", "binreplay.cli", *args], env=env, capture_output=True)
    if p.returncode:
        sys.exit(f"binreplay {' '.join(args)} from {src} exited {p.returncode}:\n"
                 + p.stderr.decode(errors="replace"))
    return p.stdout


def _run(src: str, work: str, name: str) -> dict[str, dict[str, str]]:
    """The hash of each output of one gate config, run from src in work, per
    output tag: "" for a plain config, one per value for a sweep."""
    data = os.path.join(work, "data")
    if not os.path.isdir(data):
        _binreplay(src, "synth", "--out", data, *SYNTH)
    q_f, q_b_nonbin, q_b_bin, head_only, channels, sweep = CONFIGS[name]
    out = os.path.join(work, name.replace("/", "-"))
    config = os.path.join(work, "run.json")
    with open(config, "w") as f:
        json.dump({
            "dataset": data, "output_dir": out,
            "model": {"preset": "reference", "channels": channels},
            "bitwidth": {"q_f": q_f, "q_b_nonbin": q_b_nonbin, "q_b_bin": q_b_bin},
            "replay": {"quota": 80, "b_n": 16, "b_r": 64},
            "protocol": {"num_experiences": 5, "epochs": 1, "lr": 0.3, "seed": 1,
                         "pretrain_epochs": 2, "pretrain_lr": 0.2, "head_only": head_only},
            **({"sweep": sweep} if sweep else {}),
        }, f)
    _binreplay(src, "train", "--config", config)
    (key, values), = (sweep or {"": [""]}).items()
    runs = {}
    for v in values:
        tag = f"{key.split('.')[-1]}{v}" if sweep else ""
        paths = {o: os.path.join(data, o) if o.endswith(".brds")
                 else os.path.join(out, o.replace(".", f"_{tag}.") if tag else o) for o in OUTPUTS[:-1]}
        hashes = {}
        for o, path in paths.items():
            with open(path, "rb") as f:
                hashes[o] = _sha(f.read())
        hashes["eval"] = _sha(_binreplay(src, "eval", "--checkpoint", paths["checkpoint.brck"],
                                         "--dataset", data))
        runs[tag] = hashes
    return runs


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    old_src, new_src = argv
    differs = False
    with tempfile.TemporaryDirectory() as old_work, tempfile.TemporaryDirectory() as new_work:
        for name in CONFIGS:
            old_runs, new_runs = _run(old_src, old_work, name), _run(new_src, new_work, name)
            for tag, new in new_runs.items():
                old = old_runs[tag]
                diff = [o for o in OUTPUTS if old[o] != new[o]]
                differs |= bool(diff)
                line = " ".join(f"{o} {new[o][:8]}" for o in OUTPUTS)
                verdict = "same" if not diff else "DIFFERS: " + ", ".join(
                    f"{o} {old[o][:8]} -> {new[o][:8]}" for o in diff)
                print(f"{f'{name} {tag}' if tag else name:<10} {line}  {verdict}", flush=True)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
