"""Check that the tests catch known faults in a source tree.

Usage: python3 tools/faults.py SRC [NAME ...]

SRC is a `src` directory holding the binreplay package. A fault is one exact
edit of one file of the package and the test file that must fail on it. The
tool copies SRC to a temporary directory, applies one fault at a time (all of
them, or the NAMEs given), and runs its test file from this repository's
`tests` with `pytest -x` on the copy. One line per fault says whether the test
file caught it, and in how many seconds. The exit code is 1 if a fault
survives, or if a fault's old text does not occur exactly once in its file:
the code it broke has moved, and the fault must move with it. The tests pass
on SRC itself (tier-1), so a failure here is the fault's.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Fault(NamedTuple):
    name: str
    file: str  # under the binreplay package
    old: str
    new: str
    tests: str  # the test file that must fail


FAULTS = (
    Fault("running-sum-not-carried", "graph.py",
          "part[(0,) * (part.ndim - 1)] += acc", "pass", "test_tables.py"),
    Fault("deviation-from-block-mean", "graph.py",
          "np.subtract(d, mean, out=d)", "np.subtract(d, d.mean(axis=tuple(range(d.ndim - 1))), out=d)",
          "test_learner.py"),
    Fault("tabled-range-skips-last-block", "learner.py",
          "y.values()", "y.values(y.blocks[:-1])", "test_learner.py"),
    Fault("last-sweep-block-dropped", "graph.py",
          "        for s in blocks:\n            fn(s, codes[s]",
          "        for s in blocks[:-1]:\n            fn(s, codes[s]", "test_tables.py"),
    Fault("first-table-off-by-one-ulp", "graph.py",
          "table = np.repeat(k - 2.0 * np.arange(k + 1), c).reshape(k + 1, c)",
          "table = np.nextafter(np.repeat(k - 2.0 * np.arange(k + 1), c), np.inf).reshape(k + 1, c)",
          "test_tables.py"),
    Fault("codes-one-width-too-narrow", "graph.py",  # int8 at 16 bits, int16 at 32
          "np.min_scalar_type(1 - 2 ** (bits - 1))", "np.min_scalar_type(1 - 2 ** (bits // 2 - 1))",
          "test_graph.py"),
    Fault("latent-gradient-dropped", "graph.py",
          'pgrads["latent" if binary else "w"] = gw.reshape(w.shape)',
          'pgrads.update({} if binary else {"w": gw.reshape(w.shape)})', "test_graph.py"),
    Fault("bias-dropped-from-first-block", "graph.py",  # a quantized GEMM's first block keeps no bias
          "        part += b\n", "        part += b if block.start else 0.0\n", "test_graph.py"),
    Fault("stem-threshold-off-by-one", "graph.py",  # a sign's threshold one product too low
          "mid + 1)\n    return lo\n", "mid + 1)\n    return lo - 1\n", "test_graph.py"),
    Fault("step-table-direction-dropped", "graph.py",  # a falling column read as rising
          "bitpack.from01(np.bitwise_xor(bits, down, out=bits))", "bitpack.from01(bits)", "test_tables.py"),
    Fault("pad-column-read-as-data", "bitpack.py",
          ".reshape(len(rows), taps, width)[:, :, :c]", ".reshape(len(rows), taps, width)[:, :, width - c:]",
          "test_bitpack.py"),
    Fault("float32-chunks-at-32-bits", "bitpack.py",
          "g.dtype.itemsize * 8 <= CODE_BITS", "g.dtype.itemsize * 8 <= 2 * CODE_BITS", "test_bitpack.py"),
    Fault("colsum-dropped", "bitpack.py", "acc = 2 * acc - colsum", "acc = 2 * acc", "test_bitpack.py"),
    Fault("last-packed-word-skipped", "bitpack.py",
          "for j in range(w):", "for j in range(w - 1):", "test_bitpack.py"),
    Fault("last-block-tail-dropped", "bitpack.py",  # rows of a partial last block keep np.empty's bytes
          "for i in range(0, m, block):", "for i in range(0, m - m % block, block):", "test_bitpack.py"),
    Fault("pixel-padding-on-one-side", "bitpack.py",
          "np.pad(voids, ((0, 0), (p, p), (p, p)))", "np.pad(voids, ((0, 0), (p, p), (0, 2 * p)))",
          "test_bitpack.py"),
    Fault("crc32-trailer-unchecked", "serialize.py",
          "if f.read(CRC.size) != CRC.pack(crc):", "if f.read(CRC.size) is None:", "test_serialize.py"),
)


def _python(copy: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": copy, "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src")
    parser.add_argument("names", nargs="*", metavar="NAME", help=f"of {', '.join(f.name for f in FAULTS)}")
    args = parser.parse_args(argv)
    unknown = set(args.names) - {f.name for f in FAULTS}
    if unknown:
        parser.error(f"no fault named {', '.join(sorted(unknown))}")
    survived = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = os.path.join(tmp, "src")
        shutil.copytree(args.src, copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        where = _python(copy, "-c", "import binreplay; print(binreplay.__file__)").stdout.strip()
        if not where.startswith(copy):
            sys.exit(f"the tests would import binreplay from {where or 'nowhere'}, not from the copy of {args.src}")
        for fault in FAULTS:
            if args.names and fault.name not in args.names:
                continue
            path = os.path.join(copy, "binreplay", fault.file)
            with open(path) as f:
                text = f.read()
            if text.count(fault.old) != 1:
                print(f"{fault.name:<30} its old text occurs {text.count(fault.old)} times in {fault.file}",
                      flush=True)
                survived += 1
                continue
            with open(path, "w") as f:
                f.write(text.replace(fault.old, fault.new))
            t0 = time.perf_counter()
            try:
                p = _python(copy, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                            os.path.join("tests", fault.tests))
            finally:
                with open(path, "w") as f:
                    f.write(text)
            caught = p.returncode == 1  # 1: a test failed; 0 passes, and other codes are pytest's own errors
            survived += not caught
            print(f"{fault.name:<30} {'caught' if caught else 'SURVIVED'} by {fault.tests} "
                  f"in {time.perf_counter() - t0:.1f} s" + ("" if caught else f" (pytest exit {p.returncode})"),
                  flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
