"""Synthetic image dataset generation and its stratified train/test split.

Each class gets a smooth random prototype pattern; samples are circularly
shifted copies with additive Gaussian noise, clipped to [-1, 1].  Separable
by a linear classifier but noisy enough that features matter.
"""

from __future__ import annotations

import numpy as np

NOISE = 0.3  # standard deviation of the additive Gaussian noise
MAX_SHIFT = 1  # largest circular shift, in pixels, along each image axis
TRAIN_FRAC = 0.8  # share of each class in the train split


def _smooth_field(rng: np.random.Generator, h: int, w: int, c: int) -> np.ndarray:
    """Low-frequency random pattern in [-1, 1]: white noise + box blur."""
    field = rng.normal(0.0, 1.0, size=(h, w, c))
    k = 5
    pad = k // 2
    padded = np.pad(field, ((pad, pad), (pad, pad), (0, 0)), mode="wrap")
    out = np.zeros_like(field)
    for i in range(k):
        for j in range(k):
            out += padded[i : i + h, j : j + w, :]
    out /= k * k
    m = np.max(np.abs(out))
    return out / m if m > 0 else out


def make_synthetic(classes: int, samples_per_class: int, shape=(12, 12, 1), seed: int = 0):
    """Generate (inputs, labels) for the synthetic benchmark.  Each sample draws its shift, then its noise, as
    a per-sample loop does; the rolled prototypes are added and clipped in one pass."""
    if classes < 2:
        raise ValueError("need at least 2 classes")
    h, w, c = shape
    rng = np.random.default_rng(seed)
    protos = [_smooth_field(rng, h, w, c) for _ in range(classes)]
    shifts = range(-MAX_SHIFT, MAX_SHIFT + 1)
    rolled = np.array([[np.roll(p, (dy, dx), axis=(0, 1)) for dy in shifts for dx in shifts] for p in protos])
    ys = np.repeat(np.arange(classes, dtype=np.int64), samples_per_class)
    xs = np.empty((len(ys), h, w, c))
    pick = np.empty(len(ys), dtype=np.intp)
    for i in range(len(ys)):
        dy, dx = rng.integers(-MAX_SHIFT, MAX_SHIFT + 1, size=2)
        pick[i] = (dy + MAX_SHIFT) * len(shifts) + dx + MAX_SHIFT
        xs[i] = rng.normal(0.0, NOISE, size=shape)
    xs += rolled[ys, pick]
    return np.clip(xs, -1.0, 1.0, out=xs), ys


def stratified_split(xs, ys, seed: int = 0):
    """Per-class split, deterministic given seed."""
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for cls in np.unique(ys):
        idx = np.flatnonzero(ys == cls)
        idx = idx[rng.permutation(len(idx))]
        cut = int(round(TRAIN_FRAC * len(idx)))
        train_idx.extend(idx[:cut])
        test_idx.extend(idx[cut:])
    train_idx = np.asarray(sorted(train_idx), dtype=np.int64)
    test_idx = np.asarray(sorted(test_idx), dtype=np.int64)
    return (xs[train_idx], ys[train_idx]), (xs[test_idx], ys[test_idx])

