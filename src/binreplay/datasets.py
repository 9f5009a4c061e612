"""Synthetic image dataset generation and a linear learnability baseline.

Each class gets a smooth random prototype pattern; samples are circularly
shifted copies with additive Gaussian noise, clipped to [-1, 1].  Separable
by a linear classifier but noisy enough that features matter.
"""

from __future__ import annotations

import numpy as np


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


def make_synthetic(classes: int, samples_per_class: int, shape=(12, 12, 1), seed: int = 0,
                   noise: float = 0.3, max_shift: int = 1):
    """Generate (inputs, labels) for the synthetic benchmark."""
    if classes < 2:
        raise ValueError("need at least 2 classes")
    h, w, c = shape
    rng = np.random.default_rng(seed)
    protos = [_smooth_field(rng, h, w, c) for _ in range(classes)]
    xs = np.empty((classes * samples_per_class, h, w, c))
    ys = np.empty(classes * samples_per_class, dtype=np.int64)
    i = 0
    for cls in range(classes):
        for _ in range(samples_per_class):
            dy, dx = rng.integers(-max_shift, max_shift + 1, size=2)
            img = np.roll(protos[cls], (int(dy), int(dx)), axis=(0, 1))
            img = img + rng.normal(0.0, noise, size=img.shape)
            xs[i] = np.clip(img, -1.0, 1.0)
            ys[i] = cls
            i += 1
    return xs, ys


def stratified_split(xs, ys, train_frac: float = 0.8, seed: int = 0):
    """Per-class split, deterministic given seed."""
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for cls in np.unique(ys):
        idx = np.flatnonzero(ys == cls)
        idx = idx[rng.permutation(len(idx))]
        cut = int(round(train_frac * len(idx)))
        train_idx.extend(idx[:cut])
        test_idx.extend(idx[cut:])
    train_idx = np.asarray(sorted(train_idx), dtype=np.int64)
    test_idx = np.asarray(sorted(test_idx), dtype=np.int64)
    return (xs[train_idx], ys[train_idx]), (xs[test_idx], ys[test_idx])


def linear_probe_accuracy(train_x, train_y, test_x, test_y, ridge: float = 1e-2) -> float:
    """One-vs-all ridge regression accuracy; the dataset learnability gate."""
    classes = int(max(train_y.max(), test_y.max())) + 1
    xtr = train_x.reshape(len(train_x), -1)
    xte = test_x.reshape(len(test_x), -1)
    xtr = np.hstack([xtr, np.ones((len(xtr), 1))])
    xte = np.hstack([xte, np.ones((len(xte), 1))])
    onehot = np.eye(classes)[train_y]
    gram = xtr.T @ xtr + ridge * np.eye(xtr.shape[1])
    w = np.linalg.solve(gram, xtr.T @ onehot)
    pred = np.argmax(xte @ w, axis=1)
    return float(np.mean(pred == test_y))
