"""CWR* classification head.

Two weight sets over the same feature space: consolidated weights (cw) used
for inference, temporary weights (tw) trained within each experience and
merged back by a count-weighted consolidation.  The head is the final layer
and trains in float arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import f32_precision


class CWRError(ValueError):
    pass


@dataclass
class CWRHead:
    feature_dim: int
    max_classes: int
    cw: np.ndarray = field(init=False)  # (classes, feature_dim + 1), last column is bias
    tw: np.ndarray = field(init=False)
    past_counts: np.ndarray = field(init=False)
    cur_counts: np.ndarray = field(init=False)
    seen: set = field(default_factory=set)
    trained_now: set = field(default_factory=set)

    def __post_init__(self):
        if self.feature_dim < 1 or self.max_classes < 1:
            raise CWRError("feature_dim and max_classes must be >= 1")
        self.cw = np.zeros((self.max_classes, self.feature_dim + 1))
        self.tw = np.zeros_like(self.cw)
        self.past_counts = np.zeros(self.max_classes, dtype=np.int64)
        self.cur_counts = np.zeros(self.max_classes, dtype=np.int64)


def init(feature_dim: int, max_classes: int) -> CWRHead:
    return CWRHead(feature_dim=feature_dim, max_classes=max_classes)


def begin_experience(head: CWRHead, classes_present) -> None:
    """Reset tw, reloading consolidated rows for already-seen classes."""
    classes_present = sorted(set(int(c) for c in classes_present))
    if not classes_present:
        raise CWRError("classes_present must be non-empty")
    for c in classes_present:
        if not 0 <= c < head.max_classes:
            raise CWRError(f"class id {c} outside [0, {head.max_classes})")
    head.tw[:] = 0.0
    for c in classes_present:
        if c in head.seen:
            head.tw[c] = head.cw[c]
    head.cur_counts[:] = 0
    head.trained_now = set()


def record_training(head: CWRHead, labels) -> None:
    """Count the samples trained in the current experience, per class."""
    labels = np.asarray(labels, dtype=np.int64).ravel()
    bad = labels[(labels < 0) | (labels >= head.max_classes)]
    if bad.size:
        raise CWRError(f"class id {int(bad[0])} outside [0, {head.max_classes})")
    head.cur_counts += np.bincount(labels, minlength=head.max_classes)
    head.trained_now.update(np.unique(labels).tolist())


def consolidate(head: CWRHead) -> None:
    """Merge tw into cw for the classes trained in this experience.

    Each trained row is mean-shifted (over trained rows) and averaged into cw
    with weight sqrt(past / current) on the consolidated side.
    """
    trained = sorted(head.trained_now)
    if not trained:
        raise CWRError("no training recorded for this experience")
    for c in trained:
        if head.cur_counts[c] == 0:
            raise CWRError(f"class {c} marked trained but has zero current count")
    mean_tw = head.tw[trained].mean(axis=0)
    for c in trained:
        w_past = float(np.sqrt(head.past_counts[c] / head.cur_counts[c])) if head.past_counts[c] > 0 else 0.0
        head.cw[c] = (head.cw[c] * w_past + (head.tw[c] - mean_tw)) / (w_past + 1.0)
        head.past_counts[c] += head.cur_counts[c]
        head.seen.add(c)
    head.cw = f32_precision(head.cw)  # consolidated weights persist as f32 in checkpoints


def predict(head: CWRHead, feature: np.ndarray) -> np.ndarray:
    """Inference logits from the consolidated weights; tw is never read."""
    feature = np.atleast_2d(np.asarray(feature, dtype=np.float64))
    if feature.shape[1] != head.feature_dim:
        raise CWRError(f"feature dim {feature.shape[1]} != head dim {head.feature_dim}")
    return feature @ head.cw[:, :-1].T + head.cw[:, -1]


def train_logits(head: CWRHead, feature: np.ndarray) -> np.ndarray:
    """Logits from the temporary weights, used only during training."""
    feature = np.atleast_2d(feature)
    return feature @ head.tw[:, :-1].T + head.tw[:, -1]


def apply_head_gradient(head: CWRHead, feature: np.ndarray, grad_logits: np.ndarray,
                        learning_rate: float) -> np.ndarray:
    """SGD on tw; returns the gradient w.r.t. the input feature."""
    g_w = grad_logits.T @ feature
    g_b = grad_logits.sum(axis=0)
    g_feature = grad_logits @ head.tw[:, :-1]
    head.tw[:, :-1] -= learning_rate * g_w
    head.tw[:, -1] -= learning_rate * g_b
    return g_feature
