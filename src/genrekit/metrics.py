"""Multi-label ranking metrics: label-averaged AUC-ROC and Coverage@k.

AUC uses the Mann-Whitney rank formulation with midranks for ties, computed
in numpy (``midranks``); labels without both positives and negatives in the
test set are skipped and counted.  Coverage@k is the fraction of the full
label vocabulary present in the union of all test items' top-k predictions.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import AllLabelsSkipped, KOutOfRange, ShapeMismatch
from .labelspace import label_scores_from_factor

COVERAGE_KS = (1, 3, 5)


@dataclass
class PredictionMatrix:
    scores: np.ndarray  # (m_test, n), higher = more likely
    truth: np.ndarray  # (m_test, n) binary

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.truth = np.asarray(self.truth)
        if self.scores.shape != self.truth.shape:
            raise ShapeMismatch(f"{self.scores.shape} vs {self.truth.shape}")
        if not np.isfinite(self.scores).all():
            raise ShapeMismatch("non-finite prediction scores")


def midranks(values):
    """1-based ranks of `values`, each tie group given the mean of its
    positions.  A tie group's mean is an exact half-integer, so these equal
    ``scipy.stats.rankdata(values)`` bit for bit."""
    values = np.asarray(values).ravel()
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    # start and end (exclusive) of each tie group in sorted order
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def auc_per_label(scores, truth):
    """AUC of one label column, or None when undefined (all-pos / all-neg)."""
    truth = np.asarray(truth).astype(bool)
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int(truth.sum())
    n_neg = truth.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = midranks(scores)
    pos_rank_sum = ranks[truth].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def auc_macro(pred):
    """Unweighted mean of defined per-label AUCs; returns (mean, per_label, skipped)."""
    per_label = [auc_per_label(pred.scores[:, j], pred.truth[:, j])
                 for j in range(pred.scores.shape[1])]
    defined = [a for a in per_label if a is not None]
    skipped = len(per_label) - len(defined)
    if not defined:
        raise AllLabelsSkipped("no label has both positives and negatives")
    return float(np.mean(defined)), per_label, skipped


def top_k_labels(scores_row, k):
    """Indices of the k highest scores; boundary ties broken by ascending id."""
    order = np.lexsort((np.arange(scores_row.size), -scores_row))
    return order[:k]


def coverage_at_k(pred, k):
    """|union of per-item top-k label sets| / n."""
    n = pred.scores.shape[1]
    if not 1 <= k <= n:
        raise KOutOfRange(f"k={k} not in [1, {n}]")
    covered = set()
    for row in pred.scores:
        covered.update(top_k_labels(row, k).tolist())
    return len(covered) / n


def scores_from_cosine_head(outputs, label_factors):
    """Map d-dimensional head outputs to per-label cosine scores.

    Zero-norm output rows are flagged and scored 0 across all labels.
    """
    outputs = np.asarray(outputs, dtype=np.float64)
    m = outputs.shape[0]
    n = label_factors.shape[0]
    scores = np.zeros((m, n))
    flagged = []
    for i in range(m):
        if np.linalg.norm(outputs[i]) < 1e-12:
            flagged.append(i)
            continue
        scores[i] = label_scores_from_factor(outputs[i], label_factors)
    return scores, flagged


@dataclass
class EvalReport:
    auc_mean: float
    per_label_auc: list  # n entries, float or None
    coverage: dict  # k -> value
    n_labels_skipped: int

    def to_json(self):
        payload = {
            "auc": self.auc_mean,
            "coverage": {str(k): v for k, v in sorted(self.coverage.items())},
            "skipped_labels": self.n_labels_skipped,
            "per_label": [{"label": j, "auc": a} for j, a in enumerate(self.per_label_auc)],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def evaluate(pred, ks=COVERAGE_KS):
    auc_mean, per_label, skipped = auc_macro(pred)
    n = pred.scores.shape[1]
    coverage = {k: coverage_at_k(pred, k) for k in ks if k <= n}
    return EvalReport(auc_mean, per_label, coverage, skipped)
