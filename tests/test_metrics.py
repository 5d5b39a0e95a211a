import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from genrekit.errors import AllLabelsSkipped, KOutOfRange
from genrekit.metrics import (
    EvalReport,
    PredictionMatrix,
    auc_macro,
    auc_per_label,
    coverage_at_k,
    evaluate,
    midranks,
    scores_from_cosine_head,
    top_k_labels,
)


def auc_pairwise_oracle(scores, truth):
    """All positive/negative pairs counted directly; ties worth 1/2."""
    truth = np.asarray(truth).astype(bool)
    pos = np.asarray(scores, dtype=float)[truth]
    neg = np.asarray(scores, dtype=float)[~truth]
    if pos.size == 0 or neg.size == 0:
        return None
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (pos.size * neg.size)


# ----------------------------------------------------------------------- auc

def test_auc_perfect_separation():
    assert auc_per_label([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0


def test_auc_perfect_inversion():
    assert auc_per_label([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0


def test_auc_all_tied_is_half():
    assert auc_per_label([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == pytest.approx(0.5)


def test_auc_undefined_when_single_class():
    assert auc_per_label([0.1, 0.2], [1, 1]) is None
    assert auc_per_label([0.1, 0.2], [0, 0]) is None


def test_auc_matches_pairwise_oracle_200_columns():
    rng = np.random.default_rng(13)
    for _ in range(200):
        m = int(rng.integers(3, 30))
        scores = rng.choice(np.linspace(0, 1, 7), size=m)  # force ties
        truth = rng.integers(0, 2, size=m)
        if truth.sum() in (0, m):
            truth[0] = 1 - truth[0]
        expect = auc_pairwise_oracle(scores, truth)
        got = auc_per_label(scores, truth)
        assert got == pytest.approx(expect, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_auc_invariant_under_monotone_transform(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(4, 20))
    scores = rng.normal(size=m)
    truth = rng.integers(0, 2, size=m)
    if truth.sum() in (0, m):
        truth[0] = 1 - truth[0]
    base = auc_per_label(scores, truth)
    warped = auc_per_label(np.exp(2.0 * scores) + 5.0, truth)
    assert warped == pytest.approx(base, abs=1e-12)


# a few values, signed zeros among them, so that most draws hold ties
_TIED = st.sampled_from([-0.0, 0.0, 1.0, -1.0, 0.5, 1e-300, -1e300])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_TIED, st.floats(allow_nan=False)), max_size=80))
def test_midranks_equal_scipy_rankdata(values):
    values = np.array(values, dtype=np.float64)
    ranks = midranks(values)
    assert ranks.dtype == np.float64
    assert np.array_equal(ranks, rankdata(values))


def test_auc_macro_skips_and_counts():
    scores = np.array([[0.9, 0.1, 0.3], [0.2, 0.2, 0.7]])
    truth = np.array([[1, 1, 0], [0, 1, 1]])  # column 1 all-positive
    mean, per_label, skipped = auc_macro(PredictionMatrix(scores, truth))
    assert skipped == 1
    assert per_label[1] is None
    assert mean == pytest.approx(np.mean([per_label[0], per_label[2]]))


def test_auc_macro_all_skipped_raises():
    scores = np.array([[0.9], [0.2]])
    truth = np.array([[1], [1]])
    with pytest.raises(AllLabelsSkipped):
        auc_macro(PredictionMatrix(scores, truth))


# ------------------------------------------------------------------ coverage

def coverage_oracle(scores, k):
    """Set union built row by row with explicit sort on (-score, label id)."""
    n = scores.shape[1]
    union = set()
    for row in scores:
        ranked = sorted(range(n), key=lambda j: (-row[j], j))
        union.update(ranked[:k])
    return len(union) / n


def test_top_k_tie_break_ascending_id():
    row = np.array([0.5, 0.7, 0.5, 0.7])
    np.testing.assert_array_equal(top_k_labels(row, 3), [1, 3, 0])


def test_coverage_single_item():
    scores = np.array([[0.1, 0.9, 0.5]])
    truth = np.zeros((1, 3), dtype=int)
    pred = PredictionMatrix(scores, truth)
    assert coverage_at_k(pred, 1) == pytest.approx(1 / 3)
    assert coverage_at_k(pred, 3) == pytest.approx(1.0)


def test_coverage_matches_oracle_100_matrices():
    rng = np.random.default_rng(17)
    for _ in range(100):
        m = int(rng.integers(1, 12))
        n = int(rng.integers(2, 9))
        scores = rng.choice(np.linspace(0, 1, 5), size=(m, n))
        pred = PredictionMatrix(scores, np.zeros((m, n), dtype=int))
        for k in (1, min(3, n), n):
            assert coverage_at_k(pred, k) == pytest.approx(coverage_oracle(scores, k))


def test_coverage_k_out_of_range():
    pred = PredictionMatrix(np.ones((2, 3)), np.zeros((2, 3), dtype=int))
    with pytest.raises(KOutOfRange):
        coverage_at_k(pred, 0)
    with pytest.raises(KOutOfRange):
        coverage_at_k(pred, 4)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_coverage_monotone_in_k(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 8))
    n = int(rng.integers(2, 8))
    pred = PredictionMatrix(rng.normal(size=(m, n)), np.zeros((m, n), dtype=int))
    values = [coverage_at_k(pred, k) for k in range(1, n + 1)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(1.0)  # k=n always covers everything


# ---------------------------------------------------------- cosine head map

def test_cosine_head_scores_and_zero_flagging():
    factors = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    outputs = np.array([[2.0, 0.0], [0.0, 0.0]])
    scores, flagged = scores_from_cosine_head(outputs, factors)
    assert flagged == [1]
    np.testing.assert_allclose(scores[0], [1.0, 0.0, 1 / np.sqrt(2)], atol=1e-12)
    np.testing.assert_array_equal(scores[1], 0.0)


# --------------------------------------------------------------- eval report

def test_evaluate_report_json_deterministic():
    rng = np.random.default_rng(19)
    scores = rng.random((6, 5))
    truth = rng.integers(0, 2, size=(6, 5))
    truth[0] = 1
    truth[1] = 0
    pred = PredictionMatrix(scores, truth)
    a = evaluate(pred).to_json()
    b = evaluate(PredictionMatrix(scores.copy(), truth.copy())).to_json()
    assert a == b
    assert a.encode() == b.encode()


def test_report_contains_expected_keys():
    pred = PredictionMatrix(np.array([[0.9, 0.1], [0.1, 0.9]]),
                            np.array([[1, 0], [0, 1]]))
    report = evaluate(pred)
    assert isinstance(report, EvalReport)
    assert report.auc_mean == 1.0
    assert report.coverage[1] == 1.0
    assert report.n_labels_skipped == 0
