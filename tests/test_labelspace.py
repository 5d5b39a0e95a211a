import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genrekit.errors import (
    DepthExceeded,
    DimensionTooLarge,
    EmptyPath,
    UnknownPath,
    ZeroVector,
)
from genrekit.labelspace import (
    FactorModel,
    ItemLabelMatrix,
    close_labels,
    compute_ppmi,
    factorize,
    item_factors,
    label_scores_from_factor,
    load_factor_model,
    parse_taxonomy,
    save_factor_model,
)


# ---------------------------------------------------------------- taxonomy

def test_parse_single_branch():
    tax = parse_taxonomy(["Pop/Oldies/Traditional Pop"])
    assert tax.n_labels == 3
    assert tax.nodes[tax.path_index["Pop"]].depth == 1
    assert tax.nodes[tax.path_index["Pop/Oldies"]].depth == 2
    assert tax.nodes[tax.path_index["Pop/Oldies/Traditional Pop"]].depth == 3


def test_parse_single_segment():
    tax = parse_taxonomy(["Jazz"])
    assert tax.n_labels == 1
    assert tax.nodes[0].depth == 1


def test_parse_shared_prefixes():
    tax = parse_taxonomy(["A/B", "A/C", "A/B/D"])
    assert tax.n_labels == 4
    a = tax.path_index["A"]
    children = [n for n in tax.nodes if n.parent == a]
    assert len(children) == 2


def test_parse_rejects_empty_segment():
    with pytest.raises(EmptyPath):
        parse_taxonomy(["A//B"])


def test_parse_rejects_depth_over_four():
    with pytest.raises(DepthExceeded):
        parse_taxonomy(["A/B/C/D/E"])


def test_close_labels_two_branch_example():
    tax = parse_taxonomy(["Jazz/Vocal Jazz", "Pop/Vocal Pop"])
    closed = close_labels(["Jazz/Vocal Jazz", "Pop/Vocal Pop"], tax)
    assert closed == {tax.path_index[p] for p in
                      ("Jazz", "Jazz/Vocal Jazz", "Pop", "Pop/Vocal Pop")}


def test_close_labels_root_is_own_closure():
    tax = parse_taxonomy(["Pop"])
    assert close_labels(["Pop"], tax) == {tax.path_index["Pop"]}


def test_close_labels_walks_whole_chain():
    tax = parse_taxonomy(["A/B/C/D"])
    assert close_labels(["A/B/C/D"], tax) == {0, 1, 2, 3}


def test_close_labels_unknown_path():
    tax = parse_taxonomy(["Jazz"])
    with pytest.raises(UnknownPath):
        close_labels(["Blues"], tax)


@st.composite
def random_taxonomy(draw):
    n_branches = draw(st.integers(1, 6))
    paths = []
    for _ in range(n_branches):
        depth = draw(st.integers(1, 4))
        segs = [f"n{draw(st.integers(0, 4))}" for _ in range(depth)]
        paths.append("/".join(segs))
    return parse_taxonomy(paths), paths


@settings(max_examples=100, deadline=None)
@given(random_taxonomy())
def test_closure_idempotent(tax_and_paths):
    tax, paths = tax_and_paths
    closed = close_labels(paths, tax)
    reclosed = close_labels([tax.nodes[i].path for i in closed], tax)
    assert closed == reclosed


# --------------------------------------------------------------------- ppmi

def ppmi_oracle(matrix):
    """Triple-loop PPMI straight from the definition."""
    dense = matrix.dense()
    m, n = dense.shape
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            joint = sum(dense[k, i] * dense[k, j] for k in range(m)) / m
            pi = dense[:, i].sum() / m
            pj = dense[:, j].sum() / m
            if joint > 0:
                out[i, j] = max(0.0, np.log(joint / (pi * pj)))
    return out


def test_ppmi_independence_is_zero():
    # m=4, L_i={1,2}, L_j={1,3}: joint 1/4 equals (1/2)(1/2)
    m = ItemLabelMatrix.from_rows([[0, 1], [0], [1], []] if False else
                                  [[0, 1], [0], [1], [2]], 3)
    x = compute_ppmi(m).values
    assert x[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_ppmi_self_cooccurrence():
    m = ItemLabelMatrix.from_rows([[0, 1], [0, 1], [2], [2]], 3)
    x = compute_ppmi(m).values
    assert x[0, 1] == pytest.approx(np.log(2.0), abs=1e-12)


def test_ppmi_matches_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        dense = (rng.random((8, 5)) < 0.5)
        rows = [np.nonzero(r)[0].tolist() or [int(rng.integers(0, 5))] for r in dense]
        m = ItemLabelMatrix.from_rows(rows, 5)
        np.testing.assert_allclose(compute_ppmi(m).values, ppmi_oracle(m), atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_ppmi_symmetric_nonnegative(seed):
    rng = np.random.default_rng(seed)
    m_items = int(rng.integers(2, 10))
    n = int(rng.integers(2, 6))
    rows = []
    for _ in range(m_items):
        r = np.nonzero(rng.random(n) < 0.5)[0].tolist()
        rows.append(r or [int(rng.integers(0, n))])
    # guarantee support >= 1 everywhere
    rows[0] = list(range(n))
    x = compute_ppmi(ItemLabelMatrix.from_rows(rows, n)).values
    assert (x >= 0).all()
    np.testing.assert_array_equal(x, x.T)


# ---------------------------------------------------------------------- svd

def jacobi_singular_values(a, sweeps=60):
    """Independent oracle: cyclic two-sided Jacobi eigenvalue iteration for a
    symmetric matrix; singular values are the absolute eigenvalues."""
    a = np.array(a, dtype=float)
    n = a.shape[0]
    for _ in range(sweeps):
        off = np.sqrt(max(0.0, (a ** 2).sum() - (np.diag(a) ** 2).sum()))
        if off < 1e-14:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-15:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.abs(np.diag(a)))[::-1]


def _ppmi_from_values(values):
    from genrekit.labelspace import PpmiMatrix
    return PpmiMatrix(np.asarray(values, dtype=float), np.ones(len(values), dtype=np.int64))


def test_factorize_identity():
    fm = factorize(_ppmi_from_values(np.eye(2)), 2)
    np.testing.assert_allclose(fm.singular_values, [1.0, 1.0], atol=1e-12)
    gram = fm.label_factors @ fm.label_factors.T
    np.testing.assert_allclose(gram, np.eye(2), atol=1e-10)


def test_factorize_diagonal():
    fm = factorize(_ppmi_from_values(np.diag([4.0, 1.0])), 1)
    assert fm.singular_values[0] == pytest.approx(4.0, abs=1e-12)
    np.testing.assert_allclose(np.abs(fm.label_factors[:, 0]), [2.0, 0.0], atol=1e-12)
    assert fm.label_factors[0, 0] > 0  # sign convention


def test_factorize_matches_jacobi_oracle():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = rng.random((6, 6))
        x = np.abs(a + a.T) / 2
        fm = factorize(_ppmi_from_values(x), 6)
        np.testing.assert_allclose(fm.singular_values, jacobi_singular_values(x), atol=1e-8)
        # reconstruction through the full SVD
        u, s, vt = np.linalg.svd(x)
        assert np.linalg.norm(x - (u * s) @ vt) < 1e-8


def test_factorize_scaling_invariance():
    rng = np.random.default_rng(11)
    a = rng.random((5, 5))
    x = np.abs(a + a.T) / 2
    s1 = factorize(_ppmi_from_values(x), 5).singular_values
    s2 = factorize(_ppmi_from_values(3.5 * x), 5).singular_values
    np.testing.assert_allclose(s2, 3.5 * s1, atol=1e-10)


def test_factorize_d_too_large():
    with pytest.raises(DimensionTooLarge):
        factorize(_ppmi_from_values(np.eye(3)), 4)


# ------------------------------------------------------------- item factors

def test_item_factor_single_label():
    c = np.array([[3.0, 4.0], [1.0, 0.0]])
    m = ItemLabelMatrix.from_rows([[0]], 2)
    np.testing.assert_allclose(item_factors(c, m)[0], [0.6, 0.8], atol=1e-12)


def test_item_factor_symmetric_pair():
    c = np.array([[1.0, 0.0], [0.0, 1.0]])
    m = ItemLabelMatrix.from_rows([[0, 1]], 2)
    np.testing.assert_allclose(item_factors(c, m)[0],
                               [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)


def test_item_factors_match_oracle():
    rng = np.random.default_rng(5)
    c = rng.normal(size=(6, 4))
    rows = [[0, 2], [1], [3, 4, 5], [0, 1, 2, 3]]
    m = ItemLabelMatrix.from_rows(rows, 6)
    got = item_factors(c, m)
    for i, r in enumerate(rows):
        expect = sum(c[j] for j in r)
        expect = expect / np.linalg.norm(expect)
        np.testing.assert_allclose(got[i], expect, atol=1e-12)


def test_item_factors_identical_for_identical_label_sets():
    rng = np.random.default_rng(6)
    c = rng.normal(size=(4, 3))
    m = ItemLabelMatrix.from_rows([[0, 2], [0, 2]], 4)
    f = item_factors(c, m)
    assert (f[0] == f[1]).all()


# -------------------------------------------------------------- label scores

def test_label_scores_own_factor_is_max():
    rng = np.random.default_rng(8)
    c = rng.normal(size=(10, 4))
    scores = label_scores_from_factor(c[3], c)
    assert scores[3] == pytest.approx(1.0, abs=1e-12)
    assert scores.argmax() == 3 or scores.max() == pytest.approx(scores[3])


def test_label_scores_orthogonal_is_zero():
    c = np.array([[1.0, 0.0]])
    assert label_scores_from_factor(np.array([0.0, 2.0]), c)[0] == pytest.approx(0.0)


def test_label_scores_match_oracle_and_scale_invariance():
    rng = np.random.default_rng(9)
    c = rng.normal(size=(10, 5))
    f = rng.normal(size=5)
    scores = label_scores_from_factor(f, c)
    for j in range(10):
        expect = c[j] @ f / (np.linalg.norm(c[j]) * np.linalg.norm(f))
        assert scores[j] == pytest.approx(expect, abs=1e-12)
    scaled = label_scores_from_factor(7.3 * f, c)
    np.testing.assert_allclose(scores, scaled, atol=1e-12)


def test_label_scores_zero_vector():
    with pytest.raises(ZeroVector):
        label_scores_from_factor(np.zeros(3), np.ones((2, 3)))


# ------------------------------------------------------------- serialization

def test_factor_model_roundtrip(tmp_path):
    rng = np.random.default_rng(10)
    model = FactorModel(3, rng.normal(size=(5, 3)), np.array([3.0, 2.0, 1.0]))
    path = tmp_path / "factors.muf"
    save_factor_model(model, path)
    loaded = load_factor_model(path)
    np.testing.assert_array_equal(loaded.label_factors, model.label_factors)
    np.testing.assert_array_equal(loaded.singular_values, model.singular_values)
    assert loaded.d == 3
