"""Acceptance suite: one test per criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
The full-grid criteria share one synthetic dataset and one grid run through
module-scoped fixtures.
"""

import itertools
import time

import numpy as np
import pytest

from genrekit import labelspace
from genrekit.labelspace import (
    ItemLabelMatrix,
    close_labels,
    compute_ppmi,
    factorize,
    parse_taxonomy,
)
from genrekit.metrics import (
    PredictionMatrix,
    auc_per_label,
    coverage_at_k,
)
from genrekit.nn import ModelGraph, grad_check, make_optimizer
from genrekit.pipeline import SynthSpec, synth_dataset
from genrekit.zoo import AudioCnnConfig, build_audio_cnn, build_text_mlp
from genrekit.experiment import run_grid


def verdict(criterion, description, passed):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {description}")
    assert passed, f"criterion {criterion} failed: {description}"


# ------------------------------------------------------------ shared fixtures

@pytest.fixture(scope="module")
def big_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_ds")
    spec = SynthSpec(n_top_genres=3, subs_per_genre=4, albums=300,
                     tracks_per_album=3, seed=42)
    return synth_dataset(spec, root)


@pytest.fixture(scope="module")
def grid_run(big_dataset, tmp_path_factory):
    manifest, tax = big_dataset
    out_root = tmp_path_factory.mktemp("acceptance_runs")
    t0 = time.perf_counter()
    rows, results = run_grid(manifest, tax, out_root=str(out_root), seed=42)
    elapsed = time.perf_counter() - t0
    return rows, results, elapsed


# --------------------------------------------------------------- criterion 1

def test_criterion_1_gradient_checks():
    """At least 20 random network instances pass a central finite-difference
    gradient check at relative tolerance 1e-4, within 60 seconds."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    count = 0
    all_passed = True
    cases = []
    for head in ("logistic", "cosine"):
        for seed in range(5):
            cases.append(("mlp", head, seed))
        for seed in range(3):
            cases.append(("conv", head, seed))
        for seed in range(2):
            cases.append(("deep", head, seed))
    for kind, head, seed in cases:
        if kind == "mlp":
            specs = [{"kind": "dense", "out": 7}, {"kind": "relu"},
                     {"kind": "dropout", "rate": 0.3}]
            model = ModelGraph((5,), specs, {"kind": head, "dim": 4}, seed)
            x = rng.normal(size=(4, 5))
        elif kind == "conv":
            specs = [{"kind": "conv2d", "filters": 3, "kh": 2, "kw": 2},
                     {"kind": "relu"},
                     {"kind": "maxpool", "ph": 2, "pw": 2},
                     {"kind": "flatten"},
                     {"kind": "dense", "out": 6}, {"kind": "relu"}]
            model = ModelGraph((1, 6, 6), specs, {"kind": head, "dim": 4}, seed)
            x = rng.normal(size=(3, 1, 6, 6))
        else:
            specs = [{"kind": "dense", "out": 8}, {"kind": "sigmoid"},
                     {"kind": "dense", "out": 6}, {"kind": "relu"},
                     {"kind": "dropout", "rate": 0.5}]
            model = ModelGraph((4,), specs, {"kind": head, "dim": 4}, seed)
            x = rng.normal(size=(4, 4))
        if head == "logistic":
            y = rng.integers(0, 2, size=(x.shape[0], 4)).astype(float)
        else:
            y = rng.normal(size=(x.shape[0], 4))
            y /= np.linalg.norm(y, axis=1, keepdims=True)
        report = grad_check(model, x, y, tolerance=1e-4, seed=seed)
        count += 1
        all_passed = all_passed and report["__all__"]
    elapsed = time.perf_counter() - t0
    ok = all_passed and count >= 20 and elapsed < 60.0
    verdict(1, f"{count} gradient checks at 1e-4 in {elapsed:.1f}s", ok)


# --------------------------------------------------------------- criterion 2

def test_criterion_2_metric_oracles():
    """AUC matches a pairwise-count oracle to 1e-12 on 200 random score
    columns; Coverage@k matches a set-union oracle on 100 random matrices."""
    rng = np.random.default_rng(200)
    auc_ok = True
    for _ in range(200):
        m = int(rng.integers(3, 40))
        scores = rng.choice(np.linspace(0, 1, 9), size=m)
        truth = rng.integers(0, 2, size=m)
        if truth.sum() in (0, m):
            truth[0] = 1 - truth[0]
        pos = scores[truth.astype(bool)]
        neg = scores[~truth.astype(bool)]
        wins = sum(1.0 if p > q else (0.5 if p == q else 0.0)
                   for p in pos for q in neg)
        oracle = wins / (pos.size * neg.size)
        if abs(auc_per_label(scores, truth) - oracle) > 1e-12:
            auc_ok = False
            break

    cov_ok = True
    for _ in range(100):
        m = int(rng.integers(1, 15))
        n = int(rng.integers(2, 10))
        scores = rng.choice(np.linspace(0, 1, 5), size=(m, n))
        pred = PredictionMatrix(scores, np.zeros((m, n), dtype=int))
        for k in (1, n):
            union = set()
            for row in scores:
                ranked = sorted(range(n), key=lambda j: (-row[j], j))
                union.update(ranked[:k])
            if coverage_at_k(pred, k) != len(union) / n:
                cov_ok = False
    verdict(2, "AUC vs pairwise oracle (200 columns), Coverage@k vs "
               "set-union oracle (100 matrices)", auc_ok and cov_ok)


# --------------------------------------------------------------- criterion 3

def _jacobi_singular_values(a, sweeps=80):
    a = np.array(a, dtype=float)
    n = a.shape[0]
    for _ in range(sweeps):
        off = np.sqrt(max(0.0, (a ** 2).sum() - (np.diag(a) ** 2).sum()))
        if off < 1e-15:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-16:
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


def test_criterion_3_ppmi_and_svd_oracles():
    """PPMI equals a triple-loop oracle on 100 random annotation matrices;
    the factorization's singular values match a Jacobi eigenvalue oracle on
    8x8 inputs to 1e-8 and the left factors are orthonormal to 1e-8."""
    rng = np.random.default_rng(300)
    ppmi_ok = True
    for _ in range(100):
        m = int(rng.integers(2, 12))
        n = int(rng.integers(2, 7))
        rows = []
        for _ in range(m):
            r = np.nonzero(rng.random(n) < 0.5)[0].tolist()
            rows.append(r or [int(rng.integers(0, n))])
        rows[0] = list(range(n))
        mat = ItemLabelMatrix.from_rows(rows, n)
        dense = mat.dense()
        oracle = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                joint = float((dense[:, i] * dense[:, j]).sum()) / m
                pi = dense[:, i].sum() / m
                pj = dense[:, j].sum() / m
                if joint > 0:
                    oracle[i, j] = max(0.0, np.log(joint / (pi * pj)))
        if np.abs(compute_ppmi(mat).values - oracle).max() > 1e-12:
            ppmi_ok = False
            break

    svd_ok = True
    for trial in range(5):
        a = rng.random((8, 8))
        x = np.abs(a + a.T) / 2 + np.eye(8)  # well away from singular
        fm = factorize(labelspace.PpmiMatrix(x, np.ones(8, dtype=np.int64)), 8)
        if np.abs(fm.singular_values - _jacobi_singular_values(x)).max() > 1e-8:
            svd_ok = False
        u = fm.label_factors / np.sqrt(fm.singular_values)
        if np.abs(u.T @ u - np.eye(8)).max() > 1e-8:
            svd_ok = False
    verdict(3, "PPMI triple-loop oracle (100 matrices), Jacobi SVD oracle "
               "and U'U=I at 1e-8", ppmi_ok and svd_ok)


# --------------------------------------------------------------- criterion 4

def test_criterion_4_closure():
    """The two-branch closure example yields exactly 4 labels, and closure
    is idempotent across 1000 random taxonomies."""
    tax = parse_taxonomy(["Jazz/Vocal Jazz", "Pop/Vocal Pop"])
    closed = close_labels(["Jazz/Vocal Jazz", "Pop/Vocal Pop"], tax)
    example_ok = closed == {tax.path_index[p] for p in
                            ("Jazz", "Jazz/Vocal Jazz", "Pop", "Pop/Vocal Pop")}

    rng = np.random.default_rng(400)
    idem_ok = True
    for _ in range(1000):
        paths = []
        for _ in range(int(rng.integers(1, 6))):
            depth = int(rng.integers(1, 5))
            paths.append("/".join(f"n{int(rng.integers(0, 4))}"
                                  for _ in range(depth)))
        t = parse_taxonomy(paths)
        annotated = [t.nodes[int(rng.integers(0, t.n_labels))].path
                     for _ in range(int(rng.integers(1, 4)))]
        once = close_labels(annotated, t)
        twice = close_labels([t.nodes[i].path for i in once], t)
        if once != twice:
            idem_ok = False
            break
    verdict(4, "4-label closure example and idempotence over 1000 taxonomies",
            example_ok and idem_ok)


# --------------------------------------------------------------- criterion 5

def _toy_batch(head, seed=0, n_bins=96, width=16, out=10):
    rng = np.random.default_rng(seed)
    bins = np.arange(n_bins)
    x = np.zeros((32, 1, n_bins, width))
    y = np.zeros((32, out))
    for i in range(32):
        c = i % 4
        bump = np.exp(-0.5 * ((bins - (12 + 24 * c)) / 6.0) ** 2)
        x[i, 0] = bump[:, None] + 0.05 * rng.normal(size=(n_bins, width))
        if head == "logistic":
            y[i, c] = 1.0
            y[i, 4 + c] = 1.0
        else:
            v = np.zeros(out)
            v[c] = 1.0
            v[4 + c] = 0.5
            y[i] = v / np.linalg.norm(v)
    return x, y


def test_criterion_5_overfit_all_variants():
    """Every one of the 12 audio CNN variants drives its loss past the
    overfit threshold on a 32-sample batch within 500 full-batch steps,
    each variant finishing in under 3 minutes."""
    all_ok = True
    details = []
    for shape, width, head in itertools.product(
            ("3x3", "4x96", "4x70"), ("low", "high"), ("logistic", "cosine")):
        cfg = AudioCnnConfig(shape, width, head, dropout=0.0)
        model = build_audio_cnn(cfg, 10, n_bins=96, width=16, seed=0)
        x, y = _toy_batch(head)
        opt = make_optimizer({"kind": "adam", "lr": 1e-2})
        threshold = 0.05 if head == "logistic" else -0.95
        t0 = time.perf_counter()
        converged = False
        rng = np.random.default_rng(1)
        for step in range(1, 501):
            out = model.forward(x, train=True, rng=rng)
            loss, dz = model.loss_grad(out, y)
            if loss < threshold:
                converged = True
                break
            model.backward(dz)
            opt.step(model.params_and_grads())
        elapsed = time.perf_counter() - t0
        ok = converged and elapsed < 180.0
        all_ok = all_ok and ok
        details.append(f"{shape}/{width}/{head}: "
                       f"{'ok' if ok else 'FAIL'} ({elapsed:.0f}s)")
    verdict(5, "overfit sanity for 12 CNN variants [" + ", ".join(details) + "]",
            all_ok)


# --------------------------------------------------------------- criterion 6

def test_criterion_6_grid_quality_and_budget(grid_run):
    """On the 300-album synthetic dataset, every single-modality row reaches
    test AUC above 0.85, fusion comes within 0.01 of the best single
    modality, and the whole grid finishes inside 30 minutes."""
    rows, _results, elapsed = grid_run
    singles = [r for r in rows if r["modality"] != "fusion"]
    fusions = [r for r in rows if r["modality"] == "fusion"]
    singles_ok = all(r["auc"] > 0.85 for r in singles)
    best_single = max(r["auc"] for r in singles)
    fusion_ok = bool(fusions) and max(r["auc"] for r in fusions) >= best_single - 0.01
    time_ok = elapsed < 1800.0
    summary = ", ".join(f"{r['modality']}/{r['target']}={r['auc']:.3f}"
                        for r in rows)
    verdict(6, f"grid in {elapsed:.0f}s [{summary}]",
            singles_ok and fusion_ok and time_ok)


# --------------------------------------------------------------- criterion 7

def test_criterion_7_cosine_coverage(grid_run):
    """The audio cosine run covers at least as many labels at k=1 as the
    audio logistic run at the shared seed."""
    rows, _results, _elapsed = grid_run
    audio = {r["target"]: r for r in rows if r["modality"] == "audio"}
    ok = audio["cosine"]["c@1"] >= audio["logistic"]["c@1"]
    verdict(7, f"audio C@1 cosine={audio['cosine']['c@1']:.2f} >= "
               f"logistic={audio['logistic']['c@1']:.2f}", ok)


# --------------------------------------------------------------- criterion 8

def test_criterion_8_report_byte_identical(big_dataset, tmp_path):
    """Rerunning an experiment with identical inputs writes a byte-identical
    evaluation report."""
    from genrekit.experiment import ExperimentConfig, run_experiment
    manifest, tax = big_dataset
    blobs = []
    for name in ("r1", "r2"):
        cfg = ExperimentConfig(modality="image", target="logistic",
                               settings="ingested", epochs=50, patience=10,
                               optimizer={"kind": "adam", "lr": 1e-2},
                               seed=42, out_dir=str(tmp_path / name))
        result = run_experiment(cfg, manifest, tax)
        blobs.append(open(result["paths"]["report"], "rb").read())
    verdict(8, "evaluation report byte-identical across reruns",
            blobs[0] == blobs[1])


# --------------------------------------------------------------- criterion 9

def test_criterion_9_text_mlp_param_count():
    """The text MLP at vocabulary 10000 and 250 output labels has exactly
    10000*2048 + 2048 + 2048*2048 + 2048 + 2048*250 + 250 parameters."""
    model = build_text_mlp(250, "logistic", in_dim=10_000)
    expect = 10_000 * 2048 + 2048 + 2048 * 2048 + 2048 + 2048 * 250 + 250
    got = model.n_params()
    verdict(9, f"text MLP parameter count {got} == {expect}", got == expect)
