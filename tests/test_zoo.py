import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genrekit import binfile, kernels, zoo
from genrekit.cli import main
from genrekit.errors import (
    BadMagic,
    BadModelHeader,
    ConfigInvalid,
    DataError,
    DuplicateId,
    EmptyAlbum,
    MissingModality,
    NonFiniteLoss,
    TooFewItems,
)
from genrekit.nn import ModelGraph, load_model, make_optimizer, save_model
from genrekit.zoo import (
    AudioCnnConfig,
    TrainConfig,
    average_tracks,
    build_audio_cnn,
    build_shallow,
    build_text_mlp,
    extract_features,
    fuse,
    fuse_files,
    load_feature_vectors,
    predict,
    save_feature_vectors,
    train,
)


# ------------------------------------------------------------- architectures

def test_text_mlp_param_count_formula():
    model = build_text_mlp(250, "logistic", in_dim=10_000)
    expect = 10_000 * 2048 + 2048 + 2048 * 2048 + 2048 + 2048 * 250 + 250
    assert model.n_params() == expect


def test_text_mlp_feature_dim():
    model = build_text_mlp(10, "cosine", in_dim=100)
    assert model.feature_dim == 2048


def test_audio_cnn_all_12_variants_build():
    for shape, width, head in itertools.product(
            ("3x3", "4x96", "4x70"), ("low", "high"), ("logistic", "cosine")):
        cfg = AudioCnnConfig(shape, width, head)
        model = build_audio_cnn(cfg, 20, n_bins=96, width=323, seed=0)
        assert model.feature_dim == 512
        assert model.head["dim"] == 20
        x = np.zeros((1, 1, 96, 323))
        assert model.forward(x).shape == (1, 20)


def test_audio_cnn_high_has_more_params_than_low():
    for shape in ("3x3", "4x96", "4x70"):
        low = build_audio_cnn(AudioCnnConfig(shape, "low", "logistic"), 20)
        high = build_audio_cnn(AudioCnnConfig(shape, "high", "logistic"), 20)
        assert high.n_params() > low.n_params()


def test_dropout_rule_high_cosine_only():
    assert AudioCnnConfig("3x3", "high", "cosine").dropout == 0.5
    assert AudioCnnConfig("3x3", "high", "logistic").dropout == 0.0
    assert AudioCnnConfig("3x3", "low", "cosine").dropout == 0.0
    assert AudioCnnConfig("3x3", "low", "logistic", dropout=0.2).dropout == 0.2


def test_audio_cnn_4x96_collapses_frequency():
    model = build_audio_cnn(AudioCnnConfig("4x96", "low", "logistic"), 5,
                            n_bins=96, width=323)
    first_conv = model.layers[0]
    assert first_conv.w.shape[2] == 96  # kernel height spans all bins


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        AudioCnnConfig("5x5", "low", "logistic")
    with pytest.raises(ConfigInvalid):
        AudioCnnConfig("3x3", "medium", "logistic")
    with pytest.raises(ConfigInvalid):
        AudioCnnConfig("3x3", "low", "softmax")
    with pytest.raises(ConfigInvalid):
        AudioCnnConfig("3x3", "low", "logistic", dropout=1.0)


def test_shallow_model_is_single_dense():
    model = build_shallow(30, 7, "logistic")
    assert model.n_params() == 30 * 7 + 7


# ------------------------------------------------------------------ training

def make_toy(seed=0, n=40, dim=6, out=3):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(dim, out))
    x = rng.normal(size=(n, dim))
    y = (x @ w > 0).astype(float)
    return x, y


def test_train_reduces_loss():
    x, y = make_toy()
    model = build_shallow(6, 3, "logistic", seed=1)
    history = train(model, x, y, config=TrainConfig(epochs=30, batch_size=8,
                                                    seed=2))
    assert history[-1]["train_loss"] < history[0]["train_loss"]


def test_train_zero_epochs_leaves_params_untouched():
    x, y = make_toy()
    model = build_shallow(6, 3, "logistic", seed=1)
    before = model.get_params()
    history = train(model, x, y, config=TrainConfig(epochs=0))
    assert history == []
    for a, b in zip(before, model.get_params()):
        assert (a == b).all()


@pytest.mark.parametrize("field, value", [
    ("batch_size", 0), ("batch_size", 2.5), ("batch_size", True), ("epochs", "3"),
    ("epochs", -1), ("patience", -1), ("patience", 1.0), ("seed", -1), ("seed", None)])
def test_train_config_refuses_a_bad_integer(field, value):
    with pytest.raises(ConfigInvalid, match=field):
        TrainConfig(**{field: value})


def test_train_refuses_an_empty_training_split():
    x, y = make_toy()
    with pytest.raises(TooFewItems):
        train(build_shallow(6, 3, "logistic"), x[:0], y[:0])


def test_train_early_stopping_restores_best(tmp_path):
    x, y = make_toy(n=60)
    xv, yv = x[:20], y[:20]
    model = build_shallow(6, 3, "logistic", seed=3)
    history = train(model, x[20:], y[20:], xv, yv,
                    config=TrainConfig(epochs=40, batch_size=8, patience=2,
                                       seed=4,
                                       optimizer={"kind": "adam", "lr": 0.3}),
                    checkpoint=tmp_path / "best.munn")
    val = [r["val_loss"] for r in history]
    assert np.argmin(val) < len(history) - 1  # the restore runs
    from genrekit.zoo import _epoch_loss
    assert _epoch_loss(model, xv, yv, 8) == pytest.approx(min(val), abs=1e-12)


def test_train_restores_best_epoch_bit_for_bit(tmp_path):
    """The best-validation snapshot, overwritten at each improvement, is
    the parameters a run stopped after the best epoch ends with."""
    x, y = make_toy(n=60)

    def run(epochs, val):
        model = ModelGraph((6,), [{"kind": "dense", "out": 5}, {"kind": "relu"}],
                           {"kind": "logistic", "dim": 3}, seed=3)
        history = train(model, x[20:], y[20:], *val,
                        config=TrainConfig(epochs=epochs, batch_size=8, patience=2, seed=4,
                                           optimizer={"kind": "adam", "lr": 0.1}),
                        checkpoint=tmp_path / f"{epochs}.munn")
        return model, history

    model, history = run(40, (x[:20], y[:20]))
    val = [r["val_loss"] for r in history]
    best = int(np.argmin(val))
    assert 0 < best < len(history) - 1  # improved more than once, then got worse
    reference, _ = run(best + 1, ())
    for got, want in zip(model.get_params(), reference.get_params()):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("case", ["best-not-last", "no-validation", "zero-epochs"])
def test_train_leaves_the_checkpoint_holding_the_models_parameters(tmp_path, case):
    """On return the checkpoint holds exactly the model's parameters: read
    back into the model's own arrays when the last epoch was not the best,
    written once at the end when no snapshot was written."""
    x, y = make_toy(n=60)
    model = ModelGraph((6,), [{"kind": "dense", "out": 5}, {"kind": "relu"}],
                       {"kind": "logistic", "dim": 3}, seed=3)
    arrays = [id(p) for p, _ in model.params_and_grads()]
    val = (x[:20], y[:20]) if case == "best-not-last" else ()
    epochs = 0 if case == "zero-epochs" else 40
    history = train(model, x[20:], y[20:], *val,
                    config=TrainConfig(epochs=epochs, batch_size=8, patience=2, seed=4,
                                       optimizer={"kind": "adam", "lr": 0.1}),
                    checkpoint=tmp_path / "m.munn")
    if case == "best-not-last":
        val_losses = [r["val_loss"] for r in history]
        assert np.argmin(val_losses) < len(history) - 1
    assert [id(p) for p, _ in model.params_and_grads()] == arrays
    for got, want in zip(load_model(tmp_path / "m.munn").get_params(), model.get_params(),
                         strict=True):
        np.testing.assert_array_equal(got, want)


def test_train_refuses_validation_rows_without_a_checkpoint():
    x, y = make_toy()
    with pytest.raises(ConfigInvalid, match="checkpoint"):
        train(build_shallow(6, 3, "logistic", seed=1), x[10:], y[10:], x[:10], y[:10],
              config=TrainConfig(epochs=1))


def test_restore_refuses_another_graphs_checkpoint(tmp_path, monkeypatch):
    """A checkpoint overwritten with another graph's before the restore is
    a BadModelHeader (exit 3), and no parameter of the model is touched."""
    x, y = make_toy(n=60)
    path = tmp_path / "m.munn"
    model = build_shallow(6, 3, "logistic", seed=3)
    before = []

    def swap_then_load(checkpoint, into=None):
        before[:] = into.get_params()
        save_model(build_shallow(6, 4, "logistic", seed=3), checkpoint)
        return load_model(checkpoint, into=into)

    monkeypatch.setattr(zoo, "load_model", swap_then_load)
    with pytest.raises(BadModelHeader, match="not the model's own"):
        train(model, x[20:], y[20:], x[:20], y[:20],
              config=TrainConfig(epochs=40, batch_size=8, patience=2, seed=4,
                                 optimizer={"kind": "adam", "lr": 0.1}),
              checkpoint=path)
    assert before and all((p == q).all() for p, q in zip(model.get_params(), before))


def test_train_holds_no_best_validation_snapshot_in_memory(tmp_path):
    """A ~1M-parameter MLP trained with Adam and validation, its best epoch
    not its last: inside ``train`` the traced peak stays below 2.5x the
    parameter bytes.  Adam's two moments are 2x; a snapshot in memory would
    add 1x, and the restore reads the checkpoint only after the moments are
    freed.  One worker thread keeps the step's scratch at one span slot."""
    import tracemalloc
    rng = np.random.default_rng(0)
    x = rng.normal(size=(48, 256))
    y = rng.integers(0, 2, size=(48, 4)).astype(float)
    model = ModelGraph((256,), [{"kind": "dense", "out": 1024}, {"kind": "relu"},
                                {"kind": "dense", "out": 768}, {"kind": "relu"}],
                       {"kind": "logistic", "dim": 4}, seed=0)
    param_bytes = 8 * model.n_params()
    kernels._set_workers(1)
    tracemalloc.start()
    try:
        history = train(model, x[16:], y[16:], x[:16], y[:16],
                        config=TrainConfig(epochs=4, batch_size=8, patience=4, seed=1,
                                           optimizer={"kind": "adam", "lr": 0.03}),
                        checkpoint=tmp_path / "m.munn")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        kernels._set_workers(None)
    val_losses = [r["val_loss"] for r in history]
    assert np.argmin(val_losses) < len(history) - 1  # the restore ran
    assert 1e6 < model.n_params() < 1.1e6
    assert peak < 2.5 * param_bytes


def test_train_raises_on_nonfinite_loss():
    x, y = make_toy()
    model = build_shallow(6, 3, "cosine", seed=5)
    y_bad = y * np.nan
    with pytest.raises(NonFiniteLoss):
        train(model, x, y_bad, config=TrainConfig(epochs=1))


def test_overfit_one_cnn_variant_quickly():
    """Sanity: a small CNN drives training loss near zero on a tiny batch."""
    cfg = AudioCnnConfig("3x3", "low", "logistic", dropout=0.0)
    model = build_audio_cnn(cfg, 4, n_bins=96, width=16, seed=6)
    rng = np.random.default_rng(7)
    x = np.zeros((8, 1, 96, 16))
    y = np.zeros((8, 4))
    for i in range(8):
        c = i % 4
        bump = np.exp(-0.5 * ((np.arange(96) - (12 + 24 * c)) / 6.0) ** 2)
        x[i, 0] = bump[:, None] + 0.05 * rng.normal(size=(96, 16))
        y[i, c] = 1.0
    opt = make_optimizer({"kind": "adam", "lr": 1e-2})
    loss = np.inf
    for _ in range(60):
        out = model.forward(x, train=True, rng=rng)
        loss, dz = model.loss_grad(out, y)
        if loss < 0.05:
            break
        model.backward(dz)
        opt.step(model.params_and_grads())
    assert loss < 0.05


# ------------------------------------------------- features, tracks, fusion

def test_extract_features_is_penultimate():
    model = build_text_mlp(5, "logistic", in_dim=8)
    x = np.random.default_rng(8).normal(size=(3, 8))
    feats = extract_features(model, x)
    assert feats.shape == (3, 2048)
    out = predict(model, x)
    head = model.head_dense
    expect = feats @ head.w + head.b
    np.testing.assert_allclose(out, 1.0 / (1.0 + np.exp(-expect)), atol=1e-12)


def test_average_tracks():
    vecs = {"a1": [np.array([1.0, 3.0]), np.array([3.0, 5.0])],
            "a2": [np.array([2.0, 2.0])]}
    out = average_tracks(vecs)
    np.testing.assert_array_equal(out["a1"], [2.0, 4.0])
    np.testing.assert_array_equal(out["a2"], [2.0, 2.0])
    with pytest.raises(EmptyAlbum):
        average_tracks({"a3": []})


def test_fuse_l2_blocks_in_fixed_order():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(4, 3))
    t = rng.normal(size=(4, 5))
    fused = fuse({"T": t, "A": a})  # order fixed by fuse
    assert fused.shape == (4, 8)
    for block, x in ((slice(0, 3), a), (slice(3, 8), t)):  # slices from the input widths
        np.testing.assert_allclose(np.linalg.norm(fused[:, block], axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(fused[:, block] * np.linalg.norm(x, axis=1)[:, None], x,
                                   atol=1e-12)


def test_fuse_flags_zero_rows():
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    fused = fuse({"A": a})
    assert np.flatnonzero(~fused.any(axis=1)).tolist() == [1]
    np.testing.assert_array_equal(fused[0], [1.0, 0.0])


def test_fuse_missing_modality():
    with pytest.raises(MissingModality):
        fuse({"A": np.ones((2, 2)), "T": np.ones((3, 2))})


@pytest.mark.parametrize("blocks", [{}, {"A": np.ones((2, 2)), "X": np.ones((2, 2))}],
                         ids=["none", "unknown-letter"])
def test_fuse_refuses_blocks_not_named_by_a_letter(blocks):
    with pytest.raises(ConfigInvalid, match="letters"):
        fuse(blocks)


def test_fuse_files_refuses_files_that_list_other_ids(tmp_path):
    a, t = str(tmp_path / "a.mufv"), str(tmp_path / "t.mufv")
    save_feature_vectors(np.ones((2, 3)), ["x1", "x2"], a)
    save_feature_vectors(np.ones((2, 4)), ["x2", "x1"], t)
    with pytest.raises(DataError, match="t.mufv"):
        fuse_files({"A": a, "T": t})
    with pytest.raises(ConfigInvalid):  # before any file is read
        fuse_files({"A": a, "X": str(tmp_path / "absent.mufv")})


def test_feature_vector_roundtrip(tmp_path):
    rng = np.random.default_rng(10)
    mat = rng.normal(size=(5, 7))
    ids = [f"album{i}" for i in range(5)]
    path = tmp_path / "f.mufv"
    save_feature_vectors(mat, ids, path)
    got, got_ids = load_feature_vectors(path)
    np.testing.assert_array_equal(got, mat)
    assert got_ids == ids


def test_legacy_mufv_file_is_bad_magic(tmp_path):
    """A feature file of an older genrekit, the MUFV matrix frame with its ids
    in an ``.ids`` sidecar, is no longer read, sidecar or not."""
    path = tmp_path / "f.mufv"
    binfile.write(path, b"MUFV", binfile.fields(3, 2), np.ones((3, 2), "<f8"))
    (tmp_path / "f.mufv.ids").write_text("a\nb\nc\n")
    with pytest.raises(BadMagic, match="MUFV"):
        load_feature_vectors(path)
    assert main(["fuse", f"A={path}", "--out", str(tmp_path / "o.mufv")]) == 3


@pytest.mark.parametrize("odd", ["", " a", "b ", "a\nb", "a\rb", "\t"],
                         ids=["empty", "leading-space", "trailing-space", "newline",
                              "carriage-return", "tab-only"])
def test_feature_vectors_any_string_id_round_trips(tmp_path, odd):
    """Ids the old line-based sidecar refused now round-trip exactly."""
    path = tmp_path / "f.mufv"
    save_feature_vectors(np.ones((2, 2)), ["ok", odd], path)
    assert load_feature_vectors(path)[1] == ["ok", odd]
    assert [p.name for p in tmp_path.iterdir()] == ["f.mufv"]


@pytest.mark.parametrize("bad", [7, None, b"x", "\ud800"],
                         ids=["int", "none", "bytes", "lone-surrogate"])
def test_feature_vectors_refuse_ids_that_are_not_text(tmp_path, bad):
    path = tmp_path / "f.mufv"
    with pytest.raises(DataError):
        save_feature_vectors(np.ones((2, 2)), ["ok", bad], path)
    assert list(tmp_path.iterdir()) == []


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text(max_size=6), max_size=4))
def test_feature_vectors_accepted_ids_round_trip(tmp_path_factory, ids):
    """Any text ids are written and read back; ids where one names two rows
    are refused before anything is written."""
    path = tmp_path_factory.mktemp("ids") / "f.mufv"
    if len(set(ids)) < len(ids):
        with pytest.raises(DuplicateId, match=re.escape(str(path))):
            save_feature_vectors(np.zeros((len(ids), 1)), ids, path)
        assert not path.exists()
    else:
        save_feature_vectors(np.zeros((len(ids), 1)), ids, path)
        assert load_feature_vectors(path)[1] == ids
