import errno
import hashlib
import json
import os
import tracemalloc

import numpy as np
import pytest

from genrekit import binfile, zoo
from genrekit.errors import ConfigError, ConfigInvalid, DataError, IoError
from genrekit.experiment import (
    ExperimentConfig,
    audio_patches,
    fit_factors,
    format_params,
    model_inputs,
    prepare_labels,
    report_table,
    run_experiment,
    text_corpus,
)
from genrekit.nn import load_model


# ------------------------------------------------------------- configuration

def test_config_defaults_are_valid():
    cfg = ExperimentConfig()
    assert cfg.modality == "text"
    assert cfg.d == 50
    assert cfg.seed == 42


def test_config_rejects_unknown_modality():
    with pytest.raises(ConfigError):
        ExperimentConfig(modality="video")


def test_config_rejects_bad_target():
    with pytest.raises(ConfigError):
        ExperimentConfig(target="hinge")


def test_config_rejects_mismatched_settings():
    with pytest.raises(ConfigError):
        ExperimentConfig(modality="text", settings="low-3x3")
    with pytest.raises(ConfigError):
        ExperimentConfig(modality="audio", settings="vsm")


def test_config_from_dict_rejects_unknown_fields():
    # learning_rate never was a field; the other four were removed
    for name in ("learning_rate", "fusion_modalities", "vocab_size", "truncate_chars",
                 "min_label_support"):
        with pytest.raises(ConfigError, match=name):
            ExperimentConfig.from_dict({"modality": "text", "settings": "vsm", name: 1})


def test_config_from_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"modality": "timbre", "settings": "timbre-mlp", "epochs": 3}')
    cfg = ExperimentConfig.from_json(path)
    assert cfg.modality == "timbre"
    assert cfg.epochs == 3


@pytest.mark.parametrize("field,value", [
    ("epochs", "3"), ("batch_size", "x"), ("patience", 2.0), ("d", True), ("seed", None),
    ("patch_width", 0), ("epochs", 0), ("seed", -1), ("seed", False),
    pytest.param("optimizer", {"kind": "rmsprop"}, id="optimizer-unknown-kind"),
    pytest.param("optimizer", {"kind": ["adam"]}, id="optimizer-kind-list"),
    pytest.param("optimizer", {"kind": "adam", "momentum": 0.9}, id="optimizer-unknown-name"),
    pytest.param("optimizer", {"kind": "adam", "lr": "x"}, id="optimizer-lr-str"),
    pytest.param("optimizer", {"kind": "sgd", "lr": True}, id="optimizer-lr-bool"),
    pytest.param("optimizer", {"kind": "adam", "eps": float("nan")}, id="optimizer-eps-nan"),
    pytest.param("optimizer", {"kind": "adam", "lr": 10 ** 400}, id="optimizer-lr-huge"),
    pytest.param("optimizer", {"kind": "adam", "lr": 0}, id="optimizer-lr-zero"),
    pytest.param("optimizer", {"kind": "adam", "eps": 0}, id="optimizer-eps-zero"),
    pytest.param("optimizer", {"kind": "adam", "beta1": 1.0}, id="optimizer-beta1-one"),
    pytest.param("optimizer", {"kind": "sgd", "momentum": 1}, id="optimizer-momentum-one"),
    pytest.param("optimizer", "adam", id="optimizer-str"),
    pytest.param("modality", ["image"], id="modality-list"),
    pytest.param("target", None, id="target-none"),
    pytest.param("settings", 1, id="settings-int"),
    pytest.param("out_dir", 5, id="out_dir-int"),
    pytest.param("feature_files", "x", id="feature_files-str"),
    pytest.param("feature_files", {"A": 5}, id="feature_files-int-path"),
    pytest.param("feature_files", {"X": "x.mufv"}, id="feature_files-unknown-letter"),
])
def test_config_rejects_bad_integer_fields(field, value):
    with pytest.raises(ConfigInvalid, match=field):
        ExperimentConfig.from_dict({"modality": "timbre", "settings": "timbre-mlp",
                                    field: value})


def test_config_refuses_a_fusion_row_without_files():
    with pytest.raises(ConfigInvalid, match="feature_files"):
        ExperimentConfig.from_dict({"modality": "fusion", "settings": "mlp"})


def test_config_accepts_least_integer_values():
    cfg = ExperimentConfig(seed=0, d=1, epochs=1, patience=1, batch_size=1)
    assert (cfg.seed, cfg.d, cfg.epochs) == (0, 1, 1)


# -------------------------------------------------------------- label setup

def test_prepare_labels_closes_and_splits(small_dataset):
    manifest, tax = small_dataset
    setup = prepare_labels(manifest, tax, seed=0)
    n = len(manifest)
    assert sorted(len(setup.idx[t]) for t in ("train", "val", "test")) == \
        sorted([int(n * 0.8), max(1, int(n * 0.1)),
                n - int(n * 0.8) - max(1, int(n * 0.1))])
    # every item keeps its top genre after closure
    for i, item in enumerate(manifest.items):
        assert setup.truth[i].sum() == len(item.labels)


def test_prepare_labels_support_computed_on_trainval_only(small_dataset):
    manifest, tax = small_dataset
    setup = prepare_labels(manifest, tax, seed=0)
    trainval = setup.idx["train"] + setup.idx["val"]
    support = setup.truth[trainval].sum(axis=0)
    assert (support >= 1).all()


def test_fit_factors_clamps_d(small_dataset):
    manifest, tax = small_dataset
    setup = prepare_labels(manifest, tax, seed=0)
    fm = fit_factors(setup, d=1000)
    assert fm.label_factors.shape == (len(setup.kept_labels), len(setup.kept_labels))
    fm2 = fit_factors(setup, d=2)
    assert fm2.label_factors.shape[1] == 2


# ------------------------------------------------------------------ features

def test_text_corpus_sem_appends_enrichment(small_dataset):
    manifest, _ = small_dataset
    plain = text_corpus(manifest, ExperimentConfig(settings="vsm"))
    enriched = text_corpus(manifest, ExperimentConfig(settings="vsm+sem",
                                                      target="cosine"))
    i = next(k for k, it in enumerate(manifest.items) if it.enrichment)
    assert len(enriched[i]) == len(plain[i]) + len(manifest.items[i].enrichment)
    assert enriched[i][-1].startswith("wikicat_")


# sha256 of audio_patches on the conftest catalogue (seed 3) before the
# patches were written into one preallocated array: at width 32 every patch
# is a window of its track, at width 96 every track is padded
AUDIO_PATCHES_SHA256 = {
    32: "d93177ed8c803bcdc55cd4f3e58c6d85672b313aa5b07c3b3bd2d53f4be5d83b",
    96: "39a7f7b94f83d9d2d61cb5cc471ffa8454657d3514736b8b06a84cdbc4a6acb8",
}


@pytest.mark.parametrize("width", sorted(AUDIO_PATCHES_SHA256))
def test_audio_patches_match_their_golden_digest(small_dataset, width):
    manifest, _ = small_dataset
    cfg = ExperimentConfig(modality="audio", settings="low-3x3", patch_width=width, seed=3)
    patches, album_of_track = audio_patches(manifest, cfg)
    assert patches.shape == (80, 96, width) and patches.dtype == np.float64
    assert hashlib.sha256(patches.tobytes()).hexdigest() == AUDIO_PATCHES_SHA256[width]
    np.testing.assert_array_equal(album_of_track, np.repeat(np.arange(40), 2))


def test_audio_inputs_hold_no_second_copy_of_the_patches(small_dataset):
    """The patch array is the only full-size array an audio row's input
    path holds: its peak stays within 1.2x the patches' bytes (2.6x when
    the patches were a list, then copied, masked and standardized anew)."""
    manifest, tax = small_dataset
    cfg = ExperimentConfig(modality="audio", settings="low-3x3", patch_width=96, seed=3)
    setup = prepare_labels(manifest, tax, cfg.seed)
    tracemalloc.start()
    try:
        x, _ = model_inputs(cfg, manifest, setup)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.shape == (80, 1, 96, 96)
    assert peak <= 1.2 * x.nbytes


# --------------------------------------------------------------- experiments

def run_cheap(small_dataset, tmp_path, **overrides):
    manifest, tax = small_dataset
    params = dict(modality="timbre", target="logistic", settings="timbre-mlp",
                  epochs=30, patience=10,
                  optimizer={"kind": "adam", "lr": 1e-2},
                  out_dir=str(tmp_path / "run"))
    params.update(overrides)
    return run_experiment(ExperimentConfig(**params), manifest, tax)


def test_run_experiment_writes_artifacts(small_dataset, tmp_path):
    result = run_cheap(small_dataset, tmp_path)
    for key in ("model", "features", "predictions", "report", "row"):
        assert os.path.exists(result["paths"][key])
    row = result["row"]
    assert set(row) == {"modality", "target", "settings", "params",
                        "epoch_seconds", "auc", "c@1", "c@3", "c@5"}
    assert 0.0 <= row["auc"] <= 1.0
    assert result["features"].shape[0] == len(small_dataset[0])


def test_run_experiment_timbre_beats_chance(small_dataset, tmp_path):
    result = run_cheap(small_dataset, tmp_path)
    assert result["row"]["auc"] > 0.6


def test_run_experiment_cosine_head(small_dataset, tmp_path):
    result = run_cheap(small_dataset, tmp_path, target="cosine", d=5)
    scores = result["prediction"].scores
    assert np.isfinite(scores).all()
    assert (scores <= 1.0 + 1e-9).all() and (scores >= -1.0 - 1e-9).all()


RERUN_ROWS = {
    "timbre": {},
    "audio": dict(modality="audio", settings="low-3x3", target="cosine", d=3,
                  patch_width=32, batch_size=8),
    "text": dict(modality="text", settings="vsm+sem"),
    "image": dict(modality="image", settings="ingested",
                  optimizer={"kind": "sgd", "lr": 0.05, "momentum": 0.9}),
    "fusion": dict(modality="fusion", settings="mlp", target="cosine"),
}


def fusion_feature_files(ids, out_dir):
    """Random T and I feature files over ``ids``, as a fusion row reads them."""
    rng = np.random.default_rng(0)
    files = {}
    for mod, dim in (("T", 5), ("I", 3)):
        files[mod] = str(out_dir / f"{mod}.mufv")
        zoo.save_feature_vectors(rng.normal(size=(len(ids), dim)), ids, files[mod])
    return files


def _artifacts(run_dir):
    """Each file of a row directory, the records of row.json and the
    histories without their timing fields."""
    out = {}
    for path in sorted(run_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "row.json" or path.name.startswith("history_"):
            data = [json.loads(line) for line in data.splitlines()]
            for rec in data:
                rec.pop("seconds", None)
                rec.pop("epoch_seconds", None)
        out[path.name] = data
    return out


@pytest.mark.parametrize("modality", list(RERUN_ROWS))
def test_run_experiment_report_rerun_identical(small_dataset, tmp_path, modality):
    overrides = dict(RERUN_ROWS[modality], epochs=2)
    if modality == "fusion":
        overrides["feature_files"] = fusion_feature_files(small_dataset[0].ids(), tmp_path)
    for run in ("r1", "r2"):
        run_cheap(small_dataset, tmp_path, out_dir=str(tmp_path / run), **overrides)
    first = _artifacts(tmp_path / "r1")
    assert first == _artifacts(tmp_path / "r2")
    assert {"model.munn", "features.mufv", "predictions.mufv", "report.json",
            "row.json"} <= set(first)


def test_fusion_row_refuses_files_of_other_albums(small_dataset, tmp_path):
    files = fusion_feature_files(small_dataset[0].ids()[::-1], tmp_path)
    with pytest.raises(DataError, match="manifest"):
        run_cheap(small_dataset, tmp_path, modality="fusion", settings="mlp",
                  feature_files=files)


def test_run_experiment_writes_row_json_last(small_dataset, tmp_path, monkeypatch):
    """A rerun into a finished row directory first removes its row.json, so
    a rerun that fails before its end leaves no row.json behind."""
    first = run_cheap(small_dataset, tmp_path, epochs=2)
    assert os.path.exists(first["paths"]["row"])

    def failing_save_history(history, path):
        raise IoError(f"{path}: cannot write")

    monkeypatch.setattr(zoo, "save_history", failing_save_history)
    with pytest.raises(IoError):
        run_cheap(small_dataset, tmp_path, epochs=2)
    assert os.path.exists(first["paths"]["report"])
    assert not os.path.exists(first["paths"]["row"])


# a text row whose validation loss is best at epoch 1 of 3, so its
# checkpoint is written twice and then read back
BEST_NOT_LAST = dict(modality="text", settings="vsm", epochs=3, patience=5,
                     optimizer={"kind": "adam", "lr": 1e-2})


def test_checkpoint_reproduces_the_predictions_when_the_best_epoch_is_not_the_last(
        small_dataset, tmp_path):
    result = run_cheap(small_dataset, tmp_path, **BEST_NOT_LAST)
    val_losses = [json.loads(line)["val_loss"]
                  for line in open(result["paths"]["history_main"])]
    assert int(np.argmin(val_losses)) == 1 < len(val_losses) - 1
    manifest, _ = small_dataset
    cfg = result["config"]
    setup = prepare_labels(manifest, small_dataset[1], cfg.seed)
    x, _ = model_inputs(cfg, manifest, setup)
    scores, ids = zoo.load_feature_vectors(result["paths"]["predictions"])
    assert ids == [manifest.ids()[i] for i in setup.idx["test"]]
    got = zoo.predict(load_model(result["paths"]["model"]), x[setup.idx["test"]])
    np.testing.assert_array_equal(got, scores)


def fail_second_checkpoint_write(monkeypatch, name="model.munn"):
    """Make the second write of a file named ``name`` fail at its first
    ``os.pwrite``, as a full disk would.  Returns the list of failures."""
    opened, failed = [], []
    real_write, real_pwrite = binfile.write, os.pwrite

    def write(path, *parts):
        opened.append(os.path.basename(path))
        return real_write(path, *parts)

    def pwrite(fd, data, offset):
        if opened[-1] == name and opened.count(name) == 2:
            failed.append(name)
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_pwrite(fd, data, offset)

    monkeypatch.setattr(binfile, "write", write)
    monkeypatch.setattr(os, "pwrite", pwrite)
    return failed


def test_a_failed_snapshot_write_leaves_no_row_and_no_checkpoint(
        small_dataset, tmp_path, monkeypatch):
    failed = fail_second_checkpoint_write(monkeypatch)
    with pytest.raises(IoError, match="model.munn"):
        run_cheap(small_dataset, tmp_path, **BEST_NOT_LAST)
    assert failed
    assert not (tmp_path / "run" / "row.json").exists()
    assert not (tmp_path / "run" / "model.munn").exists()


# -------------------------------------------------------------------- report

def test_format_params():
    assert format_params(12_250) == "0.01M"
    assert format_params(25_190_650) == "25.19M"
    assert format_params(1_000_000) == "1M"


def test_report_table_shape():
    rows = [{"modality": "text", "target": "logistic", "settings": "vsm",
             "params": 12_250, "epoch_seconds": 1.5, "auc": 0.912,
             "c@1": 0.25, "c@3": 0.5, "c@5": None}]
    table = report_table(rows)
    lines = table.strip().split("\n")
    assert len(lines) == 3
    assert lines[0].startswith("Modality")
    assert "0.01M" in lines[2]
    assert "0.912" in lines[2]
    assert lines[2].rstrip().endswith("-")


def test_report_table_empty_raises():
    with pytest.raises(ValueError):
        report_table([])
