import json
import os
from pathlib import Path

import numpy as np
import pytest

from genrekit import binfile
from genrekit.audiofeat import Spectrogram, save_spectrogram
from genrekit.cli import main
from genrekit.experiment import ExperimentConfig, prepare_labels, run_experiment
from genrekit.labelspace import load_taxonomy
from genrekit.pipeline import SynthSpec, load_manifest, save_manifest, split, synth_dataset
from genrekit.zoo import FEATURE_MAGIC, load_feature_vectors, save_feature_vectors
from test_experiment import BEST_NOT_LAST, fail_second_checkpoint_write, fusion_feature_files


def test_synth_and_factorize(tmp_path, capsys):
    ds = tmp_path / "ds"
    code = main(["synth", "--out", str(ds), "--top-genres", "2",
                 "--subs-per-genre", "2", "--albums", "12",
                 "--tracks-per-album", "1", "--seed", "3"])
    assert code == 0
    assert (ds / "manifest.jsonl").exists()
    assert (ds / "taxonomy.txt").exists()
    assert list(ds.rglob("*.ids")) == []

    out = tmp_path / "factors.muf"
    code = main(["factorize", "--manifest", str(ds / "manifest.jsonl"),
                 "--taxonomy", str(ds / "taxonomy.txt"),
                 "--d", "4", "--out", str(out)])
    assert code == 0
    assert out.exists()
    from genrekit.labelspace import load_factor_model
    assert load_factor_model(out).d == 4


def test_train_and_evaluate(tmp_path, capsys):
    ds = tmp_path / "ds"
    main(["synth", "--out", str(ds), "--top-genres", "2",
          "--subs-per-genre", "2", "--albums", "15",
          "--tracks-per-album", "1", "--seed", "4"])
    capsys.readouterr()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"modality": "timbre", "settings": "timbre-mlp",
                               "epochs": 5}))
    run_dir = tmp_path / "run"
    code = main(["train", "--manifest", str(ds / "manifest.jsonl"),
                 "--taxonomy", str(ds / "taxonomy.txt"),
                 "--config", str(cfg), "--out", str(run_dir)])
    assert code == 0
    row = json.loads(capsys.readouterr().out.splitlines()[0])
    assert row["modality"] == "timbre"

    code = main(["evaluate", "--manifest", str(ds / "manifest.jsonl"),
                 "--taxonomy", str(ds / "taxonomy.txt"),
                 "--predictions", str(run_dir / "predictions.mufv")])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert "auc" in report and "coverage" in report


def test_fuse_command(tmp_path, capsys):
    import numpy as np
    from genrekit.zoo import load_feature_vectors, save_feature_vectors
    rng = np.random.default_rng(5)
    a, t = tmp_path / "a.mufv", tmp_path / "t.mufv"
    ids = ["x1", "x2"]
    save_feature_vectors(rng.normal(size=(2, 3)), ids, a)
    save_feature_vectors(rng.normal(size=(2, 4)), ids, t)
    out = tmp_path / "fused.mufv"
    code = main(["fuse", f"A={a}", f"T={t}", "--out", str(out)])
    assert code == 0
    mat, got_ids = load_feature_vectors(out)
    assert mat.shape == (2, 7)
    assert got_ids == ids


def test_infogain_command(tmp_path, capsys):
    ds = tmp_path / "ds"
    main(["synth", "--out", str(ds), "--top-genres", "2",
          "--subs-per-genre", "2", "--albums", "12",
          "--tracks-per-album", "1", "--seed", "6"])
    capsys.readouterr()
    code = main(["infogain", "--manifest", str(ds / "manifest.jsonl"),
                 "--taxonomy", str(ds / "taxonomy.txt"),
                 "--label", "genre00", "--top", "5"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert 1 <= len(lines) <= 5
    gain, term = lines[0].split("\t")
    assert float(gain) >= 0.0
    # the strongest term should be one of the planted keywords
    assert "genre00" in term


def test_report_command(tmp_path, capsys):
    rows_path = tmp_path / "rows.jsonl"
    rows_path.write_text(json.dumps({
        "modality": "text", "target": "logistic", "settings": "vsm",
        "params": 1000, "epoch_seconds": 0.1, "auc": 0.9,
        "c@1": 0.2, "c@3": 0.4, "c@5": 0.6}) + "\n")
    code = main(["report", "--rows", str(rows_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("Modality")


def test_exit_code_config_error(tmp_path, capsys):
    code = main(["train"])  # missing manifest/taxonomy
    assert code == 2


def test_exit_code_data_error(tmp_path, capsys):
    bad = tmp_path / "m.jsonl"
    bad.write_text("{broken\n")
    tax = tmp_path / "t.txt"
    tax.write_text("genre00\n")
    code = main(["train", "--manifest", str(bad), "--taxonomy", str(tax)])
    assert code == 3


@pytest.mark.parametrize("lines", [
    ['{broken'],
    ['{"id": "a1", "labels": ["genre00"]}', '{"id": "a1", "labels": ["genre00"]}'],
    ['{"id": "a1", "labels": ["genre00"], "tracks": ["absent.mucq"]}'],
], ids=["parse-error", "duplicate-id", "dangling-path"])
def test_manifest_errors_name_the_manifest(tmp_path, capsys, lines):
    bad = tmp_path / "bad-manifest.jsonl"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    tax = _write(tmp_path / "t.txt", "genre00\n")
    assert main(["train", "--manifest", str(bad), "--taxonomy", tax,
                 "--out", str(tmp_path / "run")]) == 3
    assert f"{bad}: line {len(lines)}" in capsys.readouterr().err


def test_train_refuses_a_lone_surrogate_id_before_writing(tmp_path, capsys):
    """Feature files store ids as UTF-8, so such an id is refused while the
    manifest loads, before any model is trained or written."""
    ds = tmp_path / "ds"
    synth_dataset(SynthSpec(n_top_genres=2, subs_per_genre=2, albums=12,
                            tracks_per_album=1, seed=3), ds)
    manifest = ds / "manifest.jsonl"
    first, *rest = manifest.read_text(encoding="utf-8").splitlines()
    rec = json.loads(first)
    rec["id"] = "\ud800x"
    manifest.write_text("\n".join([json.dumps(rec), *rest]) + "\n", encoding="utf-8")
    run = tmp_path / "run"
    assert main(["train", "--manifest", str(manifest), "--taxonomy", str(ds / "taxonomy.txt"),
                 "--out", str(run)]) == 3
    assert "line 1" in capsys.readouterr().err
    assert not run.exists()


@pytest.fixture(scope="module")
def tiny_ds(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_ds")
    synth_dataset(SynthSpec(n_top_genres=2, subs_per_genre=2, albums=20, tracks_per_album=1,
                            seed=5, min_frames=60, max_frames=80, image_dim=8), root)
    return ["--manifest", str(root / "manifest.jsonl"),
            "--taxonomy", str(root / "taxonomy.txt")]


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("seed", [3, 7, 13])
def test_train_refuses_an_unscorable_split_before_training(tmp_path, capsys, tiny_ds, seed):
    """No kept label has both positives and negatives among these seeds' test
    albums: the row is refused (exit 3, naming the seed) before any
    directory, checkpoint or training."""
    cfg = _write(tmp_path / "cfg.json",
                 '{"modality": "timbre", "settings": "timbre-mlp", "epochs": 3}')
    run = tmp_path / "run"
    assert main(["train", *tiny_ds, "--config", cfg, "--seed", str(seed),
                 "--out", str(run)]) == 3
    err = capsys.readouterr().err
    assert "no label has both positives and negatives" in err and f"seed {seed}" in err
    assert not (run / "model.munn").exists()
    assert not run.exists()


ROW = {"modality": "text", "target": "logistic", "settings": "vsm", "params": 1,
       "epoch_seconds": 0.1, "auc": 0.5}


@pytest.mark.parametrize("case,code", [
    ("missing-manifest", 3), ("missing-taxonomy", 3), ("missing-config", 3),
    ("missing-rows", 3), ("missing-predictions", 3),
    ("train-config-not-json", 2), ("experiment-config-not-json", 2),
    ("infogain-config-not-json", 2), ("train-config-not-object", 2),
    ("experiment-config-not-list", 2), ("experiment-config-empty-list", 2),
    ("evaluate-unknown-ids", 3), ("evaluate-wrong-columns", 3), ("report-rows-not-json", 3),
    ("report-row-lacks-column", 3), ("report-no-rows", 3), ("train-config-epochs-str", 2),
    ("train-config-bad-optimizer", 2), ("evaluate-out-missing-dir", 3),
    ("train-out-under-file", 3), ("synth-out-under-file", 3),
    ("synth-negative-seed", 2), ("synth-zero-albums", 2), ("infogain-top-zero", 2),
    ("infogain-top-negative", 2), ("fuse-unknown-modality", 2),
    ("fuse-repeated-modality", 2), ("extract-unknown-modality", 2),
])
def test_text_input_exit_codes(tmp_path, capsys, tiny_ds, case, code):
    missing = str(tmp_path / "absent")
    not_json = _write(tmp_path / "bad.json", "{modality: text")
    listed = _write(tmp_path / "list.json", "[1]")
    rows = tmp_path / "rows.jsonl"
    preds = tmp_path / "p.mufv"
    save_feature_vectors(np.zeros((2, 3)), ["nope1", "nope2"], preds)
    manifest, tax = load_manifest(tiny_ds[1]), load_taxonomy(tiny_ds[3])
    n_labels = len(prepare_labels(manifest, tax, ExperimentConfig().seed).kept_labels)
    good_preds = tmp_path / "good.mufv"
    save_feature_vectors(np.random.default_rng(0).random((len(manifest), n_labels)),
                         manifest.ids(), good_preds)
    wide_preds = tmp_path / "wide.mufv"
    save_feature_vectors(np.zeros((len(manifest), n_labels + 1)), manifest.ids(), wide_preds)
    a_file = _write(tmp_path / "file", "")
    argv = {
        "missing-manifest": ["train", "--manifest", missing, *tiny_ds[2:]],
        "missing-taxonomy": ["train", *tiny_ds[:2], "--taxonomy", missing],
        "missing-config": ["train", *tiny_ds, "--config", missing],
        "missing-rows": ["report", "--rows", missing],
        "missing-predictions": ["evaluate", *tiny_ds, "--predictions", missing],
        "train-config-not-json": ["train", *tiny_ds, "--config", not_json],
        "experiment-config-not-json": ["experiment", *tiny_ds, "--config", not_json,
                                       "--out", str(tmp_path / "runs")],
        "infogain-config-not-json": ["infogain", *tiny_ds, "--config", not_json,
                                     "--label", "genre00"],
        "train-config-not-object": ["train", *tiny_ds, "--config", listed],
        "experiment-config-not-list": ["experiment", *tiny_ds, "--config",
                                       _write(tmp_path / "obj.json", "{}"),
                                       "--out", str(tmp_path / "runs")],
        "experiment-config-empty-list": ["experiment", *tiny_ds, "--config",
                                         _write(tmp_path / "empty.json", "[]"),
                                         "--out", str(tmp_path / "runs")],
        "evaluate-unknown-ids": ["evaluate", *tiny_ds, "--predictions", str(preds)],
        "evaluate-wrong-columns": ["evaluate", *tiny_ds, "--predictions", str(wide_preds)],
        "report-rows-not-json": ["report", "--rows", _write(rows, "{broken\n")],
        "report-row-lacks-column": [
            "report", "--rows", _write(rows, json.dumps(
                {k: v for k, v in ROW.items() if k != "auc"}) + "\n")],
        "report-no-rows": ["report", "--rows", _write(rows, "\n")],
        "train-config-epochs-str": ["train", *tiny_ds, "--config", _write(
            tmp_path / "epochs.json",
            '{"modality": "timbre", "settings": "timbre-mlp", "epochs": "3"}')],
        "train-config-bad-optimizer": ["train", *tiny_ds, "--config", _write(
            tmp_path / "optimizer.json",
            '{"modality": "timbre", "settings": "timbre-mlp", "optimizer": {"kind": "rmsprop"}}')],
        "evaluate-out-missing-dir": ["evaluate", *tiny_ds, "--predictions", str(good_preds),
                                     "--out", str(tmp_path / "absent" / "r.json")],
        "train-out-under-file": ["train", *tiny_ds, "--out", f"{a_file}/run"],
        "synth-out-under-file": ["synth", "--albums", "10", "--out", f"{a_file}/ds"],
        "synth-negative-seed": ["synth", "--albums", "10", "--seed", "-1",
                                "--out", str(tmp_path / "ds")],
        "synth-zero-albums": ["synth", "--albums", "0", "--out", str(tmp_path / "ds")],
        "infogain-top-zero": ["infogain", *tiny_ds, "--label", "genre00", "--top", "0"],
        "infogain-top-negative": ["infogain", *tiny_ds, "--label", "genre00", "--top", "-3"],
        "fuse-unknown-modality": ["fuse", f"A={good_preds}", f"X={good_preds}",
                                  "--out", str(tmp_path / "f.mufv")],
        "fuse-repeated-modality": ["fuse", f"A={good_preds}", f"A={good_preds}",
                                   "--out", str(tmp_path / "f.mufv")],
        "extract-unknown-modality": ["extract", *tiny_ds, "--config", _write(
            tmp_path / "video.json", '{"modality": "video"}'), "--model", missing],
    }[case]
    assert main(argv) == code
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("case", ["report-rows", "manifest", "taxonomy"])
def test_nul_head_is_refused_naming_the_file(tmp_path, capsys, tiny_ds, case):
    """A text artifact whose first bytes are NUL, as a write that did not
    finish leaves it, is refused with exit 3: a taxonomy would otherwise load
    with a label named by its NULs."""
    sources = {"report-rows": _write(tmp_path / "rows.jsonl", json.dumps(ROW) + "\n"),
               "manifest": tiny_ds[1], "taxonomy": tiny_ds[3]}
    source = Path(sources[case])
    bad = source.with_name(f"nul-head-{source.name}")  # beside it, so its paths resolve
    bad.write_bytes(bytes(4) + source.read_bytes()[4:])
    out = ["--out", str(tmp_path / "run")]
    argv = {"report-rows": ["report", "--rows", str(bad)],
            "manifest": ["train", "--manifest", str(bad), *tiny_ds[2:], *out],
            "taxonomy": ["train", *tiny_ds[:2], "--taxonomy", str(bad), *out]}[case]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert str(bad) in err and "NUL" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("case", ["report-config", "fuse-seed", "synth-manifest"])
def test_option_a_subcommand_does_not_read_is_refused(tmp_path, capsys, case):
    """An option the subcommand would ignore is an argparse error (exit 2)."""
    rows = _write(tmp_path / "rows.jsonl", json.dumps(ROW) + "\n")
    vectors = tmp_path / "a.mufv"
    save_feature_vectors(np.ones((2, 3)), ["x1", "x2"], vectors)
    argv = {
        "report-config": ["report", "--rows", rows, "--config", "x"],
        "fuse-seed": ["fuse", f"A={vectors}", "--out", str(tmp_path / "f.mufv"),
                      "--seed", "1"],
        "synth-manifest": ["synth", "--albums", "10", "--out", str(tmp_path / "ds"),
                           "--manifest", "m"],
    }[case]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("row,checkpoint", [
    ({"modality": "text", "settings": "vsm", "epochs": 2}, "model.munn"),
    ({"modality": "timbre", "settings": "timbre-mlp", "epochs": 3}, "model.munn"),
    ({"modality": "audio", "settings": "low-4x70", "epochs": 1, "patch_width": 48,
      "batch_size": 8}, "track_model.munn"),
    ({"modality": "fusion", "settings": "mlp", "target": "cosine", "epochs": 2},
     "model.munn"),
])
def test_extract_matches_the_rows_features(tmp_path, capsys, tiny_ds, row, checkpoint):
    """A fusion row's features are its fused inputs, the penultimate layer
    of its shallow model."""
    if row["modality"] == "fusion":
        row = {**row, "feature_files": fusion_feature_files(
            load_manifest(tiny_ds[1]).ids(), tmp_path)}
    cfg = _write(tmp_path / "cfg.json", json.dumps(row))
    run = tmp_path / "run"
    assert main(["train", *tiny_ds, "--config", cfg, "--out", str(run)]) == 0
    out = tmp_path / "x.mufv"
    assert main(["extract", *tiny_ds, "--config", cfg, "--model", str(run / checkpoint),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (run / "features.mufv").read_bytes()
    assert list(tmp_path.rglob("*.ids")) == []


def test_extract_keeps_the_config_seed(tmp_path, capsys, tiny_ds):
    """Without --seed, extract uses the seed in --config: the split, and so the
    standardization statistics, are the row's own."""
    row = {"modality": "audio", "settings": "low-4x70", "epochs": 1, "patch_width": 48,
           "batch_size": 8, "seed": 1, "out_dir": str(tmp_path / "run")}
    manifest, tax = load_manifest(tiny_ds[1]), load_taxonomy(tiny_ds[3])
    run_experiment(ExperimentConfig(**row), manifest, tax)
    cfg = _write(tmp_path / "cfg.json", json.dumps(row))
    out = tmp_path / "x.mufv"
    assert main(["extract", *tiny_ds, "--config", cfg, "--model",
                 str(tmp_path / "run" / "track_model.munn"), "--out", str(out)]) == 0
    assert out.read_bytes() == (tmp_path / "run" / "features.mufv").read_bytes()


def test_extract_refuses_a_model_of_another_seed(tmp_path, capsys, tiny_ds):
    """A text row trained at seed 1 and extracted at seed 2 would have its
    vocabulary refit on seed 2's split, and so other features."""
    cfg = _write(tmp_path / "cfg.json", json.dumps(
        {"modality": "text", "settings": "vsm", "epochs": 2, "seed": 1}))
    run, out = tmp_path / "run", tmp_path / "x.mufv"
    assert main(["train", *tiny_ds, "--config", cfg, "--out", str(run)]) == 0
    capsys.readouterr()
    assert main(["extract", *tiny_ds, "--config", cfg, "--seed", "2",
                 "--model", str(run / "model.munn"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "seed 1" in err and "seed is 2" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "fuse"])
def test_feature_file_with_a_repeated_id_is_refused(tmp_path, capsys, tiny_ds, command):
    """A file whose first row is appended again under its id would count
    that album twice."""
    manifest, tax = load_manifest(tiny_ds[1]), load_taxonomy(tiny_ds[3])
    n_labels = len(prepare_labels(manifest, tax, ExperimentConfig().seed).kept_labels)
    scores = np.random.default_rng(0).random((len(manifest), n_labels))
    path = tmp_path / "repeated.mufv"
    ids = manifest.ids() + manifest.ids()[:1]  # save_feature_vectors refuses these ids
    binfile.write(path, FEATURE_MAGIC, binfile.fields(len(ids), n_labels),
                  np.vstack([scores, scores[:1]]), *binfile.strings(ids))
    argv = {"evaluate": ["evaluate", *tiny_ds, "--predictions", str(path)],
            "fuse": ["fuse", f"A={path}", "--out", str(tmp_path / "f.mufv")]}[command]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert str(path) in err and repr(manifest.ids()[0]) in err and "Traceback" not in err


@pytest.mark.parametrize("case", ["other-album", "no-rows", "two-rows"])
def test_image_vector_file_must_hold_its_album(tmp_path, capsys, case):
    """An image row trains only on one vector per album whose id is the album's."""
    ds = tmp_path / "ds"
    manifest, _ = synth_dataset(SynthSpec(n_top_genres=2, subs_per_genre=2, albums=12,
                                          tracks_per_album=1, seed=3, image_dim=4), ds)
    victim, other = manifest.items[0], manifest.items[1]
    vectors = {"other-album": (np.ones((1, 4)), [other.id]),
               "no-rows": (np.ones((0, 4)), []),
               "two-rows": (np.ones((2, 4)), [victim.id, other.id])}[case]
    save_feature_vectors(*vectors, manifest.resolve(victim.image_vec))
    cfg = _write(tmp_path / "cfg.json", json.dumps(
        {"modality": "image", "settings": "ingested", "epochs": 2}))
    assert main(["train", "--manifest", str(ds / "manifest.jsonl"),
                 "--taxonomy", str(ds / "taxonomy.txt"), "--config", cfg,
                 "--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert victim.image_vec in err and "Traceback" not in err


def test_train_exits_3_when_a_snapshot_write_fails(tmp_path, capsys, tiny_ds, monkeypatch):
    cfg = _write(tmp_path / "cfg.json", json.dumps(BEST_NOT_LAST))
    failed = fail_second_checkpoint_write(monkeypatch)
    run = tmp_path / "run"
    assert main(["train", *tiny_ds, "--config", cfg, "--out", str(run)]) == 3
    assert failed
    err = capsys.readouterr().err
    assert "model.munn" in err and "Traceback" not in err
    assert not (run / "row.json").exists() and not (run / "model.munn").exists()


AUDIO_ROW = {"modality": "audio", "settings": "low-4x70", "patch_width": 16, "batch_size": 8,
             "epochs": 1}


def _audio_ds(tmp_path):
    ds = tmp_path / "ds"
    manifest, _ = synth_dataset(SynthSpec(n_top_genres=2, subs_per_genre=2, albums=12,
                                          tracks_per_album=1, seed=3, n_bins=16,
                                          min_frames=20, max_frames=30, image_dim=4), ds)
    return manifest, ["--manifest", str(ds / "manifest.jsonl"),
                      "--taxonomy", str(ds / "taxonomy.txt")]


def test_train_refuses_albums_without_tracks_before_training(tmp_path, capsys):
    """An audio row whose training albums have no track exits 3, not with a
    division by zero after the CNN's bin statistics went NaN."""
    manifest, inputs = _audio_ds(tmp_path)
    tax = load_taxonomy(inputs[3])
    for i in prepare_labels(manifest, tax, ExperimentConfig().seed).idx["train"]:
        manifest.items[i].tracks = []
    save_manifest(manifest, inputs[1])
    cfg = _write(tmp_path / "cfg.json", json.dumps(AUDIO_ROW))
    assert main(["train", *inputs, "--config", cfg, "--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert "no audio tracks" in err and "Traceback" not in err


@pytest.mark.parametrize("case", ["other-bin-count", "no-frames", "image-width"])
def test_train_refuses_ragged_inputs(tmp_path, capsys, case):
    """One spectrogram with another bin count or no frame, or one image
    vector of another width, is refused naming its file (exit 3)."""
    manifest, inputs = _audio_ds(tmp_path)
    victim = manifest.items[3]
    if case == "image-width":
        path = manifest.resolve(victim.image_vec)
        save_feature_vectors(np.ones((1, 5)), [victim.id], path)
        row = {"modality": "image", "settings": "ingested", "epochs": 1}
    else:
        path = manifest.resolve(victim.tracks[0])
        shape = (12, 20) if case == "other-bin-count" else (16, 0)
        save_spectrogram(Spectrogram(np.ones(shape)), path)
        row = AUDIO_ROW
    cfg = _write(tmp_path / "cfg.json", json.dumps(row))
    assert main(["train", *inputs, "--config", cfg, "--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert path in err and "Traceback" not in err


# ---------------------------------------------------------------- grid rules

TIMBRE_ROW = {"modality": "timbre", "settings": "timbre-mlp", "epochs": 3}


def _experiment(tmp_path, tiny_ds, grid, *extra):
    """``genrekit experiment`` on ``grid``, run from ``tmp_path``, into
    ``tmp_path/g``; returns the exit code."""
    cfg = _write(tmp_path / "grid.json", json.dumps(grid))
    return main(["experiment", *tiny_ds, "--config", cfg, "--out", str(tmp_path / "g"),
                 *extra])


def test_experiment_rows_split_on_the_grid_seed(tmp_path, capsys, tiny_ds, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _experiment(tmp_path, tiny_ds, [TIMBRE_ROW], "--seed", "8") == 0
    _, predicted = load_feature_vectors(
        tmp_path / "g" / "timbre_logistic_timbre-mlp" / "predictions.mufv")
    ids = load_manifest(tiny_ds[1]).ids()
    tests = {seed: [i for i in ids if split(ids, seed).tags[i] == "test"] for seed in (8, 42)}
    assert tests[8] != tests[42]
    assert predicted == tests[8]


def test_experiment_writes_rows_without_out_dir_under_out(tmp_path, capsys, tiny_ds,
                                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    image_row = {"modality": "image", "settings": "ingested", "epochs": 3}
    assert _experiment(tmp_path, tiny_ds, [TIMBRE_ROW, image_row]) == 0
    assert not (tmp_path / "runs").exists()
    rows = [json.loads(line) for line in (tmp_path / "g" / "rows.jsonl").read_text().split("\n")
            if line]
    for name, row in zip(("timbre_logistic_timbre-mlp", "image_logistic_ingested"), rows):
        assert json.loads((tmp_path / "g" / name / "row.json").read_text()) == row


@pytest.mark.parametrize("case", ["not-a-row", "other-seed", "shared-dir", "fusion-dir"])
def test_experiment_refuses_a_bad_grid_before_any_row_runs(tmp_path, capsys, tiny_ds,
                                                           monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    shared = {"out_dir": str(tmp_path / "g" / "row")}
    grid = {
        "not-a-row": [TIMBRE_ROW, 5],
        "other-seed": [{**TIMBRE_ROW, "seed": 2}],
        "shared-dir": [{**TIMBRE_ROW, **shared}, {**TIMBRE_ROW, "target": "cosine", **shared}],
        "fusion-dir": [
            {"modality": "audio", "settings": "low-4x70", "epochs": 1, "patch_width": 48,
             "batch_size": 8},
            {"modality": "text", "settings": "vsm", "epochs": 1},
            {"modality": "image", "settings": "ingested", "epochs": 1},
            {**TIMBRE_ROW, "out_dir": str(tmp_path / "g" / "fusion_cosine_ATI")}],
    }[case]
    assert _experiment(tmp_path, tiny_ds, grid, "--seed", "8") == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "g").exists() and not (tmp_path / "runs").exists()
