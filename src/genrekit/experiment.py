"""Experiment orchestration: the modality table, the one flow that runs a
results row, the results-table grid, and the text report.

``MODALITIES`` is all that a modality contributes to a row: its valid
settings, its letter in a fusion row, and the function that builds its
model inputs.  Audio's inputs are standardized patches, one per track, with
each track's album position; those of text, timbre, image and fusion (of
other rows' feature files) are one row per album.

``run_experiment`` runs every row the same way.  An audio row first trains
its track CNN and averages its penultimate activations per album.  Then
every row trains one album-level model (the text MLP, or a shallow model),
predicts the test split and scores it.  Standardization statistics are
fitted on the training split, the vocabulary and the label factorization
on train+validation; test items never contribute their labels to anything
but the final metrics.
"""

import collections
import dataclasses
import json
import os
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import audiofeat, binfile, labelspace, metrics, textfeat, zoo
from .errors import (
    AllLabelsSkipped, ConfigError, ConfigInvalid, DataError, EmptyAlbum, StatsDimensionMismatch)
from .nn import make_optimizer
from .pipeline import split

FUSION_COSINE_DROPOUT = 0.7
# integer fields and their least valid value
_INT_FIELD_MINIMA = {"d": 1, "seed": 0, "patch_width": 1, "batch_size": 1, "epochs": 1,
                     "patience": 1}


@dataclass
class ExperimentConfig:
    modality: str = "text"
    target: str = "logistic"
    settings: str = "vsm"
    feature_files: dict = field(default_factory=dict)  # fusion: "A"/"T"/"I" -> MUFV path
    d: int = 50
    seed: int = 42
    patch_width: int = audiofeat.DEFAULT_PATCH_WIDTH
    batch_size: int = 32
    epochs: int = 50
    patience: int = 5
    optimizer: dict = field(default_factory=lambda: {"kind": "adam", "lr": 1e-3})
    out_dir: str = "runs"

    def __post_init__(self):
        for name in ("modality", "target", "settings", "out_dir"):
            if not isinstance(getattr(self, name), str):
                raise ConfigInvalid(f"{name} must be a string, got {getattr(self, name)!r}")
        if self.modality not in MODALITIES:
            raise ConfigError(f"unknown modality {self.modality!r}")
        if self.target not in ("logistic", "cosine"):
            raise ConfigError(f"unknown target {self.target!r}")
        if self.settings not in MODALITIES[self.modality].settings:
            raise ConfigError(
                f"settings {self.settings!r} invalid for modality {self.modality!r}")
        zoo.check_ints(self, _INT_FIELD_MINIMA)
        files = self.feature_files
        if not isinstance(files, dict) or not all(
                k in zoo.MODALITY_ORDER and isinstance(v, str) for k, v in files.items()):
            raise ConfigInvalid(f"feature_files must map letters from "
                                f"{', '.join(zoo.MODALITY_ORDER)} to paths, got {files!r}")
        if self.modality == "fusion" and not files:
            raise ConfigInvalid("a fusion row needs feature_files")
        make_optimizer(self.optimizer)

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ConfigInvalid(f"a config must be a JSON object, got {data!r}")
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, path):
        return cls.from_dict(read_json(path))


def read_json(path):
    """A JSON config file: IoError if unreadable, ConfigInvalid if not JSON."""
    try:
        return json.loads(binfile.read_text(path))
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"{path}: not JSON: {exc}") from exc


@dataclass
class LabelSetup:
    kept_labels: list  # taxonomy label ids, dense order
    truth: np.ndarray  # (m, n_kept) over all manifest items
    rows: list  # per item, kept-label ids
    idx: dict  # split tag -> item positions in manifest order


def prepare_labels(manifest, tax, seed):
    """The split of ``seed`` and the labels that some train or val album
    carries, after closure under the taxonomy."""
    ids = manifest.ids()
    closed = [sorted(labelspace.close_labels(it.labels, tax)) for it in manifest.items]
    tags = split(ids, seed).tags
    idx = {tag: [i for i, item_id in enumerate(ids) if tags[item_id] == tag]
           for tag in ("train", "val", "test")}
    trainval = idx["train"] + idx["val"]
    support = np.zeros(tax.n_labels, dtype=np.int64)
    for i in trainval:
        if not closed[i]:
            raise DataError(f"item {ids[i]!r} has no labels")
        support[closed[i]] += 1
    kept = [j for j in range(tax.n_labels) if support[j] > 0]
    remap = {old: new for new, old in enumerate(kept)}
    rows = [sorted(remap[j] for j in r if j in remap) for r in closed]
    truth = np.zeros((len(ids), len(kept)))
    for i, r in enumerate(rows):
        truth[i, r] = 1.0
    return LabelSetup(kept, truth, rows, idx)


def fit_factors(setup, d):
    """PPMI + SVD on train+validation annotations; d is clamped to the
    number of kept labels."""
    trainval = setup.idx["train"] + setup.idx["val"]
    sub = labelspace.ItemLabelMatrix.from_rows(
        [setup.rows[i] for i in trainval], len(setup.kept_labels))
    ppmi = labelspace.compute_ppmi(sub)
    d_eff = min(d, len(setup.kept_labels))
    return labelspace.factorize(ppmi, d_eff)


def _item_factor_targets(setup, factor_model, positions):
    mat = labelspace.ItemLabelMatrix.from_rows(
        [setup.rows[i] for i in positions], len(setup.kept_labels))
    return labelspace.item_factors(factor_model.label_factors, mat)


# ----------------------------------------------------------------- features

def text_corpus(manifest, cfg):
    corpus = []
    for it in manifest.items:
        text = textfeat.aggregate_and_truncate(it.reviews)
        tokens = textfeat.tokenize(text)
        if cfg.settings.endswith("+sem"):
            tokens = textfeat.append_enrichment(tokens, it.enrichment)
        corpus.append(tokens)
    return corpus


def text_features(manifest, cfg, trainval_positions):
    corpus = text_corpus(manifest, cfg)
    vocab = textfeat.build_vocabulary([corpus[i] for i in trainval_positions])
    return textfeat.tfidf(corpus, vocab)


def _timbre_inputs(cfg, manifest, setup):
    out = []
    for it in manifest.items:
        stats = [audiofeat.timbre_stats(audiofeat.load_timbre(manifest.resolve(p)))
                 for p in it.timbre]
        if not stats:
            raise DataError(f"item {it.id!r} has no timbre matrices")
        out.append(np.mean(stats, axis=0))
    return _column_standardize(np.asarray(out), setup.idx["train"]), None


def _same_size(first, path, n, unit):
    """StatsDimensionMismatch unless ``n`` is the size in ``first``, the
    (path, size) pair of the first file read (None before it); returns the
    pair to keep."""
    if first is not None and n != first[1]:
        raise StatsDimensionMismatch(f"{path}: {n} {unit}, but {first[0]} has {first[1]}")
    return first or (path, n)


def _image_inputs(cfg, manifest, setup):
    out, first = [], None
    for it in manifest.items:
        if not it.image_vec:
            raise DataError(f"item {it.id!r} has no image vector")
        path = manifest.resolve(it.image_vec)
        mat, ids = zoo.load_feature_vectors(path)
        if ids != [it.id]:
            raise DataError(f"{path}: image vector ids {ids!r}, expected one row "
                            f"for album {it.id!r}")
        first = _same_size(first, path, mat.shape[1], "columns")
        out.append(mat[0])
    return _column_standardize(np.asarray(out), setup.idx["train"]), None


def audio_patches(manifest, cfg):
    """One seeded patch per track, written into one (tracks, bins, width)
    array. Returns (patches, album position per track);
    StatsDimensionMismatch if two tracks differ in their bin count."""
    tracks = [(pos, rel) for pos, it in enumerate(manifest.items) for rel in it.tracks]
    if not tracks:
        raise DataError("manifest has no audio tracks")
    patches, first = None, None
    for counter, (_, rel) in enumerate(tracks):
        path = manifest.resolve(rel)
        spec = audiofeat.load_spectrogram(path)
        first = _same_size(first, path, spec.n_bins, "bins")
        if patches is None:
            patches = np.empty((len(tracks), spec.n_bins, cfg.patch_width))
        rng = np.random.default_rng([cfg.seed, 7, counter])
        patches[counter] = audiofeat.sample_patch(spec, cfg.patch_width, rng)
    return patches, np.asarray([pos for pos, _ in tracks])


def _column_standardize(features, train_positions):
    mean = features[train_positions].mean(axis=0)
    std = features[train_positions].std(axis=0)
    return (features - mean) / np.maximum(std, 1e-6)


def _audio_inputs(cfg, manifest, setup):
    for it in manifest.items:
        if not it.tracks:
            raise EmptyAlbum(f"album {it.id!r} has no audio tracks")
    patches, album_of_track = audio_patches(manifest, cfg)
    rows = np.flatnonzero(np.isin(album_of_track, setup.idx["train"]))
    stats = audiofeat.fit_bin_stats(patches, rows)
    return audiofeat.standardize(patches, stats)[:, None, :, :], album_of_track


def _text_inputs(cfg, manifest, setup):
    return text_features(manifest, cfg, setup.idx["train"] + setup.idx["val"]), None


def _fusion_inputs(cfg, manifest, setup):
    fused, ids = zoo.fuse_files(cfg.feature_files)
    if ids != manifest.ids():
        raise DataError(f"{', '.join(cfg.feature_files.values())}: ids differ from the manifest's")
    return fused, None


@dataclass(frozen=True)
class Modality:
    """What a modality contributes to a results row."""

    settings: tuple  # the valid values of a row's `settings`
    letter: str | None  # its block in a fusion row (zoo.MODALITY_ORDER), if any
    # (cfg, manifest, setup) -> (model inputs, album position per track or None)
    inputs: Callable


MODALITIES = {
    "audio": Modality(("low-3x3", "high-3x3", "low-4x96", "high-4x96", "low-4x70",
                       "high-4x70"), "A", _audio_inputs),
    "timbre": Modality(("timbre-mlp",), None, _timbre_inputs),
    "text": Modality(("vsm", "vsm+sem"), "T", _text_inputs),
    "image": Modality(("ingested",), "I", _image_inputs),
    "fusion": Modality(("mlp",), None, _fusion_inputs),
}


def model_inputs(cfg, manifest, setup):
    """A row's model inputs, from its modality's entry in ``MODALITIES``."""
    return MODALITIES[cfg.modality].inputs(cfg, manifest, setup)


def album_features(model, inputs, album_of_track, cfg, n_albums):
    """Penultimate activations per album; per-track ones are averaged."""
    if album_of_track is None:
        return zoo.extract_features(model, inputs)
    track_feats = zoo.extract_features(model, inputs, batch_size=cfg.batch_size)
    grouped = {a: [] for a in range(n_albums)}
    for feat, a in zip(track_feats, album_of_track):
        grouped[int(a)].append(feat)
    album_vecs = zoo.average_tracks(grouped)
    return np.asarray([album_vecs[a] for a in range(n_albums)])


# ------------------------------------------------------------ orchestration

def _train_config(cfg, seed):
    return zoo.TrainConfig(batch_size=cfg.batch_size, epochs=cfg.epochs,
                           patience=cfg.patience, seed=seed,
                           optimizer=dict(cfg.optimizer))


def _targets(setup, factor_model, cfg, positions):
    if cfg.target == "logistic":
        return setup.truth[positions]
    return _item_factor_targets(setup, factor_model, positions)


class _Rows:
    """Rows ``index`` of ``array`` without a copy of them: ``rows[key]`` is
    ``array[index[key]]`` for a slice or an index array, which is all that
    ``zoo.train`` reads of its inputs besides ``shape``."""

    def __init__(self, array, index):
        self.array, self.index = array, index
        self.shape = (len(index),) + array.shape[1:]

    def __getitem__(self, key):
        return self.array[self.index[key]]


def run_experiment(cfg, manifest, tax):
    """Execute one results row. Returns a dict with the evaluation report,
    the table row, the album-level feature matrix, and artifact paths."""
    setup = prepare_labels(manifest, tax, cfg.seed)
    # a row that cannot be scored is refused before anything is written or trained
    positives = setup.truth[setup.idx["test"]].sum(axis=0)
    if not ((positives > 0) & (positives < len(setup.idx["test"]))).any():
        raise AllLabelsSkipped(f"seed {cfg.seed}: no label has both positives and negatives "
                               "among the test albums")
    binfile.make_dirs(cfg.out_dir)
    binfile.remove(os.path.join(cfg.out_dir, "row.json"))  # written last: marks a complete row
    factor_model = fit_factors(setup, cfg.d) if cfg.target == "cosine" else None
    n_out = (len(setup.kept_labels) if cfg.target == "logistic"
             else factor_model.label_factors.shape[1])
    tr, va, te = setup.idx["train"], setup.idx["val"], setup.idx["test"]
    x, album_of_track = model_inputs(cfg, manifest, setup)
    seed, histories, row_model = cfg.seed, {}, None

    if album_of_track is not None:  # audio: a track CNN, its features averaged per album
        width_name, shape_name = cfg.settings.split("-")
        # tracks inherit album targets
        track_targets = _targets(setup, factor_model, cfg, album_of_track.tolist())
        train_tracks, val_tracks = np.isin(album_of_track, tr), np.isin(album_of_track, va)
        cnn_cfg = zoo.AudioCnnConfig(filter_shape=shape_name, width=width_name,
                                     head=cfg.target)
        row_model = zoo.build_audio_cnn(cnn_cfg, n_out, n_bins=x.shape[2],
                                        width=cfg.patch_width, seed=seed)
        histories["track"] = zoo.train(
            row_model, _Rows(x, np.flatnonzero(train_tracks)), track_targets[train_tracks],
            _Rows(x, np.flatnonzero(val_tracks)), track_targets[val_tracks],
            _train_config(cfg, seed), os.path.join(cfg.out_dir, "track_model.munn"))
        x = album_features(row_model, x, album_of_track, cfg, len(manifest))
        seed += 1

    if cfg.modality == "text":
        model = zoo.build_text_mlp(n_out, cfg.target, in_dim=x.shape[1], seed=seed)
    else:  # a shallow model, whose penultimate layer is its input
        dropout = (FUSION_COSINE_DROPOUT
                   if cfg.modality == "fusion" and cfg.target == "cosine" else 0.0)
        model = zoo.build_shallow(x.shape[1], n_out, cfg.target, dropout=dropout, seed=seed)
    paths = {"model": os.path.join(cfg.out_dir, "model.munn")}
    histories["main" if album_of_track is None else "album"] = zoo.train(
        model, x[tr], _targets(setup, factor_model, cfg, tr),
        x[va], _targets(setup, factor_model, cfg, va), _train_config(cfg, seed),
        paths["model"])
    feature_matrix = zoo.extract_features(model, x) if cfg.modality == "text" else x
    outputs = zoo.predict(model, x[te])
    if cfg.target == "cosine":
        outputs, _ = metrics.scores_from_cosine_head(outputs, factor_model.label_factors)
    pred = metrics.PredictionMatrix(outputs, setup.truth[te])

    report = metrics.evaluate(pred)
    # an audio row reports its track CNN's size and epoch time
    row_history = next(iter(histories.values()))
    epoch_seconds = float(np.mean([h["seconds"] for h in row_history])) if row_history else 0.0
    row = {
        "modality": cfg.modality,
        "target": cfg.target,
        "settings": cfg.settings,
        "params": (row_model or model).n_params(),
        "epoch_seconds": epoch_seconds,
        "auc": report.auc_mean,
        "c@1": report.coverage.get(1),
        "c@3": report.coverage.get(3),
        "c@5": report.coverage.get(5),
    }

    # persist artifacts; zoo.train wrote the checkpoints
    paths["features"] = os.path.join(cfg.out_dir, "features.mufv")
    zoo.save_feature_vectors(feature_matrix, manifest.ids(), paths["features"])
    paths["predictions"] = os.path.join(cfg.out_dir, "predictions.mufv")
    test_ids = [manifest.ids()[i] for i in te]
    zoo.save_feature_vectors(pred.scores, test_ids, paths["predictions"])
    paths["report"] = os.path.join(cfg.out_dir, "report.json")
    binfile.write_text(paths["report"], report.to_json())
    for name, history in histories.items():
        p = os.path.join(cfg.out_dir, f"history_{name}.jsonl")
        zoo.save_history(history, p)
        paths[f"history_{name}"] = p
    paths["row"] = os.path.join(cfg.out_dir, "row.json")
    binfile.write_text(paths["row"], json.dumps(row, sort_keys=True) + "\n")

    return {"report": report, "row": row, "features": feature_matrix,
            "prediction": pred, "paths": paths, "config": cfg}


# ------------------------------------------------------------------ the grid

def default_grid():
    """Desk-scale mirror of the results grid on synthetic data."""
    audio_common = {"patch_width": 96, "batch_size": 16, "epochs": 10, "patience": 3,
                    "optimizer": {"kind": "adam", "lr": 1e-3}}
    return [
        {"modality": "timbre", "target": "logistic", "settings": "timbre-mlp",
         "epochs": 300, "patience": 30, "optimizer": {"kind": "adam", "lr": 1e-2}},
        {"modality": "audio", "target": "logistic", "settings": "low-4x70", **audio_common},
        {"modality": "audio", "target": "cosine", "settings": "low-4x70", **audio_common},
        {"modality": "text", "target": "logistic", "settings": "vsm",
         "epochs": 40, "patience": 5},
        {"modality": "text", "target": "cosine", "settings": "vsm+sem",
         "epochs": 40, "patience": 5},
        {"modality": "image", "target": "logistic", "settings": "ingested",
         "epochs": 200, "patience": 20, "optimizer": {"kind": "adam", "lr": 1e-2}},
    ]


def _grid_row(spec, out_root, seed):
    """A grid row's config: the grid's seed, and unless the row names one,
    the directory ``out_root/<modality>_<target>_<settings without +>``."""
    cfg = ExperimentConfig.from_dict(spec)
    if "seed" in spec and cfg.seed != seed:
        raise ConfigInvalid(f"a grid row names seed {cfg.seed}, but the grid's is {seed}")
    out_dir = cfg.out_dir if "out_dir" in spec else os.path.join(
        out_root, f"{cfg.modality}_{cfg.target}_{cfg.settings.replace('+', '')}")
    return dataclasses.replace(cfg, seed=seed, out_dir=out_dir)


def run_grid(manifest, tax, out_root="runs", seed=42, grid=None):
    """Run single-modality rows, then late-fusion rows on the best
    (by AUC) feature vectors of each modality.

    Every row splits on ``seed``.  All row configs are checked before the
    first row runs: a row that names another seed, or two rows (fusion rows
    included) that write to one directory, are ConfigInvalid."""
    grid = grid if grid is not None else default_grid()
    if not isinstance(grid, list) or not grid:
        raise ConfigInvalid(f"a grid must be a non-empty list of row configs, got {grid!r}")
    configs = [_grid_row(spec, out_root, seed) for spec in grid]
    fusion_dirs = {}
    if set(zoo.MODALITY_ORDER) <= {MODALITIES[cfg.modality].letter for cfg in configs}:
        fusion_dirs = {target: os.path.join(out_root, f"fusion_{target}_ATI")
                       for target in ("logistic", "cosine")}
    dirs = collections.Counter(os.path.abspath(d) for d in
                               [cfg.out_dir for cfg in configs] + list(fusion_dirs.values()))
    shared = [d for d, n in dirs.items() if n > 1]
    if shared:
        raise ConfigInvalid(f"more than one grid row writes to {shared[0]}")
    rows = []
    results = []
    best = {}  # fusion letter -> (auc, features path)
    for cfg in configs:
        result = run_experiment(cfg, manifest, tax)
        rows.append(result["row"])
        results.append(result)
        mod = MODALITIES[cfg.modality].letter
        if mod and (mod not in best or result["row"]["auc"] > best[mod][0]):
            best[mod] = (result["row"]["auc"], result["paths"]["features"])
    for target, out_dir in fusion_dirs.items():
        cfg = ExperimentConfig(
            modality="fusion", target=target, settings="mlp",
            feature_files={m: best[m][1] for m in zoo.MODALITY_ORDER},
            seed=seed, epochs=200, patience=20,
            optimizer={"kind": "adam", "lr": 1e-2}, out_dir=out_dir)
        result = run_experiment(cfg, manifest, tax)
        rows.append(result["row"])
        results.append(result)
    return rows, results


# -------------------------------------------------------------------- report

def format_params(count):
    value = count / 1e6
    text = f"{value:.2f}".rstrip("0").rstrip(".")
    return (text or "0") + "M"


def report_table(rows):
    """Aligned text table in grid order."""
    if not rows:
        raise ValueError("need at least one row")
    header = ["Modality", "Target", "Settings", "Params", "Time", "AUC", "C@1", "C@3", "C@5"]
    body = []
    for r in rows:
        try:
            body.append([
                r["modality"], r["target"], r["settings"],
                format_params(r["params"]),
                f"{r['epoch_seconds']:.1f}s",
                f"{r['auc']:.3f}",
                *(f"{r[k]:.2f}" if r.get(k) is not None else "-"
                  for k in ("c@1", "c@3", "c@5")),
            ])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise DataError(f"bad report row {r!r}: {exc!r}") from exc
    widths = [max(len(header[i]), *(len(row[i]) for row in body)) for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"
