"""Architectures and training: audio CNNs, the text MLP, shallow models,
the training loop with early stopping, feature extraction, track averaging,
and late fusion of per-modality vectors.
"""

import collections
import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import binfile
from .errors import (ConfigInvalid, DataError, DuplicateId, EmptyAlbum, MissingModality,
                     NonFiniteLoss, TooFewItems)
from .nn import ModelGraph, load_model, make_optimizer, save_model

LOW_WIDTHS = (64, 128, 128, 64)
HIGH_WIDTHS = (256, 512, 1024, 1024)
FILTER_SHAPES = ("3x3", "4x96", "4x70")
CNN_FEATURE_UNITS = 512
TEXT_HIDDEN_UNITS = 2048
MODALITY_ORDER = ("A", "T", "I")


@dataclass
class AudioCnnConfig:
    filter_shape: str  # "3x3" | "4x96" | "4x70"
    width: str  # "low" | "high"
    head: str  # "logistic" | "cosine"
    dropout: float | None = None  # default rule applied when None

    def __post_init__(self):
        if self.filter_shape not in FILTER_SHAPES:
            raise ConfigInvalid(f"unknown filter shape {self.filter_shape!r}")
        if self.width not in ("low", "high"):
            raise ConfigInvalid(f"unknown width {self.width!r}")
        if self.head not in ("logistic", "cosine"):
            raise ConfigInvalid(f"unknown head {self.head!r}")
        if self.dropout is None:
            # dropout only helps the wide cosine configurations
            self.dropout = 0.5 if (self.width == "high" and self.head == "cosine") else 0.0
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigInvalid("dropout must be in [0, 1)")

    @property
    def widths(self):
        return HIGH_WIDTHS if self.width == "high" else LOW_WIDTHS


def _conv_plan(filter_shape, layer_idx, h, w):
    """(kh, kw, ph, pw) for one conv+pool stage, clipped to the current map."""
    if filter_shape == "3x3":
        kh, kw = min(3, h), min(3, w)
        ph, pw = 2, 4
    elif filter_shape == "4x96":
        # first conv collapses the frequency axis entirely
        kh = h if layer_idx == 0 else 1
        kw = min(4, w)
        ph, pw = 1, 4
    else:  # 4x70: slight convolution across frequency, then 3x3
        if layer_idx == 0:
            kh, kw = min(70, h), min(4, w)
        else:
            kh, kw = min(3, h), min(3, w)
        ph, pw = 2, 4
    oh, ow = h - kh + 1, w - kw + 1
    ph, pw = min(ph, oh), min(pw, ow)
    return kh, kw, ph, pw, oh // ph, ow // pw


def build_audio_cnn(cfg, out_dim, n_bins=96, width=323, seed=0):
    """Four conv+maxpool+ReLU stages, flatten, 512-unit feature layer,
    optional dropout, head.

    Pooling before the ReLU gives the same outputs and gradients as the
    usual conv+ReLU+maxpool, bit for bit, while the ReLU touches 1/(ph*pw)
    of the values.  Both only compare and copy values: a window whose
    maximum is > 0 passes that value and routes its gradient to the same
    first argmax in either order, and a window whose maximum is <= 0
    yields +0.0 and a +0.0 gradient everywhere in either order.  Since
    each maxpool directly follows its conv, the two run as one fused kernel.
    """
    specs = []
    h, w = n_bins, width
    for i, n_filters in enumerate(cfg.widths):
        kh, kw, ph, pw, h, w = _conv_plan(cfg.filter_shape, i, h, w)
        specs.append({"kind": "conv2d", "filters": n_filters, "kh": kh, "kw": kw})
        specs.append({"kind": "maxpool", "ph": ph, "pw": pw})
        specs.append({"kind": "relu"})
        if h < 1 or w < 1:
            raise ConfigInvalid(f"input {n_bins}x{width} too small for 4 conv stages")
    specs.append({"kind": "flatten"})
    specs.append({"kind": "dense", "out": CNN_FEATURE_UNITS})
    specs.append({"kind": "relu"})
    if cfg.dropout > 0:
        specs.append({"kind": "dropout", "rate": cfg.dropout})
    head = {"kind": cfg.head, "dim": out_dim}
    return ModelGraph((1, n_bins, width), specs, head, seed)


def build_text_mlp(out_dim, head, in_dim=10_000, seed=0):
    """Two 2048-unit ReLU layers; the second activation is the text feature."""
    if in_dim < 1 or out_dim < 1:
        raise ConfigInvalid("dims must be >= 1")
    specs = [
        {"kind": "dense", "out": TEXT_HIDDEN_UNITS},
        {"kind": "relu"},
        {"kind": "dense", "out": TEXT_HIDDEN_UNITS},
        {"kind": "relu"},
    ]
    return ModelGraph((in_dim,), specs, {"kind": head, "dim": out_dim}, seed)


def build_shallow(in_dim, out_dim, head, dropout=0.0, seed=0):
    """Input connected directly to the output layer, optional input dropout."""
    if in_dim < 1 or out_dim < 1:
        raise ConfigInvalid("dims must be >= 1")
    specs = []
    if dropout > 0:
        specs.append({"kind": "dropout", "rate": dropout})
    return ModelGraph((in_dim,), specs, {"kind": head, "dim": out_dim}, seed)


# ------------------------------------------------------------------ training

def check_ints(config, minima):
    """ConfigInvalid unless each field of ``config`` that ``minima`` names is
    an integer no less than its least valid value there."""
    for name, least in minima.items():
        value = getattr(config, name)
        if not isinstance(value, int) or isinstance(value, bool) or value < least:
            raise ConfigInvalid(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass
class TrainConfig:
    batch_size: int = 32
    epochs: int = 50
    patience: int = 5
    seed: int = 0
    optimizer: dict = field(default_factory=lambda: {"kind": "adam", "lr": 1e-3})

    def __post_init__(self):
        check_ints(self, {"batch_size": 1, "epochs": 0, "patience": 0, "seed": 0})


def _epoch_loss(model, x, y, batch_size):
    total = 0.0
    m = x.shape[0]
    for lo in range(0, m, batch_size):
        xb = x[lo:lo + batch_size]
        out = model.forward(xb, train=False)
        total += model.loss(out, y[lo:lo + batch_size]) * xb.shape[0]
    return total / m


def train(model, x_train, y_train, x_val=None, y_val=None, config=None, checkpoint=None):
    """Mini-batch training with early stopping on validation loss.

    Returns a history list of {epoch, train_loss, val_loss, seconds}; an
    epoch's seconds include its validation and its snapshot.  The checkpoint
    file (``save_model``) is the only best-validation snapshot: it is
    rewritten at each validation improvement, so validation rows need a
    ``checkpoint`` (ConfigInvalid otherwise).  On return the model holds
    the best-validation parameters (or the final ones when no validation
    rows are given) and ``checkpoint``, if given, holds exactly them: when
    the last epoch was not the best, the optimizer's state is dropped and
    the checkpoint read back into the model's own arrays, and when no
    snapshot was written the checkpoint is written once at the end.
    TooFewItems if there is no training row.  Inputs are read only through
    ``shape`` and indexing by an index array or a slice.
    """
    config = config or TrainConfig()
    validate = x_val is not None and x_val.shape[0] > 0
    if validate and checkpoint is None:
        raise ConfigInvalid("validation rows need a checkpoint to hold the best epoch")
    m = x_train.shape[0]
    if m == 0:
        raise TooFewItems("no training rows")
    optimizer = make_optimizer(config.optimizer)
    history = []
    best_val = np.inf
    stale = 0  # epochs since the best
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        rng = np.random.default_rng([config.seed, epoch])
        order = rng.permutation(m)
        running = 0.0
        for lo in range(0, m, config.batch_size):
            idx = order[lo:lo + config.batch_size]
            xb = x_train[idx]
            yb = y_train[idx]
            out = model.forward(xb, train=True, rng=rng)
            loss, dz = model.loss_grad(out, yb)
            if not np.isfinite(loss):
                raise NonFiniteLoss(f"epoch {epoch}, batch at {lo}: loss={loss}")
            model.backward(dz)
            optimizer.step(model.params_and_grads())
            running += loss * xb.shape[0]
        train_loss = running / m
        record = {"epoch": epoch, "train_loss": train_loss,
                  "val_loss": None, "seconds": time.perf_counter() - t0}
        history.append(record)
        if validate:
            val_loss = _epoch_loss(model, x_val, y_val, config.batch_size)
            if not np.isfinite(val_loss):
                raise NonFiniteLoss(f"epoch {epoch}: val loss={val_loss}")
            record["val_loss"] = val_loss
            if val_loss < best_val - 1e-12:
                best_val, stale = val_loss, 0
                save_model(model, checkpoint)
            else:
                stale += 1
            record["seconds"] = time.perf_counter() - t0
            if stale > config.patience:
                break
    if best_val == np.inf and checkpoint is not None:  # no snapshot written
        save_model(model, checkpoint)
    elif stale:  # the last epoch was not the best
        del optimizer  # Adam's moments are twice the weights: free them before the read
        load_model(checkpoint, into=model)
    return history


def save_history(history, path):
    binfile.write_text(path, "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in history))


def extract_features(model, x, batch_size=64):
    """Penultimate activations (input to the head dense layer), eval mode."""
    return np.concatenate([model.features(x[lo:lo + batch_size])
                           for lo in range(0, x.shape[0], batch_size)], axis=0)


def predict(model, x, batch_size=64):
    return np.concatenate([model.forward(x[lo:lo + batch_size])
                           for lo in range(0, x.shape[0], batch_size)], axis=0)


def average_tracks(track_vectors_by_album):
    """Arithmetic mean of each album's track vectors."""
    out = {}
    for album_id, vectors in track_vectors_by_album.items():
        if len(vectors) == 0:
            raise EmptyAlbum(f"album {album_id!r} has no track vectors")
        out[album_id] = np.mean(np.asarray(vectors, dtype=np.float64), axis=0)
    return out


# -------------------------------------------------------------------- fusion

def _l2_rows(mat):
    norms = np.linalg.norm(mat, axis=1)
    out = mat.copy()
    ok = norms > 0
    out[ok] /= norms[ok, None]
    return out


def _letters(blocks):
    """The keys of ``blocks`` in A, T, I order; ConfigInvalid if there is
    none or one is not such a letter."""
    if not blocks or any(k not in MODALITY_ORDER for k in blocks):
        raise ConfigInvalid(f"fusion blocks are named by letters from "
                            f"{', '.join(MODALITY_ORDER)}, got {list(blocks)!r}")
    return [m for m in MODALITY_ORDER if m in blocks]


def fuse(modality_vectors):
    """Concatenate the l2-normalized blocks of ``modality_vectors`` (letter
    -> matrix) in fixed A, T, I order into one (m, sum of block widths)
    matrix; a zero row stays zero."""
    parts = []
    n_items = None
    for mod in _letters(modality_vectors):
        mat = np.asarray(modality_vectors[mod], dtype=np.float64)
        if n_items is None:
            n_items = mat.shape[0]
        elif mat.shape[0] != n_items:
            raise MissingModality(f"modality {mod!r} covers {mat.shape[0]} of {n_items} items")
        parts.append(_l2_rows(mat))
    return np.concatenate(parts, axis=1)


def fuse_files(files):
    """``fuse`` of the feature files named by letter; returns (matrix, item
    ids).  DataError if two files list different ids."""
    vectors, ids = {}, None
    for mod in _letters(files):
        mat, file_ids = load_feature_vectors(files[mod])
        if ids is not None and file_ids != ids:
            raise DataError(f"{files[mod]}: item ids differ between feature files")
        vectors[mod], ids = mat, file_ids
    return fuse(vectors), ids


# ------------------------------------------------------------- serialization

FEATURE_MAGIC = b"MUFI"


def _refuse_repeated(ids, path):
    repeated = [i for i, n in collections.Counter(ids).items() if n > 1]
    if repeated:
        raise DuplicateId(f"{path}: item id {repeated[0]!r} names more than one row")


def save_feature_vectors(matrix, item_ids, path):
    """The matrix and its item ids, any strings, in one frame; a non-string id,
    one holding a lone surrogate or one that names two rows (DuplicateId) is
    refused before anything is written."""
    matrix = np.asarray(matrix, dtype="<f8")
    m, dim = matrix.shape
    if len(item_ids) != m:
        raise ConfigInvalid("item id count does not match matrix rows")
    strings = binfile.strings(item_ids)
    _refuse_repeated(item_ids, path)
    binfile.write(path, FEATURE_MAGIC, binfile.fields(m, dim), matrix, *strings)


def load_feature_vectors(path):
    """(matrix, item ids); DuplicateId if an id names two rows."""
    with binfile.reader(path, FEATURE_MAGIC) as frame:
        m, dim = frame.fields(2)
        matrix, ids = frame.array("<f8", (m, dim)), frame.strings(m)
    _refuse_repeated(ids, path)
    return matrix, ids
