"""Audio features: precomputed log-CQT spectrogram ingestion, patch sampling,
per-bin standardization, and timbre summary statistics.

Spectrograms arrive precomputed (96 frequency bins expected); no signal
processing happens here.
"""

from dataclasses import dataclass

import numpy as np

from . import binfile
from .errors import BadMagic, StatsDimensionMismatch

SPECTROGRAM_MAGIC = b"MUCQ"
TIMBRE_MAGIC = b"MUTB"
DEFAULT_PATCH_WIDTH = 323  # 15 s at 22050 Hz / hop 1024


@dataclass
class Spectrogram:
    values: np.ndarray  # (n_bins, n_frames)

    @property
    def n_bins(self):
        return self.values.shape[0]

    @property
    def n_frames(self):
        return self.values.shape[1]


def _write_matrix(path, magic, values):
    """Version 1, rows, columns, then the values as f32 (read back as f64)."""
    rows, cols = np.shape(values)
    binfile.write(path, magic, binfile.fields(1, rows, cols), np.asarray(values, "<f4"))


def _read_matrix(path, magic):
    with binfile.reader(path, magic) as frame:
        version, rows, cols = frame.fields(3)
        if version != 1:
            raise BadMagic(f"{path}: unsupported version {version}")
        return frame.array("<f4", (rows, cols)).astype(np.float64)


def save_spectrogram(spec, path):
    _write_matrix(path, SPECTROGRAM_MAGIC, spec.values)


def load_spectrogram(path):
    """StatsDimensionMismatch for a spectrogram without a bin or a frame."""
    values = _read_matrix(path, SPECTROGRAM_MAGIC)
    if 0 in values.shape:
        raise StatsDimensionMismatch(f"{path}: spectrogram of shape {values.shape} is empty")
    return Spectrogram(values)


def save_timbre(values, path):
    if values.shape[0] != 12:
        raise StatsDimensionMismatch("timbre matrices have exactly 12 rows")
    _write_matrix(path, TIMBRE_MAGIC, values)


def load_timbre(path):
    values = _read_matrix(path, TIMBRE_MAGIC)
    if values.shape[0] != 12:
        raise StatsDimensionMismatch(f"{path}: expected 12 rows, got {values.shape[0]}")
    return values


def sample_patch(spec, width, rng):
    """One fixed-width patch at a uniformly random frame offset.

    `rng` is an int seed or a numpy Generator.  Tracks shorter than `width`
    are right-padded by repeating their final frame.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    values = spec.values
    n = spec.n_frames
    if n >= width:
        start = int(rng.integers(0, n - width + 1))
        return values[:, start:start + width].copy()
    pad = np.repeat(values[:, -1:], width - n, axis=1)
    return np.concatenate([values, pad], axis=1)


@dataclass
class BinStats:
    mean: np.ndarray  # per frequency bin
    std: np.ndarray

    STD_FLOOR = 1e-6


def fit_bin_stats(patches, rows=None):
    """Per-bin mean/std over the training patches ``patches[rows]`` (all of
    them when ``rows`` is None) of a stack (n, bins, frames).

    The stats are fitted over bands of two bins, an odd last bin joined to
    the band before it, each band a copy of ``patches[rows, b0:b1]``: no
    copy of every training patch, nor ``np.std``'s deviation array over it,
    exists at once.  A band of two or more bins reduces in the order the
    whole stack does, so the stats are those of
    ``patches[rows].mean/std(axis=(0, 2))`` bit for bit; a one-bin band is
    not, because numpy merges its two reduced axes and sums in another
    order."""
    stack = np.asarray(patches)
    rows = np.arange(len(stack)) if rows is None else rows
    n_bins = stack.shape[1]
    edges = [*range(0, max(n_bins - 1, 1), 2), n_bins]
    mean, std = np.empty(n_bins), np.empty(n_bins)
    for b0, b1 in zip(edges, edges[1:]):
        band = stack[rows, b0:b1]
        mean[b0:b1] = band.mean(axis=(0, 2))
        std[b0:b1] = band.std(axis=(0, 2))
    return BinStats(mean, std)


def standardize(patches, stats):
    """(value - bin mean) / max(bin std, 1e-6), vectorized over patches.

    A float64 array is standardized in place and returned; anything else
    (a list, another dtype) is first copied into a new float64 array, and
    is left as it was.  A bin-count mismatch is refused before anything is
    written."""
    out = np.asarray(patches, dtype=np.float64)
    if out.shape[-2] != stats.mean.shape[0]:
        raise StatsDimensionMismatch(
            f"patches have {out.shape[-2]} bins, stats have {stats.mean.shape[0]}")
    out -= stats.mean[:, None]
    out /= np.maximum(stats.std, BinStats.STD_FLOOR)[:, None]
    return out


def timbre_stats(timbre):
    """mean, max, population variance, l2-norm per coefficient row → 48-vector."""
    t = np.asarray(timbre, dtype=np.float64)
    if t.ndim != 2 or t.shape[0] != 12 or t.shape[1] < 1:
        raise StatsDimensionMismatch(f"expected (12, N>=1), got {t.shape}")
    return np.concatenate([
        t.mean(axis=1),
        t.max(axis=1),
        t.var(axis=1),
        np.linalg.norm(t, axis=1),
    ])
