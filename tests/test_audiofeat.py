import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genrekit.audiofeat import (
    BinStats,
    Spectrogram,
    fit_bin_stats,
    load_spectrogram,
    load_timbre,
    sample_patch,
    save_spectrogram,
    save_timbre,
    standardize,
    timbre_stats,
)
from genrekit.errors import (
    BadMagic,
    NonFiniteValue,
    StatsDimensionMismatch,
    TruncatedFile,
)


# ------------------------------------------------------------ patch sampling

def test_patch_exact_width_is_identity():
    spec = Spectrogram(np.arange(12.0).reshape(3, 4))
    patch = sample_patch(spec, 4, rng=0)
    np.testing.assert_array_equal(patch, spec.values)


def test_patch_is_contiguous_slice():
    rng = np.random.default_rng(1)
    values = rng.normal(size=(4, 50))
    spec = Spectrogram(values)
    patch = sample_patch(spec, 10, rng=np.random.default_rng(2))
    starts = [s for s in range(41)
              if np.array_equal(values[:, s:s + 10], patch)]
    assert len(starts) >= 1


def test_patch_short_track_right_pads_last_frame():
    spec = Spectrogram(np.array([[1.0, 2.0], [3.0, 4.0]]))
    patch = sample_patch(spec, 5, rng=0)
    np.testing.assert_array_equal(patch, [[1, 2, 2, 2, 2], [3, 4, 4, 4, 4]])


def test_patch_seed_determinism():
    spec = Spectrogram(np.random.default_rng(3).normal(size=(4, 100)))
    a = sample_patch(spec, 20, rng=np.random.default_rng([5, 7]))
    b = sample_patch(spec, 20, rng=np.random.default_rng([5, 7]))
    np.testing.assert_array_equal(a, b)


def test_patch_bad_width():
    with pytest.raises(ValueError):
        sample_patch(Spectrogram(np.ones((2, 3))), 0, rng=0)


# ------------------------------------------------------------ standardization

def test_fit_bin_stats_per_bin():
    patches = np.stack([np.arange(8.0).reshape(2, 4),
                        np.arange(8.0).reshape(2, 4) + 2.0])
    stats = fit_bin_stats(patches)
    np.testing.assert_allclose(stats.mean, [patches[:, 0].mean(), patches[:, 1].mean()])
    np.testing.assert_allclose(stats.std, [patches[:, 0].std(), patches[:, 1].std()])


def test_standardize_train_stack_has_zero_mean_unit_std():
    rng = np.random.default_rng(4)
    patches = rng.normal(loc=3.0, scale=2.0, size=(20, 5, 8))
    stats = fit_bin_stats(patches)
    z = standardize(patches, stats)
    np.testing.assert_allclose(z.mean(axis=(0, 2)), 0.0, atol=1e-10)
    np.testing.assert_allclose(z.std(axis=(0, 2)), 1.0, atol=1e-10)


def test_standardize_constant_bin_hits_floor():
    patches = np.zeros((3, 2, 4))
    patches[:, 1] = 5.0
    stats = fit_bin_stats(patches)
    z = standardize(patches, stats)
    assert np.isfinite(z).all()
    np.testing.assert_array_equal(z, 0.0)  # (x - mean) is 0, floor just guards


def test_standardize_dimension_mismatch():
    stats = BinStats(np.full(4, 0.5), np.full(4, 2.0))
    patches = np.ones((2, 5, 3))
    with pytest.raises(StatsDimensionMismatch):
        standardize(patches, stats)
    np.testing.assert_array_equal(patches, 1.0)  # refused before anything is written


@settings(max_examples=60, deadline=None)
@given(bins=st.sampled_from([2, 3, 5, 9, 96]), n=st.integers(1, 12), width=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_fit_bin_stats_in_bands_equal_the_masked_copy(bins, n, width, seed, data):
    """Bands of two bins (three at an odd end) give the bits of the stats of
    the masked copy of the training patches, for any subset of rows."""
    rng = np.random.default_rng(seed)
    patches = rng.normal(rng.uniform(-5, 5), rng.uniform(0.1, 10), size=(n, bins, width))
    rows = np.asarray(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                                         unique=True)))
    for got, subset in ((fit_bin_stats(patches, rows), patches[rows]),
                        (fit_bin_stats(patches), patches)):
        np.testing.assert_array_equal(got.mean, subset.mean(axis=(0, 2)))
        np.testing.assert_array_equal(got.std, subset.std(axis=(0, 2)))


def test_standardize_works_in_place_on_a_float64_array():
    rng = np.random.default_rng(5)
    patches = rng.normal(loc=3.0, scale=2.0, size=(6, 5, 8))
    stats = BinStats(rng.normal(size=5), np.array([2.0, 0.5, 0.0, 1e-9, 3.0]))
    want = (patches - stats.mean[:, None]) / np.maximum(stats.std, 1e-6)[:, None]
    z = standardize(patches, stats)
    assert z is patches
    np.testing.assert_array_equal(z, want)


@pytest.mark.parametrize("convert", [lambda a: list(a), lambda a: a.astype(np.float32)],
                         ids=["list", "float32"])
def test_standardize_leaves_other_inputs_unchanged(convert):
    rng = np.random.default_rng(6)
    patches = convert(rng.normal(size=(4, 3, 7)))
    before = np.array(patches, copy=True)
    stats = BinStats(rng.normal(size=3), rng.uniform(0.5, 2, size=3))
    z = standardize(patches, stats)
    np.testing.assert_array_equal(np.asarray(patches), before)
    assert z.dtype == np.float64
    np.testing.assert_array_equal(
        z, (before.astype(np.float64) - stats.mean[:, None]) / stats.std[:, None])


# -------------------------------------------------------------- timbre stats

def test_timbre_stats_known_values():
    t = np.zeros((12, 3))
    t[0] = [1.0, 2.0, 3.0]
    v = timbre_stats(t)
    assert v.shape == (48,)
    assert v[0] == pytest.approx(2.0)  # mean
    assert v[12] == pytest.approx(3.0)  # max
    assert v[24] == pytest.approx(np.var([1, 2, 3]))  # population variance
    assert v[36] == pytest.approx(np.sqrt(14.0))  # l2


def test_timbre_stats_single_frame():
    t = np.ones((12, 1))
    v = timbre_stats(t)
    np.testing.assert_allclose(v[:12], 1.0)
    np.testing.assert_allclose(v[24:36], 0.0)


def test_timbre_stats_shape_check():
    with pytest.raises(StatsDimensionMismatch):
        timbre_stats(np.ones((11, 5)))
    with pytest.raises(StatsDimensionMismatch):
        timbre_stats(np.ones((12, 0)))


# ------------------------------------------------------------- serialization

def test_spectrogram_roundtrip_f32(tmp_path):
    rng = np.random.default_rng(6)
    values = rng.normal(size=(96, 40)).astype(np.float32).astype(np.float64)
    path = tmp_path / "a.mucq"
    save_spectrogram(Spectrogram(values), path)
    loaded = load_spectrogram(path)
    np.testing.assert_array_equal(loaded.values, values)
    assert loaded.n_bins == 96
    assert loaded.n_frames == 40


def test_timbre_roundtrip_and_row_check(tmp_path):
    values = np.random.default_rng(7).normal(size=(12, 9)).astype(np.float32)
    path = tmp_path / "t.mutb"
    save_timbre(values.astype(np.float64), path)
    np.testing.assert_array_equal(load_timbre(path), values.astype(np.float64))
    with pytest.raises(StatsDimensionMismatch):
        save_timbre(np.ones((10, 9)), tmp_path / "bad.mutb")


def test_load_bad_magic(tmp_path):
    path = tmp_path / "x.mucq"
    path.write_bytes(b"ABCD" + b"\x00" * 20)
    with pytest.raises(BadMagic):
        load_spectrogram(path)


def test_load_truncated(tmp_path):
    path = tmp_path / "x.mucq"
    save_spectrogram(Spectrogram(np.ones((4, 6))), path)
    data = path.read_bytes()
    path.write_bytes(data[:-10])
    with pytest.raises(TruncatedFile):
        load_spectrogram(path)


def test_load_rejects_non_finite(tmp_path):
    values = np.ones((3, 3))
    values[1, 1] = np.nan
    path = tmp_path / "x.mucq"
    save_spectrogram(Spectrogram(values), path)
    with pytest.raises(NonFiniteValue):
        load_spectrogram(path)


def test_load_rejects_unknown_version(tmp_path):
    import struct
    path = tmp_path / "x.mucq"
    payload = b"MUCQ" + struct.pack("<III", 2, 1, 1) + struct.pack("<f", 0.0)
    path.write_bytes(payload)
    with pytest.raises(BadMagic):
        load_spectrogram(path)
