"""All binary artifact formats: pinned bytes and hostile-input behaviour."""

import ast
import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from genrekit import binfile
from genrekit.audiofeat import (
    Spectrogram,
    load_spectrogram,
    load_timbre,
    save_spectrogram,
    save_timbre,
)
from genrekit.errors import (
    GenrekitError,
    IoError,
    NonFiniteValue,
    TrailingBytes,
    TruncatedFile,
)
from genrekit.labelspace import FactorModel, load_factor_model, save_factor_model
from genrekit.nn import ModelGraph, load_model, save_model
from genrekit.zoo import load_feature_vectors, save_feature_vectors


def _model():
    specs = [{"kind": "conv2d", "filters": 2, "kh": 2, "kw": 3}, {"kind": "relu"},
             {"kind": "maxpool", "ph": 1, "pw": 1}, {"kind": "flatten"},
             {"kind": "dense", "out": 3}, {"kind": "dropout", "rate": 0.5}]
    return ModelGraph((1, 4, 5), specs, {"kind": "cosine", "dim": 2}, seed=3)


VECTORS = np.arange(6.0).reshape(2, 3) * 0.25
FEATURE_IDS = ["x1", " \u00e9\n"]

# name -> (save(obj, path), load(path) -> arrays (and ids) to compare, fixed input)
FORMATS = {
    "MUCQ": (lambda v, p: save_spectrogram(Spectrogram(v), p),
             lambda p: [load_spectrogram(p).values],
             np.arange(12.0).reshape(3, 4) / 8 - 0.5),
    "MUTB": (save_timbre, lambda p: [load_timbre(p)],
             np.linspace(-1.0, 1.0, 36).reshape(12, 3)),
    "MUFI": (lambda v, p: save_feature_vectors(v, FEATURE_IDS, p),
             lambda p: list(load_feature_vectors(p)), VECTORS),
    "MUF1": (save_factor_model,
             lambda p: [(f := load_factor_model(p)).label_factors, f.singular_values],
             FactorModel(2, np.array([[0.6, -0.8], [1.0, 0.0], [0.0, 1.0]]),
                         np.array([2.5, 0.5]))),
    "MUNN": (save_model, lambda p: load_model(p).get_params(), _model()),
}

# sha256 of each save_* on its fixed input: the on-disk layout is pinned.
GOLDEN = {
    "MUCQ": "9869fb417b356e9e3bcd88fc0137a4ef07e8ad797fcf23096cf73de698e8f338",
    "MUTB": "4292e453f6355733835a248e707bacd915ece51631ae51f3c51f8d2de3b2c25d",
    "MUFI": "1528b382ee88d8d14f0bece64f0427ee8537d673131a8f74f487488b600e9168",
    "MUF1": "0d41356686f0882f87beaea09ca1718f27f2ca89f704b751de923da5f9c4fffe",
    "MUNN": "78bacdcc8299b0420c31e87e375d7c39518e19dff54e00f72c17bb15ce4f9657",
}


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_save_bytes_are_pinned(tmp_path, fmt):
    save, _, obj = FORMATS[fmt]
    path = tmp_path / "f.bin"
    save(obj, path)
    assert _sha(path) == GOLDEN[fmt]
    assert [p.name for p in tmp_path.iterdir()] == ["f.bin"]
    if fmt == "MUFI":
        matrix, ids = load_feature_vectors(path)
        np.testing.assert_array_equal(matrix, obj)
        assert ids == FEATURE_IDS


def _differing(got, want):
    """Elements that differ between two equal-shaped array lists, or None
    when the shapes differ."""
    if [np.shape(a) for a in got] != [np.shape(a) for a in want]:
        return None
    return sum(int(np.count_nonzero(np.asarray(a) != np.asarray(b)))
               for a, b in zip(got, want))


@st.composite
def mutations(draw, n):
    kind = draw(st.sampled_from(["truncate", "flip", "append"]))
    if kind == "truncate":
        return kind, draw(st.integers(0, n - 1)), 0
    if kind == "flip":
        return kind, draw(st.integers(0, n - 1)), draw(st.integers(1, 255))
    return kind, n, draw(st.integers(0, 255))


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_file_loads_or_raises(tmp_path, fmt, data):
    """A cut or lengthened file always raises a GenrekitError.  A flipped
    byte raises one, or it loads to the original arrays and ids with at most
    one element changed (a payload value or one id: the formats carry no
    checksum)."""
    save, load, obj = FORMATS[fmt]
    path = tmp_path / "f.bin"
    save(obj, path)
    want = load(path)
    original = path.read_bytes()
    kind, pos, byte = data.draw(mutations(len(original)))
    if kind == "truncate":
        mutant = original[:pos]
    elif kind == "flip":
        mutant = original[:pos] + bytes([original[pos] ^ byte]) + original[pos + 1:]
    else:
        mutant = original + bytes([byte])
    path.write_bytes(mutant)
    try:
        got = load(path)
    except GenrekitError:
        return
    assert kind == "flip", f"{kind} at {pos} loaded without error"
    changed = _differing(got, want)
    assert changed is not None and changed <= 1, f"flip at {pos} ^ {byte}: {changed}"


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_missing_file_is_io_error(tmp_path, fmt):
    with pytest.raises(IoError):
        FORMATS[fmt][1](tmp_path / "absent.bin")


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_trailing_byte_is_rejected(tmp_path, fmt):
    save, load, obj = FORMATS[fmt]
    path = tmp_path / "f.bin"
    save(obj, path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(TrailingBytes):
        load(path)


@pytest.mark.parametrize("fmt", ["MUTB", "MUFI", "MUF1", "MUNN"])
def test_non_finite_payload_is_rejected(tmp_path, fmt):
    save, load, _ = FORMATS[fmt]
    obj = {
        "MUTB": np.full((12, 1), np.inf),
        "MUFI": np.array([[1.0, np.nan, 2.0], [0.0, 0.0, 0.0]]),
        "MUF1": FactorModel(1, np.array([[np.nan]]), np.array([1.0])),
        "MUNN": _model(),
    }[fmt]
    if fmt == "MUNN":
        obj.head_dense.b[1] = -np.inf
    path = tmp_path / "f.bin"
    save(obj, path)
    with pytest.raises(NonFiniteValue):
        load(path)


def test_write_non_contiguous_array_as_c_order_bytes(tmp_path):
    a = np.arange(24.0).reshape(4, 6)
    path = tmp_path / "f.bin"
    for part in (a.T, a[:, ::2], np.asfortranarray(a)):
        binfile.write(path, b"TEST", binfile.fields(1), part)
        assert path.read_bytes() == b"TEST" + binfile.fields(1) + part.tobytes()


def test_stale_ids_sidecar_beside_a_new_file_is_ignored(tmp_path):
    """A feature file takes its ids from its frame even with an ``.ids``
    sidecar of an older genrekit beside it, and one cut after its matrix is
    truncated, not completed from the sidecar."""
    path = tmp_path / "f.mufv"
    (tmp_path / "f.mufv.ids").write_text("old1\nold2\n")
    save_feature_vectors(VECTORS, ["new1", "new2"], path)
    assert load_feature_vectors(path)[1] == ["new1", "new2"]
    path.write_bytes(path.read_bytes()[:12 + VECTORS.nbytes])
    with pytest.raises(TruncatedFile):
        load_feature_vectors(path)


def test_only_binfile_opens_files():
    """Every file the library writes goes through binfile's one ``open`` call."""
    src = Path(__file__).resolve().parents[1] / "src" / "genrekit"
    callers = []
    for module in sorted(src.rglob("*.py")):
        if module.name == "binfile.py":
            continue
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            func = getattr(node, "func", None)
            if isinstance(node, ast.Call) and (
                    getattr(func, "id", None) == "open" or getattr(func, "attr", None) == "open"):
                callers.append(f"{module.relative_to(src)}:{node.lineno}")
    assert callers == []
