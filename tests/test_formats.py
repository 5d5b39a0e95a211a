"""All binary artifact formats: pinned bytes and hostile-input behaviour."""

import ast
import errno
import hashlib
import os
import re
import stat
import threading
from pathlib import Path
from types import SimpleNamespace

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
    DataError,
    GenrekitError,
    IoError,
    NonFiniteValue,
    TrailingBytes,
    TruncatedFile,
)
from genrekit.labelspace import FactorModel, load_factor_model, save_factor_model
from genrekit.nn import ModelGraph, load_model, save_model
from genrekit.pipeline import Manifest, ManifestItem, load_manifest, save_manifest
from genrekit.zoo import load_feature_vectors, save_feature_vectors, save_history


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


def _open_calls(module):
    for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
        func = getattr(node, "func", None)
        if isinstance(node, ast.Call) and (
                getattr(func, "id", None) == "open" or getattr(func, "attr", None) == "open"):
            yield node


def _opens_to_write(call):
    """True for an ``os.open`` whose flags write, False for a builtin
    ``open`` that only reads; AssertionError for any open that can
    truncate or append."""
    if getattr(call.func, "attr", None) == "open":
        flags = {n.attr for n in ast.walk(call.args[1]) if isinstance(n, ast.Attribute)}
        assert "O_TRUNC" not in flags and "O_APPEND" not in flags, ast.unparse(call)
        return bool(flags & {"O_WRONLY", "O_RDWR"})
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), ast.Constant("r"))
    assert isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt"), ast.unparse(call)
    return False


def test_only_binfile_opens_files():
    """Every file the library writes goes through binfile's one write-mode
    open, and that open cannot truncate: ``write`` rewrites in place."""
    src = Path(__file__).resolve().parents[1] / "src" / "genrekit"
    callers = [f"{module.relative_to(src)}:{call.lineno}"
               for module in sorted(src.rglob("*.py")) if module.name != "binfile.py"
               for call in _open_calls(module)]
    assert callers == []
    writes = [ast.unparse(call) for call in _open_calls(src / "binfile.py")
              if _opens_to_write(call)]
    assert len(writes) == 1, writes


# ------------------------------------------------------- the write protocol

class _Killed(BaseException):
    """A writer stopped between two system calls, as by SIGKILL."""


@pytest.fixture
def syscalls(monkeypatch):
    """Records the open flags and the writes and cuts of ``binfile.write``:
    ``log`` holds ("pwrite", bytes, offset) and ("ftruncate", length).
    With ``fail_at`` = n, ``fault`` is raised in place of write or cut n."""
    rec = SimpleNamespace(flags=[], log=[], fail_at=None, fault=None)
    real_open, real_pwrite, real_ftruncate = os.open, os.pwrite, os.ftruncate

    def opened(path, flags, *args):
        rec.flags.append(flags)
        return real_open(path, flags, *args)

    def step(real, entry, fd, *args):
        if len(rec.log) == rec.fail_at:
            raise rec.fault
        rec.log.append(entry)
        return real(fd, *args)

    monkeypatch.setattr(os, "open", opened)
    monkeypatch.setattr(os, "pwrite", lambda fd, data, offset: step(
        real_pwrite, ("pwrite", bytes(data), offset), fd, data, offset))
    monkeypatch.setattr(os, "ftruncate", lambda fd, length: step(
        real_ftruncate, ("ftruncate", length), fd, length))
    return rec


ARRAY = np.arange(10.0)

# name -> (parts of binfile.write, the bytes they make)
CONTENTS = {
    "frame": ([b"TEST", binfile.fields(3), ARRAY],
              b"TEST" + binfile.fields(3) + ARRAY.tobytes()),
    "frame-shorter": ([b"TEST", binfile.fields(1), ARRAY[:2]],
                      b"TEST" + binfile.fields(1) + ARRAY[:2].tobytes()),
    "frame-equal": ([b"TEST", binfile.fields(4), ARRAY[::-1]],
                    b"TEST" + binfile.fields(4) + ARRAY[::-1].tobytes()),
    "frame-longer": ([b"TEST", binfile.fields(2), ARRAY, ARRAY],
                     b"TEST" + binfile.fields(2) + 2 * ARRAY.tobytes()),
    "text-short": (["a\n".encode()], b"a\n"),
    "text-empty": ([b""], b""),
}


@pytest.mark.parametrize("old,new", [
    (None, "frame"), ("frame", "frame-longer"), ("frame", "frame-equal"),
    ("frame", "frame-shorter"), ("frame", "text-short"), ("frame", "text-empty"),
    (None, "text-empty"), ("text-empty", "text-short"),
])
def test_write_rewrites_in_place_first_bytes_last(tmp_path, syscalls, old, new):
    """An overwrite keeps the file's inode and leaves exactly the new bytes.
    Its one open does not truncate; it writes NUL over the first bytes, then
    everything after them, cuts the file only when its length differs, and
    writes the first bytes last."""
    path = tmp_path / "f.bin"
    if old is not None:
        path.write_bytes(CONTENTS[old][1])
        inode = path.stat().st_ino
    parts, want = CONTENTS[new]
    binfile.write(path, *parts)
    assert path.read_bytes() == want
    if old is not None:
        assert path.stat().st_ino == inode
    assert len(syscalls.flags) == 1 and not syscalls.flags[0] & os.O_TRUNC
    head = want[:binfile.HEAD]
    writes = [e for e in syscalls.log if e[0] == "pwrite"]
    if head:
        assert writes[0] == ("pwrite", bytes(len(head)), 0)
        assert syscalls.log[-1] == ("pwrite", head, 0)
        assert all(offset >= binfile.HEAD for _, _, offset in writes[1:-1])
    cut = len(CONTENTS[old][1]) > len(want) if old is not None else False
    assert [e for e in syscalls.log if e[0] == "ftruncate"] == ([("ftruncate", len(want))]
                                                                if cut else [])


def _manifest(n):
    return Manifest([ManifestItem(f"album{i}", ["genre00"], reviews=[f"review {i}"])
                     for i in range(n)], "")


# name -> (save(n, path) writing a version of size n, load(path) -> comparable value)
ARTIFACTS = {
    "MUFI": (lambda n, p: save_feature_vectors(np.full((n, 3), float(n)),
                                               [f"id{i}" for i in range(n)], p),
             lambda p: (lambda m, ids: (m.tolist(), ids))(*load_feature_vectors(p))),
    "manifest": (lambda n, p: save_manifest(_manifest(n), p),
                 lambda p: [(it.id, it.reviews) for it in load_manifest(p).items]),
    "history": (lambda n, p: save_history([{"epoch": e, "train_loss": 1.0 / (e + 1)}
                                           for e in range(n)], p),
                binfile.read_text),
}


@pytest.mark.parametrize("old,new", [(None, 2), (2, 3), (3, 2)],
                         ids=["new-file", "overwrite-longer", "overwrite-shorter"])
@pytest.mark.parametrize("artifact", sorted(ARTIFACTS))
def test_write_fault_at_every_step_leaves_no_loadable_cut_file(
        tmp_path, syscalls, artifact, old, new):
    """A write that fails at any step (the NUL head, each body part, the cut,
    the head) removes the file and raises IoError naming it.  One killed at
    any step leaves a file the loader refuses with a DataError, or the old
    file when no byte was written yet."""
    save, load = ARTIFACTS[artifact]
    path = tmp_path / "artifact"
    versions = {}
    for n in {old, new} - {None}:
        save(n, path)
        versions[n] = load(path)
    path.unlink()

    def restore():
        if old is None:
            path.unlink(missing_ok=True)
        else:
            save(old, path)
        syscalls.log.clear()

    restore()
    save(new, path)
    steps = len(syscalls.log)
    assert steps >= 3 and (syscalls.log[-2][0] == "ftruncate") == (old == 3)
    for k in range(steps):
        restore()
        syscalls.fail_at, syscalls.fault = k, OSError(errno.ENOSPC, "No space left on device")
        with pytest.raises(IoError, match=re.escape(str(path))):
            save(new, path)
        syscalls.fail_at = None
        assert not path.exists()
        with pytest.raises(DataError):
            load(path)

        restore()
        syscalls.fail_at, syscalls.fault = k, _Killed()
        with pytest.raises(_Killed):
            save(new, path)
        syscalls.fail_at = None
        if k == 0 and old is not None:
            assert load(path) == versions[old]
        else:
            with pytest.raises(DataError):
                load(path)


def _read_fifo(path):
    """Starts a reader of the FIFO `path`; join() returns all it read."""
    got = []
    thread = threading.Thread(target=lambda: got.append(path.read_bytes()), daemon=True)
    thread.start()

    def join():
        thread.join(timeout=10)
        return got[0]
    return join


@pytest.mark.parametrize("fail", [False, True], ids=["ok", "failing"])
@pytest.mark.parametrize("kind", ["devnull-symlink", "fifo"])
def test_a_path_that_is_not_a_regular_file_is_written_front_to_back_and_kept(
        tmp_path, monkeypatch, syscalls, kind, fail):
    """A device or pipe gets the content in order, with no cut and no NUL
    head; a failed write raises IoError and leaves the path where it was."""
    path = tmp_path / kind
    if kind == "fifo":
        os.mkfifo(path)
        join = _read_fifo(path)
    else:
        path.symlink_to(os.devnull)
    if fail:
        def refuse(fd, data):
            raise OSError(errno.EPIPE, "Broken pipe")
        monkeypatch.setattr(os, "write", refuse)
        with pytest.raises(IoError, match=re.escape(str(path))):
            binfile.write_text(path, "a\nb\n")
    else:
        binfile.write_text(path, "a\nb\n")
    assert syscalls.log == []
    if kind == "fifo":
        assert join() == (b"" if fail else b"a\nb\n")
        assert stat.S_ISFIFO(path.lstat().st_mode)
    else:
        assert path.is_symlink() and stat.S_ISCHR(path.stat().st_mode)


def test_empty_text_artifacts_round_trip(tmp_path):
    """No text artifact is empty, as a new file whose write did not start
    is: empty text is written as one newline, and reads back as empty."""
    binfile.write_text(tmp_path / "empty.txt", "")
    assert (tmp_path / "empty.txt").read_bytes() == b"\n"
    save_manifest(Manifest([], ""), tmp_path / "manifest.jsonl")
    assert load_manifest(tmp_path / "manifest.jsonl").items == []
    save_history([], tmp_path / "history.jsonl")
    assert binfile.read_text(tmp_path / "history.jsonl").split() == []
    (tmp_path / "cut.jsonl").write_bytes(b"")
    with pytest.raises(DataError, match="empty file"):
        load_manifest(tmp_path / "cut.jsonl")
