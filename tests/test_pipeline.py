import hashlib
import json
import os

import numpy as np
import pytest

from genrekit.errors import (
    ConfigInvalid,
    DanglingPath,
    DuplicateId,
    IoError,
    ParseError,
    TooFewItems,
)
from genrekit.labelspace import close_labels
from genrekit.pipeline import (
    Manifest,
    ManifestItem,
    SynthSpec,
    load_manifest,
    save_manifest,
    split,
    synth_dataset,
)


# ------------------------------------------------------------------ manifest

def write_manifest(tmp_path, lines):
    path = tmp_path / "manifest.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_manifest_roundtrip(tmp_path):
    items = [
        ManifestItem(id="a1", labels=["Jazz"], reviews=["nice"]),
        ManifestItem(id="a2", labels=["Pop", "Pop/Dance"], enrichment=["wikicat_dance"]),
    ]
    path = tmp_path / "m.jsonl"
    save_manifest(Manifest(items, str(tmp_path)), path)
    loaded = load_manifest(path)
    assert loaded.ids() == ["a1", "a2"]
    assert loaded.items[0].reviews == ["nice"]
    assert loaded.items[1].labels == ["Pop", "Pop/Dance"]


def test_manifest_parse_error_reports_line(tmp_path):
    path = write_manifest(tmp_path, ['{"id": "a1", "labels": ["X"]}', "{broken"])
    with pytest.raises(ParseError) as exc:
        load_manifest(path)
    assert exc.value.line_no == 2


def test_manifest_rejects_unknown_field(tmp_path):
    path = write_manifest(tmp_path, ['{"id": "a1", "labels": ["X"], "genre": "y"}'])
    with pytest.raises(ParseError) as exc:
        load_manifest(path)
    assert "genre" in str(exc.value)


def test_manifest_duplicate_id(tmp_path):
    path = write_manifest(tmp_path, ['{"id": "a1", "labels": ["X"]}',
                                     '{"id": "a1", "labels": ["Y"]}'])
    with pytest.raises(DuplicateId):
        load_manifest(path)


def test_manifest_missing_labels(tmp_path):
    path = write_manifest(tmp_path, ['{"id": "a1", "labels": []}'])
    with pytest.raises(ParseError):
        load_manifest(path)


def test_manifest_dangling_path(tmp_path):
    path = write_manifest(
        tmp_path, ['{"id": "a1", "labels": ["X"], "tracks": ["missing.mucq"]}'])
    with pytest.raises(DanglingPath):
        load_manifest(path)


@pytest.mark.parametrize("field", [
    '"id": [1]', '"id": 7', '"labels": "genre00"', '"labels": [1]', '"reviews": 5',
    '"tracks": "x.mucq"', '"enrichment": [null]', '"timbre": {}', '"image_vec": 5',
    '"id": "\\ud800x"',
])
def test_manifest_rejects_wrong_field_type(tmp_path, field):
    rec = {"id": "a2", "labels": ["X"]}
    rec.update(json.loads("{" + field + "}"))
    path = write_manifest(tmp_path, ['{"id": "a1", "labels": ["X"]}', json.dumps(rec)])
    with pytest.raises(ParseError) as exc:
        load_manifest(path)
    assert exc.value.line_no == 2


def test_manifest_unreadable_is_io_error(tmp_path):
    with pytest.raises(IoError):
        load_manifest(tmp_path / "absent.jsonl")
    path = tmp_path / "latin1.jsonl"
    path.write_bytes('{"id": "a1", "labels": ["Caf\u00e9"]}\n'.encode("latin-1"))
    with pytest.raises(IoError):
        load_manifest(path)


def test_manifest_skips_blank_lines(tmp_path):
    path = write_manifest(tmp_path, ['{"id": "a1", "labels": ["X"]}', "",
                                     '{"id": "a2", "labels": ["Y"]}'])
    assert load_manifest(path).ids() == ["a1", "a2"]


def test_manifest_resolves_relative_paths(tmp_path):
    (tmp_path / "x.mucq").write_bytes(b"")
    path = write_manifest(
        tmp_path, ['{"id": "a1", "labels": ["X"], "tracks": ["x.mucq"]}'])
    manifest = load_manifest(path)
    assert manifest.resolve("x.mucq") == str(tmp_path / "x.mucq")


# -------------------------------------------------------------------- splits

def test_split_sizes_80_10_10():
    ids = [f"a{i}" for i in range(100)]
    s = split(ids, seed=0)
    assert len(s.ids("train")) == 80
    assert len(s.ids("val")) == 10
    assert len(s.ids("test")) == 10


def test_split_partitions_every_item_once():
    ids = [f"a{i}" for i in range(37)]
    s = split(ids, seed=1)
    all_ids = s.ids("train") + s.ids("val") + s.ids("test")
    assert sorted(all_ids) == sorted(ids)
    assert len(s.ids("train")) == int(37 * 0.8)
    assert len(s.ids("val")) == max(1, int(37 * 0.1))


def test_split_deterministic_per_seed():
    ids = [f"a{i}" for i in range(50)]
    assert split(ids, seed=7).tags == split(ids, seed=7).tags
    assert split(ids, seed=7).tags != split(ids, seed=8).tags


def test_split_too_few_items():
    with pytest.raises(TooFewItems):
        split(["a"] * 9, seed=0)


# ----------------------------------------------------------------- synthesis

def dir_digest(root):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, root).encode())
            h.update(open(full, "rb").read())
    return h.hexdigest()


SMALL = SynthSpec(n_top_genres=2, subs_per_genre=2, albums=12,
                  tracks_per_album=2, seed=9, min_frames=30, max_frames=40,
                  image_dim=8)


def test_synth_layout_and_counts(tmp_path):
    manifest, tax = synth_dataset(SMALL, tmp_path / "ds")
    assert len(manifest) == 12
    # 2 tops + 2*2 subgenres
    assert tax.n_labels == 6
    item = manifest.items[0]
    assert len(item.tracks) == 2
    assert len(item.timbre) == 2
    assert item.image_vec is not None
    for rel in item.tracks + item.timbre + [item.image_vec]:
        assert os.path.exists(manifest.resolve(rel))
    reloaded = load_manifest(tmp_path / "ds" / "manifest.jsonl")
    assert reloaded.ids() == manifest.ids()


def test_synth_labels_are_ancestor_closed(tmp_path):
    manifest, tax = synth_dataset(SMALL, tmp_path / "ds")
    for item in manifest.items:
        idx = {tax.path_index[p] for p in item.labels}
        assert close_labels(item.labels, tax) == idx


def test_synth_every_album_has_top_and_subgenre(tmp_path):
    manifest, _ = synth_dataset(SMALL, tmp_path / "ds")
    for item in manifest.items:
        depths = sorted(p.count("/") for p in item.labels)
        assert depths[0] == 0
        assert depths[-1] == 1


def test_synth_byte_identical_across_runs(tmp_path):
    synth_dataset(SMALL, tmp_path / "d1")
    synth_dataset(SMALL, tmp_path / "d2")
    assert dir_digest(tmp_path / "d1") == dir_digest(tmp_path / "d2")


def test_synth_seed_changes_content(tmp_path):
    import dataclasses
    synth_dataset(SMALL, tmp_path / "d1")
    synth_dataset(dataclasses.replace(SMALL, seed=10), tmp_path / "d2")
    assert dir_digest(tmp_path / "d1") != dir_digest(tmp_path / "d2")


@pytest.mark.parametrize("field", [{"seed": -1}, {"albums": 0}, {"tracks_per_album": 0}])
def test_synth_refuses_bad_spec_before_writing(tmp_path, field):
    import dataclasses
    with pytest.raises(ConfigInvalid):
        synth_dataset(dataclasses.replace(SMALL, **field), tmp_path / "ds")
    assert not (tmp_path / "ds").exists()


def test_synth_manifest_is_valid_jsonl(tmp_path):
    synth_dataset(SMALL, tmp_path / "ds")
    with open(tmp_path / "ds" / "manifest.jsonl", encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            assert "id" in rec and rec["labels"]


def test_synth_frame_counts_in_range(tmp_path):
    from genrekit.audiofeat import load_spectrogram
    manifest, _ = synth_dataset(SMALL, tmp_path / "ds")
    for item in manifest.items[:4]:
        for rel in item.tracks:
            spec = load_spectrogram(manifest.resolve(rel))
            assert spec.n_bins == 96
            assert SMALL.min_frames <= spec.n_frames <= SMALL.max_frames
