"""Dataset plumbing: manifest ingestion, deterministic album-level splits,
and the synthetic multimodal dataset generator used for desk-scale runs.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import binfile
from .audiofeat import Spectrogram, save_spectrogram, save_timbre
from .errors import ConfigInvalid, DanglingPath, DuplicateId, ParseError, TooFewItems
from .labelspace import parse_taxonomy, save_taxonomy
from .zoo import save_feature_vectors

_ITEM_FIELDS = {"id", "labels", "tracks", "reviews", "enrichment", "image_vec", "timbre"}
_LIST_FIELDS = ("labels", "tracks", "reviews", "enrichment", "timbre")


@dataclass
class ManifestItem:
    id: str
    labels: list[str]
    tracks: list[str] = field(default_factory=list)
    reviews: list[str] = field(default_factory=list)
    enrichment: list[str] = field(default_factory=list)
    image_vec: str | None = None
    timbre: list[str] = field(default_factory=list)


@dataclass
class Manifest:
    items: list[ManifestItem]
    base_dir: str

    def __len__(self):
        return len(self.items)

    def resolve(self, rel_path):
        return os.path.join(self.base_dir, rel_path)

    def ids(self):
        return [it.id for it in self.items]


def _check_types(rec, line_no, path):
    if not isinstance(rec["id"], str):
        raise ParseError(line_no, f"id must be a string, got {rec['id']!r}", path)
    try:  # ids are stored as UTF-8 in feature files; JSON allows a lone surrogate
        rec["id"].encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ParseError(line_no, f"id {rec['id']!r} is not valid Unicode: {exc.reason}",
                         path) from exc
    for key in _LIST_FIELDS:
        value = rec.get(key, [])
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise ParseError(line_no, f"{key!r} must be a list of strings, got {value!r}", path)
    if not isinstance(rec.get("image_vec"), (str, type(None))):
        raise ParseError(line_no, f"'image_vec' must be a string, got {rec['image_vec']!r}",
                         path)


def load_manifest(path):
    """JSON-lines manifest; paths are relative to the manifest's directory.
    Errors name the manifest and the line."""
    base_dir = os.path.dirname(os.path.abspath(path))
    items = []
    seen = set()
    for line_no, line in enumerate(binfile.read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(line_no, str(exc), path) from exc
        if not isinstance(rec, dict):
            raise ParseError(line_no, "record is not an object", path)
        unknown = set(rec) - _ITEM_FIELDS
        if unknown:
            raise ParseError(line_no, f"unknown fields {sorted(unknown)}", path)
        if "id" not in rec:
            raise ParseError(line_no, "missing id", path)
        _check_types(rec, line_no, path)
        if rec["id"] in seen:
            raise DuplicateId(f"{path}: line {line_no}: duplicate id {rec['id']!r}")
        seen.add(rec["id"])
        if not rec.get("labels"):
            raise ParseError(line_no, "item has no labels", path)
        item = ManifestItem(
            id=rec["id"],
            labels=rec["labels"],
            tracks=rec.get("tracks", []),
            reviews=rec.get("reviews", []),
            enrichment=rec.get("enrichment", []),
            image_vec=rec.get("image_vec"),
            timbre=rec.get("timbre", []),
        )
        for rel in item.tracks + item.timbre + ([item.image_vec] if item.image_vec else []):
            if not os.path.exists(os.path.join(base_dir, rel)):
                raise DanglingPath(f"{path}: line {line_no}: missing file {rel!r}")
        items.append(item)
    return Manifest(items, base_dir)


def save_manifest(manifest, path):
    """One JSON object per item; empty optional fields are left out."""
    optional = _ITEM_FIELDS - {"id", "labels"}
    binfile.write_text(path, "".join(
        json.dumps({"id": it.id, "labels": it.labels,
                    **{k: getattr(it, k) for k in optional if getattr(it, k)}},
                   sort_keys=True) + "\n"
        for it in manifest.items))


# -------------------------------------------------------------------- splits

@dataclass
class SplitAssignment:
    tags: dict  # item id -> "train" | "val" | "test"
    seed: int

    def ids(self, tag):
        return [i for i, t in self.tags.items() if t == tag]


def split(item_ids, seed):
    """Seeded shuffle, then contiguous 80/10/10 cut over albums."""
    n = len(item_ids)
    if n < 10:
        raise TooFewItems(f"need >= 10 items, got {n}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_train = int(n * 0.8)
    n_val = max(1, int(n * 0.1))
    tags = {}
    for pos, idx in enumerate(order):
        if pos < n_train:
            tag = "train"
        elif pos < n_train + n_val:
            tag = "val"
        else:
            tag = "test"
        tags[item_ids[idx]] = tag
    return SplitAssignment(tags, seed)


# ----------------------------------------------------------------- synthesis

@dataclass
class SynthSpec:
    n_top_genres: int = 3
    subs_per_genre: int = 4
    albums: int = 300
    tracks_per_album: int = 3
    seed: int = 42
    n_bins: int = 96
    min_frames: int = 100
    max_frames: int = 140
    image_dim: int = 64
    noise: float = 0.3


def _smooth_profile(rng, n_bins):
    """Two gaussian bumps at random centers: a smooth per-label spectrum."""
    bins = np.arange(n_bins)
    profile = np.zeros(n_bins)
    for _ in range(2):
        center = rng.uniform(5, n_bins - 5)
        width = rng.uniform(4, 10)
        profile += np.exp(-0.5 * ((bins - center) / width) ** 2)
    return profile


def synth_dataset(spec, out_dir):
    """Generate a fully synthetic multimodal dataset on disk.

    Writes taxonomy.txt, manifest.jsonl, spectrograms (MUCQ), timbre matrices
    (MUTB), and per album one image vector file (MUFI) whose one row has the
    album's id.  Byte-identical across runs for a fixed spec.
    """
    if min(spec.n_top_genres, spec.subs_per_genre, spec.albums, spec.tracks_per_album) < 1:
        raise ConfigInvalid("all synth counts must be >= 1")
    if not isinstance(spec.seed, (int, np.integer)) or spec.seed < 0:
        raise ConfigInvalid(f"synth seed must be an integer >= 0, got {spec.seed!r}")
    rng = np.random.default_rng(spec.seed)
    for sub in ("audio", "timbre", "image"):
        binfile.make_dirs(os.path.join(out_dir, sub))

    tops = [f"genre{g:02d}" for g in range(spec.n_top_genres)]
    subs = {t: [f"{t}/style{k:02d}" for k in range(spec.subs_per_genre)] for t in tops}
    branch_paths = [p for t in tops for p in subs[t]]
    tax = parse_taxonomy(branch_paths)
    save_taxonomy(tax, os.path.join(out_dir, "taxonomy.txt"))

    all_paths = [t for t in tops] + branch_paths
    profiles = {p: _smooth_profile(rng, spec.n_bins) for p in all_paths}
    timbre_centroids = {p: rng.normal(0, 1, size=12) for p in all_paths}
    image_centroids = {p: rng.normal(0, 1, size=spec.image_dim) for p in all_paths}
    keywords = {p: [f"{p.replace('/', '_')}_kw{i}" for i in range(3)] for p in all_paths}
    noise_words = [f"noise{i:03d}" for i in range(100)]

    items = []
    for a in range(spec.albums):
        album_id = f"album{a:04d}"
        top = tops[a % spec.n_top_genres]
        n_sub = int(rng.integers(1, 3))  # 1 or 2 subgenres
        sub_idx = rng.choice(spec.subs_per_genre, size=n_sub, replace=False)
        album_paths = [subs[top][k] for k in sorted(sub_idx.tolist())]
        label_paths = [top] + album_paths

        # --- text: keyword unigrams plus noise words
        reviews = []
        for _ in range(int(rng.integers(1, 4))):
            words = []
            for p in label_paths:
                for kw in keywords[p]:
                    if rng.random() < 0.8:
                        words.append(kw)
            for _ in range(15):
                words.append(noise_words[int(rng.integers(0, len(noise_words)))])
            perm = rng.permutation(len(words))
            reviews.append(" ".join(words[i] for i in perm))
        enrichment = [f"wikicat_{p.replace('/', '_')}" for p in album_paths]

        # --- audio: per-genre spectral template plus noise
        profile = np.mean([profiles[p] for p in label_paths], axis=0)
        tracks = []
        timbres = []
        centroid = np.mean([timbre_centroids[p] for p in label_paths], axis=0)
        for t in range(spec.tracks_per_album):
            n_frames = int(rng.integers(spec.min_frames, spec.max_frames + 1))
            envelope = 0.8 + 0.4 * np.sin(
                2 * np.pi * np.arange(n_frames) / 50.0 + rng.uniform(0, 2 * np.pi))
            values = profile[:, None] * envelope[None, :]
            values = values + rng.normal(0, spec.noise, size=values.shape)
            rel = os.path.join("audio", f"{album_id}_t{t}.mucq")
            save_spectrogram(Spectrogram(values), os.path.join(out_dir, rel))
            tracks.append(rel)

            walk = np.cumsum(rng.normal(0, 0.1, size=(12, n_frames)), axis=1)
            tvals = centroid[:, None] + 0.2 * walk + rng.normal(0, spec.noise, (12, n_frames))
            trel = os.path.join("timbre", f"{album_id}_t{t}.mutb")
            save_timbre(tvals, os.path.join(out_dir, trel))
            timbres.append(trel)

        # --- image: per-genre centroid plus isotropic noise
        vec = np.mean([image_centroids[p] for p in label_paths], axis=0)
        vec = vec + rng.normal(0, spec.noise, size=vec.shape)
        irel = os.path.join("image", f"{album_id}.mufv")
        save_feature_vectors(vec[None, :], [album_id], os.path.join(out_dir, irel))

        items.append(ManifestItem(
            id=album_id, labels=label_paths, tracks=tracks, reviews=reviews,
            enrichment=enrichment, image_vec=irel, timbre=timbres))

    manifest = Manifest(items, os.path.abspath(out_dir))
    save_manifest(manifest, os.path.join(out_dir, "manifest.jsonl"))
    return manifest, tax
