"""Label space: genre taxonomy, ancestor closure, PPMI and its SVD factorization.

Labels live in a tree up to four levels deep.  Items annotated with a leaf
path are expanded to carry every label on that path.  The binary item-label
matrix is turned into a dense PPMI matrix between labels, which is then
factorized with an SVD to obtain low-dimensional label factors; item factors
are the l2-normalized sums of their labels' factor rows.
"""

from dataclasses import dataclass, field

import numpy as np

from . import binfile
from .errors import (
    DepthExceeded,
    DimensionTooLarge,
    EmptyMatrix,
    EmptyPath,
    UnknownPath,
    ZeroFactorItem,
    ZeroVector,
)

MAX_DEPTH = 4


@dataclass(frozen=True)
class TaxNode:
    id: int
    name: str
    parent: int | None
    depth: int
    path: str


@dataclass
class LabelTaxonomy:
    nodes: list[TaxNode] = field(default_factory=list)
    path_index: dict[str, int] = field(default_factory=dict)

    @property
    def n_labels(self):
        return len(self.nodes)

    def ancestors(self, label_id):
        """Label ids on the path from `label_id` up to its depth-1 root,
        excluding `label_id` itself."""
        out = []
        node = self.nodes[label_id]
        while node.parent is not None:
            out.append(node.parent)
            node = self.nodes[node.parent]
        return out


def _split_path(path):
    segments = [s.strip() for s in path.split("/")]
    if any(not s for s in segments) or not segments:
        raise EmptyPath(f"empty segment in path {path!r}")
    if len(segments) > MAX_DEPTH:
        raise DepthExceeded(f"path {path!r} has {len(segments)} segments (max {MAX_DEPTH})")
    return segments


def parse_taxonomy(branch_paths):
    """Build a taxonomy from full branch paths, one node per unique prefix."""
    tax = LabelTaxonomy()
    for path in branch_paths:
        segments = _split_path(path)
        parent = None
        prefix = ""
        for depth, seg in enumerate(segments, start=1):
            prefix = seg if depth == 1 else f"{prefix}/{seg}"
            node_id = tax.path_index.get(prefix)
            if node_id is None:
                node_id = len(tax.nodes)
                tax.nodes.append(TaxNode(node_id, seg, parent, depth, prefix))
                tax.path_index[prefix] = node_id
            parent = node_id
    return tax


def load_taxonomy(path):
    """Read a taxonomy file: UTF-8, one branch path per line."""
    lines = binfile.read_text(path).split("\n")
    return parse_taxonomy([ln.strip() for ln in lines if ln.strip()])


def save_taxonomy(tax, path):
    """Write one branch path per line (leaf paths suffice, prefixes are implied,
    but we write every node path so the file round-trips exactly)."""
    binfile.write_text(path, "".join(node.path + "\n" for node in tax.nodes))


def close_labels(item_paths, tax):
    """Ancestor closure of a set of annotation paths, as label ids."""
    out = set()
    for path in item_paths:
        segments = _split_path(path)
        norm = "/".join(segments)
        node_id = tax.path_index.get(norm)
        if node_id is None:
            raise UnknownPath(f"path {norm!r} not in taxonomy")
        out.add(node_id)
        out.update(tax.ancestors(node_id))
    return out


@dataclass
class ItemLabelMatrix:
    n_items: int
    n_labels: int
    rows: list[tuple[int, ...]]  # sorted label ids per item

    @classmethod
    def from_rows(cls, rows, n_labels):
        rows = [tuple(sorted(set(r))) for r in rows]
        for i, r in enumerate(rows):
            if not r:
                raise EmptyMatrix(f"item {i} has no labels")
            if r and (r[0] < 0 or r[-1] >= n_labels):
                raise EmptyMatrix(f"item {i} has label id out of range")
        return cls(len(rows), n_labels, rows)

    def dense(self):
        m = np.zeros((self.n_items, self.n_labels))
        for i, r in enumerate(self.rows):
            m[i, list(r)] = 1.0
        return m

    def supports(self):
        s = np.zeros(self.n_labels, dtype=np.int64)
        for r in self.rows:
            s[list(r)] += 1
        return s


@dataclass
class PpmiMatrix:
    values: np.ndarray  # (n, n), symmetric, non-negative
    supports: np.ndarray  # (n,) label support counts

    @property
    def n(self):
        return self.values.shape[0]


def compute_ppmi(matrix):
    """PPMI between labels: max(0, ln(P(i,j) / (P(i) P(j)))) with
    P(i,j) = |L_i ∩ L_j|/m and P(i) = |L_i|/m."""
    if matrix.n_items < 1:
        raise EmptyMatrix("no items")
    support = matrix.supports()
    if (support < 1).any():
        raise EmptyMatrix("labels with zero support present; prune first")
    dense = matrix.dense()
    co = dense.T @ dense  # |L_i ∩ L_j|
    m = float(matrix.n_items)
    expected = np.outer(support, support) / m
    with np.errstate(divide="ignore"):
        vals = np.log(np.where(co > 0, co / expected, 1.0))
    np.maximum(vals, 0.0, out=vals)
    vals = (vals + vals.T) / 2.0  # exact symmetry despite fp noise
    return PpmiMatrix(vals, support)


@dataclass
class FactorModel:
    d: int
    label_factors: np.ndarray  # (n, d)
    singular_values: np.ndarray  # (d,), non-increasing


def _fix_signs(u, vt):
    """Make the largest-magnitude entry of each left singular vector positive."""
    for k in range(u.shape[1]):
        idx = np.argmax(np.abs(u[:, k]))
        if u[idx, k] < 0:
            u[:, k] = -u[:, k]
            vt[k, :] = -vt[k, :]
    return u, vt


def factorize(ppmi, d):
    """Truncated SVD of the PPMI matrix; label factors C_d = U_d sqrt(Σ_d)."""
    n = ppmi.n
    if not 1 <= d <= n:
        raise DimensionTooLarge(f"d={d} not in [1, {n}]")
    u, s, vt = np.linalg.svd(ppmi.values)
    u, vt = _fix_signs(u, vt)
    label_factors = u[:, :d] * np.sqrt(s[:d])[None, :]
    return FactorModel(d, label_factors, s[:d].copy())


def item_factors(label_factors, matrix):
    """Per item: sum of its labels' factor rows, l2-normalized."""
    if label_factors.shape[0] != matrix.n_labels:
        raise ZeroVector("label factor row count does not match matrix labels")
    out = np.zeros((matrix.n_items, label_factors.shape[1]))
    for i, r in enumerate(matrix.rows):
        out[i] = label_factors[list(r)].sum(axis=0)
    norms = np.linalg.norm(out, axis=1)
    bad = np.nonzero(norms < 1e-12)[0]
    if bad.size:
        raise ZeroFactorItem(f"items with zero factor sum: {bad.tolist()}")
    return out / norms[:, None]


def label_scores_from_factor(f, label_factors):
    """Cosine similarity of a predicted factor against every label factor."""
    fn = np.linalg.norm(f)
    if fn < 1e-12:
        raise ZeroVector("factor vector has zero norm")
    norms = np.linalg.norm(label_factors, axis=1)
    dots = label_factors @ f
    scores = np.zeros(label_factors.shape[0])
    ok = norms > 0
    scores[ok] = dots[ok] / (norms[ok] * fn)
    return scores


# ------------------------------------------------------------- serialization

FACTOR_MAGIC = b"MUF1"


def save_factor_model(model, path):
    factors = np.asarray(model.label_factors, "<f8")
    binfile.write(path, FACTOR_MAGIC, binfile.fields(*factors.shape), factors,
                  np.asarray(model.singular_values, "<f8"))


def load_factor_model(path):
    with binfile.reader(path, FACTOR_MAGIC) as frame:
        n, d = frame.fields(2)
        label_factors = frame.array("<f8", (n, d))
        singular_values = frame.array("<f8", (d,))
    return FactorModel(d, label_factors, singular_values)
