"""Text features: review aggregation, tokenization, tf-idf, information gain.

Per-item review texts are joined and truncated, tokenized into lowercase
alphanumeric terms, optionally extended with precomputed enrichment terms
(category names, underscored), and vectorized with a bounded vocabulary and
smoothed tf-idf into a dense float64 matrix.  Information gain of term
presence against a binary label supports the per-genre term analysis.
"""

import re
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLabel, EmptyCorpus

_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")

DEFAULT_TRUNCATE = 1000
DEFAULT_VOCAB_SIZE = 10_000


def aggregate_and_truncate(reviews, limit=DEFAULT_TRUNCATE):
    """Join reviews in order with single spaces, cut at `limit` characters."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    return " ".join(reviews)[:limit]


def tokenize(text):
    """Lowercase, split on non-alphanumeric runs, drop tokens shorter than 2."""
    return [t for t in _TOKEN_SPLIT.split(text.lower()) if len(t) >= 2]


def append_enrichment(tokens, enrichment_terms):
    """Enrichment terms are appended as ordinary tokens and compete for
    vocabulary slots like any word."""
    return list(tokens) + list(enrichment_terms)


@dataclass
class Vocabulary:
    terms: list[str]
    index: dict[str, int]
    doc_freq: np.ndarray  # per kept term

    def __len__(self):
        return len(self.terms)


def build_vocabulary(corpus, max_size=DEFAULT_VOCAB_SIZE):
    """Top `max_size` terms by document frequency, ties broken lexicographically."""
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    if not corpus:
        raise EmptyCorpus("no documents")
    df = {}
    for tokens in corpus:
        for t in set(tokens):
            df[t] = df.get(t, 0) + 1
    if not df:
        raise EmptyCorpus("no tokens in any document")
    ranked = sorted(df, key=lambda t: (-df[t], t))[:max_size]
    return Vocabulary(ranked, {t: i for i, t in enumerate(ranked)},
                      np.array([df[t] for t in ranked], dtype=np.int64))


def tfidf(corpus, vocab):
    """Smoothed tf-idf: count * (ln((1+m)/(1+df)) + 1) as an (m, |V|)
    float64 matrix, rows l2-normalized; an all-OOV document is a zero row."""
    if len(vocab) == 0:
        raise EmptyCorpus("empty vocabulary")
    m = len(corpus)
    idf = np.log((1.0 + m) / (1.0 + vocab.doc_freq)) + 1.0
    mat = np.zeros((m, len(vocab)))
    for i, tokens in enumerate(corpus):
        counts = {}
        for t in tokens:
            j = vocab.index.get(t)
            if j is not None:
                counts[j] = counts.get(j, 0) + 1
        row = sorted(counts)
        vals = np.array([counts[j] * idf[j] for j in row])
        norm = np.linalg.norm(vals)
        if norm > 0:
            vals /= norm
        mat[i, row] = vals
    return mat


def _entropy_bits(counts):
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def term_information_gain(doc_term_sets, label_column):
    """IG(t) = H(y) - H(y | presence of t), in bits, over document presence."""
    y = np.asarray(label_column, dtype=bool)
    n = y.size
    if len(doc_term_sets) != n:
        raise ValueError("documents and labels misaligned")
    n_pos = int(y.sum())
    if n_pos == 0 or n_pos == n:
        raise DegenerateLabel("label column needs both positives and negatives")
    h_y = _entropy_bits(np.array([n_pos, n - n_pos], dtype=float))
    # contingency counts per term
    pos_with = {}
    with_t = {}
    for i, terms in enumerate(doc_term_sets):
        for t in set(terms):
            with_t[t] = with_t.get(t, 0) + 1
            if y[i]:
                pos_with[t] = pos_with.get(t, 0) + 1
    out = {}
    for t, nw in with_t.items():
        pw = pos_with.get(t, 0)
        nwo = n - nw  # docs without t
        pwo = n_pos - pw
        h_with = _entropy_bits(np.array([pw, nw - pw], dtype=float))
        h_without = _entropy_bits(np.array([pwo, nwo - pwo], dtype=float))
        out[t] = h_y - (nw / n) * h_with - (nwo / n) * h_without
    return out

