import numpy as np
import pytest

from genrekit.errors import DegenerateLabel, EmptyCorpus
from genrekit.textfeat import (
    aggregate_and_truncate,
    append_enrichment,
    build_vocabulary,
    term_information_gain,
    tfidf,
    tokenize,
)


# ---------------------------------------------------------------- aggregation

def test_aggregate_joins_with_spaces():
    assert aggregate_and_truncate(["great album", "solid work"]) == \
        "great album solid work"


def test_aggregate_truncates_at_limit():
    out = aggregate_and_truncate(["x" * 600, "y" * 600], limit=1000)
    assert len(out) == 1000
    assert out[:600] == "x" * 600


def test_aggregate_empty_list():
    assert aggregate_and_truncate([]) == ""


def test_aggregate_bad_limit():
    with pytest.raises(ValueError):
        aggregate_and_truncate(["a"], limit=0)


# --------------------------------------------------------------- tokenization

def test_tokenize_lowercase_and_split():
    assert tokenize("The BEST jazz-funk record of 1974!") == \
        ["the", "best", "jazz", "funk", "record", "of", "1974"]


def test_tokenize_drops_short_tokens():
    assert tokenize("a b cd e f gh") == ["cd", "gh"]


def test_tokenize_empty():
    assert tokenize("") == []
    assert tokenize("!!! ??? .") == []


def test_enrichment_appended_as_plain_tokens():
    toks = append_enrichment(["great", "album"], ["wikicat_vocal_jazz"])
    assert toks == ["great", "album", "wikicat_vocal_jazz"]


# ----------------------------------------------------------------- vocabulary

def test_vocab_ranked_by_df_then_lexicographic():
    corpus = [["aa", "bb"], ["aa", "cc"], ["aa", "bb", "dd"]]
    vocab = build_vocabulary(corpus, max_size=3)
    # df: aa=3, bb=2, cc=1, dd=1; ties cc<dd
    assert vocab.terms == ["aa", "bb", "cc"]
    np.testing.assert_array_equal(vocab.doc_freq, [3, 2, 1])


def test_vocab_df_counts_presence_not_frequency():
    vocab = build_vocabulary([["aa", "aa", "aa"], ["bb"]], max_size=10)
    assert dict(zip(vocab.terms, vocab.doc_freq.tolist())) == {"aa": 1, "bb": 1}


def test_vocab_empty_corpus():
    with pytest.raises(EmptyCorpus):
        build_vocabulary([])
    with pytest.raises(EmptyCorpus):
        build_vocabulary([[], []])


# --------------------------------------------------------------------- tf-idf

def tfidf_oracle(corpus, vocab):
    m = len(corpus)
    out = np.zeros((m, len(vocab)))
    for i, tokens in enumerate(corpus):
        for j, term in enumerate(vocab.terms):
            count = sum(1 for t in tokens if t == term)
            idf = np.log((1.0 + m) / (1.0 + vocab.doc_freq[j])) + 1.0
            out[i, j] = count * idf
        norm = np.linalg.norm(out[i])
        if norm > 0:
            out[i] /= norm
    return out


def test_tfidf_matches_oracle():
    corpus = [["aa", "bb", "aa"], ["bb", "cc"], ["aa"], []]
    vocab = build_vocabulary([c for c in corpus if c], max_size=10)
    mat = tfidf(corpus, vocab)
    np.testing.assert_allclose(mat, tfidf_oracle(corpus, vocab), atol=1e-12)
    assert np.flatnonzero(~mat.any(axis=1)).tolist() == [3]


def test_tfidf_rows_unit_norm():
    rng = np.random.default_rng(0)
    words = [f"w{k}" for k in range(20)]
    corpus = [[words[int(rng.integers(0, 20))] for _ in range(int(rng.integers(1, 15)))]
              for _ in range(30)]
    vocab = build_vocabulary(corpus, max_size=15)
    mat = tfidf(corpus, vocab)
    norms = np.sqrt((mat * mat).sum(axis=1))
    nz = norms > 0
    np.testing.assert_allclose(norms[nz], 1.0, atol=1e-12)


def test_tfidf_oov_document_is_zero_row():
    vocab = build_vocabulary([["aa"]], max_size=1)
    mat = tfidf([["zz", "qq"]], vocab)
    assert mat.shape == (1, 1) and np.count_nonzero(mat) == 0


# ----------------------------------------------------------- information gain

def test_information_gain_perfect_predictor_is_label_entropy():
    docs = [{"jazz"}, {"jazz"}, {"rock"}, {"rock"}]
    y = [1, 1, 0, 0]
    ig = term_information_gain(docs, y)
    assert ig["jazz"] == pytest.approx(1.0)  # H(y) = 1 bit
    assert ig["rock"] == pytest.approx(1.0)


def test_information_gain_independent_term_is_zero():
    docs = [{"the"}, {"the"}, {"the"}, {"the"}]
    y = [1, 0, 1, 0]
    ig = term_information_gain(docs, y)
    assert ig["the"] == pytest.approx(0.0, abs=1e-12)


def test_information_gain_manual_contingency():
    # term in 3 of 6 docs, 2 of those positive; n_pos = 3
    docs = [{"t"}, {"t"}, {"t"}, set(), set(), set()]
    y = [1, 1, 0, 1, 0, 0]
    h_y = 1.0
    h_with = -(2 / 3) * np.log2(2 / 3) - (1 / 3) * np.log2(1 / 3)
    expect = h_y - 0.5 * h_with - 0.5 * h_with
    assert term_information_gain(docs, y)["t"] == pytest.approx(expect, abs=1e-12)


def test_information_gain_degenerate_label():
    with pytest.raises(DegenerateLabel):
        term_information_gain([{"a"}, {"b"}], [1, 1])


def test_information_gain_nonnegative():
    rng = np.random.default_rng(1)
    docs = [set(f"w{k}" for k in rng.integers(0, 8, size=4)) for _ in range(40)]
    y = rng.integers(0, 2, size=40)
    y[0], y[1] = 0, 1
    ig = term_information_gain(docs, y)
    assert all(v >= -1e-12 for v in ig.values())
