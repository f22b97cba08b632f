"""Unit tests for pseudo-GloVe label embeddings (DESIGN.md S2)."""
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import word_embeddings as we


def test_tokenize_snake_and_camel():
    assert we.tokenize_label("area_sq_ft") == ["area", "sq", "ft"]
    assert we.tokenize_label("NormalizedAge") == ["normalized", "age"]
    assert we.tokenize_label("price-2020") == ["price", "2020"]


def test_embedding_shape_and_determinism():
    a = we.label_embedding("age")
    b = we.label_embedding("age")
    assert a.shape == (we.WORD_DIM,)
    assert np.array_equal(a, b)


def test_identical_labels_similarity_one():
    assert we.label_similarity("price", "price") == pytest.approx(1.0)


@pytest.mark.parametrize(
    "a,b",
    [
        ("sex", "gender"),
        ("salary", "income"),
        ("country", "nation"),
        ("area_sq_ft", "area_sq_m"),
        ("weight", "mass"),
        ("review", "feedback"),
        ("quantity", "count"),
    ],
)
def test_synonyms_are_similar(a, b):
    assert we.label_similarity(a, b) > 0.7


@pytest.mark.parametrize(
    "a,b",
    [
        ("price", "survived"),
        ("age", "country"),
        ("review_text", "postal_code"),
        ("temperature", "language"),
    ],
)
def test_unrelated_are_dissimilar(a, b):
    assert we.label_similarity(a, b) < 0.55


def test_shared_token_labels_are_similar():
    assert we.label_similarity("age", "age_years") > 0.7


def test_empty_label():
    assert np.all(we.label_embedding("") == 0.0)
    assert we.label_similarity("", "price") == 0.0


def test_cosine_zero_vectors():
    assert we.cosine(np.zeros(3), np.ones(3)) == 0.0


def test_english_vocab_nonempty():
    assert "good" in we.ENGLISH_VOCAB and len(we.ENGLISH_VOCAB) > 100


def _ref_trigram_vector(text, dim):
    """The per-string loop ``trigram_vectors`` replaced: one digest per
    trigram, one norm per string."""
    padded = f"#{text}#"
    vec = np.zeros(dim)
    for i in range(max(1, len(padded) - 2)):
        digest = hashlib.blake2b(padded[i : i + 3].encode(), digest_size=8).digest()
        h = int.from_bytes(digest, "big")
        vec[h % dim] += 1.0 if (h >> 16) % 2 else -1.0
    n = np.linalg.norm(vec)
    return vec / n if n > 0 else vec


_TEXTS = st.one_of(
    st.text(),
    st.just(""),
    st.text(min_size=1, max_size=2),
    st.text(alphabet="aé日ß🙂 #", max_size=8),
)


@given(st.lists(_TEXTS, max_size=12), st.sampled_from([3, 50, 64]))
@example(["", "a", "ab", "ab", "日本語", "#"], 64)
@settings(max_examples=300, deadline=None)
def test_trigram_vectors_match_per_string_loop(texts, dim):
    got = we.trigram_vectors(texts, dim)
    assert got.shape == (len(texts), dim)
    for row, text in zip(got, texts):
        assert np.array_equal(row, _ref_trigram_vector(text, dim))
