"""Pseudo-GloVe word embeddings for column labels (substitution S2).

The paper computes label similarity between column names with GloVe
vectors combined with a WordNet-style semantic technique [22, 42]. With
no network access we build a deterministic stand-in with the two
properties the platform actually relies on:

1. tokens that name the same concept (``sex``/``gender``,
   ``area_sq_ft``/``area_sq_m``) embed close together — provided by an
   explicit concept table, the WordNet analogue;
2. morphologically similar tokens embed near each other and unrelated
   tokens far apart — provided by hashed character-n-gram vectors, the
   distributional analogue.

The module also exposes ``ENGLISH_VOCAB`` used by the natural-language
type detector (§3.2: "natural language texts are predicted based on the
existence of corresponding word embeddings for the tokens").

``trigram_vectors`` is the one trigram hasher, for token embeddings and
CoLR's string features: it featurizes each distinct text once and keeps
the digests of recently seen trigrams in a bounded memo.
"""
from __future__ import annotations

import functools
import hashlib
import re
from collections.abc import Sequence

import numpy as np

WORD_DIM = 100
_TRIGRAM_MEMO = 1 << 13  # distinct trigrams whose digest is kept

# Concept groups: tokens in the same group get an identical "semantic"
# half of the embedding (the WordNet-synonymy analogue).
_CONCEPT_GROUPS: list[set[str]] = [
    {"sex", "gender"},
    {"age", "years", "yrs"},
    {"salary", "wage", "income", "pay", "earnings"},
    {"country", "nation", "nationality"},
    {"city", "town", "municipality"},
    {"id", "identifier", "key", "code"},
    {"name", "fullname", "title"},
    {"price", "cost", "amount", "fare"},
    {"date", "day", "time", "timestamp"},
    {"area", "surface", "size"},
    {"ft", "feet", "m", "meters", "metres"},
    {"weight", "mass"},
    {"height", "stature"},
    {"survived", "survival", "alive"},
    {"class", "category", "type", "kind"},
    {"score", "rating", "grade", "rank"},
    {"count", "number", "num", "total", "quantity", "qty"},
    {"address", "location", "place"},
    {"phone", "telephone", "mobile"},
    {"email", "mail"},
    {"status", "state", "condition"},
    {"disease", "illness", "diagnosis"},
    {"patient", "subject", "person"},
    {"product", "item", "goods"},
    {"review", "comment", "feedback", "opinion"},
    {"language", "lang", "tongue"},
    {"company", "organization", "org", "employer", "firm"},
    {"speed", "velocity"},
    {"temperature", "temp"},
    {"pressure", "bp"},
    {"revenue", "sales", "turnover"},
    {"region", "zone", "district", "province"},
    {"team", "club", "squad"},
    {"year", "yr"},
    {"description", "text", "details", "summary"},
]

_CONCEPT_OF: dict[str, int] = {}
for _i, _grp in enumerate(_CONCEPT_GROUPS):
    for _t in _grp:
        _CONCEPT_OF[_t] = _i

# A compact common-English vocabulary for natural-language detection and
# for the lake generator's sentence synthesis.
ENGLISH_VOCAB = frozenset(
    """
    the a an and or but of in on at to for with from by is are was were be
    been has have had do does did will would can could should may might
    very really quite good bad great poor excellent terrible nice awful
    happy sad fast slow big small new old long short high low early late
    product service quality price value delivery customer experience
    recommend buy bought purchase return love hate like dislike enjoy
    works working broken fix easy hard difficult simple best worst better
    worse this that these those it its they them their we our you your i
    not no yes never always often sometimes usually again still also just
    only even more most less least much many few some all any every each
    after before during while when where what who why how day week month
    year time first last next great amazing perfect useless cheap
    expensive comfortable reliable durable arrived quickly slowly exactly
    described pictured expected disappointed satisfied overall highly
    definitely probably maybe absolutely totally completely
    """.split()
)

_SEM_RNG = np.random.default_rng(20240213)
_CONCEPT_VECS = _SEM_RNG.standard_normal((len(_CONCEPT_GROUPS), WORD_DIM // 2))
_CONCEPT_VECS /= np.linalg.norm(_CONCEPT_VECS, axis=1, keepdims=True)

_TOKEN_RE = re.compile(r"[a-z]+|\d+")


def tokenize_label(label: str) -> list[str]:
    """Split a column name into lowercase tokens.

    Handles snake_case, kebab-case, camelCase and digit boundaries:
    ``NormalizedAge`` -> ["normalized", "age"], ``area_sq_ft`` ->
    ["area", "sq", "ft"].
    """
    s = re.sub(r"(?<=[a-z0-9])(?=[A-Z])", "_", str(label)).lower()
    return _TOKEN_RE.findall(s)


@functools.lru_cache(maxsize=_TRIGRAM_MEMO)
def _trigram_hash(trigram: str) -> tuple[int, float]:
    """A trigram's stable 64-bit digest and its ±1 sign, memoized."""
    h = int.from_bytes(hashlib.blake2b(trigram.encode(), digest_size=8).digest(), "big")
    return h, 1.0 if (h >> 16) % 2 else -1.0


def trigram_vectors(texts: Sequence[str], dim: int) -> np.ndarray:
    """Hashed character-trigram vectors of ``#text#``, one unit-norm row
    per text: the distributional half of a token embedding, and CoLR's
    string feature. Each distinct text is featurized once; every entry
    is a sum of ±1s, so the scatter order does not change the result."""
    row_of: dict[str, int] = {}
    rows = [row_of.setdefault(t, len(row_of)) for t in texts]
    owner, slot, sign = [], [], []
    for r, text in enumerate(row_of):
        padded = f"#{text}#"
        for i in range(max(1, len(padded) - 2)):
            h, s = _trigram_hash(padded[i : i + 3])
            owner.append(r)
            slot.append(h % dim)
            sign.append(s)
    vecs = np.zeros((len(row_of), dim))
    np.add.at(vecs, (owner, slot), sign)
    norms = np.sqrt((vecs * vecs).sum(axis=1))
    np.divide(vecs, norms[:, None], out=vecs, where=norms[:, None] > 0)
    return vecs[rows]


def token_embedding(token: str) -> np.ndarray:
    """Embed one token: [semantic half | surface half], unit norm."""
    token = token.lower()
    sem = np.zeros(WORD_DIM // 2)
    if token in _CONCEPT_OF:
        sem = _CONCEPT_VECS[_CONCEPT_OF[token]]
    vec = np.concatenate([sem * 2.5, trigram_vectors([token], WORD_DIM // 2)[0]])
    n = np.linalg.norm(vec)
    return vec / n if n > 0 else vec


def label_embedding(label: str) -> np.ndarray:
    """Embed a column name as the mean of its token embeddings."""
    tokens = tokenize_label(label)
    if not tokens:
        return np.zeros(WORD_DIM)
    return np.mean([token_embedding(t) for t in tokens], axis=0)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def label_similarity(a: str, b: str) -> float:
    """Cosine similarity between two column-name embeddings in [~-1, 1]."""
    return cosine(label_embedding(a), label_embedding(b))
