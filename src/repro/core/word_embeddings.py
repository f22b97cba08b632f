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
"""
from __future__ import annotations

import hashlib
import re

import numpy as np

WORD_DIM = 100

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


def trigram_vector(text: str, dim: int) -> np.ndarray:
    """Hashed character-trigram vector of ``#text#``, unit norm: the
    distributional half of a token embedding, and CoLR's string feature."""
    padded = f"#{text}#"
    vec = np.zeros(dim)
    for i in range(max(1, len(padded) - 2)):
        digest = hashlib.blake2b(padded[i : i + 3].encode(), digest_size=8).digest()
        h = int.from_bytes(digest, "big")
        vec[h % dim] += 1.0 if (h >> 16) % 2 else -1.0
    n = np.linalg.norm(vec)
    return vec / n if n > 0 else vec


def token_embedding(token: str) -> np.ndarray:
    """Embed one token: [semantic half | surface half], unit norm."""
    token = token.lower()
    sem = np.zeros(WORD_DIM // 2)
    if token in _CONCEPT_OF:
        sem = _CONCEPT_VECS[_CONCEPT_OF[token]]
    vec = np.concatenate([sem * 2.5, trigram_vector(token, WORD_DIM // 2)])
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
