"""Starmie-like union-search baseline (DESIGN.md §1.3).

Behaviourally-faithful simulation of Starmie [16] per §6.1.2:
preprocessing *trains a language model per data lake* — contrastive
learning over augmented views of the lake's columns for 10 epochs —
then embeds every column into 768 dimensions. Querying retrieves
similar columns by (approximate) cosine search over the 768-dim
vectors and aggregates column matches into table scores.

The per-lake training epochs are why Starmie preprocessing loses to
KGLiDS (whose CoLR models are pre-trained once, offline), and the
768-dim distance computations are why its queries are slower than
KGLiDS's indexed edge lookups. The token-hash features are value-based
only (no column names) and capture lexical shape — strong for text,
weak for numbers, matching the paper's observation that Starmie's
numeric-column precision (52.2) trails its textual precision (63.4).
"""
from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.lakegen.lake import Lake

DIM = 768
_EPOCHS = 10
_AUG_PER_COLUMN = 1
_SAMPLE = 60


def _subword(tok: str) -> str:
    """LM-tokenizer analogue: numbers fragment into digit-shape subwords,
    losing their value — the source of Starmie's weaker numeric-column
    precision (52.2 vs 63.4 textual, §6.1.1)."""
    if any(c.isdigit() for c in tok) and not any(c.isalpha() for c in tok):
        return "".join("d" if c.isdigit() else c for c in tok)
    return tok


def _column_features(values: pd.Series, rng: np.random.Generator | None = None) -> np.ndarray:
    """Hashed value-token features (the LM-input analogue), 768-dim."""
    vec = np.zeros(DIM)
    vals = values.dropna().astype(str)
    if len(vals) > _SAMPLE:
        vals = vals.sample(
            _SAMPLE, random_state=int(rng.integers(0, 2**31)) if rng else 0
        )
    for v in vals:
        for tok in v.lower().split():
            tok = _subword(tok)
            h = int.from_bytes(
                hashlib.blake2b(tok.encode(), digest_size=8).digest(), "big"
            )
            vec[h % DIM] += 1.0 if (h >> 17) % 2 else -1.0
    n = np.linalg.norm(vec)
    return vec / n if n > 0 else vec


def _augment(values: pd.Series, rng: np.random.Generator) -> pd.Series:
    """Starmie-style data augmentation: sample / shuffle / drop cells."""
    op = rng.integers(0, 3)
    vals = values.dropna()
    if len(vals) == 0:
        return vals
    if op == 0:
        return vals.sample(frac=0.7, random_state=int(rng.integers(0, 2**31)))
    if op == 1:
        return vals.sample(frac=1.0, random_state=int(rng.integers(0, 2**31)))
    return vals.head(max(1, int(len(vals) * 0.5)))


@dataclass
class StarmieLikeIndex:
    table_of: list[str] = field(default_factory=list)
    embeddings: np.ndarray | None = None  # (n_cols, DIM), unit rows
    col_index: dict[str, list[int]] = field(default_factory=dict)
    lake: Lake | None = None
    W: np.ndarray | None = None  # the per-lake "trained LM" projection
    preprocessing_s: float = 0.0

    def query(self, table: str, k: int | None = None) -> list[tuple[str, float]]:
        """HNSW-style retrieval substitute: cosine top-k over 768 dims.

        As in the real system, the query table's columns are embedded
        through the trained model at query time before the ANN search.
        """
        assert self.embeddings is not None and self.lake is not None
        pdf = self.lake.tables[table]
        q = np.stack([_column_features(pdf[c]) for c in pdf.columns]) @ self.W
        norms = np.linalg.norm(q, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        sims = (q / norms) @ self.embeddings.T  # (my_cols, n_cols)
        scores: dict[str, float] = {}
        table_arr = np.array(self.table_of)
        for row in sims:
            order = np.argsort(-row)
            seen: set[str] = set()
            for idx in order[:50]:
                t = table_arr[idx]
                if t == table or t in seen:
                    continue
                seen.add(t)
                scores[t] = scores.get(t, 0.0) + float(row[idx])
        ranked = sorted(scores.items(), key=lambda x: (-x[1], x[0]))
        return ranked[:k] if k is not None else ranked


def build_index(lake: Lake, epochs: int = _EPOCHS) -> StarmieLikeIndex:
    """Per-lake contrastive training + column embedding."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    index = StarmieLikeIndex(lake=lake)
    feats = []
    for tname, pdf in lake.tables.items():
        for col in pdf.columns:
            index.col_index.setdefault(tname, []).append(len(index.table_of))
            index.table_of.append(tname)
            feats.append(_column_features(pdf[col]))
    X = np.stack(feats)
    # contrastive "LM training": align augmented views epoch by epoch
    W = np.eye(DIM)
    lr = 0.05
    tables = list(lake.tables.items())
    for _ in range(epochs):
        grad = np.zeros((DIM, DIM))
        for tname, pdf in tables:
            for col in pdf.columns:
                anchor = _column_features(pdf[col], rng)
                for _ in range(_AUG_PER_COLUMN):
                    view = _column_features(_augment(pdf[col], rng), rng)
                    grad += np.outer(anchor, view)
        W += lr * grad / max(1, len(index.table_of))
    # symmetric normalization keeps the projection well-conditioned
    W = 0.5 * (W + W.T)
    index.W = W
    emb = X @ W
    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    index.embeddings = emb / norms
    index.preprocessing_s = time.perf_counter() - t0
    return index
