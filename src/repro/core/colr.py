"""CoLR — Column Learned Representation models (paper §3.2, sub. S3).

One model per fine-grained type maps a single value to a 300-dim vector;
a column's embedding is the average over a sample of its values
(Algorithm 2, lines 8-10). The paper trains these nets contrastively on
5,500 Kaggle/OpenML tables; offline we use fixed, seeded "pre-trained"
weights over hand-designed value features. This preserves the properties
KGLiDS depends on:

* columns with overlapping values or similar distributions embed close
  (the average of a random-feature network over i.i.d. samples
  concentrates on the population mean);
* the representation is fixed-size regardless of column length;
* no per-data-lake training is needed (the Table-2 advantage vs Starmie).

Embeddings are centered by the expected embedding of a broad reference
population per type, so cosine similarity is discriminative rather than
dominated by a shared bias direction.

A numeric sample is read as numbers directly; string features come from
one ``word_embeddings.trigram_vectors`` batch per sample.
"""
from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd

from .types import EMBEDDING_DIM, FineGrainedType
from .word_embeddings import trigram_vectors

_HIDDEN = 128
_NGRAM_DIM = 64


def _net(fgt: FineGrainedType, d_in: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # a stable digest, not ``hash()``: every process (Spark workers and the
    # driver) must build the same network whatever its PYTHONHASHSEED
    digest = hashlib.blake2b(repr(("colr", fgt.value)).encode(), digest_size=8).digest()
    g = np.random.default_rng(int.from_bytes(digest, "big") % (2**32))
    w1 = g.standard_normal((d_in, _HIDDEN)) / np.sqrt(d_in)
    b1 = g.standard_normal(_HIDDEN) * 0.1
    w2 = g.standard_normal((_HIDDEN, EMBEDDING_DIM)) / np.sqrt(_HIDDEN)
    return w1, b1, w2


def _forward(feats: np.ndarray, fgt: FineGrainedType) -> np.ndarray:
    w1, b1, w2 = _NETS[fgt]
    return np.tanh(np.tanh(feats @ w1 + b1) @ w2)


def _numeric_features(values: np.ndarray) -> np.ndarray:
    v = values.astype("float64")
    v = v[np.isfinite(v)]
    if v.size == 0:
        return np.zeros((0, 8))
    absv = np.abs(v)
    return np.column_stack(
        [
            np.sign(v),
            np.log1p(absv) / 10.0,
            v - np.floor(v),  # fractional part
            (np.floor(np.log10(absv + 1e-12)).clip(-3, 12) + 3) / 15.0,  # magnitude
            np.mod(np.floor(absv), 10) / 10.0,  # last integer digit
            (absv < 1e-12).astype(float),  # zero indicator
            np.mod(np.floor(absv / 10.0), 10) / 10.0,  # second digit
            np.tanh(v / (np.median(absv) + 1e-9)),  # scale-invariant shape
        ]
    )


def _date_features(values: np.ndarray) -> np.ndarray:
    s = pd.to_datetime(pd.Series(values), errors="coerce", format="mixed")
    s = s.dropna()
    if s.empty:
        return np.zeros((0, 4))
    return np.column_stack(
        [
            (s.dt.year.to_numpy() - 1970) / 100.0,
            s.dt.month.to_numpy() / 12.0,
            s.dt.day.to_numpy() / 31.0,
            s.dt.dayofweek.to_numpy() / 7.0,
        ]
    )


def _bool_features(values: np.ndarray) -> np.ndarray:
    truthy = {"true", "t", "yes", "y", "1", "1.0"}
    out = np.array([1.0 if str(v).strip().lower() in truthy else 0.0 for v in values])
    return out.reshape(-1, 1)


def _string_features(values: np.ndarray) -> np.ndarray:
    texts = [str(v).lower() for v in values]
    rows = np.empty((len(texts), _NGRAM_DIM + 3))
    rows[:, :_NGRAM_DIM] = trigram_vectors([s[:64] for s in texts], _NGRAM_DIM)
    rows[:, _NGRAM_DIM] = [min(len(s), 60) / 60.0 for s in texts]
    rows[:, _NGRAM_DIM + 1] = [min(len(s.split()), 20) / 20.0 for s in texts]
    rows[:, _NGRAM_DIM + 2] = [sum(c.isdigit() for c in s) / max(1, len(s)) for s in texts]
    return rows


_FEATURIZERS = {
    FineGrainedType.INT: (_numeric_features, 8),
    FineGrainedType.FLOAT: (_numeric_features, 8),
    FineGrainedType.BOOLEAN: (_bool_features, 1),
    FineGrainedType.DATE: (_date_features, 4),
    FineGrainedType.NAMED_ENTITY: (_string_features, _NGRAM_DIM + 3),
    FineGrainedType.NATURAL_LANGUAGE: (_string_features, _NGRAM_DIM + 3),
    FineGrainedType.STRING: (_string_features, _NGRAM_DIM + 3),
}

_NETS = {fgt: _net(fgt, d_in) for fgt, (_, d_in) in _FEATURIZERS.items()}


def _reference_population(fgt: FineGrainedType) -> np.ndarray:
    """A broad, seeded value population used to center embeddings."""
    g = np.random.default_rng(7)
    if fgt in (FineGrainedType.INT,):
        return np.rint(np.exp(g.uniform(0, 12, 2000)) * g.choice([-1, 1], 2000))
    if fgt is FineGrainedType.FLOAT:
        return np.concatenate([g.lognormal(0, 2, 1000), g.normal(0, 100, 1000)])
    if fgt is FineGrainedType.BOOLEAN:
        return np.array(["true", "false"] * 500, dtype=object)
    if fgt is FineGrainedType.DATE:
        base = np.datetime64("1990-01-01")
        return base + g.integers(0, 365 * 30, 1000).astype("timedelta64[D]")
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz0123456789 "))
    return np.array(
        ["".join(g.choice(letters, g.integers(3, 20))) for _ in range(800)],
        dtype=object,
    )


def _center(fgt: FineGrainedType) -> np.ndarray:
    feats = _FEATURIZERS[fgt][0](_reference_population(fgt))
    return _forward(feats, fgt).mean(axis=0)


_CENTERS = {fgt: _center(fgt) for fgt in _FEATURIZERS}


def sample_size(n: int) -> int:
    """Algorithm 2's sample size: max(0.1·|col|, 1000), capped at |col|."""
    return min(n, max(int(0.1 * n), 1000))


def sample_values(values: pd.Series | np.ndarray | list) -> pd.Series:
    """Algorithm 2's sample of a column: its non-null values, at most
    ``sample_size`` of them drawn without replacement by a fixed-seed
    generator, in the column's dtype. The one sampler of Alg. 2, for the
    Spark profiler and the driver alike."""
    s = values if isinstance(values, pd.Series) else pd.Series(values, dtype=object)
    s = s.dropna()
    k = sample_size(len(s))
    if k < len(s):
        s = s.iloc[np.random.default_rng(0).choice(len(s), k, replace=False)]
    return s.reset_index(drop=True)


def _is_number_series(values) -> bool:
    return (
        isinstance(values, pd.Series)
        and pd.api.types.is_numeric_dtype(values.dtype)
        and not pd.api.types.is_bool_dtype(values.dtype)
    )


def embed_sample(values: pd.Series | np.ndarray | list, fgt: FineGrainedType) -> np.ndarray:
    """Average CoLR embedding over an already-drawn sample of non-null
    values (Alg. 2 l. 9-10). A numeric sample is read as it is; any
    other goes through an object array."""
    featurize, _ = _FEATURIZERS[fgt]
    if fgt in (FineGrainedType.INT, FineGrainedType.FLOAT):
        if not _is_number_series(values):
            values = pd.Series(np.asarray(values, dtype=object))
        values = pd.to_numeric(values, errors="coerce").to_numpy()
        values = values[np.isfinite(values)]
    else:
        values = np.asarray(values, dtype=object)
    if values.size == 0:
        return np.zeros(EMBEDDING_DIM)
    feats = featurize(values)
    if feats.shape[0] == 0:
        return np.zeros(EMBEDDING_DIM)
    return _forward(feats, fgt).mean(axis=0) - _CENTERS[fgt]
