"""On-demand data cleaning (§4.2): the 5 operations + GNN recommender.

The model is a multiclass node classifier over 1800-dim table embeddings
(per-type averages of the columns with missing values, concatenated).
Output classes: Fillna, Interpolate, SimpleImputer, KNNImputer,
IterativeImputer. Training pairs are mined from the LiDS graph: each
training dataset is labeled with the (vote-weighted) most common
cleaning call among its pipelines — the knowledge other data scientists
left behind.

The operations themselves are implemented here in numpy/pandas
(scikit-learn is unavailable, S8) with the same semantics as the
sklearn/pandas calls they are named after.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.triples import TripleStore

from .embeddings import table_embedding_1800
from .gnn import RECOMMENDER_CONFIG, GNNConfig, LabelModel
from .mining import pipeline_calls, vote_weighted_labels

CLEANING_OPERATIONS = [
    "Fillna",
    "Interpolate",
    "SimpleImputer",
    "KNNImputer",
    "IterativeImputer",
]

# library function -> operation name (for mining the KG)
_CALL_TO_OP = {
    "pandas.DataFrame.fillna": "Fillna",
    "pandas.DataFrame.interpolate": "Interpolate",
    "sklearn.impute.SimpleImputer": "SimpleImputer",
    "sklearn.impute.KNNImputer": "KNNImputer",
    "sklearn.impute.IterativeImputer": "IterativeImputer",
}


# --------------------------------------------------------------------------
# the five cleaning operations
# --------------------------------------------------------------------------
def numeric_cols(pdf: pd.DataFrame) -> list[str]:
    """The columns of ``pdf`` that the imputers and scalers change."""
    return [c for c in pdf.columns if pd.api.types.is_numeric_dtype(pdf[c])]


def apply_fillna(pdf: pd.DataFrame) -> pd.DataFrame:
    out = pdf.copy()
    for c in out.columns:
        out[c] = out[c].fillna(0 if pd.api.types.is_numeric_dtype(out[c]) else "missing")
    return out


def apply_interpolate(pdf: pd.DataFrame) -> pd.DataFrame:
    out = pdf.copy()
    for c in numeric_cols(out):
        out[c] = out[c].interpolate(limit_direction="both")
    for c in out.columns:
        if not pd.api.types.is_numeric_dtype(out[c]):
            out[c] = out[c].ffill().bfill()
        out[c] = out[c].fillna(0 if pd.api.types.is_numeric_dtype(out[c]) else "missing")
    return out


def apply_simple_imputer(pdf: pd.DataFrame) -> pd.DataFrame:
    """Mean for numeric, most_frequent for categorical."""
    out = pdf.copy()
    for c in out.columns:
        if pd.api.types.is_numeric_dtype(out[c]):
            out[c] = out[c].fillna(out[c].mean() if out[c].notna().any() else 0)
        else:
            mode = out[c].mode()
            out[c] = out[c].fillna(mode.iloc[0] if len(mode) else "missing")
    return out


def apply_knn_imputer(pdf: pd.DataFrame, k: int = 5) -> pd.DataFrame:
    """k-nearest-neighbour imputation on standardized numeric features."""
    out = pdf.copy()
    nums = numeric_cols(out)
    if not nums:
        return apply_simple_imputer(out)
    X = out[nums].to_numpy(dtype="float64")
    mu = np.nanmean(X, axis=0)
    sd = np.nanstd(X, axis=0)
    sd[sd == 0] = 1.0
    Z = (X - mu) / sd
    missing_rows = np.nonzero(np.isnan(Z).any(axis=1))[0]
    complete_rows = np.nonzero(~np.isnan(Z).any(axis=1))[0]
    if len(complete_rows) == 0:
        return apply_simple_imputer(out)
    Zc = Z[complete_rows]
    for i in missing_rows:
        obs = ~np.isnan(Z[i])
        if not obs.any():
            Z[i] = 0.0
            continue
        d = np.sqrt(np.nansum((Zc[:, obs] - Z[i, obs]) ** 2, axis=1))
        nbrs = complete_rows[np.argsort(d)[:k]]
        fill = X[nbrs].mean(axis=0)
        miss = np.isnan(X[i])
        X[i, miss] = fill[miss]
    out[nums] = X
    return apply_simple_imputer(out)  # categorical leftovers


def apply_iterative_imputer(pdf: pd.DataFrame, rounds: int = 5) -> pd.DataFrame:
    """Round-robin ridge regression of each column on the others."""
    out = pdf.copy()
    nums = numeric_cols(out)
    if len(nums) < 2:
        return apply_simple_imputer(out)
    X = out[nums].to_numpy(dtype="float64")
    na = np.isnan(X)
    col_means = np.nanmean(np.where(na, np.nan, X), axis=0)
    col_means = np.nan_to_num(col_means)
    X_imp = np.where(na, col_means, X)
    for _ in range(rounds):
        for j in range(len(nums)):
            if not na[:, j].any():
                continue
            others = [i for i in range(len(nums)) if i != j]
            A = X_imp[~na[:, j]][:, others]
            b = X[~na[:, j], j]
            if len(b) < 2:
                continue
            Ab = np.column_stack([A, np.ones(len(A))])
            w = np.linalg.solve(
                Ab.T @ Ab + 1e-3 * np.eye(Ab.shape[1]), Ab.T @ b
            )
            Aq = np.column_stack([X_imp[na[:, j]][:, others],
                                  np.ones(int(na[:, j].sum()))])
            X_imp[na[:, j], j] = Aq @ w
    out[nums] = X_imp
    return apply_simple_imputer(out)  # categorical leftovers


_APPLY = {
    "Fillna": apply_fillna,
    "Interpolate": apply_interpolate,
    "SimpleImputer": apply_simple_imputer,
    "KNNImputer": apply_knn_imputer,
    "IterativeImputer": apply_iterative_imputer,
}


def apply_cleaning_operations(operation: str, pdf: pd.DataFrame) -> pd.DataFrame:
    """The §4.1 API: apply a recommended operation, return the clean df."""
    if operation not in _APPLY:
        raise ValueError(f"unknown cleaning operation: {operation}")
    return _APPLY[operation](pdf)


def baseline_drop_nulls(pdf: pd.DataFrame) -> pd.DataFrame:
    """The Table-5 baseline: model after dropping rows with nulls."""
    return pdf.dropna().reset_index(drop=True)


# --------------------------------------------------------------------------
# mining training pairs from the LiDS graph
# --------------------------------------------------------------------------
def mine_cleaning_labels(store: TripleStore) -> pd.DataFrame:
    """dataset -> vote-weighted most common cleaning op of its pipelines."""
    return vote_weighted_labels(pipeline_calls(store), _CALL_TO_OP)


# --------------------------------------------------------------------------
# the recommender
# --------------------------------------------------------------------------
class CleaningRecommender:
    """GNN recommender over 1800-dim missing-column table embeddings."""

    def __init__(self, config: GNNConfig | None = None):
        self.config = config or RECOMMENDER_CONFIG
        self.model: LabelModel | None = None

    def fit(self, embeddings: np.ndarray, ops: list[str]) -> "CleaningRecommender":
        self.model = LabelModel(CLEANING_OPERATIONS, self.config).fit(embeddings, ops)
        return self

    def fit_from_kg(
        self, store: TripleStore, tables: dict[str, pd.DataFrame]
    ) -> "CleaningRecommender":
        """End-to-end: mine labels from the KG, embed the tables, train."""
        labels = mine_cleaning_labels(store)
        labels = labels[labels["dataset"].isin(tables)]
        embs = np.stack(
            [table_embedding_1800(tables[d], only_missing=True)
             for d in labels["dataset"]]
        )
        return self.fit(embs, list(labels["op"]))

    def recommend_cleaning_operations(self, pdf: pd.DataFrame) -> str:
        """The §4.1 API: predict the near-optimal operation for ``pdf``."""
        assert self.model is not None, "fit the recommender first"
        emb = table_embedding_1800(pdf, only_missing=True)
        return self.model.predict(emb.reshape(1, -1))[0]
