"""On-demand data transformation (§4.3): scalers, unary ops, recommenders.

Two GNN models, per the paper:
* a **table** model (1800-dim per-type-average embeddings) choosing one
  of {StandardScaler, MinMaxScaler, RobustScaler} for the whole dataset;
* a **column** model (raw 300-dim CoLR embedding, no aggregation)
  choosing one of {log, sqrt, none} per feature.

Scaling is recommended before unary transforms (§4.3's magnitude
argument). Scalers/transforms are numpy implementations with sklearn
semantics (S8).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core import ontology as O
from repro.core.triples import TripleStore

from .cleaning import numeric_cols
from .embeddings import column_embeddings, table_embedding_1800
from .gnn import RECOMMENDER_CONFIG, GNNConfig, LabelModel
from .mining import pipeline_calls, vote_weighted_labels

TABLE_TRANSFORMS = ["MinMaxScaler", "RobustScaler", "StandardScaler"]
COLUMN_TRANSFORMS = ["log", "none", "sqrt"]

_SCALER_CALLS = {
    "sklearn.preprocessing.StandardScaler": "StandardScaler",
    "sklearn.preprocessing.MinMaxScaler": "MinMaxScaler",
    "sklearn.preprocessing.RobustScaler": "RobustScaler",
}
_UNARY_CALLS = {O.library("numpy.log"): "log", O.library("numpy.sqrt"): "sqrt"}


def _numeric_embeddings(col_embs: dict) -> dict[str, np.ndarray]:
    """column -> CoLR embedding of the int and float columns: the
    column model's inputs."""
    return {
        col: emb for col, (fgt, emb) in col_embs.items()
        if fgt.value in ("int", "float")
    }


# --------------------------------------------------------------------------
# transforms
# --------------------------------------------------------------------------
def apply_scaler(name: str, pdf: pd.DataFrame) -> pd.DataFrame:
    out = pdf.copy()
    for c in numeric_cols(out):
        x = out[c].to_numpy(dtype="float64")
        if name == "StandardScaler":
            sd = np.nanstd(x)
            out[c] = (x - np.nanmean(x)) / (sd if sd else 1.0)
        elif name == "MinMaxScaler":
            lo, hi = np.nanmin(x), np.nanmax(x)
            out[c] = (x - lo) / ((hi - lo) if hi > lo else 1.0)
        elif name == "RobustScaler":
            med = np.nanmedian(x)
            q1, q3 = np.nanpercentile(x, [25, 75])
            iqr = q3 - q1
            out[c] = (x - med) / (iqr if iqr else 1.0)
        else:
            raise ValueError(f"unknown scaler: {name}")
    return out


def apply_column_transform(name: str, values: pd.Series) -> pd.Series:
    x = values.to_numpy(dtype="float64")
    if name == "log":
        return pd.Series(np.log1p(np.abs(x)) * np.sign(x), index=values.index)
    if name == "sqrt":
        return pd.Series(np.sqrt(np.abs(x)) * np.sign(x), index=values.index)
    if name == "none":
        return values
    raise ValueError(f"unknown column transform: {name}")


def apply_transformations(
    scaler: str, col_ops: dict[str, str], pdf: pd.DataFrame
) -> pd.DataFrame:
    """Scale first, then unary-transform individual features (§4.3)."""
    out = apply_scaler(scaler, pdf)
    for col, op in col_ops.items():
        if col in out.columns and pd.api.types.is_numeric_dtype(out[col]):
            out[col] = apply_column_transform(op, out[col])
    return out


# --------------------------------------------------------------------------
# mining training pairs from the LiDS graph
# --------------------------------------------------------------------------
def mine_scaler_labels(store: TripleStore) -> pd.DataFrame:
    """dataset -> vote-weighted most common scaler of its pipelines."""
    return vote_weighted_labels(pipeline_calls(store), _SCALER_CALLS)


def mine_column_transform_labels(store: TripleStore) -> pd.DataFrame:
    """(dataset, column) -> log/sqrt from ``np.log(df['c'])`` statements.

    BGP: statements that call numpy.log/sqrt and read a column.
    """
    rows = store.match_bgp(
        [
            ("?stmt", O.CALLS, "?func"),
            ("?stmt", O.READS_COLUMN, "?col"),
        ]
    )
    rows = rows.assign(op=rows["func"].map(_UNARY_CALLS)).dropna(subset=["op"])
    names = O.decode(rows["col"], O.data_names)  # (dataset, table, column)
    rows["dataset"] = names.str[0]
    rows["column"] = names.str[2]
    return (
        rows.groupby(["dataset", "column", "op"])
        .size()
        .reset_index(name="n")
        .sort_values(["dataset", "column", "n"], ascending=[True, True, False])
        .drop_duplicates(["dataset", "column"])[["dataset", "column", "op"]]
        .reset_index(drop=True)
    )


# --------------------------------------------------------------------------
# recommenders
# --------------------------------------------------------------------------
class TransformationRecommender:
    """Table-level scaler model + column-level unary model (§4.3)."""

    def __init__(self, config: GNNConfig | None = None):
        self.config = config or RECOMMENDER_CONFIG
        self.table_model: LabelModel | None = None
        self.column_model: LabelModel | None = None

    def fit_table(self, embeddings: np.ndarray, scalers: list[str]):
        self.table_model = LabelModel(TABLE_TRANSFORMS, self.config).fit(
            embeddings, scalers
        )
        return self

    def fit_columns(self, embeddings: np.ndarray, ops: list[str]):
        self.column_model = LabelModel(COLUMN_TRANSFORMS, self.config).fit(
            embeddings, ops
        )
        return self

    def fit_from_kg(
        self, store: TripleStore, tables: dict[str, pd.DataFrame]
    ) -> "TransformationRecommender":
        scaler_labels = mine_scaler_labels(store)
        scaler_labels = scaler_labels[scaler_labels["dataset"].isin(tables)]
        col_labels = mine_column_transform_labels(store)
        # each labelled table's columns are embedded once, for both models
        embs_of = {
            ds: column_embeddings(tables[ds])
            for ds in set(scaler_labels["dataset"]) | set(col_labels["dataset"])
            if ds in tables
        }
        tab_embs = np.stack(
            [table_embedding_1800(tables[d], embeddings=embs_of[d])
             for d in scaler_labels["dataset"]]
        )
        self.fit_table(tab_embs, list(scaler_labels["op"]))
        col_embs, col_ops = [], []
        for ds, grp in col_labels.groupby("dataset"):
            if ds not in tables:
                continue
            transformed = dict(zip(grp["column"], grp["op"]))
            for col, emb in _numeric_embeddings(embs_of[ds]).items():
                col_embs.append(emb)
                col_ops.append(transformed.get(col, "none"))
        if col_embs:
            self.fit_columns(np.stack(col_embs), col_ops)
        return self

    def recommend_transformations(
        self, pdf: pd.DataFrame
    ) -> tuple[str, dict[str, str]]:
        """The §4.1/§5 API: (scaler, per-column unary ops) for ``pdf``."""
        assert self.table_model is not None, "fit the recommender first"
        col_embs = column_embeddings(pdf)
        emb = table_embedding_1800(pdf, embeddings=col_embs)
        scaler = self.table_model.predict(emb.reshape(1, -1))[0]
        numeric = _numeric_embeddings(col_embs)
        if self.column_model is None or not numeric:
            return scaler, {}
        ops = self.column_model.predict(np.stack(list(numeric.values())))
        return scaler, dict(zip(numeric, ops))
