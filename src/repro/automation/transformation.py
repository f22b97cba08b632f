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

from .embeddings import column_embeddings, table_embedding_1800
from .gnn import GNNConfig, OneLayerGNN
from .mining import pipeline_calls, vote_weighted_labels

TABLE_TRANSFORMS = ["MinMaxScaler", "RobustScaler", "StandardScaler"]
COLUMN_TRANSFORMS = ["log", "none", "sqrt"]

_SCALER_CALLS = {
    "sklearn/preprocessing/StandardScaler": "StandardScaler",
    "sklearn/preprocessing/MinMaxScaler": "MinMaxScaler",
    "sklearn/preprocessing/RobustScaler": "RobustScaler",
}


def _numeric_cols(pdf: pd.DataFrame) -> list[str]:
    return [c for c in pdf.columns if pd.api.types.is_numeric_dtype(pdf[c])]


# --------------------------------------------------------------------------
# transforms
# --------------------------------------------------------------------------
def apply_scaler(name: str, pdf: pd.DataFrame) -> pd.DataFrame:
    out = pdf.copy()
    for c in _numeric_cols(out):
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
    ).toPandas()
    prefix = O.res("library") + "/"
    func = rows["func"].str.removeprefix(prefix)
    rows = rows[func.isin(["numpy/log", "numpy/sqrt"])].copy()
    rows["op"] = func[func.isin(["numpy/log", "numpy/sqrt"])].str.rsplit(
        "/", n=1
    ).str[-1]
    parts = rows["col"].str.removeprefix(O.RESOURCE).str.split("/")
    rows["dataset"] = parts.str[0]
    rows["column"] = parts.str[-1]
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
        self.config = config or GNNConfig(epochs=900, lr=0.02)
        self.table_model: OneLayerGNN | None = None
        self.column_model: OneLayerGNN | None = None
        self._tab_stats: tuple[np.ndarray, np.ndarray] | None = None
        self._col_stats: tuple[np.ndarray, np.ndarray] | None = None

    @staticmethod
    def _fit_stats(embeddings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mu = embeddings.mean(axis=0)
        sd = embeddings.std(axis=0)
        sd[sd == 0] = 1.0
        return mu, sd

    def fit_table(self, embeddings: np.ndarray, scalers: list[str]):
        y = np.array([TABLE_TRANSFORMS.index(s) for s in scalers])
        self._tab_stats = self._fit_stats(embeddings)
        mu, sd = self._tab_stats
        self.table_model = OneLayerGNN(
            n_classes=len(TABLE_TRANSFORMS), d_in=embeddings.shape[1],
            config=self.config,
        ).fit((embeddings - mu) / sd, y)
        return self

    def fit_columns(self, embeddings: np.ndarray, ops: list[str]):
        y = np.array([COLUMN_TRANSFORMS.index(o) for o in ops])
        self._col_stats = self._fit_stats(embeddings)
        mu, sd = self._col_stats
        self.column_model = OneLayerGNN(
            n_classes=len(COLUMN_TRANSFORMS), d_in=embeddings.shape[1],
            config=self.config,
        ).fit((embeddings - mu) / sd, y)
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
            for col, (fgt, emb) in embs_of[ds].items():
                if fgt.value not in ("int", "float"):
                    continue
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
        mu, sd = self._tab_stats
        scaler = TABLE_TRANSFORMS[
            int(self.table_model.predict(((emb - mu) / sd).reshape(1, -1))[0])
        ]
        col_ops: dict[str, str] = {}
        if self.column_model is not None:
            cmu, csd = self._col_stats
            for col, (fgt, cemb) in col_embs.items():
                if fgt.value not in ("int", "float"):
                    continue
                pred = int(
                    self.column_model.predict(
                        ((cemb - cmu) / csd).reshape(1, -1)
                    )[0]
                )
                col_ops[col] = COLUMN_TRANSFORMS[pred]
        return scaler, col_ops
