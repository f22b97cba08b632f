"""Data Global Schema Builder — Algorithm 3 — over the column profiles.

Builds the dataset graph from column profiles:

1. a metadata subgraph (dataset/table/column hierarchy + statistics),
   Alg. 3 lines 2-5;
2. similarity edges between column pairs *of the same fine-grained type
   in different tables* (lines 6-19): label similarity from word
   embeddings (threshold α), content similarity from CoLR embeddings
   (threshold θ) — except booleans, compared on true-ratio (threshold β).

The profile rows (one per column, Alg. 2's output) are collected to the
driver once and both subgraphs are derived from that one frame, so
profiling runs once whatever the caller persists. The metadata triples
are built on the driver. The pairwise stage broadcasts the per-type
embedding matrices and runs a small (fgt, position) DataFrame through
``mapInPandas``: each row compares one column against all later columns
of the same type with one matmul — the paper's "MapReduce fashion" with
the quadratic work spread across executors and no quadratic shuffle.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from . import ontology as O
from .triples import TRIPLE_SCHEMA, TripleBuilder, TripleStore
from .types import FineGrainedType


@dataclass(frozen=True)
class SimilarityThresholds:
    """User-defined thresholds of Algorithm 3 (α: label, β: bool, θ: content)."""

    alpha: float = 0.75
    beta: float = 0.90
    theta: float = 0.95


_METADATA_COLUMNS = [
    "dataset", "table", "column", "fgt", "n_rows", "n_nulls", "n_distinct",
    "true_ratio",
]
_PROFILE_COLUMNS = _METADATA_COLUMNS + ["embedding", "label_embedding"]


def _column_uri(dataset: str, table: str, column: str) -> str:
    return O.res(dataset, table, column)


def _metadata_triples(pdf: pd.DataFrame) -> pd.DataFrame:
    """Alg. 3 lines 2-5 over collected profile rows: column triples once
    per row, table and dataset triples once per distinct table/dataset."""
    tb = TripleBuilder(graph=O.res("datasetGraph"))
    for r in pdf.itertuples(index=False):
        col = _column_uri(r.dataset, r.table, r.column)
        tb.add(col, O.RDF_TYPE, O.COLUMN)
        tb.add(col, O.RDFS_LABEL, r.column)
        tb.add(col, O.IS_PART_OF, O.res(r.dataset, r.table))
        tb.add(col, O.HAS_TYPE, r.fgt)
        tb.add(col, O.HAS_TOTAL_VALUES, str(r.n_rows))
        tb.add(col, O.HAS_NULL_COUNT, str(r.n_nulls))
        tb.add(col, O.HAS_DISTINCT_VALUES, str(r.n_distinct))
        if r.fgt == FineGrainedType.BOOLEAN.value and pd.notna(r.true_ratio):
            tb.add(col, O.HAS_TRUE_RATIO, f"{r.true_ratio:.4f}")
    for r in pdf.drop_duplicates(["dataset", "table"]).itertuples(index=False):
        tab = O.res(r.dataset, r.table)
        tb.add(tab, O.RDF_TYPE, O.TABLE)
        tb.add(tab, O.RDFS_LABEL, r.table)
        tb.add(tab, O.IS_PART_OF, O.res(r.dataset))
    for ds in pdf["dataset"].unique():
        tb.add(O.res(ds), O.RDF_TYPE, O.DATASET)
    return tb.to_pandas()


def build_metadata_subgraph(profiles: DataFrame) -> DataFrame:
    """Alg. 3 lines 2-5: the metadata subgraph, as triples."""
    pdf = profiles.select(*_METADATA_COLUMNS).toPandas()
    return TripleStore.from_pandas(profiles.sparkSession, _metadata_triples(pdf)).df


def _normalize(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return mat / norms


def _similarity_side(pdf: pd.DataFrame) -> dict[str, dict]:
    """Per fine-grained type, the column URIs, tables and unit-normalized
    embedding matrices, in the order of the collected rows."""
    side: dict[str, dict] = {}
    for fgt, grp in pdf.groupby("fgt"):
        side[fgt] = {
            "ids": np.array(
                [
                    _column_uri(r.dataset, r.table, r.column)
                    for r in grp.itertuples(index=False)
                ]
            ),
            "tables": grp["table"].to_numpy(),
            "content": _normalize(np.stack(grp["embedding"].to_numpy())),
            "label": _normalize(np.stack(grp["label_embedding"].to_numpy())),
            "true_ratio": grp["true_ratio"].fillna(0.5).to_numpy(dtype="float64"),
        }
    return side


def _similarity_partition_factory(bc, thresholds: SimilarityThresholds):
    """Worker over (fgt, position) rows: compare that column against all
    same-type columns at a greater position (i<j dedup)."""

    def worker(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        side = bc.value
        for batch in batches:
            tb = TripleBuilder(graph=O.res("datasetGraph"))
            for fgt, me in zip(batch["fgt"], batch["position"]):
                data = side[fgt]
                later = slice(me + 1, None)
                diff_table = data["tables"][later] != data["tables"][me]
                my_uri = data["ids"][me]
                # label similarity (α) — unit-normalized at build time
                lab = data["label"][later] @ data["label"][me]
                # content similarity: θ on cosine, or β on true-ratio
                if fgt == FineGrainedType.BOOLEAN.value:
                    tr = data["true_ratio"][later]
                    mine = data["true_ratio"][me]
                    content = 1.0 - np.abs(tr - mine)
                    content_thr = thresholds.beta
                else:
                    content = data["content"][later] @ data["content"][me]
                    content_thr = thresholds.theta
                for j in np.nonzero(
                    diff_table & ((lab >= thresholds.alpha) | (content >= content_thr))
                )[0]:
                    other_uri = data["ids"][me + 1 + j]
                    if lab[j] >= thresholds.alpha:
                        tb.add(my_uri, O.LABEL_SIMILARITY, other_uri, w=float(lab[j]))
                    if content[j] >= content_thr:
                        tb.add(
                            my_uri, O.CONTENT_SIMILARITY, other_uri, w=float(content[j])
                        )
            yield tb.to_pandas()

    return worker


def _similarity_edges(
    spark: SparkSession, pdf: pd.DataFrame, thresholds: SimilarityThresholds
) -> DataFrame:
    side = _similarity_side(pdf)
    # one row per column that has a later column of its type to compare with
    comparisons = pd.DataFrame(
        [(fgt, i) for fgt, data in side.items() for i in range(len(data["ids"]) - 1)],
        columns=["fgt", "position"],
    )
    bc = spark.sparkContext.broadcast(side)
    worker = _similarity_partition_factory(bc, thresholds)
    return spark.createDataFrame(comparisons, "fgt string, position long").mapInPandas(
        worker, TRIPLE_SCHEMA
    )


def build_similarity_edges(
    spark: SparkSession,
    profiles: DataFrame,
    thresholds: SimilarityThresholds = SimilarityThresholds(),
) -> DataFrame:
    """Alg. 3 lines 6-19: same-type pairwise similarity edges as triples."""
    pdf = profiles.select(*_PROFILE_COLUMNS).toPandas()
    return _similarity_edges(spark, pdf, thresholds)


def build_dataset_graph(
    spark: SparkSession,
    profiles: DataFrame,
    thresholds: SimilarityThresholds = SimilarityThresholds(),
) -> TripleStore:
    """Alg. 3 lines 20-24: union of metadata and similarity subgraphs.

    ``profiles`` is evaluated once: its rows are collected and both
    subgraphs are derived from them, so the caller need not persist it.
    """
    pdf = profiles.select(*_PROFILE_COLUMNS).toPandas()
    meta = TripleStore.from_pandas(spark, _metadata_triples(pdf))
    return meta.union(TripleStore(spark, _similarity_edges(spark, pdf, thresholds)))
