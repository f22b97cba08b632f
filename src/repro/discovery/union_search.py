"""KGLiDS table-union search over the LiDS dataset graph (§3.3, §6.1).

Preprocessing (the Table-2 "Preprocessing" column) is the Spark work:
profile the lake (Algorithm 2), build the dataset graph with its
materialized similarity edges (Algorithm 3), then load those edges into
a driver-side index — our stand-in for GraphDB's triple indices
(DESIGN.md S4). A union query then never touches raw data: it is a
lookup + group-by over pre-materialized edges, which is why KGLiDS query
latency is milliseconds in Table 2.

Two tables are unionable if their columns are connected by label or
content similarity edges; the table score combines the number of
matched columns and their scores (paper §3.3 last paragraph).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core import ontology as O
from repro.core.profiler import profile_tables
from repro.core.schema_builder import SimilarityThresholds, build_dataset_graph
from repro.core.triples import TripleStore
from repro.lakegen.lake import Lake


def _table_of(column_uri: str) -> str:
    return column_uri.rsplit("/", 1)[0].rsplit("/", 1)[-1]


def _column_of(column_uri: str) -> str:
    return column_uri.rsplit("/", 1)[-1]


@dataclass
class UnionSearchIndex:
    """Materialized similarity-edge index (the GraphDB-index analogue).

    ``by_table`` is built once at preprocessing time: for every subject
    table, the best label-similarity and content-similarity weight per
    (own column, candidate table). Queries are pure index lookups.
    """

    edges: pd.DataFrame  # columns: table_a, col_a, table_b, col_b, pred, w
    n_cols: dict[str, int]  # table -> number of columns
    by_table: dict[str, dict[str, float]] = field(default_factory=dict)
    preprocessing_s: float = 0.0

    def _build_query_index(self) -> None:
        """Aggregate edges into per-table candidate scores.

        score(C) = Σ_{c ∈ cols(T)} (best label sim + best content sim)
        between c and C's columns, normalized by |cols(T)|. Summing both
        kinds of evidence ranks tables that agree on *names and values*
        above same-schema impostors whose values differ.
        """
        self.by_table = {}
        if self.edges.empty:
            return
        best = (
            self.edges.groupby(["table_a", "col_a", "table_b", "pred"])["w"]
            .max()
            .reset_index()
        )
        # content agreement (value distributions) separates same-schema
        # impostor tables better than shared names do — weight it higher
        best["w"] = np.where(
            best["pred"] == O.CONTENT_SIMILARITY, 2.0 * best["w"], best["w"]
        )
        summed = best.groupby(["table_a", "table_b"])["w"].sum().reset_index()
        for table_a, grp in summed.groupby("table_a"):
            n = max(1, self.n_cols.get(str(table_a), 1))
            self.by_table[str(table_a)] = {
                str(r.table_b): float(r.w) / n for r in grp.itertuples(index=False)
            }

    def query(self, table: str, k: int | None = None) -> list[tuple[str, float]]:
        """Rank candidate unionable tables for ``table`` (index lookup)."""
        scores = self.by_table.get(table)
        if not scores:
            return []
        ranked = sorted(scores.items(), key=lambda x: (-x[1], x[0]))
        return ranked[:k] if k is not None else ranked


def build_index(
    spark: SparkSession,
    lake: Lake,
    thresholds: SimilarityThresholds = SimilarityThresholds(),
) -> UnionSearchIndex:
    """Full KGLiDS preprocessing for a lake; returns the query index."""
    t0 = time.perf_counter()
    profiles = profile_tables(spark, lake.tables, lake.name)
    index = index_from_graph(build_dataset_graph(spark, profiles, thresholds), lake)
    index.preprocessing_s = time.perf_counter() - t0
    return index


def index_from_graph(graph: TripleStore, lake: Lake) -> UnionSearchIndex:
    """Load materialized similarity edges out of the dataset graph."""
    sim = (
        graph.df.filter(
            graph.df.p.isin([O.LABEL_SIMILARITY, O.CONTENT_SIMILARITY])
        )
        .select("s", "p", "o", "w")
        .toPandas()
    )
    if sim.empty:
        edges = pd.DataFrame(
            columns=["table_a", "col_a", "table_b", "col_b", "pred", "w"]
        )
    else:
        fwd = pd.DataFrame(
            {
                "table_a": sim["s"].map(_table_of),
                "col_a": sim["s"].map(_column_of),
                "table_b": sim["o"].map(_table_of),
                "col_b": sim["o"].map(_column_of),
                "pred": sim["p"],
                "w": sim["w"],
            }
        )
        # edges are materialized once per unordered pair; symmetrize here
        bwd = fwd.rename(
            columns={
                "table_a": "table_b", "table_b": "table_a",
                "col_a": "col_b", "col_b": "col_a",
            }
        )
        edges = pd.concat([fwd, bwd], ignore_index=True)
        edges = edges[edges["table_a"] != edges["table_b"]]
    n_cols = {t: len(df.columns) for t, df in lake.tables.items()}
    index = UnionSearchIndex(edges=edges, n_cols=n_cols)
    index._build_query_index()
    return index


def evaluate(
    index: UnionSearchIndex, lake: Lake, k: int | None = None
) -> tuple[dict[str, list[str]], float]:
    """Run all benchmark queries; returns rankings and avg query seconds."""
    k = k or lake.k
    results: dict[str, list[str]] = {}
    t0 = time.perf_counter()
    for q in lake.query_tables:
        results[q] = [t for t, _ in index.query(q, k=k)]
    avg_s = (time.perf_counter() - t0) / max(1, len(lake.query_tables))
    return results, avg_s
