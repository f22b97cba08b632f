"""KGLiDS table-union search over the LiDS dataset graph (§3.3, §6.1).

Preprocessing (the Table-2 "Preprocessing" column) is the Spark work:
profile the lake (Algorithm 2), build the dataset graph with its
materialized similarity edges (Algorithm 3), then load those edges into
a driver-side index — our stand-in for GraphDB's triple indices
(DESIGN.md S4). The index aggregates those edges once, when it is made,
into per-table candidate scores, the joinable-table adjacency and the
best column pairs of every table pair. A discovery request then never
touches raw data or scans the edges: union search, unionable columns
and join paths are dictionary lookups, which is why KGLiDS query
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


PAIR_COLUMNS = ["column_a", "column_b", "similarity"]


@dataclass
class UnionSearchIndex:
    """Materialized similarity-edge index (the GraphDB-index analogue).

    Everything a discovery request reads is derived from ``edges`` once,
    when the index is made, so every request is a lookup:

    * ``by_table`` — for every subject table, the score of each candidate
      table (``query``);
    * ``adjacency`` — every table's joinable tables, sorted (join paths);
    * ``pairs`` — for every (table_a, table_b), the best partner of each
      column of table_a, as the rows ``pair_rows[(table_a, table_b)]`` of
      one frame (unionable columns).
    """

    edges: pd.DataFrame  # columns: table_a, col_a, table_b, col_b, pred, w
    n_cols: dict[str, int]  # table -> number of columns
    preprocessing_s: float = 0.0
    by_table: dict[str, dict[str, float]] = field(init=False, repr=False)
    adjacency: dict[str, list[str]] = field(init=False, repr=False)
    pairs: pd.DataFrame = field(init=False, repr=False)
    pair_rows: dict[tuple[str, str], slice] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.by_table = _table_scores(self.edges, self.n_cols)
        self.adjacency = _joinable_adjacency(self.edges)
        self.pairs, self.pair_rows = _best_column_pairs(self.edges)

    def query(self, table: str, k: int | None = None) -> list[tuple[str, float]]:
        """Rank candidate unionable tables for ``table`` (index lookup)."""
        scores = self.by_table.get(table)
        if not scores:
            return []
        ranked = sorted(scores.items(), key=lambda x: (-x[1], x[0]))
        return ranked[:k] if k is not None else ranked


def _table_scores(
    edges: pd.DataFrame, n_cols: dict[str, int]
) -> dict[str, dict[str, float]]:
    """Aggregate edges into per-table candidate scores.

    score(C) = Σ_{c ∈ cols(T)} (best label sim + best content sim)
    between c and C's columns, normalized by |cols(T)|. Summing both
    kinds of evidence ranks tables that agree on *names and values*
    above same-schema impostors whose values differ.
    """
    if edges.empty:
        return {}
    best = (
        edges.groupby(["table_a", "col_a", "table_b", "pred"])["w"]
        .max()
        .reset_index()
    )
    # content agreement (value distributions) separates same-schema
    # impostor tables better than shared names do — weight it higher
    best["w"] = np.where(
        best["pred"] == O.CONTENT_SIMILARITY, 2.0 * best["w"], best["w"]
    )
    summed = best.groupby(["table_a", "table_b"])["w"].sum().reset_index()
    by_table = {}
    for table_a, grp in summed.groupby("table_a"):
        n = max(1, n_cols.get(str(table_a), 1))
        by_table[str(table_a)] = {
            str(r.table_b): float(r.w) / n for r in grp.itertuples(index=False)
        }
    return by_table


def _joinable_adjacency(edges: pd.DataFrame) -> dict[str, list[str]]:
    """table -> its directly joinable tables (content-similar column
    pairs, in either direction), sorted."""
    if edges.empty:
        return {}
    content = edges[edges["pred"] == O.CONTENT_SIMILARITY]
    links = set(zip(content["table_a"], content["table_b"]))
    adjacency: dict[str, list[str]] = {}
    for a, b in sorted(links | {(b, a) for a, b in links}):
        adjacency.setdefault(a, []).append(b)
    return adjacency


def _best_column_pairs(
    edges: pd.DataFrame,
) -> tuple[pd.DataFrame, dict[tuple[str, str], slice]]:
    """Each column of table_a and its most similar column of table_b, for
    every (table_a, table_b) at once: the best weight per (col_a, col_b),
    rows by weight with ties in (col_a, col_b) order, the first row per
    col_a kept. Returns the rows and where each (table_a, table_b) is."""
    if edges.empty:
        return pd.DataFrame(columns=PAIR_COLUMNS), {}
    best = (
        edges.groupby(["table_a", "table_b", "col_a", "col_b"])["w"]
        .max()
        .reset_index()
    )
    # group numbers rise with (table_a, table_b), as groupby sorted them
    best["group"] = best.groupby(["table_a", "table_b"], sort=False).ngroup()
    # lexsort is stable: within a group, equal weights keep (col_a, col_b) order
    order = np.lexsort((-best["w"].to_numpy(), best["group"].to_numpy()))
    best = best.iloc[order].drop_duplicates(["table_a", "table_b", "col_a"])
    group = best["group"].to_numpy()
    starts = np.flatnonzero(np.diff(group, prepend=-1))
    stops = np.append(starts[1:], len(group))
    keys = zip(best["table_a"].to_numpy()[starts], best["table_b"].to_numpy()[starts])
    rows = {key: slice(int(i), int(j)) for key, i, j in zip(keys, starts, stops)}
    pairs = best[["col_a", "col_b", "w"]].set_axis(PAIR_COLUMNS, axis=1)
    return pairs.reset_index(drop=True), rows


def build_index(
    spark: SparkSession,
    lake: Lake,
    thresholds: SimilarityThresholds = SimilarityThresholds(),
) -> UnionSearchIndex:
    """Full KGLiDS preprocessing for a lake; returns the query index."""
    t0 = time.perf_counter()
    profiles = profile_tables(spark, {lake.name: lake.tables})
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
        # each column node is decoded once into (dataset, table, column)
        names = {u: O.data_names(u) for u in pd.unique(pd.concat([sim["s"], sim["o"]]))}
        s, o = sim["s"].map(names), sim["o"].map(names)
        fwd = pd.DataFrame(
            {
                "table_a": s.str[1],
                "col_a": s.str[2],
                "table_b": o.str[1],
                "col_b": o.str[2],
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
    return UnionSearchIndex(edges=edges, n_cols=n_cols)
