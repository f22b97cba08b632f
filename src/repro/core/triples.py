"""An RDF-star triple store with named graphs, built on Spark and
queried from a driver snapshot (sub. S4).

The paper stores the LiDS graph in GraphDB and queries it with SPARQL.
Offline we keep the same data model — (graph, subject, predicate,
object, weight) quads where ``weight`` is the RDF-star edge annotation
(similarity / prediction scores) — in a Spark DataFrame, the store of
record for building the graph and for its statistics. Basic-graph-
pattern (BGP) queries, the SPARQL substitute, are answered in pandas
from the quads collected to the driver by the first query: a graph of
tens of thousands of triples is small, its answers smaller. The Table 4
"modelled aspect" of a triple is that of its predicate
(``ontology.aspect_of``), looked up when the breakdown is counted.

Schema: g, s, p, o: string · w: double (NaN = unannotated)
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from .ontology import aspect_of

TRIPLE_SCHEMA = T.StructType(
    [
        T.StructField("g", T.StringType(), False),
        T.StructField("s", T.StringType(), False),
        T.StructField("p", T.StringType(), False),
        T.StructField("o", T.StringType(), False),
        T.StructField("w", T.DoubleType(), True),
    ]
)

DEFAULT_GRAPH = "http://kglids.org/graph/default"


@dataclass
class TripleBuilder:
    """Accumulates triples cheaply in Python before one createDataFrame."""

    graph: str = DEFAULT_GRAPH
    rows: list[tuple] = field(default_factory=list)

    def add(self, s: str, p: str, o: str, w: float | None = None) -> None:
        self.rows.append(
            (self.graph, str(s), str(p), str(o),
             float(w) if w is not None else math.nan)
        )

    def to_pandas(self) -> pd.DataFrame:
        return pd.DataFrame(self.rows, columns=["g", "s", "p", "o", "w"])


class TripleStore:
    """LiDS-graph storage in a Spark DataFrame of quads, BGP queries on
    its driver snapshot."""

    def __init__(self, spark: SparkSession, df: DataFrame):
        self.spark = spark
        self.df = df
        # (s, p, o, w) on the driver, collected by the first query. A store
        # is never mutated (``union`` makes a new one, ``persist`` keeps
        # the content), so the snapshot never goes stale.
        self._quads: pd.DataFrame | None = None

    # ---------- construction ----------
    @classmethod
    def empty(cls, spark: SparkSession) -> "TripleStore":
        return cls(spark, spark.createDataFrame([], TRIPLE_SCHEMA))

    @classmethod
    def from_pandas(cls, spark: SparkSession, pdf: pd.DataFrame) -> "TripleStore":
        if pdf.empty:
            return cls.empty(spark)
        pdf = pdf.astype({"g": str, "s": str, "p": str, "o": str, "w": "float64"})
        return cls(spark, spark.createDataFrame(pdf, TRIPLE_SCHEMA))

    def union(self, other: "TripleStore") -> "TripleStore":
        return TripleStore(self.spark, self.df.unionByName(other.df))

    def persist(self) -> "TripleStore":
        self.df = self.df.persist()
        self.df.count()  # materialize
        return self

    # ---------- statistics ----------
    def n_triples(self) -> int:
        return self.df.count()

    def n_unique_nodes(self) -> int:
        nodes = self.df.select(F.col("s").alias("n")).unionByName(
            self.df.select(F.col("o").alias("n"))
        )
        return nodes.distinct().count()

    def n_unique_predicates(self) -> int:
        return self.df.select("p").distinct().count()

    def ntriples_size_bytes(self) -> int:
        """Approximate serialized N-Quads size (Table 3 'Size')."""
        row = self.df.select(
            F.sum(
                F.length("s") + F.length("p") + F.length("o") + F.lit(10)
            ).alias("b")
        ).collect()[0]
        return int(row["b"] or 0)

    def aspect_breakdown(self) -> pd.DataFrame:
        """Triple counts per modelled aspect (Table 4), most first, ties
        by aspect name: counted per predicate on Spark, then summed per
        ``aspect_of`` the predicate on the driver."""
        per_p = self.df.groupBy("p").agg(F.count("*").alias("n_triples")).toPandas()
        pdf = (
            per_p.groupby(per_p["p"].map(aspect_of).rename("aspect"))["n_triples"]
            .sum()
            .reset_index()
            .sort_values(["n_triples", "aspect"], ascending=[False, True])
            .reset_index(drop=True)
        )
        pdf["pct"] = 100.0 * pdf["n_triples"] / pdf["n_triples"].sum()
        return pdf

    # ---------- queries ----------
    def match_bgp(self, patterns: list[tuple[str, str, str]]) -> pd.DataFrame:
        """Conjunctive basic-graph-pattern query — the SPARQL substitute.

        Each pattern is (s, p, o); a term starting with '?' is a
        variable, used at most once per pattern. Evaluated on the driver
        snapshot of the quads: constants are boolean masks, and patterns
        are merged in the given order on their shared variables (a cross
        product when none is shared). Returns a pandas frame of one
        column per variable, then the weight ``_w<i>`` of pattern i,
        distinct over the variables: an answer reached through several
        quads (one triple in two named graphs) keeps the weights of the
        first.
        """
        if not patterns:
            raise ValueError("empty BGP")
        if self._quads is None:
            self._quads = self.df.select("s", "p", "o", "w").toPandas()
        quads = self._quads
        result: pd.DataFrame | None = None
        for i, pattern in enumerate(patterns):
            mask = np.ones(len(quads), dtype=bool)
            column_of: dict[str, str] = {}
            for col, term in zip("spo", pattern):
                if term.startswith("?"):
                    column_of[term[1:]] = col
                else:
                    mask &= quads[col].to_numpy() == term
            part = quads.loc[mask, [*column_of.values(), "w"]]
            part.columns = [*column_of, f"_w{i}"]
            if result is None:
                result = part
            else:
                shared = [c for c in column_of if c in result.columns]
                result = (result.merge(part, on=shared) if shared
                          else result.merge(part, how="cross"))
        assert result is not None
        var_cols = [c for c in result.columns if not c.startswith("_w")]
        weights = [c for c in result.columns if c.startswith("_w")]
        return result[var_cols + weights].drop_duplicates(var_cols).reset_index(drop=True)
