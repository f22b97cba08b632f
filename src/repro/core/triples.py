"""An RDF-star triple store with named graphs, built on Spark and
queried from a driver snapshot (sub. S4).

The paper stores the LiDS graph in GraphDB and queries it with SPARQL.
Offline we keep the same data model — (graph, subject, predicate,
object, weight) quads where ``weight`` is the RDF-star edge annotation
(similarity / prediction scores) — in a Spark DataFrame, the store of
record for building the graph and for its statistics. Basic-graph-
pattern (BGP) queries, the SPARQL substitute, are answered on the driver
from a snapshot of the quads collected by the first query: a graph of
tens of thousands of triples is small, its answers smaller. The snapshot
is dictionary-encoded: s, p and o share one vocabulary, each quad is
three int codes and its weight, and the rows of each predicate are
indexed, so a pattern reads only its predicate's rows and a BGP is a
chain of integer sort joins whose answer is decoded to strings once. The
Table 4 "modelled aspect" of a triple is that of its predicate
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


_NO_ROWS = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class _Snapshot:
    """The quads' (s, p, o, w) on the driver, dictionary-encoded.

    ``terms`` is the one vocabulary of s, p and o (code -> term) and
    ``code_of`` its inverse; ``codes`` holds each position's int64 codes
    and ``w`` the weights, row by row in the order the quads were
    collected (snapshot order); ``rows_of`` maps a predicate's code to
    its rows, ascending."""

    terms: np.ndarray
    code_of: dict[str, int]
    codes: dict[str, np.ndarray]
    w: np.ndarray
    rows_of: dict[int, np.ndarray]

    @classmethod
    def encode(cls, quads: pd.DataFrame) -> "_Snapshot":
        n = len(quads)
        codes, terms = pd.factorize(
            np.concatenate([quads[c].to_numpy(dtype=object) for c in "spo"])
        )
        spo = dict(zip("spo", np.split(codes, [n, 2 * n])))
        by_p = np.argsort(spo["p"], kind="stable")
        predicates, starts = np.unique(spo["p"][by_p], return_index=True)
        return cls(
            terms=terms,
            code_of={term: code for code, term in enumerate(terms)},
            codes=spo,
            w=quads["w"].to_numpy(dtype=np.float64),
            rows_of=dict(zip(predicates.tolist(), np.split(by_p, starts[1:]))),
        )

    def rows(self, pattern: tuple[str, str, str]) -> np.ndarray:
        """The rows that match the constants of ``pattern``, ascending; a
        constant the snapshot does not hold matches none."""
        s, p, o = pattern
        rows = (np.arange(len(self.w)) if p.startswith("?")
                else self.rows_of.get(self.code_of.get(p, -1), _NO_ROWS))
        for col, term in (("s", s), ("o", o)):
            if not term.startswith("?"):
                rows = rows[self.codes[col][rows] == self.code_of.get(term, -1)]
        return rows


def _join(
    left: list[np.ndarray], right: list[np.ndarray], n_left: int, n_right: int,
    base: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The (left, right) positions of the row pairs whose keys agree, in
    nested-loop order: left rows ascending, each one's right matches
    ascending. ``left[k]`` and ``right[k]`` hold the codes (below
    ``base``) of shared variable k; with none, every pair matches."""
    if not left:
        return (np.repeat(np.arange(n_left), n_right),
                np.tile(np.arange(n_right), n_left))
    lkey, rkey = left[0], right[0]
    if len(left) > 1:
        lkey, rkey = lkey * base + left[1], rkey * base + right[1]
    order = np.argsort(rkey, kind="stable")
    sorted_keys = rkey[order]
    lo = np.searchsorted(sorted_keys, lkey, "left")
    counts = np.searchsorted(sorted_keys, lkey, "right") - lo
    li = np.repeat(np.arange(n_left), counts)
    # output slot k of left row i is its (k - first slot of i)-th match
    ri = order[np.arange(len(li)) + np.repeat(lo - (np.cumsum(counts) - counts), counts)]
    for lcodes, rcodes in zip(left[2:], right[2:]):  # a third shared variable
        agree = lcodes[li] == rcodes[ri]
        li, ri = li[agree], ri[agree]
    return li, ri


def _first_rows(columns: list[np.ndarray]) -> np.ndarray:
    """The positions, ascending, of the first row of each distinct tuple
    of the equally long ``columns`` (one or more)."""
    order = np.lexsort(columns)  # stable: equal tuples keep their order
    repeat = np.ones(len(order), dtype=bool)  # the row before in ``order`` is equal
    repeat[:1] = False
    for codes in columns:
        ordered = codes[order]
        repeat[1:] &= ordered[1:] == ordered[:-1]
    return np.sort(order[~repeat])


class TripleStore:
    """LiDS-graph storage in a Spark DataFrame of quads, BGP queries on
    its driver snapshot."""

    def __init__(self, spark: SparkSession, df: DataFrame):
        self.spark = spark
        self.df = df
        # (s, p, o, w) on the driver, collected by the first query. A store
        # is never mutated (``union`` makes a new one, ``persist`` keeps
        # the content), so the snapshot never goes stale.
        self._snapshot: _Snapshot | None = None

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
        variable, used at most once per pattern and at least once in the
        BGP. Evaluated on the dictionary-encoded driver snapshot of the
        quads: a constant predicate selects its indexed rows, other
        constants are compared as codes, and each pattern is joined to
        the rows so far on the variables they share (a cross product
        when none is shared).
        Returns a pandas frame of one object column per variable, in
        order of first appearance, then the float64 weight ``_w<i>`` of
        pattern i, on a RangeIndex. Rows come in nested-loop order: the
        first pattern's matches in snapshot order, each extended by the
        next pattern's matches in snapshot order. The answer is distinct
        over the variables, each keeping its first row: an answer reached
        through several quads (one triple in two named graphs) keeps the
        weights of the first.
        """
        if not any(t.startswith("?") for pattern in patterns for t in pattern):
            raise ValueError("a BGP needs a pattern with a variable")
        if self._snapshot is None:
            self._snapshot = _Snapshot.encode(
                self.df.select("s", "p", "o", "w").toPandas()
            )
        snap = self._snapshot
        first: dict[str, tuple[int, str]] = {}  # variable -> (pattern, position)
        bound: list[np.ndarray] = []  # per pattern: the row behind each answer
        for i, pattern in enumerate(patterns):
            own = {t[1:]: col for col, t in zip("spo", pattern) if t.startswith("?")}
            if len(own) != sum(t.startswith("?") for t in pattern):
                raise ValueError(f"a variable is used twice in {pattern}")
            rows = snap.rows(pattern)
            if bound:
                shared = [v for v in own if v in first]
                li, ri = _join(
                    [snap.codes[first[v][1]][bound[first[v][0]]] for v in shared],
                    [snap.codes[own[v]][rows] for v in shared],
                    len(bound[0]), len(rows), len(snap.terms),
                )
                bound = [b[li] for b in bound] + [rows[ri]]
            else:
                bound = [rows]
            for v, col in own.items():
                first.setdefault(v, (i, col))
        codes = {v: snap.codes[col][bound[i]] for v, (i, col) in first.items()}
        keep = _first_rows(list(codes.values()))
        answer = {v: snap.terms[c[keep]] for v, c in codes.items()}
        answer.update({f"_w{i}": snap.w[b[keep]] for i, b in enumerate(bound)})
        return pd.DataFrame(answer)
