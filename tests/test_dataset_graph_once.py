"""Alg. 3 evaluates Alg. 2 once, and builds the same graph as before.

The reference below is the composition ``build_dataset_graph`` had when
it evaluated ``profiles`` once per subgraph: a ``mapInPandas`` metadata
pass deduplicated by a shuffle, and a similarity pass driven by the
profiles DataFrame itself. The equality tests use only the public API,
so they hold for either composition.
"""
from collections import Counter
from collections.abc import Iterator

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import DataFrame

from repro.core import graph_linker
from repro.core import ontology as O
from repro.core.lids_graph import build_lids_graph
from repro.core.pipeline_abstraction import SCRIPTS_COLUMNS, abstract_corpus
from repro.core.profiler import profile_tables
from repro.core.schema_builder import (
    SimilarityThresholds,
    build_dataset_graph,
    build_metadata_subgraph,
)
from repro.core.triples import TRIPLE_SCHEMA, TripleBuilder, TripleStore
from repro.core.types import FineGrainedType
from repro.discovery import union_search as us
from repro.lakegen.lake import LakeConfig, build_lake

from .test_lids_graph import SCRIPT


# --------------------------------------------------------------------------
# reference: one evaluation of ``profiles`` per subgraph
# --------------------------------------------------------------------------
def _ref_metadata_partition(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
    for batch in batches:
        tb = TripleBuilder(graph=O.res("datasetGraph"))
        for r in batch.itertuples(index=False):
            col = O.res(r.dataset, r.table, r.column)
            tab = O.res(r.dataset, r.table)
            ds = O.res(r.dataset)
            tb.add(col, O.RDF_TYPE, O.COLUMN)
            tb.add(col, O.RDFS_LABEL, r.column)
            tb.add(col, O.IS_PART_OF, tab)
            tb.add(tab, O.RDF_TYPE, O.TABLE)
            tb.add(tab, O.RDFS_LABEL, r.table)
            tb.add(tab, O.IS_PART_OF, ds)
            tb.add(ds, O.RDF_TYPE, O.DATASET)
            tb.add(col, O.HAS_TYPE, r.fgt)
            tb.add(col, O.HAS_TOTAL_VALUES, str(r.n_rows))
            tb.add(col, O.HAS_NULL_COUNT, str(r.n_nulls))
            tb.add(col, O.HAS_DISTINCT_VALUES, str(r.n_distinct))
            if r.fgt == FineGrainedType.BOOLEAN.value and r.true_ratio is not None:
                tb.add(col, O.HAS_TRUE_RATIO, f"{r.true_ratio:.4f}")
        yield tb.to_pandas()


def _ref_similarity_factory(bc, thresholds):
    def worker(batches):
        side = bc.value
        for batch in batches:
            tb = TripleBuilder(graph=O.res("datasetGraph"))
            for r in batch.itertuples(index=False):
                data = side.get(r.fgt)
                if data is None:
                    continue
                me = data["index_of"][(r.dataset, r.table, r.column)]
                later = slice(me + 1, None)
                other_tables = data["tables"][later]
                if len(other_tables) == 0:
                    continue
                diff_table = other_tables != r.table
                my_uri = O.res(r.dataset, r.table, r.column)
                lab = data["label"][later] @ data["label"][me]
                if r.fgt == FineGrainedType.BOOLEAN.value:
                    content = 1.0 - np.abs(data["true_ratio"][later] - data["true_ratio"][me])
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
                        tb.add(my_uri, O.CONTENT_SIMILARITY, other_uri, w=float(content[j]))
            yield tb.to_pandas()

    return worker


def _ref_normalize(mat):
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return mat / norms


def reference_dataset_graph(spark, profiles: DataFrame, thresholds=SimilarityThresholds()):
    meta = profiles.mapInPandas(_ref_metadata_partition, TRIPLE_SCHEMA).dropDuplicates(
        ["g", "s", "p", "o"]
    )
    pdf = profiles.select(
        "dataset", "table", "column", "fgt", "true_ratio", "embedding", "label_embedding"
    ).toPandas()
    side = {}
    for fgt, grp in pdf.groupby("fgt"):
        grp = grp.reset_index(drop=True)
        side[fgt] = {
            "ids": np.array([O.res(r.dataset, r.table, r.column)
                             for r in grp.itertuples(index=False)]),
            "tables": grp["table"].to_numpy(),
            "content": _ref_normalize(np.stack(grp["embedding"].to_numpy())),
            "label": _ref_normalize(np.stack(grp["label_embedding"].to_numpy())),
            "true_ratio": grp["true_ratio"].fillna(0.5).to_numpy(dtype="float64"),
            "index_of": {(r.dataset, r.table, r.column): i
                         for i, r in enumerate(grp.itertuples(index=False))},
        }
    bc = spark.sparkContext.broadcast(side)
    sim = profiles.select("dataset", "table", "column", "fgt").mapInPandas(
        _ref_similarity_factory(bc, thresholds), TRIPLE_SCHEMA
    )
    return TripleStore(spark, meta.unionByName(sim))


def _multiset(df: DataFrame) -> Counter:
    """(g, s, p, o, w, aspect) rows, NaN weights as None."""
    return Counter(
        (r.g, r.s, r.p, r.o, None if r.w is None or np.isnan(r.w) else r.w, r.aspect)
        for r in df.collect()
    )


# --------------------------------------------------------------------------
# fixtures
# --------------------------------------------------------------------------
LAKE = LakeConfig(name="lk", n_groups=3, members_per_group=3, rows=60,
                  n_query=2, k=2, nl_extra=1, seed=11)


@pytest.fixture(scope="module")
def lake():
    return build_lake(LAKE)


@pytest.fixture(scope="module")
def profiles(spark, lake):
    p = profile_tables(spark, lake.tables, lake.name).persist()
    yield p
    p.unpersist()


# --------------------------------------------------------------------------
# same output
# --------------------------------------------------------------------------
def test_lake_has_several_tables_and_booleans(profiles):
    fgts = {r["fgt"] for r in profiles.select("fgt").collect()}
    tables = {r["table"] for r in profiles.select("table").collect()}
    assert FineGrainedType.BOOLEAN.value in fgts
    assert len(tables) >= 6


@pytest.mark.parametrize(
    "thresholds", [SimilarityThresholds(), SimilarityThresholds(0.5, 0.8, 0.6)]
)
def test_dataset_graph_equals_reference(spark, profiles, thresholds):
    got = _multiset(build_dataset_graph(spark, profiles, thresholds).df)
    want = _multiset(reference_dataset_graph(spark, profiles, thresholds).df)
    assert got == want
    preds = {p for (_, _, p, _, _, _) in got}
    assert {O.LABEL_SIMILARITY, O.CONTENT_SIMILARITY, O.HAS_TRUE_RATIO} <= preds


def test_build_index_equals_reference(spark, lake):
    got = us.build_index(spark, lake)
    profiles = profile_tables(spark, lake.tables, lake.name)
    want = us.index_from_graph(reference_dataset_graph(spark, profiles), lake)
    cols = ["table_a", "col_a", "table_b", "col_b", "pred", "w"]

    def ordered(edges):
        return edges[cols].sort_values(cols).reset_index(drop=True)

    assert len(got.edges) > 0
    pd.testing.assert_frame_equal(ordered(got.edges), ordered(want.edges))
    assert got.by_table == want.by_table


def test_lids_graph_fixture_unchanged(spark):
    tables = {"titanic": {"train": pd.DataFrame({"Age": [20, 30], "Survived": [1, 0]})}}
    scripts = spark.createDataFrame(
        pd.DataFrame(
            [{"pipeline_id": "p0", "script": SCRIPT, "dataset": "titanic",
              "author": "a", "votes": 5, "score": 0.9, "task": "clf"}]
        )[SCRIPTS_COLUMNS]
    )
    got = build_lids_graph(spark, tables, scripts)
    dataset_store = reference_dataset_graph(
        spark, profile_tables(spark, tables["titanic"], "titanic")
    )
    linked = graph_linker.link(abstract_corpus(spark, scripts), dataset_store)
    assert _multiset(got.df) == _multiset(dataset_store.union(linked).df)


# --------------------------------------------------------------------------
# profiles evaluated once
# --------------------------------------------------------------------------
def _optimized_plan(df: DataFrame) -> str:
    return df._jdf.queryExecution().optimizedPlan().toString()


def test_dataset_graph_plan_does_not_profile(spark, lake):
    profiles = profile_tables(spark, lake.tables, lake.name)
    assert "_profile_partition" in _optimized_plan(profiles)
    graph = build_dataset_graph(spark, profiles)
    assert "_profile_partition" not in _optimized_plan(graph.df)


def test_metadata_subgraph_plan_has_no_aggregate(profiles):
    plan = _optimized_plan(build_metadata_subgraph(profiles))
    assert "Aggregate" not in plan and "Deduplicate" not in plan


def test_build_index_persists_nothing(spark, lake, monkeypatch):
    persisted = []
    cls = type(spark.range(1))  # the session's concrete DataFrame class
    original = cls.persist

    def spy(self, *args, **kwargs):
        persisted.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, "persist", spy)
    rdds = spark.sparkContext._jsc.sc().getPersistentRDDs()
    before = rdds.size()
    us.build_index(spark, lake)
    assert persisted == []
    assert spark.sparkContext._jsc.sc().getPersistentRDDs().size() == before
