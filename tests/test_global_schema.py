"""One Data Global Schema over every dataset (§3.3).

``build_lids_graph`` profiles every column of every dataset in one pass
(Alg. 2) and compares every pair of same-type columns of the lake that
lie in different tables (Alg. 3). A table is named by its dataset and
its name, so two datasets that each hold a ``train`` table are compared.
The reference is a plain all-pairs loop over the collected profiles.
"""
import itertools
from collections import Counter

import numpy as np
import pandas as pd
import pytest

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
from repro.core.types import FineGrainedType
from repro.pipelines_corpus.generator import make_corpus

SIMILARITY = [O.LABEL_SIMILARITY, O.CONTENT_SIMILARITY]


@pytest.fixture(scope="module")
def tables():
    g = np.random.default_rng(5)
    n = 60

    def ages():
        return g.integers(18, 80, n)

    def flags(p):
        return g.random(n) < p

    return {
        "titanic": {"train": pd.DataFrame({
            "Age": ages(), "Fare": g.gamma(2.0, 15.0, n).round(2),
            "Survived": flags(0.4), "Sex": g.choice(["male", "female"], n),
        })},
        "heart": {"train": pd.DataFrame({
            "age": ages(), "chol": g.normal(240, 40, n).round(0),
            "disease": g.choice(["yes", "no"], n, p=[0.45, 0.55]),
            "sex": g.choice(["male", "female"], n),
        })},
        "census": {
            "people": pd.DataFrame({
                "age": ages(), "income": g.normal(5e4, 1e4, n).round(0),
                "married": flags(0.5),
            }),
            "households": pd.DataFrame({
                "owner_age": ages(), "size": g.integers(1, 7, n),
                "rented": flags(0.42),
            }),
        },
    }


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype="float64")
    norm = np.linalg.norm(v)
    return v / norm if norm else v


def _reference_edges(profiles: pd.DataFrame, t: SimilarityThresholds) -> dict:
    """Every pair of same-type columns in different (dataset, table)s:
    label cosine ≥ α, content cosine ≥ θ, or ``1 - |Δtrue_ratio|`` ≥ β
    for booleans. Keyed by (predicate, unordered column pair)."""
    want = {}
    rows = profiles.to_dict("records")
    for a, b in itertools.combinations(rows, 2):
        if a["fgt"] != b["fgt"] or (a["dataset"], a["table"]) == (b["dataset"], b["table"]):
            continue
        pair = frozenset(O.data_node(r["dataset"], r["table"], r["column"]) for r in (a, b))
        label = float(_unit(a["label_embedding"]) @ _unit(b["label_embedding"]))
        if a["fgt"] == FineGrainedType.BOOLEAN.value:
            content = 1.0 - abs(a["true_ratio"] - b["true_ratio"])
            content_thr = t.beta
        else:
            content = float(_unit(a["embedding"]) @ _unit(b["embedding"]))
            content_thr = t.theta
        if label >= t.alpha:
            want[(O.LABEL_SIMILARITY, pair)] = label
        if content >= content_thr:
            want[(O.CONTENT_SIMILARITY, pair)] = content
    return want


@pytest.mark.parametrize(
    "thresholds", [SimilarityThresholds(), SimilarityThresholds(0.5, 0.8, 0.6)]
)
def test_similarity_edges_equal_all_pairs_reference(spark, tables, thresholds):
    store = build_lids_graph(spark, tables, thresholds=thresholds)
    sim = store.df.filter(store.df.p.isin(SIMILARITY)).collect()
    got = {(r.p, frozenset((r.s, r.o))): r.w for r in sim}
    assert len(got) == len(sim)
    profiles = profile_tables(spark, tables).toPandas()
    want = _reference_edges(profiles, thresholds)
    assert got.keys() == want.keys()
    for key, w in want.items():
        assert got[key] == pytest.approx(w, rel=0, abs=1e-12), key

    def table_of(uri):
        return O.data_names(uri)[:2]

    pairs = [tuple(sorted(map(table_of, pair))) for _, pair in want]
    assert (("heart", "train"), ("titanic", "train")) in pairs
    assert (("census", "households"), ("census", "people")) in pairs
    assert any(a[0] != b[0] for a, b in pairs)
    booleans = {
        O.data_node(r.dataset, r.table, r.column)
        for r in profiles.itertuples() if r.fgt == FineGrainedType.BOOLEAN.value
    }
    assert any(p == O.CONTENT_SIMILARITY and pair <= booleans for p, pair in want)


def test_metadata_triples_equal_per_dataset_union(spark, tables):
    store = build_lids_graph(spark, tables)
    got = Counter(tuple(r) for r in store.df.filter(~store.df.p.isin(SIMILARITY))
                  .select("g", "s", "p", "o").collect())
    want = Counter()
    for ds, ts in tables.items():
        meta = build_metadata_subgraph(profile_tables(spark, {ds: ts}))
        want.update(tuple(r) for r in meta.select("g", "s", "p", "o").collect())
    assert got == want


def test_fifteen_datasets_profile_in_one_frame(spark):
    datasets, scripts = make_corpus(n_datasets=15, pipelines_per_dataset=1, rows=40, seed=1)
    tables = {d.name: {d.name: d.table} for d in datasets}
    profiles = profile_tables(spark, tables)
    assert profiles.rdd.getNumPartitions() == 8
    scripts_df = spark.createDataFrame(scripts[SCRIPTS_COLUMNS].head(3))
    dataset_store = build_dataset_graph(spark, profiles)
    linked = graph_linker.link(abstract_corpus(spark, scripts_df), dataset_store)
    lids = build_lids_graph(spark, tables, scripts_df)
    assert lids.df.rdd.getNumPartitions() <= (
        dataset_store.df.rdd.getNumPartitions() + linked.df.rdd.getNumPartitions()
    )
