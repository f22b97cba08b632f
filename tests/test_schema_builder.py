"""Tests for the Data Global Schema builder (Algorithm 3)."""
import numpy as np
import pandas as pd
import pytest

from repro.core import ontology as O
from repro.core import profiler
from repro.core.schema_builder import (
    SimilarityThresholds,
    build_dataset_graph,
    build_metadata_subgraph,
    build_similarity_edges,
)


@pytest.fixture(scope="module")
def lake_tables():
    g = np.random.default_rng(7)
    ages = g.integers(20, 60, 400)
    return {
        # t1 and t2 are unionable: same concepts, synonym names, shared
        # value distributions. t3 is unrelated.
        "t1": pd.DataFrame(
            {
                "age": ages[:200],
                "salary": g.lognormal(10, 0.3, 200).round(2),
                "country": g.choice(["Canada", "France", "Egypt"], 200),
                "hired": g.choice(["true", "false"], 200, p=[0.7, 0.3]),
            }
        ),
        "t2": pd.DataFrame(
            {
                "years": ages[200:],
                "income": g.lognormal(10, 0.3, 200).round(2),
                "nation": g.choice(["Canada", "France", "Egypt"], 200),
                "active": g.choice(["true", "false"], 200, p=[0.72, 0.28]),
            }
        ),
        "t3": pd.DataFrame(
            {
                "postal_code": ["H3G 1M8", "K2P 0A4"] * 100,
                "temperature": g.normal(-5, 3, 200).round(1),
                "frozen": g.choice(["true", "false"], 200, p=[0.1, 0.9]),
            }
        ),
    }


@pytest.fixture(scope="module")
def profiles(spark, lake_tables):
    return profiler.profile_tables(spark, {"lk": lake_tables}).cache()


@pytest.fixture(scope="module")
def sim_edges(spark, profiles):
    return build_similarity_edges(spark, profiles).cache()


def _pairs(edges, predicate):
    rows = edges.filter(edges.p == predicate).collect()
    return {(r["s"].split("/")[-2], r["s"].split("/")[-1],
             r["o"].split("/")[-2], r["o"].split("/")[-1]): r["w"] for r in rows}


def test_label_similarity_edges_link_synonyms(sim_edges):
    pairs = _pairs(sim_edges, O.LABEL_SIMILARITY)
    names = {(a_c, b_c) for (_, a_c, _, b_c) in pairs}
    assert ("age", "years") in names or ("years", "age") in names
    assert ("salary", "income") in names or ("income", "salary") in names


def test_content_similarity_links_same_distribution(sim_edges):
    pairs = _pairs(sim_edges, O.CONTENT_SIMILARITY)
    names = {(a_c, b_c) for (_, a_c, _, b_c) in pairs}
    assert ("salary", "income") in names or ("income", "salary") in names
    assert ("country", "nation") in names or ("nation", "country") in names


def test_no_edges_within_same_table(sim_edges):
    for (t_a, _, t_b, _) in _pairs(sim_edges, O.LABEL_SIMILARITY):
        assert t_a != t_b
    for (t_a, _, t_b, _) in _pairs(sim_edges, O.CONTENT_SIMILARITY):
        assert t_a != t_b


def test_no_cross_type_edges(sim_edges, profiles):
    fgt_of = {
        (r["table"], r["column"]): r["fgt"] for r in profiles.collect()
    }
    for pred in (O.LABEL_SIMILARITY, O.CONTENT_SIMILARITY):
        for (ta, ca, tb, cb) in _pairs(sim_edges, pred):
            assert fgt_of[(ta, ca)] == fgt_of[(tb, cb)]


def test_unrelated_columns_not_linked(sim_edges):
    pairs = _pairs(sim_edges, O.CONTENT_SIMILARITY)
    for (_, a_c, _, b_c) in pairs:
        assert {a_c, b_c} != {"age", "temperature"}
        assert {a_c, b_c} != {"salary", "postal_code"}


def test_boolean_true_ratio_rule(sim_edges):
    """hired (0.70) vs active (0.72) pass β=0.9; frozen (0.1) does not."""
    pairs = _pairs(sim_edges, O.CONTENT_SIMILARITY)
    bool_pairs = {(a_c, b_c) for (_, a_c, _, b_c) in pairs}
    assert ("hired", "active") in bool_pairs or ("active", "hired") in bool_pairs
    assert not any("frozen" in p for p in bool_pairs)


def test_rdf_star_scores_within_bounds(sim_edges):
    for r in sim_edges.collect():
        assert r["w"] is not None and r["w"] <= 1.0 + 1e-9


def test_high_thresholds_prune_edges(spark, profiles, sim_edges):
    strict = build_similarity_edges(
        spark, profiles, SimilarityThresholds(alpha=0.999, beta=0.999, theta=0.9999)
    )
    assert strict.count() < sim_edges.count()


def test_metadata_subgraph_contents(spark, profiles, lake_tables):
    meta = build_metadata_subgraph(profiles)
    n_cols = sum(len(t.columns) for t in lake_tables.values())
    assert meta.filter(
        (meta.p == O.RDF_TYPE) & (meta.o == O.COLUMN)
    ).count() == n_cols
    assert meta.filter(
        (meta.p == O.RDF_TYPE) & (meta.o == O.TABLE)
    ).count() == len(lake_tables)
    # every column links to its table
    assert meta.filter(meta.p == O.IS_PART_OF).count() == n_cols + len(lake_tables)


def test_dataset_graph_union(spark, profiles):
    g = build_dataset_graph(spark, profiles)
    assert g.n_triples() > 0
    preds = {r["p"] for r in g.df.select("p").distinct().collect()}
    assert O.IS_PART_OF in preds
    assert O.LABEL_SIMILARITY in preds or O.CONTENT_SIMILARITY in preds
