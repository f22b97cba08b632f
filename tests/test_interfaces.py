"""Tests for the §5 pre-defined operations (KGLiDS Interfaces)."""
import pandas as pd
import pytest

from repro.automation import automl
from repro.automation.experiments import train_platform
from repro.core import profiler
from repro.core.schema_builder import build_dataset_graph
from repro.core import ontology as O
from repro.core.triples import TripleBuilder, TripleStore
from repro.discovery import union_search as us
from repro.interfaces import api
from repro.lakegen.lake import LakeConfig, build_lake
from repro.pipelines_corpus.generator import make_corpus


@pytest.fixture(scope="module")
def lake():
    return build_lake(
        LakeConfig(name="api", n_groups=4, members_per_group=3, rows=80,
                   n_query=2, k=2, seed=21)
    )


@pytest.fixture(scope="module")
def dataset_graph(spark, lake):
    profiles = profiler.profile_tables(spark, {lake.name: lake.tables})
    return build_dataset_graph(spark, profiles).persist()


@pytest.fixture(scope="module")
def index(dataset_graph, lake):
    return us.index_from_graph(dataset_graph, lake)


@pytest.fixture(scope="module")
def platform(spark):
    return train_platform(
        spark, n_datasets=12, pipelines_per_dataset=5, rows=100, seed=5
    )


def test_search_tables_conjunctive_and_disjunctive(dataset_graph, lake):
    table = lake.query_tables[0]
    cols = [str(c) for c in lake.tables[table].columns[:2]]
    hits = api.search_tables_based_on_specific_columns(dataset_graph, [cols])
    assert isinstance(hits, pd.DataFrame)
    assert table in set(hits["table"])  # conjunctive match on its own columns
    disjunctive = api.search_tables_based_on_specific_columns(
        dataset_graph, ["zzzz_not_there", cols[0]]
    )
    assert table in set(disjunctive["table"])
    none = api.search_tables_based_on_specific_columns(
        dataset_graph, [[cols[0], "zzzz_not_there"]]
    )
    assert len(none) == 0


def test_search_tables_matches_column_labels_only(spark):
    """A keyword found only in a table's (or dataset's) name matches nothing."""
    tb = TripleBuilder()
    ds, tab = O.data_node("cardio"), O.data_node("cardio", "heartstudy")
    tb.add(ds, O.RDF_TYPE, O.DATASET)
    tb.add(tab, O.RDF_TYPE, O.TABLE)
    tb.add(tab, O.RDFS_LABEL, "heartstudy")
    tb.add(tab, O.IS_PART_OF, ds)
    for column in ("age", "sex"):
        col = O.data_node("cardio", "heartstudy", column)
        tb.add(col, O.RDF_TYPE, O.COLUMN)
        tb.add(col, O.RDFS_LABEL, column)
        tb.add(col, O.IS_PART_OF, tab)
    store = TripleStore.from_pandas(spark, tb.to_pandas())
    assert len(api.search_tables_based_on_specific_columns(store, ["heartstudy"])) == 0
    assert len(api.search_tables_based_on_specific_columns(store, [["heart", "age"]])) == 0
    hits = api.search_tables_based_on_specific_columns(store, [["age", "sex"]])
    assert hits.to_dict("records") == [{"dataset": "cardio", "table": "heartstudy"}]


def test_search_terms_match_within_one_column_label(spark):
    """A term spanning two column labels matches neither, whatever order
    the labels come in."""
    for columns in (("age", "sex"), ("sex", "age")):
        tb = TripleBuilder()
        tab = O.data_node("cardio", "heartstudy")
        for column in columns:
            col = O.data_node("cardio", "heartstudy", column)
            tb.add(col, O.RDF_TYPE, O.COLUMN)
            tb.add(col, O.RDFS_LABEL, column)
            tb.add(col, O.IS_PART_OF, tab)
        store = TripleStore.from_pandas(spark, tb.to_pandas())
        for conditions in (["age sex"], ["sex age"], [["age sex"]], [["ex ag"]]):
            assert len(api.search_tables_based_on_specific_columns(store, conditions)) == 0
        hits = api.search_tables_based_on_specific_columns(store, [["ag", "ex"], "zzz"])
        assert hits.to_dict("records") == [{"dataset": "cardio", "table": "heartstudy"}]


def test_find_unionable_columns(lake, index):
    q = lake.query_tables[0]
    member = sorted(lake.unionable_with(q))[0]
    pairs = api.find_unionable_columns(index, q, member)
    assert {"column_a", "column_b", "similarity"} <= set(pairs.columns)
    assert len(pairs) >= 2
    assert (pairs["similarity"] <= 1.0 + 1e-9).all()


def test_find_unionable_columns_unrelated(lake, index):
    q = lake.query_tables[0]
    other_group = next(
        t for t in lake.tables if lake.group_of[t] != lake.group_of[q]
    )
    pairs = api.find_unionable_columns(index, q, other_group)
    member_pairs = api.find_unionable_columns(
        index, q, sorted(lake.unionable_with(q))[0]
    )
    assert len(pairs) <= len(member_pairs)


def test_find_unionable_columns_breaks_ties_by_name():
    """Equal similarities are ordered by column name, and each column
    keeps its first-named partner."""
    cols = [f"c{i:02d}" for i in range(40)]
    edges = pd.DataFrame(
        [("A", c, "B", partner, O.LABEL_SIMILARITY, 1.0)
         for c in cols for partner in ("z", "y")]
        + [("A", "a", "B", "x", O.CONTENT_SIMILARITY, 0.5)],
        columns=["table_a", "col_a", "table_b", "col_b", "pred", "w"],
    )
    pairs = api.find_unionable_columns(us.UnionSearchIndex(edges, {}), "A", "B")
    assert list(pairs.itertuples(index=False, name=None)) == (
        [(c, "y", 1.0) for c in cols] + [("a", "x", 0.5)]
    )


def test_get_path_to_table(lake, index):
    q = lake.query_tables[0]
    member = sorted(lake.unionable_with(q))[0]
    paths = api.get_path_to_table(index, q, member, hops=2)
    assert len(paths) >= 1


def test_get_top_k_library_used(platform):
    top = api.get_top_k_library_used(platform.store, 3)
    assert list(top.columns) == ["library", "n_pipelines"]
    assert len(top) <= 3
    # every corpus script imports pandas and sklearn
    assert "pandas" in set(top["library"]) and "sklearn" in set(top["library"])


def test_get_top_used_libraries_with_task(platform):
    top = api.get_top_used_libraries(platform.store, k=5, task="classification")
    assert len(top) >= 1
    none = api.get_top_used_libraries(platform.store, k=5, task="regression")
    assert len(none) == 0


def test_get_pipelines_calling_libraries(platform):
    rows = api.get_pipelines_calling_libraries(
        platform.store, "pandas.read_csv", "sklearn.model_selection.train_test_split"
    )
    assert len(rows) > 0
    assert {"pipeline", "author", "votes"} <= set(rows.columns)
    absent = api.get_pipelines_calling_libraries(
        platform.store, "pandas.read_csv", "sklearn.svm.NoSuchThing"
    )
    assert len(absent) == 0


def test_recommend_ml_models(platform):
    # pick a dataset we know exists in the corpus
    ds = "kgds_0000"
    models = automl.recommend_ml_models(platform.store, ds)
    assert len(models) >= 1
    assert {"classifier", "n_pipelines", "votes"} <= set(models.columns)


def test_recommend_hyperparameters(platform):
    ds = "kgds_0000"
    models = automl.recommend_ml_models(platform.store, ds)
    clf = models.iloc[0]["classifier"]
    hp = automl.recommend_hyperparameters(platform.store, ds, clf)
    assert {"hyperparameter", "value", "weight"} <= set(hp.columns)
    assert len(hp) >= 1  # documentation analysis materialized the params


def test_recommend_hyperparameters_unknown_classifier(platform):
    hp = automl.recommend_hyperparameters(platform.store, "kgds_0000", "Nope")
    assert len(hp) == 0
