"""Label mining shares one pipeline-call query (§4.2-4.4).

The reference functions are the three spellings of the query that
``mine_cleaning_labels``, ``mine_scaler_labels`` and automl's
``_classifier_calls`` had before they shared ``automation.mining``,
answered by the Spark join chain the BGP evaluator replaced.
"""
import numpy as np
import pandas as pd
import pytest

from repro.automation import automl
from repro.automation import cleaning as cl
from repro.automation import transformation as tr
from repro.automation.cleaning import _CALL_TO_OP, mine_cleaning_labels
from repro.automation.gnn import GNNConfig
from repro.automation.transformation import (
    _SCALER_CALLS,
    mine_column_transform_labels,
    mine_scaler_labels,
)
from repro.core import ontology as O
from repro.core.pipeline_abstraction import SCRIPTS_COLUMNS, abstract_corpus
from repro.core.triples import TripleStore
from repro.interfaces import api
from repro.pipelines_corpus.generator import make_corpus

from .test_triples import pandas_bgp, spark_bgp

_BGP = [
    ("?stmt", O.CALLS, "?func"),
    ("?stmt", O.IS_PART_OF, "?pipe"),
    ("?pipe", O.USES_DATASET, "?ds"),
    ("?pipe", O.HAS_VOTES, "?votes"),
]


def _uri_tails(call_to_op):
    """The call map as the library-URI tails the reference matches."""
    return {k.replace(".", "/"): v for k, v in call_to_op.items()}


def _ref_vote_weighted(store, call_to_op):
    rows = spark_bgp(store.df, _BGP).toPandas()
    prefix = O.res("library") + "/"
    rows["op"] = rows["func"].str.removeprefix(prefix).map(call_to_op)
    rows = rows.dropna(subset=["op"])
    rows["votes"] = rows["votes"].astype(float) + 1.0
    rows["dataset"] = rows["ds"].str.rsplit("/", n=1).str[-1]
    weighted = rows.groupby(["dataset", "op"])["votes"].sum().reset_index()
    best = weighted.sort_values(
        ["dataset", "votes", "op"], ascending=[True, False, True]
    ).drop_duplicates("dataset")
    return best[["dataset", "op"]].reset_index(drop=True)


def _ref_classifier_calls(store):
    rows = spark_bgp(store.df, _BGP).toPandas()
    rows["classifier"] = rows["func"].str.rsplit("/", n=1).str[-1]
    rows = rows[rows["classifier"].isin(automl._CLASSIFIER_TAILS)].copy()
    rows["dataset"] = rows["ds"].str.rsplit("/", n=1).str[-1]
    rows["votes"] = rows["votes"].astype(float)
    return rows[["dataset", "pipe", "stmt", "classifier", "votes"]]


@pytest.fixture(scope="module")
def store(spark):
    _, scripts = make_corpus(n_datasets=8, pipelines_per_dataset=4, rows=60, seed=5)
    return abstract_corpus(spark, spark.createDataFrame(scripts[SCRIPTS_COLUMNS])).persist()


def test_cleaning_labels_unchanged(store):
    got = mine_cleaning_labels(store)
    assert len(got) > 0
    pd.testing.assert_frame_equal(got, _ref_vote_weighted(store, _uri_tails(_CALL_TO_OP)))


def test_scaler_labels_unchanged(store):
    got = mine_scaler_labels(store)
    assert len(got) > 0
    pd.testing.assert_frame_equal(got, _ref_vote_weighted(store, _uri_tails(_SCALER_CALLS)))


def test_classifier_calls_unchanged(store):
    def ordered(df):
        return df.sort_values(["stmt", "pipe", "classifier"]).reset_index(drop=True)

    got = automl._classifier_calls(store)
    assert len(got) > 0
    pd.testing.assert_frame_equal(ordered(got), ordered(_ref_classifier_calls(store)))


def test_no_spark_job_after_the_snapshot(spark, store):
    """Once a query has collected the store, the §5 queries and label
    mining run on the driver alone."""
    store.match_bgp([("?s", O.RDF_TYPE, "?type")])
    sc, group = spark.sparkContext, "bgp-after-snapshot"
    sc.setJobGroup(group, "BGP queries after the snapshot")
    try:
        api.get_top_used_libraries(store, 10)
        api.get_top_used_libraries(store, 10, task="classification")
        api.get_pipelines_calling_libraries(
            store, "pandas.read_csv", "sklearn.model_selection.train_test_split"
        )
        models = automl.recommend_ml_models(store, "kgds_0000")
        automl.recommend_hyperparameters(store, "kgds_0000", models["classifier"].iloc[0])
        api.search_tables_based_on_specific_columns(store, ["age"])
        mine_cleaning_labels(store)
        mine_scaler_labels(store)
        mine_column_transform_labels(store)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert list(sc.statusTracker().getJobIdsForGroup(group)) == []


def test_section5_answers_and_training_as_with_the_pandas_evaluator(spark, monkeypatch):
    """The §5 answers, the mined label frames and the recommenders trained
    from them are the same when the pandas evaluator answers the BGPs."""
    datasets, scripts = make_corpus(n_datasets=15, pipelines_per_dataset=3, rows=120, seed=1)
    store = abstract_corpus(spark, spark.createDataFrame(scripts[SCRIPTS_COLUMNS])).persist()
    tables = {d.name: d.table for d in datasets if d.table is not None}
    quads = store.df.select("s", "p", "o", "w").toPandas()
    config = GNNConfig(epochs=60, lr=0.02)

    def run():
        models = automl.recommend_ml_models(store, datasets[0].name)
        answers = [
            api.get_top_used_libraries(store, 10),
            api.get_top_used_libraries(store, 10, task="classification"),
            api.get_pipelines_calling_libraries(
                store, "pandas.read_csv", "sklearn.model_selection.train_test_split"
            ),
            models,
            automl.recommend_hyperparameters(
                store, datasets[0].name, models["classifier"].iloc[0]
            ),
            mine_cleaning_labels(store),
            mine_scaler_labels(store),
            mine_column_transform_labels(store),
        ]
        cleaning = cl.CleaningRecommender(config).fit_from_kg(store, tables)
        transformation = tr.TransformationRecommender(config).fit_from_kg(store, tables)
        models = [cleaning.model, transformation.table_model, transformation.column_model]
        return answers, models

    answers, models = run()
    with monkeypatch.context() as mp:
        mp.setattr(TripleStore, "match_bgp", lambda self, patterns: pandas_bgp(quads, patterns))
        ref_answers, ref_models = run()
    assert all(len(a) > 0 for a in answers)
    for got, want in zip(answers, ref_answers):
        pd.testing.assert_frame_equal(got, want)
    for got, want in zip(models, ref_models):
        assert got.labels == want.labels
        for name in ("mu", "sd"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        for name in ("W_self", "b", "U", "c"):
            assert np.array_equal(getattr(got.gnn, name), getattr(want.gnn, name))
