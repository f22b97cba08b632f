"""Label mining shares one pipeline-call query (§4.2-4.4).

The reference functions are the three spellings of the query that
``mine_cleaning_labels``, ``mine_scaler_labels`` and automl's
``_classifier_calls`` had before they shared ``automation.mining``.
"""
import pandas as pd
import pytest

from repro.automation import automl
from repro.automation.cleaning import _CALL_TO_OP, mine_cleaning_labels
from repro.automation.transformation import _SCALER_CALLS, mine_scaler_labels
from repro.core import ontology as O
from repro.core.pipeline_abstraction import SCRIPTS_COLUMNS, abstract_corpus
from repro.pipelines_corpus.generator import make_corpus

_BGP = [
    ("?stmt", O.CALLS, "?func"),
    ("?stmt", O.IS_PART_OF, "?pipe"),
    ("?pipe", O.USES_DATASET, "?ds"),
    ("?pipe", O.HAS_VOTES, "?votes"),
]


def _ref_vote_weighted(store, call_to_op):
    rows = store.match_bgp(_BGP).toPandas()
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
    rows = store.match_bgp(_BGP).toPandas()
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
    pd.testing.assert_frame_equal(got, _ref_vote_weighted(store, _CALL_TO_OP))


def test_scaler_labels_unchanged(store):
    got = mine_scaler_labels(store)
    assert len(got) > 0
    pd.testing.assert_frame_equal(got, _ref_vote_weighted(store, _SCALER_CALLS))


def test_classifier_calls_unchanged(store):
    def ordered(df):
        return df.sort_values(["stmt", "pipe", "classifier"]).reset_index(drop=True)

    got = automl._classifier_calls(store)
    assert len(got) > 0
    pd.testing.assert_frame_equal(ordered(got), ordered(_ref_classifier_calls(store)))
