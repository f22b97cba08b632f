"""End-to-end LiDS graph assembly test (§3.3)."""
import pandas as pd
import pytest

from repro.core import ontology as O
from repro.core.lids_graph import build_lids_graph
from repro.core.pipeline_abstraction import SCRIPTS_COLUMNS

SCRIPT = """
import pandas as pd
df = pd.read_csv('titanic/train.csv')
s = df['Age']
x = df['Ghost']
"""


@pytest.fixture(scope="module")
def lids(spark):
    tables = {
        "titanic": {
            "train": pd.DataFrame({"Age": [20, 30], "Survived": [1, 0]})
        }
    }
    scripts = spark.createDataFrame(
        pd.DataFrame(
            [{"pipeline_id": "p0", "script": SCRIPT, "dataset": "titanic",
              "author": "a", "votes": 5, "score": 0.9, "task": "clf"}]
        )[SCRIPTS_COLUMNS]
    )
    return build_lids_graph(spark, tables, scripts).persist()


def test_contains_all_three_subgraphs(lids):
    graphs = {r["g"] for r in lids.df.select("g").distinct().collect()}
    assert any("datasetGraph" in g for g in graphs)
    assert any("pipelineGraph" in g for g in graphs)
    assert any("libraryGraph" in g for g in graphs)


def test_linker_applied_before_union(lids):
    reads = set(lids.match_bgp([("?stmt", O.READS_COLUMN, "?col")])["col"])
    assert O.data_node("titanic", "train", "Age") in reads
    assert O.data_node("titanic", "train", "Ghost") not in reads


def test_dataset_only_graph(spark):
    store = build_lids_graph(
        spark, {"d": {"t": pd.DataFrame({"x": [1, 2, 3]})}}
    )
    assert store.n_triples() > 0


def test_empty_inputs(spark):
    assert build_lids_graph(spark, {}).n_triples() == 0
