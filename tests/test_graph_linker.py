"""Tests for the Global Graph Linker (paper §3.1/§3.3)."""
import pandas as pd
import pytest

from repro.core import ontology as O
from repro.core import profiler
from repro.core.graph_linker import dropped_predictions, link
from repro.core.pipeline_abstraction import analyze_script, statements_to_triples
from repro.core.schema_builder import build_metadata_subgraph
from repro.core.triples import TripleStore

SCRIPT = """
import pandas as pd
from sklearn.preprocessing import StandardScaler
df = pd.read_csv('titanic/train.csv')
df['NormalizedAge'] = StandardScaler().fit_transform(df['Age'])
s = df['Sex']
g = pd.read_csv('ghost/ghost.csv')
"""


@pytest.fixture(scope="module")
def stores(spark):
    tables = {
        "train": pd.DataFrame(
            {"Age": [20, 30, 40], "Sex": ["M", "F", "M"], "Survived": [1, 0, 1]}
        )
    }
    profiles = profiler.profile_tables(spark, {"titanic": tables})
    dataset_store = TripleStore(spark, build_metadata_subgraph(profiles)).persist()
    pdf = statements_to_triples("p1", analyze_script(SCRIPT), {"dataset": "titanic"})
    pipeline_store = TripleStore.from_pandas(spark, pdf).persist()
    return pipeline_store, dataset_store


def test_existing_columns_survive(stores):
    pipeline_store, dataset_store = stores
    linked = link(pipeline_store, dataset_store)
    kept = {r["o"] for r in linked.df.filter(linked.df.p == O.READS_COLUMN).collect()}
    assert O.data_node("titanic", "train", "Age") in kept
    assert O.data_node("titanic", "train", "Sex") in kept


def test_user_defined_column_removed(stores):
    """The Figure-3 NormalizedAge case: predicted, then dropped."""
    pipeline_store, dataset_store = stores
    linked = link(pipeline_store, dataset_store)
    kept = {r["o"] for r in linked.df.filter(linked.df.p == O.READS_COLUMN).collect()}
    assert O.data_node("titanic", "train", "NormalizedAge") not in kept


def test_nonexistent_table_removed(stores):
    pipeline_store, dataset_store = stores
    linked = link(pipeline_store, dataset_store)
    kept = {r["o"] for r in linked.df.filter(linked.df.p == O.READS_TABLE).collect()}
    assert O.data_node("titanic", "train") in kept
    assert O.data_node("ghost", "ghost") not in kept


def test_non_prediction_triples_untouched(stores):
    pipeline_store, dataset_store = stores
    linked = link(pipeline_store, dataset_store)
    before = pipeline_store.df.filter(
        ~pipeline_store.df.p.isin([O.READS_TABLE, O.READS_COLUMN])
    ).count()
    after = linked.df.filter(
        ~linked.df.p.isin([O.READS_TABLE, O.READS_COLUMN])
    ).count()
    assert before == after


def test_dropped_predictions_reported(stores):
    pipeline_store, dataset_store = stores
    dropped = {r["o"] for r in dropped_predictions(pipeline_store, dataset_store).collect()}
    assert O.data_node("titanic", "train", "NormalizedAge") in dropped
    assert O.data_node("ghost", "ghost") in dropped
