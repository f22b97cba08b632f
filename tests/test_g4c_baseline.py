"""Tests for the GraphGen4Code-like baseline (Tables 3-4 comparator)."""
import pandas as pd
import pytest

from repro.baselines import graphgen4code_like as g4c
from repro.core.ontology import aspect_of
from repro.core.pipeline_abstraction import (
    SCRIPTS_COLUMNS,
    analyze_script,
    statements_to_triples,
)

SCRIPT = """
import pandas as pd
from sklearn.ensemble import RandomForestClassifier
df = pd.read_csv('titanic/train.csv')
X = df.drop('Survived', axis=1)
clf = RandomForestClassifier(50, max_depth=10)
clf.fit(X, df['Survived'])
"""


@pytest.fixture(scope="module")
def g4c_triples():
    return g4c.abstract_script("p1", SCRIPT)


@pytest.fixture(scope="module")
def kglids_triples():
    return statements_to_triples("p1", analyze_script(SCRIPT))


def test_g4c_graph_is_much_larger(g4c_triples, kglids_triples):
    """Table 3: G4C emits several times more triples for the same code."""
    assert len(g4c_triples) > 3 * len(kglids_triples)


def test_g4c_records_local_syntactic_detail(g4c_triples):
    aspects = set(g4c_triples["p"].map(aspect_of))
    assert "statement_location" in aspects
    assert "variable_names" in aspects
    assert "func_parameter_order" in aspects


def test_g4c_misses_data_science_aspects(g4c_triples):
    """Table 4's '-' rows: no RDF types, dataset reads, or library graph."""
    aspects = set(g4c_triples["p"].map(aspect_of))
    assert "rdf_node_types" not in aspects
    assert "dataset_reads" not in aspects
    assert "library_hierarchy" not in aspects


def test_kglids_captures_what_g4c_misses(kglids_triples):
    aspects = set(kglids_triples["p"].map(aspect_of))
    assert "rdf_node_types" in aspects
    assert "dataset_reads" in aspects


def test_parameter_order_is_a_large_share(g4c_triples):
    share = (g4c_triples["p"].map(aspect_of) == "func_parameter_order").mean()
    assert share > 0.05  # ~26% in the paper's Table 4


def test_g4c_corpus_spark(spark):
    rows = [
        {"pipeline_id": f"p{i}", "script": SCRIPT, "dataset": "titanic",
         "author": "a", "votes": 1, "score": 0.5, "task": "clf"}
        for i in range(3)
    ]
    store = g4c.abstract_corpus(
        spark, spark.createDataFrame(pd.DataFrame(rows)[SCRIPTS_COLUMNS])
    )
    assert store.n_triples() == 3 * store.df.filter(
        store.df.g == g4c.g4c_graph_uri("p0")
    ).count()


def test_g4c_skips_broken_scripts(spark):
    """A script that does not parse is dropped; the good one in the same
    batch keeps its whole graph."""
    rows = [
        {"pipeline_id": "good", "script": SCRIPT, "dataset": "titanic",
         "author": "a", "votes": 1, "score": 0.5, "task": "clf"},
        {"pipeline_id": "bad", "script": "def x(:", "dataset": "d",
         "author": "a", "votes": 1, "score": 0.5, "task": "clf"},
    ]
    scripts = spark.createDataFrame(pd.DataFrame(rows)[SCRIPTS_COLUMNS]).coalesce(1)
    store = g4c.abstract_corpus(spark, scripts)
    graphs = {r["g"] for r in store.df.select("g").distinct().collect()}
    assert graphs == {g4c.g4c_graph_uri("good")}
    assert store.n_triples() == len(g4c.abstract_script("good", SCRIPT))
