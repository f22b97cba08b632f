"""Global Graph Linker (paper §3.1, §3.3).

Pipeline abstraction emits *Predicted Dataset Usage* nodes — tables and
columns a script appears to read. Not all of them exist (e.g. the
user-defined ``NormalizedAge`` column in Figure 3), so the linker
verifies each prediction against the Data Global Schema and keeps only
edges whose target exists in the dataset graph, implemented as Spark
joins between the pipeline graphs and the dataset graph.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from . import ontology as O
from .triples import TripleStore


def _predicted_reads(
    pipeline_store: TripleStore, dataset_store: TripleStore, how: str
) -> DataFrame:
    """``readsTable``/``readsColumn`` triples whose object does
    (``left_semi``) or does not (``left_anti``) exist in the dataset
    graph with the right class: one join on (predicate, node), where a
    Table node verifies ``readsTable`` and a Column node ``readsColumn``."""
    typed = dataset_store.df.filter(
        (F.col("p") == O.RDF_TYPE) & F.col("o").isin(O.TABLE, O.COLUMN)
    )
    verified = typed.select(
        F.when(F.col("o") == O.TABLE, O.READS_TABLE)
        .otherwise(O.READS_COLUMN).alias("p"),
        F.col("s").alias("o"),
    )
    predicted = pipeline_store.df.filter(
        F.col("p").isin(O.READS_TABLE, O.READS_COLUMN)
    )
    return predicted.join(verified, on=["p", "o"], how=how)


def link(pipeline_store: TripleStore, dataset_store: TripleStore) -> TripleStore:
    """Verify predicted table/column reads; drop dangling predictions.

    Returns a new store where ``readsTable``/``readsColumn`` triples
    survive only if their object node exists (with the right class) in
    the dataset graph. All other triples pass through unchanged.
    """
    pdf = pipeline_store.df
    others = pdf.filter(~F.col("p").isin([O.READS_TABLE, O.READS_COLUMN]))
    verified = _predicted_reads(pipeline_store, dataset_store, "left_semi")
    return TripleStore(pipeline_store.spark, others.unionByName(verified))


def dropped_predictions(
    pipeline_store: TripleStore, dataset_store: TripleStore
) -> DataFrame:
    """The predictions the linker would remove — for inspection/tests."""
    return _predicted_reads(pipeline_store, dataset_store, "left_anti")
