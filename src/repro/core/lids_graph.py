"""LiDS graph assembly (§3.3): dataset ∪ library ∪ pipeline graphs.

The end-to-end KG Governor path: profile every dataset's columns in
one pass (Algorithm 2), build one Data Global Schema over them all
(Algorithm 3), abstract the pipeline scripts into named graphs
(Algorithm 1), link predicted dataset-usage nodes against the dataset
graph, and union everything into the single Web-publishable LiDS graph.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from . import graph_linker
from .pipeline_abstraction import abstract_corpus
from .profiler import profile_tables
from .schema_builder import SimilarityThresholds, build_dataset_graph
from .triples import TripleStore


def build_lids_graph(
    spark: SparkSession,
    tables_by_dataset: dict[str, dict[str, pd.DataFrame]],
    scripts: DataFrame | None = None,
    thresholds: SimilarityThresholds = SimilarityThresholds(),
) -> TripleStore:
    """Construct the full LiDS graph for datasets + (optionally) scripts.

    ``tables_by_dataset`` maps dataset name -> {table name -> pandas df};
    ``scripts`` follows ``pipeline_abstraction.SCRIPTS_COLUMNS``.
    Pipeline graphs are verified by the Graph Linker before the union,
    so dangling Predicted Dataset Usage nodes never reach the KG.
    """
    profiles = profile_tables(spark, tables_by_dataset)
    dataset_store = build_dataset_graph(spark, profiles, thresholds)
    if scripts is None:
        return dataset_store
    linked = graph_linker.link(abstract_corpus(spark, scripts), dataset_store)
    return dataset_store.union(linked)
