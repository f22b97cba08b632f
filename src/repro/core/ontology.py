"""The LiDS ontology: URIs for classes, properties, and modelled aspects.

The paper's ontology (OWL 2) has 13 classes, 19 object properties and 22
data properties under ``http://kglids.org/ontology/``; resources live
under ``http://kglids.org/resource/``. Data nodes (dataset, table,
column) live under ``dataset/`` and only this module lays them out
(``data_node`` and its inverse ``data_names``); library nodes live under
``library/`` (``library``); pipelines, statements and graphs start with
a fixed word of their own (``pipeline``, ``datasetGraph``, ...), so no
name can mint another kind's node. We reproduce the vocabulary that
the platform's algorithms and the Table-3/4 accounting actually touch.
Each property is registered once with the Table 4 "modelled aspect" it
models (``predicate``); ``aspect_of`` looks it up, so triples carry no
aspect of their own.
"""
from __future__ import annotations

from collections.abc import Callable
from urllib.parse import quote, unquote

import pandas as pd

ONTOLOGY = "http://kglids.org/ontology/"
RESOURCE = "http://kglids.org/resource/"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
RDFS_LABEL = "http://www.w3.org/2000/01/rdf-schema#label"


def onto(name: str) -> str:
    return ONTOLOGY + name


def res(*parts: str) -> str:
    """The resource URI of ``parts`` (e.g. ``"pipeline", pipeline_id``): each
    part percent-encoded with no safe characters, so a ``/``, ``%``,
    ``#`` or space inside a name never reads as structure, then joined
    by ``/`` under ``RESOURCE``. ``parts`` is its exact inverse, so two
    URIs are equal only when their parts are."""
    return RESOURCE + "/".join(quote(p, safe="") for p in parts)


def parts(uri: str) -> tuple[str, ...]:
    """The parts ``res`` encoded in ``uri``: ``parts(res(*ps)) == ps``
    for one or more parts of any text."""
    return tuple(unquote(p) for p in uri.removeprefix(RESOURCE).split("/"))


def library(name: str) -> str:
    """The node of a dotted library name (``"sklearn.svm.SVC"``): one
    part per name segment under ``library``. The dotted name of such a
    node is ``".".join(parts(uri)[1:])``."""
    return res("library", *name.split("."))


def data_node(*names: str) -> str:
    """The node of a dataset ``(dataset,)``, table ``(dataset, table)``
    or column ``(dataset, table, column)``: one part per name under
    ``dataset``, so no data name can reach a library, pipeline or graph
    node. ``data_names`` is its exact inverse."""
    return res("dataset", *names)


def data_names(uri: str) -> tuple[str, ...]:
    """The names ``data_node`` encoded in ``uri``:
    ``data_names(data_node(*ns)) == ns``."""
    return parts(uri)[1:]


def decode(uris: pd.Series, decoder: Callable[[str], object]) -> pd.Series:
    """``uris.map(decoder)`` as an object Series, running ``decoder``
    once per distinct URI rather than once per row."""
    return uris.map({uri: decoder(uri) for uri in uris.unique()}).astype(object)


# ---- Classes (13 in the paper; the ones our algorithms instantiate) ----
DATASET = onto("Dataset")
TABLE = onto("Table")
COLUMN = onto("Column")
PIPELINE = onto("Pipeline")
STATEMENT = onto("Statement")
LIBRARY = onto("Library")
FUNCTION = onto("Function")

# ---- Object / data properties, with their Table-4 modelled aspect ----
# aspect keys follow Table 4 rows exactly.
ASPECT_OF_PREDICATE: dict[str, str] = {
    RDF_TYPE: "rdf_node_types",
    RDFS_LABEL: "rdf_node_types",
}


def predicate(name: str, aspect: str) -> str:
    """The URI of property ``name``, registered as modelling the Table 4
    ``aspect``."""
    uri = onto(name)
    ASPECT_OF_PREDICATE[uri] = aspect
    return uri


def aspect_of(p: str) -> str:
    """The Table 4 aspect predicate ``p`` models; ``"other"`` if
    unregistered."""
    return ASPECT_OF_PREDICATE.get(p, "other")


# structural / metadata
IS_PART_OF = predicate("isPartOf", "rdf_node_types")  # column->table->dataset
HAS_TYPE = predicate("hasFineGrainedType", "rdf_node_types")
HAS_TOTAL_VALUES = predicate("hasTotalValueCount", "rdf_node_types")
HAS_DISTINCT_VALUES = predicate("hasDistinctValueCount", "rdf_node_types")
HAS_NULL_COUNT = predicate("hasNullCount", "rdf_node_types")
HAS_TRUE_RATIO = predicate("hasTrueRatio", "rdf_node_types")

# dataset-graph similarity edges (RDF-star annotated with the score)
LABEL_SIMILARITY = predicate("hasLabelSimilarity", "rdf_node_types")
CONTENT_SIMILARITY = predicate("hasContentSimilarity", "rdf_node_types")

# pipeline graph
CALLS = predicate("callsFunction", "library_calls")
CALLS_LIBRARY = predicate("callsLibrary", "library_calls")
NEXT_STATEMENT = predicate("hasNextStatement", "code_flow")
DATA_FLOW = predicate("hasDataFlowTo", "data_flow")
CONTROL_FLOW = predicate("inControlFlow", "control_flow_type")
HAS_TEXT = predicate("hasText", "statement_text")
HAS_PARAMETER = predicate("hasParameter", "func_parameters")
READS_TABLE = predicate("readsTable", "dataset_reads")
READS_COLUMN = predicate("readsColumn", "column_reads")

# library graph
HAS_SUBMODULE = predicate("hasSubmodule", "library_hierarchy")
RETURNS_TYPE = predicate("returnsType", "library_hierarchy")

# pipeline metadata
HAS_AUTHOR = predicate("isWrittenBy", "rdf_node_types")
HAS_VOTES = predicate("hasVotes", "rdf_node_types")
HAS_SCORE = predicate("hasScore", "rdf_node_types")
HAS_TASK = predicate("hasTask", "rdf_node_types")
USES_DATASET = predicate("usesDataset", "dataset_reads")
