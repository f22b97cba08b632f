"""The LiDS ontology: URIs for classes, properties, and modelled aspects.

The paper's ontology (OWL 2) has 13 classes, 19 object properties and 22
data properties under ``http://kglids.org/ontology/``; resources live
under ``http://kglids.org/resource/``. We reproduce the vocabulary that
the platform's algorithms and the Table-3/4 accounting actually touch,
and tag every predicate with the "modelled aspect" used by Table 4.
"""
from __future__ import annotations

from urllib.parse import quote, unquote

ONTOLOGY = "http://kglids.org/ontology/"
RESOURCE = "http://kglids.org/resource/"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
RDFS_LABEL = "http://www.w3.org/2000/01/rdf-schema#label"


def onto(name: str) -> str:
    return ONTOLOGY + name


def res(*parts: str) -> str:
    """The resource URI of ``parts`` (e.g. dataset, table, column): each
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


# ---- Classes (13 in the paper; the ones our algorithms instantiate) ----
DATASET = onto("Dataset")
TABLE = onto("Table")
COLUMN = onto("Column")
PIPELINE = onto("Pipeline")
STATEMENT = onto("Statement")
LIBRARY = onto("Library")
SUBPACKAGE = onto("Subpackage")
CLASS = onto("Class")
FUNCTION = onto("Function")

# ---- Object / data properties, with their Table-4 modelled aspect ----
# aspect keys follow Table 4 rows exactly.
ASPECT_OF_PREDICATE: dict[str, str] = {}


def _p(name: str, aspect: str) -> str:
    uri = onto(name)
    ASPECT_OF_PREDICATE[uri] = aspect
    return uri


# structural / metadata
IS_PART_OF = _p("isPartOf", "rdf_node_types")  # column->table->dataset
HAS_TYPE = _p("hasFineGrainedType", "rdf_node_types")
HAS_TOTAL_VALUES = _p("hasTotalValueCount", "rdf_node_types")
HAS_DISTINCT_VALUES = _p("hasDistinctValueCount", "rdf_node_types")
HAS_NULL_COUNT = _p("hasNullCount", "rdf_node_types")
HAS_TRUE_RATIO = _p("hasTrueRatio", "rdf_node_types")

# dataset-graph similarity edges (RDF-star annotated with the score)
LABEL_SIMILARITY = _p("hasLabelSimilarity", "rdf_node_types")
CONTENT_SIMILARITY = _p("hasContentSimilarity", "rdf_node_types")

# pipeline graph
CALLS = _p("callsFunction", "library_calls")
CALLS_LIBRARY = _p("callsLibrary", "library_calls")
NEXT_STATEMENT = _p("hasNextStatement", "code_flow")
DATA_FLOW = _p("hasDataFlowTo", "data_flow")
CONTROL_FLOW = _p("inControlFlow", "control_flow_type")
HAS_TEXT = _p("hasText", "statement_text")
HAS_PARAMETER = _p("hasParameter", "func_parameters")
PARAMETER_VALUE = _p("withParameterValue", "func_parameters")
READS_TABLE = _p("readsTable", "dataset_reads")
READS_COLUMN = _p("readsColumn", "column_reads")

# library graph
HAS_SUBMODULE = _p("hasSubmodule", "library_hierarchy")
HAS_FUNCTION = _p("hasFunction", "library_hierarchy")
RETURNS_TYPE = _p("returnsType", "library_hierarchy")

# pipeline metadata
HAS_AUTHOR = _p("isWrittenBy", "rdf_node_types")
HAS_VOTES = _p("hasVotes", "rdf_node_types")
HAS_SCORE = _p("hasScore", "rdf_node_types")
HAS_TASK = _p("hasTask", "rdf_node_types")
USES_DATASET = _p("usesDataset", "dataset_reads")

ASPECT_OF_PREDICATE[RDF_TYPE] = "rdf_node_types"
ASPECT_OF_PREDICATE[RDFS_LABEL] = "rdf_node_types"

# Table-4 row labels, in presentation order, for both systems.
KGLIDS_ASPECTS = [
    "dataset_reads",
    "library_hierarchy",
    "rdf_node_types",
    "column_reads",
    "library_calls",
    "code_flow",
    "data_flow",
    "control_flow_type",
    "func_parameters",
    "statement_text",
]
G4C_ASPECTS = [
    "statement_location",
    "variable_names",
    "func_parameter_order",
    "column_reads",
    "library_calls",
    "code_flow",
    "data_flow",
    "control_flow_type",
    "func_parameters",
    "statement_text",
]
