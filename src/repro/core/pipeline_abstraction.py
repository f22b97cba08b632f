"""Pipeline Abstraction — Algorithm 1 — lightweight static analysis.

Abstracts Python pipeline scripts into named graphs using the ``ast``
module (the paper's "lightweight static code analysis tools natively
supported by the language"), enriched by:

* **documentation analysis** — return types, parameter names for
  implicit (positional) arguments, and unspecified defaults, from the
  library-docs KB;
* **dataset-usage analysis** — ``pd.read_csv("ds/table.csv")`` becomes a
  *Predicted Dataset Usage* table node, ``df["col"]`` a predicted column
  node (verified later by the Graph Linker).

Each statement node carries code flow, data flow, control-flow type and
raw text; insignificant statements (``print``, ``head``, ...) are
dropped. The corpus-level entrypoint runs one worker per script via
``mapInPandas`` (Algorithm 1 line 5: ``S_rdd.map(analyze_pipeline_script)``).
"""
from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass, field

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from . import library_docs as LD
from . import ontology as O
from .triples import TRIPLE_SCHEMA, TripleBuilder, TripleStore


@dataclass
class AbstractedStatement:
    """One significant pipeline statement and its extracted semantics."""

    index: int
    text: str
    control_flow: str
    call: str | None = None
    library: str | None = None
    return_type: str | None = None
    parameters: list[tuple[str, str]] = field(default_factory=list)
    default_parameters: list[tuple[str, str]] = field(default_factory=list)
    reads: set[str] = field(default_factory=set)
    writes: set[str] = field(default_factory=set)
    dataset_read: tuple[str, str] | None = None  # (dataset, table)
    column_reads: list[tuple[str, str, str]] = field(default_factory=list)


class _Analyzer(ast.NodeVisitor):
    """Single-pass statement collector with alias and type tracking."""

    def __init__(self) -> None:
        self.aliases: dict[str, str] = {}  # local name -> qualified prefix
        self.var_types: dict[str, str] = {}  # variable -> inferred type
        self.var_tables: dict[str, tuple[str, str]] = {}  # df var -> (ds, table)
        self.statements: list[AbstractedStatement] = []
        self._control = ["module"]

    # ---- helpers ----
    def _dotted(self, node: ast.AST) -> str | None:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            head = self._dotted(node.value)
            return f"{head}.{node.attr}" if head else None
        if isinstance(node, ast.Subscript):
            # df['col'].fillna(...) — the receiver is the subscripted frame
            return self._dotted(node.value)
        return None

    def _qualify(self, dotted: str) -> str:
        head, _, rest = dotted.partition(".")
        if head in self.aliases:
            base = self.aliases[head]
        elif head in self.var_types:
            base = self.var_types[head]
        else:
            return dotted
        return f"{base}.{rest}" if rest else base

    @staticmethod
    def _literal(node: ast.AST) -> str:
        if isinstance(node, ast.Constant):
            return repr(node.value)
        try:
            return ast.unparse(node)
        except Exception:  # pragma: no cover - malformed nodes
            return "?"

    def _extract_call(self, stmt: AbstractedStatement, call: ast.Call) -> None:
        dotted = self._dotted(call.func)
        if dotted is None:
            return
        qualified = self._qualify(dotted)
        tail = qualified.rsplit(".", 1)[-1]
        if tail in LD.INSIGNIFICANT_CALLS:
            return
        stmt.call = qualified
        stmt.library = LD.library_of(qualified)
        doc = LD.lookup(qualified)
        params: list[tuple[str, str]] = []
        if doc is not None:
            stmt.return_type = doc["returns"]
            names = [n for n, _ in doc["params"]]
            for i, arg in enumerate(call.args):
                pname = names[i] if i < len(names) else f"arg{i}"
                params.append((pname, self._literal(arg)))
            for kw in call.keywords:
                params.append((kw.arg or "**", self._literal(kw.value)))
            given = {n for n, _ in params}
            stmt.default_parameters = [
                (n, repr(d)) for n, d in doc["params"] if n not in given
            ]
        else:
            for i, arg in enumerate(call.args):
                params.append((f"arg{i}", self._literal(arg)))
            for kw in call.keywords:
                params.append((kw.arg or "**", self._literal(kw.value)))
        stmt.parameters = params
        # dataset usage analysis: pandas.read_csv('dataset/table.csv')
        if qualified == "pandas.read_csv" and call.args:
            arg0 = call.args[0]
            if isinstance(arg0, ast.Constant) and isinstance(arg0.value, str):
                path = arg0.value
                parts = path.replace(".csv", "").split("/")
                table = parts[-1]
                dataset = parts[-2] if len(parts) > 1 else table
                stmt.dataset_read = (dataset, table)

    def _collect_names(self, node: ast.AST, stmt: AbstractedStatement) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                if isinstance(sub.ctx, ast.Store):
                    stmt.writes.add(sub.id)
                else:
                    stmt.reads.add(sub.id)
            elif isinstance(sub, ast.Subscript):
                base = self._dotted(sub.value)
                if base and self.var_types.get(base) == "pandas.DataFrame":
                    keys: list[str] = []
                    sl = sub.slice
                    if isinstance(sl, ast.Constant) and isinstance(sl.value, str):
                        keys = [sl.value]
                    elif isinstance(sl, (ast.List, ast.Tuple)):
                        keys = [
                            e.value
                            for e in sl.elts
                            if isinstance(e, ast.Constant) and isinstance(e.value, str)
                        ]
                    ds, tab = self.var_tables.get(base, ("unknown", "unknown"))
                    for k in keys:
                        stmt.column_reads.append((ds, tab, k))

    # ---- statement-level visitation ----
    def _add_statement(self, node: ast.stmt) -> None:
        stmt = AbstractedStatement(
            index=len(self.statements),
            text=ast.unparse(node),
            control_flow=self._control[-1],
        )
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self._extract_call(stmt, sub)
                if stmt.call:  # first *resolvable* call defines the statement
                    break
        self._collect_names(node, stmt)
        # propagate inferred types / table bindings through assignment
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            rt = stmt.return_type
            if isinstance(node.targets[0], ast.Tuple):
                targets = [
                    e.id for e in node.targets[0].elts if isinstance(e, ast.Name)
                ]
                rt = "pandas.DataFrame" if rt == "tuple" else rt
            # a derived frame reads the same table as its source frame
            inherited = next(
                (self.var_tables[v] for v in sorted(stmt.reads)
                 if v in self.var_tables),
                None,
            )
            for t in targets:
                if rt and rt != "self":
                    self.var_types[t] = rt
                elif inherited and t not in self.var_types:
                    self.var_types[t] = "pandas.DataFrame"
                if stmt.dataset_read:
                    self.var_tables[t] = stmt.dataset_read
                elif inherited:
                    self.var_tables[t] = inherited
        if stmt.call and stmt.call.rsplit(".", 1)[-1] in LD.INSIGNIFICANT_CALLS:
            return
        if not stmt.call and not stmt.writes and not stmt.column_reads:
            # bare expressions with no calls/assignments are insignificant
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                return
        self.statements.append(stmt)

    def visit_Import(self, node: ast.Import) -> None:
        for a in node.names:
            self.aliases[a.asname or a.name.split(".")[0]] = a.name
        self._control.append("import")
        self._add_statement(node)
        self._control.pop()

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for a in node.names:
            self.aliases[a.asname or a.name] = f"{node.module}.{a.name}"
        self._control.append("import")
        self._add_statement(node)
        self._control.pop()

    def _visit_block(self, body: list[ast.stmt]) -> None:
        for child in body:
            self.visit(child)

    def visit_For(self, node: ast.For) -> None:
        self._control.append("loop")
        self._visit_block(node.body)
        self._control.pop()

    def visit_While(self, node: ast.While) -> None:
        self._control.append("loop")
        self._visit_block(node.body)
        self._control.pop()

    def visit_If(self, node: ast.If) -> None:
        self._control.append("conditional")
        self._visit_block(node.body)
        self._visit_block(node.orelse)
        self._control.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._control.append("function")
        self._visit_block(node.body)
        self._control.pop()

    def generic_visit(self, node: ast.AST) -> None:
        if isinstance(node, ast.stmt) and not isinstance(
            node, (ast.FunctionDef, ast.For, ast.While, ast.If, ast.Import,
                   ast.ImportFrom, ast.Module)
        ):
            self._add_statement(node)
        else:
            super().generic_visit(node)


def analyze_script(script: str) -> list[AbstractedStatement]:
    """Static + documentation + dataset-usage analysis of one script."""
    analyzer = _Analyzer()
    tree = ast.parse(script)
    for node in tree.body:
        analyzer.visit(node)
    return analyzer.statements


def pipeline_graph_uri(pipeline_id: str) -> str:
    return O.res("pipelineGraph", pipeline_id)


def statements_to_triples(
    pipeline_id: str,
    statements: list[AbstractedStatement],
    metadata: dict | None = None,
) -> pd.DataFrame:
    """Emit the named graph of one pipeline (Algorithm 1 line 18)."""
    g = pipeline_graph_uri(pipeline_id)
    tb = TripleBuilder(graph=g)
    pipe = O.res("pipeline", pipeline_id)
    tb.add(pipe, O.RDF_TYPE, O.PIPELINE)
    md = metadata or {}
    if "author" in md:
        tb.add(pipe, O.HAS_AUTHOR, str(md["author"]))
    if "votes" in md:
        tb.add(pipe, O.HAS_VOTES, str(md["votes"]))
    if "score" in md:
        tb.add(pipe, O.HAS_SCORE, str(md["score"]))
    if "task" in md:
        tb.add(pipe, O.HAS_TASK, str(md["task"]))
    if "dataset" in md:
        tb.add(pipe, O.USES_DATASET, O.res(str(md["dataset"])))
    last_writer: dict[str, str] = {}
    prev_uri: str | None = None
    for st in statements:
        uri = O.res("pipeline", pipeline_id, f"s{st.index}")
        tb.add(uri, O.RDF_TYPE, O.STATEMENT)
        tb.add(uri, O.IS_PART_OF, pipe)
        tb.add(uri, O.HAS_TEXT, st.text)
        tb.add(uri, O.CONTROL_FLOW, st.control_flow)
        if prev_uri is not None:
            tb.add(prev_uri, O.NEXT_STATEMENT, uri)
        prev_uri = uri
        for var in sorted(st.reads):
            if var in last_writer and last_writer[var] != uri:
                tb.add(last_writer[var], O.DATA_FLOW, uri)
        for var in sorted(st.writes):
            last_writer[var] = uri
        if st.call:
            tb.add(uri, O.CALLS, O.res("library", *st.call.split(".")))
            tb.add(uri, O.CALLS_LIBRARY, O.res("library", st.library))
            for name, value in st.parameters:
                tb.add(uri, O.HAS_PARAMETER, f"{name}={value}")
            for name, value in st.default_parameters:
                tb.add(uri, O.HAS_PARAMETER, f"{name}={value}", w=0.0)
        if st.dataset_read:
            ds, tab = st.dataset_read
            tb.add(uri, O.READS_TABLE, O.res(ds, tab), w=1.0)
        for ds, tab, col in dict.fromkeys(st.column_reads):
            tb.add(uri, O.READS_COLUMN, O.res(ds, tab, col), w=1.0)
    return tb.to_pandas()


def build_library_graph(used: set[str]) -> pd.DataFrame:
    """Library-hierarchy subgraph for the qualified calls in ``used``."""
    tb = TripleBuilder(graph=O.res("libraryGraph"))
    roots = {LD.library_of(c) for c in used}
    # membership edges only along the paths of actually-used callables
    wanted_prefixes = set()
    for call in used:
        parts = call.split(".")
        for i in range(1, len(parts) + 1):
            wanted_prefixes.add(".".join(parts[:i]))
    for parent, child in LD.hierarchy_edges():
        if child in wanted_prefixes:
            tb.add(O.res("library", *parent.split(".")),
                   O.HAS_SUBMODULE, O.res("library", *child.split(".")))
    for call in sorted(used):
        doc = LD.lookup(call)
        uri = O.res("library", *call.split("."))
        tb.add(uri, O.RDF_TYPE, O.FUNCTION)
        if doc is not None and call in LD.LIBRARY_DOCS:
            tb.add(uri, O.RETURNS_TYPE, doc["returns"])
    for root in sorted(roots):
        tb.add(O.res("library", root), O.RDF_TYPE, O.LIBRARY)
    return tb.to_pandas()


SCRIPTS_COLUMNS = ["pipeline_id", "script", "dataset", "author", "votes", "score", "task"]


def _abstract_partition(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
    for batch in batches:
        frames = []
        for row in batch.itertuples(index=False):
            try:
                stmts = analyze_script(row.script)
            except SyntaxError:
                continue
            frames.append(
                statements_to_triples(
                    row.pipeline_id,
                    stmts,
                    {
                        "author": row.author,
                        "votes": row.votes,
                        "score": row.score,
                        "task": row.task,
                        "dataset": row.dataset,
                    },
                )
            )
        yield pd.concat(frames) if frames else TripleBuilder().to_pandas()


def abstract_corpus(spark: SparkSession, scripts: DataFrame) -> TripleStore:
    """Algorithm 1: distributed abstraction of a pipeline-script corpus.

    ``scripts`` must have ``SCRIPTS_COLUMNS``. The library graph is built
    on the driver from the (small) set of distinct calls; the per-script
    named graphs are produced by parallel workers.
    """
    pipeline_triples = scripts.mapInPandas(
        _abstract_partition, TRIPLE_SCHEMA
    ).persist()
    # library graph from the distinct calls the abstraction just found
    prefix = O.res("library") + "/"
    call_rows = (
        pipeline_triples.filter(pipeline_triples.p == O.CALLS)
        .select("o")
        .distinct()
        .collect()
    )
    used = {r["o"][len(prefix):].replace("/", ".") for r in call_rows}
    lib_pdf = build_library_graph(used)
    df = pipeline_triples
    if len(lib_pdf):
        df = df.unionByName(spark.createDataFrame(lib_pdf, TRIPLE_SCHEMA))
    return TripleStore(spark, df)
