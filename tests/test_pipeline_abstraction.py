"""Tests for Pipeline Abstraction (Algorithm 1) on the Figure-3 example."""
import ast
import hashlib

import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ontology as O
from repro.core.pipeline_abstraction import (
    SCRIPTS_COLUMNS,
    abstract_corpus,
    analyze_script,
    build_library_graph,
    statements_to_triples,
)
from repro.pipelines_corpus.generator import make_corpus

FIGURE3 = """
import pandas as pd
from sklearn.impute import SimpleImputer
from sklearn.preprocessing import StandardScaler, LabelEncoder
from sklearn.model_selection import train_test_split
from sklearn.ensemble import RandomForestClassifier
from sklearn.metrics import accuracy_score

df = pd.read_csv('titanic/train.csv')
X, y = df.drop('Survived', axis=1), df['Survived']
imputer = SimpleImputer(strategy='most_frequent')
X['Sex'] = LabelEncoder().fit_transform(X['Sex'])
X['Age'] = imputer.fit_transform(X['Age'])
scaler = StandardScaler()
X['NormalizedAge'] = scaler.fit_transform(X['Age'])
X_train, y_train, X_test, y_test = train_test_split(X, y, 0.2)
clf = RandomForestClassifier(50, max_depth=10)
clf.fit(X_train, y_train)
print(accuracy_score(y_test, clf.predict(X_test)))
df.head()
"""


@pytest.fixture(scope="module")
def stmts():
    return analyze_script(FIGURE3)


def _by_call(stmts, name):
    return next(s for s in stmts if s.call == name)


def test_read_csv_detected_as_dataset_read(stmts):
    s = _by_call(stmts, "pandas.read_csv")
    assert s.dataset_read == ("titanic", "train")


def test_read_csv_drops_only_the_file_suffix():
    """A ``.csv`` inside a folder name is part of the dataset name."""
    stmts = analyze_script("import pandas as pd\ndf = pd.read_csv('old.csv_backup/t.csv')\n")
    assert _by_call(stmts, "pandas.read_csv").dataset_read == ("old.csv_backup", "t")


def test_return_type_from_documentation(stmts):
    assert _by_call(stmts, "pandas.read_csv").return_type == "pandas.DataFrame"


def test_implicit_parameter_names_resolved(stmts):
    """RandomForestClassifier(50, ...) -> n_estimators=50 via the docs."""
    s = _by_call(stmts, "sklearn.ensemble.RandomForestClassifier")
    assert ("n_estimators", "50") in s.parameters
    assert ("max_depth", "10") in s.parameters


def test_default_parameters_added(stmts):
    s = _by_call(stmts, "sklearn.ensemble.RandomForestClassifier")
    defaults = dict(s.default_parameters)
    assert "criterion" in defaults and "min_samples_split" in defaults


def test_column_reads_detected_with_table_binding(stmts):
    cols = {c for s in stmts for c in s.column_reads}
    assert ("titanic", "train", "Sex") in cols
    assert ("titanic", "train", "Age") in cols
    assert ("titanic", "train", "NormalizedAge") in cols  # predicted, pre-linker


def test_insignificant_statements_dropped(stmts):
    texts = [s.text for s in stmts]
    assert not any(t == "df.head()" for t in texts)


def test_control_flow_types(stmts):
    flows = {s.control_flow for s in stmts}
    assert "import" in flows and "module" in flows


def test_loop_and_conditional_control_flow():
    script = (
        "import pandas as pd\n"
        "df = pd.read_csv('a/b.csv')\n"
        "for i in range(3):\n"
        "    df = df.fillna(i)\n"
        "if True:\n"
        "    df = df.dropna()\n"
    )
    stmts = analyze_script(script)
    flows = {s.text: s.control_flow for s in stmts}
    assert flows["df = df.fillna(i)"] == "loop"
    assert flows["df = df.dropna()"] == "conditional"


def test_method_resolution_through_inferred_types(stmts):
    """df.drop resolves to pandas.DataFrame.drop via doc-inferred type."""
    assert any(s.call == "pandas.DataFrame.drop" for s in stmts)


def test_triples_have_expected_aspects(stmts):
    pdf = statements_to_triples("p1", stmts, {"author": "a", "votes": 1,
                                              "score": 0.5, "task": "clf",
                                              "dataset": "titanic"})
    aspects = set(pdf["p"].map(O.aspect_of))
    for a in ("code_flow", "data_flow", "control_flow_type", "statement_text",
              "library_calls", "func_parameters", "column_reads",
              "dataset_reads", "rdf_node_types"):
        assert a in aspects, a


def test_code_flow_is_a_chain(stmts):
    pdf = statements_to_triples("p2", stmts)
    next_edges = pdf[pdf["p"] == O.NEXT_STATEMENT]
    assert len(next_edges) == len(stmts) - 1


def test_data_flow_follows_variables(stmts):
    pdf = statements_to_triples("p3", stmts)
    flow = pdf[pdf["p"] == O.DATA_FLOW]
    assert len(flow) >= 5  # df, X, imputer, scaler, clf all flow


def test_library_graph_hierarchy():
    pdf = build_library_graph({"sklearn.ensemble.RandomForestClassifier"})
    subs = pdf[pdf["p"] == O.HAS_SUBMODULE]
    assert len(subs) == 2  # sklearn->ensemble, ensemble->RandomForestClassifier
    assert (pdf["p"] == O.RETURNS_TYPE).any()


def test_syntax_error_script_skipped(spark):
    scripts = spark.createDataFrame(
        pd.DataFrame(
            [
                {"pipeline_id": "bad", "script": "def broken(:", "dataset": "d",
                 "author": "a", "votes": 1, "score": 0.1, "task": "clf"},
                {"pipeline_id": "good", "script": FIGURE3, "dataset": "titanic",
                 "author": "a", "votes": 1, "score": 0.1, "task": "clf"},
            ]
        )[SCRIPTS_COLUMNS]
    )
    store = abstract_corpus(spark, scripts)
    graphs = {r["g"] for r in store.df.select("g").distinct().collect()}
    assert any("good" in g for g in graphs)
    assert not any("bad" in g for g in graphs)


def test_each_pipeline_gets_own_named_graph(spark):
    rows = [
        {"pipeline_id": f"p{i}", "script": FIGURE3, "dataset": "titanic",
         "author": "a", "votes": i, "score": 0.5, "task": "clf"}
        for i in range(3)
    ]
    scripts = spark.createDataFrame(pd.DataFrame(rows)[SCRIPTS_COLUMNS])
    store = abstract_corpus(spark, scripts)
    graphs = {r["g"] for r in store.df.select("g").distinct().collect()}
    pipeline_graphs = {g for g in graphs if "pipelineGraph" in g}
    assert len(pipeline_graphs) == 3


# Every statement kind the walk distinguishes: imports at top level and
# in a loop, loops with ``else``, ``if``/``elif``/``else``, nested
# ``def``, ``async def``, ``class``, ``with``, ``try``, tuple assignment
# and a list-subscript column read.
KINDS = """
import pandas as pd
from sklearn.preprocessing import StandardScaler
import os.path
from . import helpers
path = os.path.join('kinds', 'train.csv')
df = pd.read_csv('kinds/train.csv')
extra = helpers.load(path)
X, y = df.drop('target', axis=1), df['target']
pair = df[['a', 'b']]
for i in range(3):
    import numpy as np
    df = df.fillna(i)
else:
    df = df.dropna()
while len(df) > 10:
    df = df.sample(10)
else:
    df = df.copy()
if len(df) > 5:
    df = df.dropna()
elif len(df) > 2:
    df = df.fillna(0)
else:
    df = df.interpolate()
def prepare(frame):
    scaler = StandardScaler()
    def inner(x):
        return np.log(x)
    return scaler.fit_transform(frame)
async def fetch(url):
    async with connect(url) as conn:
        raw = pd.read_csv(conn)
    async for chunk in conn:
        raw = raw.fillna(chunk)
    return pd.read_csv(url)
class Model:
    scaler = StandardScaler()
    def fit(self, X):
        return StandardScaler().fit(X)
with open('out.csv') as fh:
    df.to_csv(fh)
try:
    df = pd.read_csv('kinds/test.csv')
except OSError:
    df = None
else:
    df = df.dropna()
finally:
    df = df.copy()
try:
    df = df.fillna(0)
except* ValueError:
    df = df.interpolate()
match df.shape:
    case (0, _):
        df = df.dropna()
    case _:
        df = df.copy()
print(df.head())
df.head()
"""


def test_every_statement_kind():
    """Every statement list is walked: loop ``else`` bodies under ``loop``,
    ``match`` cases and ``except`` handlers under ``conditional``, ``class``
    bodies under ``class``; ``with`` and ``try`` bodies keep the enclosing
    type, and a ``with`` header is a statement of its own."""
    got = [(s.text, s.control_flow, s.call) for s in analyze_script(KINDS)]
    assert got == [
        ("import pandas as pd", "import", None),
        ("from sklearn.preprocessing import StandardScaler", "import", None),
        ("import os.path", "import", None),
        ("from . import helpers", "import", None),
        ("path = os.path.join('kinds', 'train.csv')", "module", "os.path.join"),
        ("df = pd.read_csv('kinds/train.csv')", "module", "pandas.read_csv"),
        ("extra = helpers.load(path)", "module", "helpers.load"),
        ("X, y = (df.drop('target', axis=1), df['target'])", "module",
         "pandas.DataFrame.drop"),
        ("pair = df[['a', 'b']]", "module", None),
        ("import numpy as np", "import", None),
        ("df = df.fillna(i)", "loop", "pandas.DataFrame.fillna"),
        ("df = df.dropna()", "loop", "pandas.DataFrame.dropna"),
        ("df = df.sample(10)", "loop", "pandas.DataFrame.sample"),
        ("df = df.copy()", "loop", "pandas.DataFrame.copy"),
        ("df = df.dropna()", "conditional", "pandas.DataFrame.dropna"),
        ("df = df.fillna(0)", "conditional", "pandas.DataFrame.fillna"),
        ("df = df.interpolate()", "conditional", "pandas.DataFrame.interpolate"),
        ("scaler = StandardScaler()", "function",
         "sklearn.preprocessing.StandardScaler"),
        ("return np.log(x)", "function", "numpy.log"),
        ("return scaler.fit_transform(frame)", "function",
         "sklearn.preprocessing.StandardScaler.fit_transform"),
        ("async with connect(url) as conn:", "function", "connect"),
        ("raw = pd.read_csv(conn)", "function", "pandas.read_csv"),
        ("raw = raw.fillna(chunk)", "loop", "pandas.DataFrame.fillna"),
        ("return pd.read_csv(url)", "function", "pandas.read_csv"),
        ("scaler = StandardScaler()", "class", "sklearn.preprocessing.StandardScaler"),
        ("return StandardScaler().fit(X)", "function",
         "sklearn.preprocessing.StandardScaler"),
        ("with open('out.csv') as fh:", "module", "open"),
        ("df.to_csv(fh)", "module", "pandas.DataFrame.to_csv"),
        ("df = pd.read_csv('kinds/test.csv')", "module", "pandas.read_csv"),
        ("df = None", "conditional", None),
        ("df = df.dropna()", "module", "pandas.DataFrame.dropna"),
        ("df = df.copy()", "module", "pandas.DataFrame.copy"),
        ("df = df.fillna(0)", "module", "pandas.DataFrame.fillna"),
        ("df = df.interpolate()", "conditional", "pandas.DataFrame.interpolate"),
        ("df = df.dropna()", "conditional", "pandas.DataFrame.dropna"),
        ("df = df.copy()", "conditional", "pandas.DataFrame.copy"),
    ]


# Each compound statement as its clause headers; every clause gets a body.
# The optional trailing clauses are drawn separately.
CLAUSES = {
    "for": (["for i in items:"], ["else:"]),
    "async for": (["async for i in items:"], ["else:"]),
    "while": (["while more():"], ["else:"]),
    "if": (["if ok():"], ["elif other():", "else:"]),
    "match": (["match v:", "    case 1:", "    case _:"], []),
    "try": (["try:", "except OSError:"], ["else:", "finally:"]),
    "try*": (["try:", "except* ValueError:"], []),
    "with": (["with opened() as fh, lock():"], []),
    "async with": (["async with connect() as conn:"], []),
    "def": (["def f(x):"], []),
    "async def": (["async def g(x):"], []),
    "class": (["class C:"], []),
}


@st.composite
def statement_lists(draw, depth: int = 0) -> list[str]:
    """Source lines of a statement list: simple statements (``pass`` is
    insignificant) and compound statements nested up to three deep."""
    lines: list[str] = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["simple"] * 2 + (list(CLAUSES) if depth < 3 else [])))
        if kind == "simple":
            n = draw(st.integers(0, 99))
            lines.append(draw(st.sampled_from([f"v{n} = load({n})", f"show(v{n})", "pass"])))
            continue
        must, optional = CLAUSES[kind]
        headers = must + [h for h in optional if draw(st.booleans())]
        for header in headers:
            lines.append(header)
            if header == "match v:":  # its cases hold the bodies
                continue
            pad = " " * (len(header) - len(header.lstrip()) + 4)
            lines += [pad + ln for ln in draw(statement_lists(depth + 1))]
    return lines


@settings(max_examples=200)
@given(lines=statement_lists())
def test_every_simple_statement_is_abstracted_once(lines):
    """Brute force over ``ast.walk``: each simple statement and each
    ``with`` header appears once, in source order, unless it is ``pass``."""
    script = "\n".join(lines)
    want = []
    for node in ast.walk(ast.parse(script)):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            want.append((node.lineno, ast.unparse(node).split("\n")[0]))
        elif isinstance(node, ast.stmt) and not any(
            isinstance(sub, ast.stmt) for sub in list(ast.walk(node))[1:]
        ):
            want.append((node.lineno, ast.unparse(node)))
    assert [s.text for s in analyze_script(script)] == [
        text for _, text in sorted(want) if text != "pass"
    ]


def test_alg1_output_is_pinned():
    """Alg. 1's named graphs for 300 corpus scripts and for ``KINDS``, each
    as the count and sha256 of their sorted (g, s, p, o, w) quads. A change
    to the corpus part changes the Table 3 and Table 4 graphs."""
    _, scripts = make_corpus(n_datasets=30, pipelines_per_dataset=10, rows=50, seed=7)
    corpus = [
        statements_to_triples(r.pipeline_id, analyze_script(r.script), r._asdict())
        for r in scripts.itertuples(index=False)
    ]
    kinds = [statements_to_triples("kinds", analyze_script(KINDS), {"dataset": "kinds"})]

    def digest(frames):
        quads = sorted(
            "\t".join(map(str, q)) for f in frames for q in f.itertuples(index=False)
        )
        return len(quads), hashlib.sha256("\n".join(quads).encode()).hexdigest()

    assert digest(corpus) == (
        49188, "6a768cac8b77a8d33ead71b2c7af464bbbfae6a5ed8cb7c5d99925e5676b55b1"
    )
    assert digest(kinds) == (
        324, "a9a1aeb4bb0194ba22d986997a823a9284fa78a6457ee38baab2f9c3ca4d40b8"
    )
