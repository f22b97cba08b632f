"""The resource-URI codec (``ontology.res`` / ``ontology.parts``).

Table and column names may contain any character, so the codec must
round-trip arbitrary text, and a lake or pipeline corpus whose names
carry ``/``, ``%``, ``#``, spaces and non-ASCII must give the same
answers, under the renaming, as the plain-named one.
"""
import re
from pathlib import Path

import pandas as pd
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.automation.transformation import mine_column_transform_labels
from repro.baselines import graphgen4code_like as g4c
from repro.core import ontology as O
from repro.core import profiler
from repro.core.graph_linker import dropped_predictions, link
from repro.core.lids_graph import build_lids_graph
from repro.core.pipeline_abstraction import SCRIPTS_COLUMNS, abstract_corpus
from repro.core.schema_builder import build_dataset_graph
from repro.discovery import union_search as us
from repro.interfaces import api
from repro.lakegen.lake import Lake, LakeConfig, build_lake
from repro.pipelines_corpus.generator import make_corpus

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

_PARTS = st.lists(st.text(), min_size=1, max_size=4)


def test_uri_format_lives_in_ontology():
    """Only the codec knows the resource namespace and its separator;
    the one other slash split parses a script's file path. Only the
    ontology lays out data nodes: elsewhere ``O.res`` starts with a
    fixed word, and ``O.parts`` reads only library and pipeline tails."""
    resource, splits, minted, decoded = set(), [], [], []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        text = path.read_text()
        if "RESOURCE" in text:
            resource.add(rel)
        if rel != "core/ontology.py":
            splits += [(rel, m) for m in re.findall(r".*\.r?split\(\s*[\"']/.*", text)]
            minted += [(rel, m) for m in re.findall(r".*\bO\.res\((?!\s*[\"']).*", text)]
            decoded += [(rel, m) for m in re.findall(r".*\bO\.parts\b.*", text)]
    assert resource == {"core/ontology.py"}
    assert [(rel, line.strip()) for rel, line in splits] == [
        ("core/pipeline_abstraction.py",
         'parts = path.removesuffix(".csv").split("/")')
    ]
    assert minted == []
    assert [(rel, line.strip()) for rel, line in decoded] == [
        ("automation/automl.py",
         'rows["classifier"] = O.decode(rows["func"], lambda uri: O.parts(uri)[-1])'),
        ("core/pipeline_abstraction.py",
         'used = {".".join(O.parts(r["o"])[1:]) for r in call_rows}'),
        ("interfaces/api.py",
         'calls["library"] = O.decode(calls["lib"], lambda uri: O.parts(uri)[-1])'),
        ("interfaces/api.py",
         'rows["pipeline"] = O.decode(rows["pipe"], lambda uri: O.parts(uri)[-1])'),
    ]


def test_aspects_live_in_ontology():
    """Only the ontology mints property URIs, each with its Table 4
    aspect; no other module names an aspect of its own."""
    minted = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel != "core/ontology.py":
            text = path.read_text()
            minted += [(rel, m) for m in re.findall(r".*(?:\bonto\(|aspect=).*", text)]
    assert minted == []


def test_every_emitted_predicate_has_an_aspect(spark):
    """Neither system's graph has a predicate left out of the Table 4
    breakdown (``aspect_of`` gives ``other``)."""
    _, scripts = make_corpus(n_datasets=3, pipelines_per_dataset=2, with_tables=False, seed=3)
    scripts_df = spark.createDataFrame(scripts[SCRIPTS_COLUMNS])
    for abstract in (abstract_corpus, g4c.abstract_corpus):
        aspects = set(abstract(spark, scripts_df).aspect_breakdown()["aspect"])
        assert "other" not in aspects, abstract.__module__


@given(_PARTS)
@example([""])
@example(["/"])
@example(["%", "%2F"])
@example(["#", " ", "_", "é"])
@example(["a/b", "", "100% #1", "naïve 名前"])
def test_parts_inverts_res(ps):
    assert O.parts(O.res(*ps)) == tuple(ps)


@given(_PARTS, _PARTS)
@example(["a b"], ["a_b"])
@example(["a/b"], ["a", "b"])
@example(["%2F"], ["/"])
@example([""], ["", ""])
@example(["é"], ["%C3%A9"])
@example(["x#y"], ["x#y"])
def test_res_is_injective(a, b):
    assert (O.res(*a) == O.res(*b)) == (a == b)


def test_library_nodes_round_trip():
    name = "sklearn.preprocessing.StandardScaler"
    assert O.library(name) == O.res("library", "sklearn", "preprocessing", "StandardScaler")
    assert ".".join(O.parts(O.library(name))[1:]) == name


# the fixed first segments of every node and graph that is not a data node
_OTHER_SEGMENTS = ["pipeline", "library", "datasetGraph", "pipelineGraph",
                   "libraryGraph", "g4c", "g4cGraph"]


@given(st.lists(st.text(), min_size=1, max_size=3), st.lists(st.text(), max_size=3))
@example(["library", "numpy"], ["numpy"])
@example(["pipeline", "kgds_0000_p000"], ["kgds_0000_p000"])
@example(["pipeline", "kgds_0000_p000", "s0"], ["kgds_0000_p000", "s0"])
@example(["datasetGraph"], [])
def test_data_names_invert_data_node_and_stay_apart(names, other):
    node = O.data_node(*names)
    assert O.data_names(node) == tuple(names)
    assert node != O.library(".".join(other))
    assert all(node != O.res(segment, *other) for segment in _OTHER_SEGMENTS)


def test_data_names_cannot_mint_library_or_pipeline_nodes(spark):
    """A dataset ``library`` with a table ``numpy`` and a dataset
    ``pipeline`` with a table named after a pipeline, in one LiDS graph
    with that pipeline calling numpy: no node is both a table and a
    library or pipeline."""
    _, scripts = make_corpus(n_datasets=1, pipelines_per_dataset=1, with_tables=False, seed=3)
    scripts["script"] += "\ndf['f0'] = np.log(df['f0'])\n"
    pid = scripts["pipeline_id"].iloc[0]
    frame = pd.DataFrame({"x": [1.0, 2.0, 3.0]})
    lids = build_lids_graph(
        spark, {"library": {"numpy": frame}, "pipeline": {pid: frame}},
        spark.createDataFrame(scripts[SCRIPTS_COLUMNS]),
    )
    typed = lids.df.filter(lids.df.p == O.RDF_TYPE).select("s", "o").toPandas()
    types = typed.groupby("s")["o"].agg(set)
    assert O.LIBRARY in types[O.library("numpy")]
    assert O.PIPELINE in types[O.res("pipeline", pid)]
    tables = types[types.map(lambda ts: O.TABLE in ts)]
    assert len(tables) == 2
    assert not any(ts & {O.LIBRARY, O.PIPELINE, O.FUNCTION} for ts in tables)


# --------------------------------------------------------------------------
# a renamed lake: union search, unionable columns and join paths
# --------------------------------------------------------------------------
def _rename_table(t: str) -> str:
    return t.replace("_", "/") + " #%é"


def _rename_column(c: str) -> str:
    return c + " /#%é"  # word_embeddings.tokenize_label drops the suffix


@pytest.fixture(scope="module")
def lakes():
    plain = build_lake(
        LakeConfig(name="codec", n_groups=3, members_per_group=3, rows=60,
                   n_query=2, k=2, seed=7)
    )
    renamed = Lake(
        name=plain.name,
        tables={_rename_table(t): df.rename(columns=_rename_column)
                for t, df in plain.tables.items()},
        group_of={_rename_table(t): g for t, g in plain.group_of.items()},
        query_tables=[_rename_table(t) for t in plain.query_tables],
        k=plain.k,
    )
    return plain, renamed


@pytest.fixture(scope="module")
def indexes(spark, lakes):
    return tuple(us.build_index(spark, lake) for lake in lakes)


def _edge_weights(edges: pd.DataFrame, table=str, column=str) -> dict:
    return {
        (table(r.table_a), column(r.col_a), table(r.table_b), column(r.col_b), r.pred): r.w
        for r in edges.itertuples(index=False)
    }


def test_renamed_lake_has_the_same_similarity_edges(indexes):
    plain, renamed = indexes
    want = _edge_weights(plain.edges, _rename_table, _rename_column)
    got = _edge_weights(renamed.edges)
    assert len(want) > 0 and got.keys() == want.keys()
    assert all(abs(got[k] - want[k]) <= 1e-12 for k in want)


def test_renamed_lake_gives_the_same_union_search(lakes, indexes):
    plain, renamed = indexes
    for t in lakes[0].tables:
        want = plain.query(t)
        got = renamed.query(_rename_table(t))
        assert [c for c, _ in got] == [_rename_table(c) for c, _ in want]
        assert [s for _, s in got] == pytest.approx([s for _, s in want], abs=1e-12)


def test_renamed_lake_gives_the_same_unionable_columns_and_paths(lakes, indexes):
    plain, renamed = indexes
    lake = lakes[0]
    n_pairs = n_paths = 0
    for q in lake.query_tables:
        for t in sorted(set(lake.tables) - {q}):
            # rows are ordered by similarity, whose ties the last bit breaks
            want = {_rename_column(r.column_a): (_rename_column(r.column_b), r.similarity)
                    for r in api.find_unionable_columns(plain, q, t).itertuples()}
            got = {r.column_a: (r.column_b, r.similarity) for r in api.find_unionable_columns(
                renamed, _rename_table(q), _rename_table(t)).itertuples()}
            assert got.keys() == want.keys()
            assert all(got[c][0] == want[c][0] and abs(got[c][1] - want[c][1]) <= 1e-12
                       for c in want)
            n_pairs += len(want)

            want = api.get_path_to_table(plain, q, t)
            got = api.get_path_to_table(renamed, _rename_table(q), _rename_table(t))
            want["path"] = [" -> ".join(map(_rename_table, p.split(" -> ")))
                            for p in want["path"]]
            pd.testing.assert_frame_equal(got, want)
            n_paths += len(want)
    assert n_pairs > 0 and n_paths > 0


# --------------------------------------------------------------------------
# a renamed corpus: keyword search, the linker and label mining
# --------------------------------------------------------------------------
# script paths are file paths: the names hold no '/' and no quote
_RENAMED = {
    name: f"{name} %#é"
    for name in ("titanic", "train", "Age", "Fare", "Sex",
                 "heart", "patients", "age", "chol", "disease")
}
_TABLES = {
    "titanic": {"train": pd.DataFrame({"Age": [22.0, 38.0, 26.0, 35.0, 54.0],
                                       "Fare": [7.25, 71.3, 7.9, 53.1, 51.9],
                                       "Sex": ["M", "F", "F", "F", "M"]})},
    "heart": {"patients": pd.DataFrame({"age": [63, 37, 41, 56, 57],
                                        "chol": [233.0, 250.0, 204.0, 236.0, 354.0],
                                        "disease": [1, 1, 0, 0, 1]})},
}
_SCRIPT = """
import pandas as pd
import numpy as np
from sklearn.preprocessing import StandardScaler
df = pd.read_csv('{ds}/{tab}.csv')
df['NormalizedAge'] = StandardScaler().fit_transform(df['{a}'])
df['{b}'] = np.log(df['{b}'])
df['{a}'] = np.{op}(df['{a}'])
g = pd.read_csv('ghost/ghost.csv')
"""
_SCRIPTS = [  # (pipeline, dataset, table, a, b, op)
    ("p0", "titanic", "train", "Age", "Fare", "sqrt"),
    ("p1", "titanic", "train", "Sex", "Fare", "log"),
    ("p2", "heart", "patients", "age", "chol", "sqrt"),
]


def _renamed(name: str) -> str:
    return _RENAMED.get(name, name)


def _corpus(spark, rename):
    dataset_store = build_dataset_graph(spark, profiler.profile_tables(spark, {
        rename(ds): {rename(t): df.rename(columns=rename) for t, df in tables.items()}
        for ds, tables in _TABLES.items()
    }))
    scripts = pd.DataFrame(
        [{"pipeline_id": pid,
          "script": _SCRIPT.format(ds=rename(ds), tab=rename(tab), a=rename(a),
                                   b=rename(b), op=op),
          "dataset": rename(ds), "author": "a", "votes": 1, "score": 0.5, "task": "clf"}
         for pid, ds, tab, a, b, op in _SCRIPTS]
    )
    pipeline_store = abstract_corpus(spark, spark.createDataFrame(scripts[SCRIPTS_COLUMNS]))
    linked = link(pipeline_store, dataset_store)
    reads = linked.df.filter(linked.df.p.isin([O.READS_TABLE, O.READS_COLUMN]))
    return {
        "kept": {O.data_names(r["o"]) for r in reads.collect()},
        "dropped": {O.data_names(r["o"])
                    for r in dropped_predictions(pipeline_store, dataset_store).collect()},
        "lids": dataset_store.union(linked),
    }


@pytest.fixture(scope="module")
def corpora(spark):
    return _corpus(spark, str), _corpus(spark, _renamed)


def test_renamed_corpus_keeps_and_drops_the_same_predictions(corpora):
    plain, renamed = corpora
    assert ("titanic", "train", "NormalizedAge") in plain["dropped"]
    assert ("ghost", "ghost") in plain["dropped"]
    assert ("titanic", "train", "Fare") in plain["kept"]
    for key in ("kept", "dropped"):
        assert renamed[key] == {tuple(map(_renamed, p)) for p in plain[key]}


def test_renamed_corpus_gives_the_same_keyword_search(corpora):
    plain, renamed = corpora
    for conditions in (["age"], [["age", "fare"]], ["chol", "sex"], [["sex", "chol"]]):
        want = api.search_tables_based_on_specific_columns(plain["lids"], conditions)
        got = api.search_tables_based_on_specific_columns(renamed["lids"], conditions)
        assert sorted(map(tuple, got.to_numpy())) == sorted(
            (_renamed(ds), _renamed(t)) for ds, t in want.to_numpy()
        )
    assert len(api.search_tables_based_on_specific_columns(plain["lids"], ["age"])) == 2


def test_renamed_corpus_mines_the_same_column_transforms(corpora):
    plain, renamed = corpora
    want = mine_column_transform_labels(plain["lids"])
    got = mine_column_transform_labels(renamed["lids"])
    assert set(map(tuple, want.to_numpy())) == {
        ("heart", "age", "sqrt"), ("heart", "chol", "log"),
        ("titanic", "Age", "sqrt"), ("titanic", "Fare", "log"),
        ("titanic", "Sex", "log"),
    }
    assert set(map(tuple, got.to_numpy())) == {
        (_renamed(ds), _renamed(col), op) for ds, col, op in want.to_numpy()
    }
