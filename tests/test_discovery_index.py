"""The union-search index answers every discovery request from what it
derives once from its edges.

The references below are the request paths as they ran before the
index held its derived tables: each call scanned ``edges``.
"""
from collections import deque

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ontology as O
from repro.core import profiler
from repro.core.schema_builder import build_dataset_graph
from repro.discovery import join_discovery
from repro.discovery import union_search as us
from repro.interfaces import api
from repro.lakegen.lake import LakeConfig, build_lake

EDGE_COLUMNS = ["table_a", "col_a", "table_b", "col_b", "pred", "w"]


# --------------------------------------------------------------------------
# references: one scan of the edges per call
# --------------------------------------------------------------------------
def ref_by_table(edges: pd.DataFrame, n_cols: dict[str, int]) -> dict:
    by_table: dict[str, dict[str, float]] = {}
    if edges.empty:
        return by_table
    best = edges.groupby(["table_a", "col_a", "table_b", "pred"])["w"].max().reset_index()
    best["w"] = np.where(best["pred"] == O.CONTENT_SIMILARITY, 2.0 * best["w"], best["w"])
    summed = best.groupby(["table_a", "table_b"])["w"].sum().reset_index()
    for table_a, grp in summed.groupby("table_a"):
        n = max(1, n_cols.get(str(table_a), 1))
        by_table[str(table_a)] = {
            str(r.table_b): float(r.w) / n for r in grp.itertuples(index=False)
        }
    return by_table


def ref_joinable_adjacency(edges: pd.DataFrame) -> dict[str, set[str]]:
    content = edges[edges["pred"] == O.CONTENT_SIMILARITY]
    adj: dict[str, set[str]] = {}
    for a, b in zip(content["table_a"], content["table_b"]):
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


def ref_find_join_paths(adj, source, target, hops):
    paths = []
    queue = deque([[source]])
    while queue:
        path = queue.popleft()
        if len(path) - 1 > hops:
            continue
        if path[-1] == target and len(path) > 1:
            paths.append(path)
            continue
        for nxt in sorted(adj.get(path[-1], ())):
            if nxt not in path:
                queue.append(path + [nxt])
    return paths


def ref_join_paths_frame(paths: list[list[str]]) -> pd.DataFrame:
    return pd.DataFrame(
        {
            "hops": [len(p) - 1 for p in paths],
            "path": [" -> ".join(p) for p in paths],
        }
    ).sort_values(["hops", "path"]).reset_index(drop=True)


def ref_find_unionable_columns(edges, table_a, table_b) -> pd.DataFrame:
    mine = edges[(edges["table_a"] == table_a) & (edges["table_b"] == table_b)]
    if mine.empty:
        return pd.DataFrame(columns=["column_a", "column_b", "similarity"])
    return (
        mine.groupby(["col_a", "col_b"])["w"].max().reset_index()
        .sort_values("w", ascending=False, kind="stable")
        .drop_duplicates("col_a")
        .rename(columns={"col_a": "column_a", "col_b": "column_b", "w": "similarity"})
        .reset_index(drop=True)
    )


# --------------------------------------------------------------------------
# property: the derived index answers as the per-call scans did
# --------------------------------------------------------------------------
TABLES = ["T0", "T1", "T2", "T3", "T4"]
LONELY = "T5"  # a lake table with no edges at all
GHOST = "ghost"  # a table the lake does not have

edge_rows = st.tuples(
    st.sampled_from(TABLES),
    st.sampled_from(["a", "b", "c"]),
    st.sampled_from(TABLES),
    st.sampled_from(["a", "b", "c"]),
    st.sampled_from([O.LABEL_SIMILARITY, O.CONTENT_SIMILARITY]),
    # few weights, so rows tie
    st.sampled_from([0.5, 0.75, 0.75, 1.0]),
)


@st.composite
def edge_frames(draw) -> pd.DataFrame:
    """Edges as ``index_from_graph`` makes them (each row both ways, no
    self-loops) plus one-way rows; small alphabets give duplicate
    (col_a, col_b) edges and tied weights."""
    both = [r for r in draw(st.lists(edge_rows, max_size=14)) if r[0] != r[2]]
    back = [(tb, cb, ta, ca, p, w) for ta, ca, tb, cb, p, w in both]
    one_way = draw(st.lists(edge_rows, max_size=6))
    return pd.DataFrame(both + back + one_way, columns=EDGE_COLUMNS)


@settings(max_examples=100)
@given(edges=edge_frames())
def test_index_answers_as_the_edge_scans_did(edges):
    n_cols = {t: 3 for t in TABLES + [LONELY]}
    index = us.UnionSearchIndex(edges, n_cols)
    assert index.by_table == ref_by_table(edges, n_cols)
    adj = ref_joinable_adjacency(edges)
    assert join_discovery.joinable_adjacency(index) == adj
    for a in TABLES + [LONELY, GHOST]:
        for b in TABLES + [LONELY, GHOST]:
            pd.testing.assert_frame_equal(
                api.find_unionable_columns(index, a, b),
                ref_find_unionable_columns(edges, a, b),
            )
            for hops in range(-1, 4):
                paths = ref_find_join_paths(adj, a, b, hops)
                assert join_discovery.find_join_paths(index, a, b, hops) == paths, (a, b, hops)
                pd.testing.assert_frame_equal(
                    api.get_path_to_table(index, a, b, hops), ref_join_paths_frame(paths)
                )


# --------------------------------------------------------------------------
# guard: requests read the derived tables, never the edges
# --------------------------------------------------------------------------
@pytest.fixture(scope="module")
def lake():
    return build_lake(
        LakeConfig(name="idx", n_groups=3, members_per_group=3, rows=60,
                   n_query=2, k=2, seed=5)
    )


@pytest.fixture(scope="module")
def graph_index(spark, lake):
    profiles = profiler.profile_tables(spark, {lake.name: lake.tables})
    return us.index_from_graph(build_dataset_graph(spark, profiles), lake)


def _answers(index, lake) -> list:
    tables = sorted(lake.tables) + [GHOST]
    return [
        (index.query(a), api.find_unionable_columns(index, a, b),
         api.get_path_to_table(index, a, b))
        for a in tables for b in tables
    ]


def _assert_same(got: list, want: list) -> None:
    assert len(got) == len(want)
    for (ranked, pairs, paths), (ranked0, pairs0, paths0) in zip(got, want):
        assert ranked == ranked0
        pd.testing.assert_frame_equal(pairs, pairs0)
        pd.testing.assert_frame_equal(paths, paths0)


def test_requests_never_scan_the_edges(graph_index, lake):
    index = us.UnionSearchIndex(graph_index.edges, graph_index.n_cols)
    want = _answers(index, lake)
    assert any(len(pairs) for _, pairs, _ in want)
    assert any(len(paths) for _, _, paths in want)
    index.edges = pd.DataFrame(columns=EDGE_COLUMNS)
    _assert_same(_answers(index, lake), want)


def test_changing_an_answer_leaves_the_index_alone(graph_index, lake):
    q = lake.query_tables[0]
    t = sorted(lake.unionable_with(q))[0]
    want = api.find_unionable_columns(graph_index, q, t).copy()
    assert len(want) > 0
    got = api.find_unionable_columns(graph_index, q, t)
    got.iloc[0, 0] = "changed"
    got.loc[:, "similarity"] = -1.0
    got.sort_values("column_b", inplace=True)
    pd.testing.assert_frame_equal(api.find_unionable_columns(graph_index, q, t), want)


def test_direct_index_equals_loaded_index(graph_index):
    direct = us.UnionSearchIndex(graph_index.edges, graph_index.n_cols)
    assert len(direct.by_table) > 0 and direct.by_table == graph_index.by_table
    assert len(direct.adjacency) > 0 and direct.adjacency == graph_index.adjacency
    assert direct.pair_rows == graph_index.pair_rows
    pd.testing.assert_frame_equal(direct.pairs, graph_index.pairs)
