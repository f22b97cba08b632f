"""Tests for the triple store and its BGP evaluator (sub. S4)."""
import math

import numpy as np
import pandas as pd
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core import ontology as O
from repro.core.triples import DEFAULT_GRAPH, TripleBuilder, TripleStore
from repro.oracle import assert_equivalent


def spark_bgp(df: DataFrame, patterns: list[tuple[str, str, str]]) -> DataFrame:
    """Reference BGP evaluator: a chain of Spark joins over the quads
    ``df``, one filtered projection per pattern, deduplicated over the
    variables."""
    result: DataFrame | None = None
    for i, (s, p, o) in enumerate(patterns):
        part = df
        rename = {}
        for col, term in (("s", s), ("p", p), ("o", o)):
            if term.startswith("?"):
                rename[col] = term[1:]
            else:
                part = part.filter(F.col(col) == term)
        cols = [F.col(c).alias(v) for c, v in rename.items()]
        cols.append(F.col("w").alias(f"_w{i}"))
        part = part.select(*cols)
        if result is None:
            result = part
        else:
            shared = [c for c in part.columns if c in result.columns and not c.startswith("_w")]
            result = (
                result.join(part, on=shared, how="inner")
                if shared
                else result.crossJoin(part)
            )
    assert result is not None
    var_cols = [c for c in result.columns if not c.startswith("_w")]
    return result.select(*var_cols, *[c for c in result.columns if c.startswith("_w")]).dropDuplicates(var_cols)


@pytest.fixture(scope="module")
def store(spark):
    tb = TripleBuilder(graph="g1")
    tb.add("a", O.RDF_TYPE, O.TABLE)
    tb.add("b", O.RDF_TYPE, O.TABLE)
    tb.add("c1", O.IS_PART_OF, "a")
    tb.add("c2", O.IS_PART_OF, "a")
    tb.add("c3", O.IS_PART_OF, "b")
    tb.add("c1", O.CONTENT_SIMILARITY, "c3", w=0.97)
    tb.add("c1", O.RDF_TYPE, O.COLUMN)
    tb.add("c2", O.RDF_TYPE, O.COLUMN)
    tb.add("c3", O.RDF_TYPE, O.COLUMN)
    return TripleStore.from_pandas(spark, tb.to_pandas()).persist()


def test_counts(store):
    assert store.n_triples() == 9
    assert store.n_unique_predicates() == 3
    # nodes: a, b, c1, c2, c3, Table, Column
    assert store.n_unique_nodes() == 7


def test_match_single_pattern(store):
    rows = store.match_bgp([("?s", O.RDF_TYPE, O.TABLE)])
    assert set(rows["s"]) == {"a", "b"}


def test_match_with_graph(store):
    assert store.df.filter(F.col("g") == "g1").count() == 9
    assert store.df.filter(F.col("g") == "nope").count() == 0


def test_rdf_star_weight(store):
    rows = store.match_bgp([("?s", O.CONTENT_SIMILARITY, "?o")])
    assert rows["_w0"].iloc[0] == pytest.approx(0.97)


def test_unannotated_weight_is_null(store):
    rows = store.match_bgp([("a", O.RDF_TYPE, "?o")])
    assert math.isnan(rows["_w0"].iloc[0])


def test_bgp_join(store):
    # columns of tables: ?c isPartOf ?t . ?t rdf:type Table
    df = store.match_bgp(
        [("?c", O.IS_PART_OF, "?t"), ("?t", O.RDF_TYPE, O.TABLE)]
    )
    assert isinstance(df, pd.DataFrame)
    assert list(df.columns) == ["c", "t", "_w0", "_w1"]
    got = set(zip(df["c"], df["t"]))
    assert got == {("c1", "a"), ("c2", "a"), ("c3", "b")}


def test_bgp_with_similarity_chain(store):
    df = store.match_bgp(
        [
            ("?c", O.CONTENT_SIMILARITY, "?d"),
            ("?c", O.IS_PART_OF, "?t1"),
            ("?d", O.IS_PART_OF, "?t2"),
        ]
    )
    assert len(df) == 1
    assert (df["t1"].iloc[0], df["t2"].iloc[0]) == ("a", "b")


def test_bgp_empty_raises(store):
    with pytest.raises(ValueError):
        store.match_bgp([])
    with pytest.raises(ValueError):
        store.match_bgp([("a", O.RDF_TYPE, O.TABLE)])


def test_bgp_matches_duckdb_oracle(spark, store):
    """The BGP join result must equal the equivalent SQL self-join."""
    triples_pdf = store.df.toPandas()[["s", "p", "o"]]
    got = store.match_bgp(
        [("?c", O.IS_PART_OF, "?t"), ("?t", O.RDF_TYPE, O.TABLE)]
    )[["c", "t"]]
    sql = f"""
        SELECT t1.s AS c, t1.o AS t
        FROM triples t1 JOIN triples t2 ON t1.o = t2.s
        WHERE t1.p = '{O.IS_PART_OF}' AND t2.p = '{O.RDF_TYPE}'
          AND t2.o = '{O.TABLE}'
    """
    assert_equivalent(got, sql, triples=triples_pdf)


@pytest.fixture(scope="module")
def mixed_store(spark):
    """Three aspects, two of them tied, and a predicate that models no
    registered aspect."""
    tb = TripleBuilder()
    for i in range(2):
        tb.add(f"s{i}", O.READS_TABLE, "t")
        tb.add(f"s{i}", O.READS_COLUMN, "c")
    for i in range(3):
        tb.add(f"s{i}", O.HAS_TEXT, "x")
    tb.add("s0", "urn:unregistered", "x")
    return TripleStore.from_pandas(spark, tb.to_pandas())


def test_aspect_breakdown_matches_oracle(store, mixed_store):
    """Counts per aspect equal a DuckDB join of the triples with the
    ontology's (predicate, aspect) table, unmatched predicates as
    ``other``."""
    aspects = pd.DataFrame(
        list(O.ASPECT_OF_PREDICATE.items()), columns=["p", "aspect"]
    )
    sql = """
        SELECT COALESCE(a.aspect, 'other') AS aspect, COUNT(*) AS n_triples
        FROM triples t LEFT JOIN aspects a ON t.p = a.p
        GROUP BY COALESCE(a.aspect, 'other')
    """
    for s in (store, mixed_store):
        pdf = s.aspect_breakdown()
        assert pdf["pct"].sum() == pytest.approx(100.0)
        assert_equivalent(
            pdf[["aspect", "n_triples"]], sql, triples=s.df.toPandas(), aspects=aspects
        )


def test_aspect_breakdown_breaks_ties_by_name(mixed_store):
    pdf = mixed_store.aspect_breakdown()
    assert list(pdf["aspect"]) == [
        "statement_text", "column_reads", "dataset_reads", "other"
    ]
    assert list(pdf["n_triples"]) == [3, 2, 2, 1]


def test_union_and_empty(spark, store):
    empty = TripleStore.empty(spark)
    assert empty.n_triples() == 0
    assert empty.union(store).n_triples() == 9


def test_ntriples_size_positive(store):
    assert store.ntriples_size_bytes() > 100


def test_builder_default_graph():
    tb = TripleBuilder()
    tb.add("s", "p", "o")
    assert tb.to_pandas()["g"].iloc[0] == DEFAULT_GRAPH


# ---------- property test: the evaluator against DuckDB and Spark ----------
_NODES, _PREDICATES, _VARIABLES = ["a", "b"], ["p", "q"], ["?x", "?y", "?z"]
_TRIPLES = [(s, p, o) for s in _NODES for p in _PREDICATES for o in _NODES]


@st.composite
def _quads(draw) -> pd.DataFrame:
    """Quads over a small alphabet; a triple may sit in both named
    graphs, always with the same weight (None: the triple is absent)."""
    weights = draw(st.lists(st.sampled_from([None, math.nan, 0.25, 0.5]),
                            min_size=len(_TRIPLES), max_size=len(_TRIPLES)))
    rows = [
        (g, s, p, o, w)
        for (s, p, o), w in zip(_TRIPLES, weights) if w is not None
        for g in draw(st.sampled_from([["g1"], ["g2"], ["g1", "g2"]]))
    ]
    assume(rows)
    return pd.DataFrame(rows, columns=["g", "s", "p", "o", "w"])


def _binds_a_variable_twice(pattern) -> bool:
    variables = [t for t in pattern if t.startswith("?")]
    return len(variables) != len(set(variables))


_node_term = st.sampled_from(_VARIABLES + _NODES)
_bgps = st.lists(
    st.tuples(_node_term, st.sampled_from(_VARIABLES + _PREDICATES), _node_term)
    .filter(lambda pattern: not _binds_a_variable_twice(pattern)),
    min_size=1, max_size=4,
).filter(lambda patterns: any(t.startswith("?") for p in patterns for t in p))


def _duckdb_bgp(patterns) -> str:
    """The BGP as a DuckDB self-join of ``quads``, one alias per pattern."""
    first, where = {}, []
    for i, pattern in enumerate(patterns):
        for col, term in zip("spo", pattern):
            ref = f"t{i}.{col}"
            if not term.startswith("?"):
                where.append(f"{ref} = '{term}'")
            elif term in first:
                where.append(f"{ref} = {first[term]}")
            else:
                first[term] = ref
    select = [f"{ref} AS {v[1:]}" for v, ref in first.items()]
    select += [f"t{i}.w AS _w{i}" for i in range(len(patterns))]
    return (
        f"SELECT DISTINCT {', '.join(select)} "
        f"FROM {', '.join(f'quads t{i}' for i in range(len(patterns)))} "
        f"WHERE {' AND '.join(where) or 'TRUE'}"
    )


@settings(max_examples=25)
@given(quads=_quads(), patterns=_bgps)
def test_bgp_equals_duckdb_and_spark_join_chain(spark, quads, patterns):
    store = TripleStore.from_pandas(spark, quads)
    sql = _duckdb_bgp(patterns)
    assert_equivalent(store.match_bgp(patterns), sql, quads=quads)
    assert_equivalent(spark_bgp(store.df, patterns), sql, quads=quads)



# ---------- the evaluator against a nested loop and the pandas evaluator ----------
def pandas_bgp(quads: pd.DataFrame, patterns) -> pd.DataFrame:
    """The pandas evaluator the encoded one replaced, as a reference:
    constants are boolean masks over the (s, p, o, w) quads, patterns are
    merged in order on their shared variables (a cross product when none
    is shared), and the answer is distinct over the variables."""
    result: pd.DataFrame | None = None
    for i, pattern in enumerate(patterns):
        mask = np.ones(len(quads), dtype=bool)
        column_of: dict[str, str] = {}
        for col, term in zip("spo", pattern):
            if term.startswith("?"):
                column_of[term[1:]] = col
            else:
                mask &= quads[col].to_numpy() == term
        part = quads.loc[mask, [*column_of.values(), "w"]]
        part.columns = [*column_of, f"_w{i}"]
        if result is None:
            result = part
        else:
            shared = [c for c in column_of if c in result.columns]
            result = (result.merge(part, on=shared) if shared
                      else result.merge(part, how="cross"))
    assert result is not None
    var_cols = [c for c in result.columns if not c.startswith("_w")]
    weights = [c for c in result.columns if c.startswith("_w")]
    return result[var_cols + weights].drop_duplicates(var_cols).reset_index(drop=True)


def _nested_loop_bgp(quads: pd.DataFrame, patterns) -> pd.DataFrame:
    """The documented answer by brute force: each binding so far, in
    order, extended by every quad, in snapshot order, that matches the
    next pattern under it; then the first row of each distinct binding."""
    rows = list(quads[["s", "p", "o", "w"]].itertuples(index=False, name=None))
    answers: list[tuple[dict, list]] = [({}, [])]
    for pattern in patterns:
        extended = []
        for binding, weights in answers:
            for *spo, w in rows:
                b = dict(binding)
                if all(b.setdefault(t[1:], v) == v if t.startswith("?") else t == v
                       for t, v in zip(pattern, spo)):
                    extended.append((b, weights + [w]))
        answers = extended
    variables = list(dict.fromkeys(t[1:] for p in patterns for t in p if t.startswith("?")))
    weight_cols = [f"_w{i}" for i in range(len(patterns))]
    seen, out = set(), []
    for binding, weights in answers:
        key = tuple(binding[v] for v in variables)
        if key not in seen:
            seen.add(key)
            out.append([*key, *weights])
    frame = pd.DataFrame(out, columns=variables + weight_cols)
    return frame.astype({**{v: object for v in variables}, **{w: "float64" for w in weight_cols}})


def _as_multiset(frame: pd.DataFrame) -> pd.DataFrame:
    return frame.sort_values(list(frame.columns)).reset_index(drop=True)


_ABSENT_NODE, _ABSENT_PREDICATE = "c", "r"  # terms no quad holds
_any_node = st.sampled_from(_VARIABLES + _NODES + [_ABSENT_NODE])
_any_bgps = st.lists(
    st.tuples(_any_node, st.sampled_from(_VARIABLES + _PREDICATES + [_ABSENT_PREDICATE]),
              _any_node)
    .filter(lambda pattern: not _binds_a_variable_twice(pattern)),
    min_size=1, max_size=3,
).filter(lambda patterns: any(t.startswith("?") for p in patterns for t in p))


@settings(max_examples=40, deadline=None)
@given(quads=_quads(), order=st.randoms(use_true_random=False),
       bgps=st.lists(_any_bgps, min_size=1, max_size=4))
def test_bgp_is_the_nested_loop_answer(spark, quads, order, bgps):
    """Exact frame — columns, dtypes, row order — against the nested loop
    over the quads in the order the store holds them, and the same rows
    as the pandas evaluator; variables in the predicate position,
    constants no quad holds, cross products, patterns sharing two
    variables and triples in two named graphs all occur."""
    rows = list(range(len(quads)))
    order.shuffle(rows)
    store = TripleStore.from_pandas(spark, quads.iloc[rows].reset_index(drop=True))
    held = store.df.toPandas()  # the order the snapshot collects
    for patterns in bgps:
        got = store.match_bgp(patterns)
        pd.testing.assert_frame_equal(got, _nested_loop_bgp(held, patterns))
        pd.testing.assert_frame_equal(_as_multiset(got), _as_multiset(pandas_bgp(held, patterns)))


def test_bgp_rows_come_in_nested_loop_order(spark):
    tb = TripleBuilder()
    for s, o in (("b", "x"), ("a", "y"), ("a", "x"), ("b", "y")):
        tb.add(s, "p", o)
    tb.add("y", "q", "1", w=0.5)
    tb.add("x", "q", "2", w=0.25)
    store = TripleStore.from_pandas(spark, tb.to_pandas())
    joined = store.match_bgp([("?s", "p", "?o"), ("?o", "q", "?n")])
    assert list(zip(joined["s"], joined["o"], joined["n"])) == [
        ("b", "x", "2"), ("a", "y", "1"), ("a", "x", "2"), ("b", "y", "1")
    ]
    assert list(joined["_w1"]) == [0.25, 0.5, 0.25, 0.5]
    cross = store.match_bgp([("?a", "q", "1"), ("?b", "q", "?n")])
    assert list(zip(cross["a"], cross["b"])) == [("y", "y"), ("y", "x")]


def test_bgp_with_an_absent_constant_is_empty_with_its_columns(store):
    for patterns in (
        [("?c", "urn:no-such-predicate", "?t")],
        [("?c", O.IS_PART_OF, "no-such-table")],
        [("?c", O.IS_PART_OF, "?t"), ("?t", O.RDF_TYPE, "urn:no-such-class")],
    ):
        got = store.match_bgp(patterns)
        variables = list(dict.fromkeys(t[1:] for p in patterns for t in p if t[0] == "?"))
        assert list(got.columns) == variables + [f"_w{i}" for i in range(len(patterns))]
        assert len(got) == 0 and isinstance(got.index, pd.RangeIndex)
        assert all(got[v].dtype == object for v in variables)
        assert all(got[f"_w{i}"].dtype == "float64" for i in range(len(patterns)))


def test_bgp_rejects_a_variable_twice_in_one_pattern(store):
    with pytest.raises(ValueError):
        store.match_bgp([("?x", O.IS_PART_OF, "?x")])
