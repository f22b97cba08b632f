"""The KGLiDS Interfaces: pre-defined operations of §5.

A thin Python-library facade over the LiDS graph, the union-search
index, and the trained recommenders. Every operation returns a pandas
DataFrame, the paper's interoperability contract. Keyword search
supports conjunctive (nested list) and disjunctive (top-level) terms,
as in the paper's heart-failure walkthrough.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import functions as F

from repro.core import ontology as O
from repro.core.triples import TripleStore
from repro.discovery.join_discovery import find_join_paths, join_paths_frame
from repro.discovery.union_search import UnionSearchIndex


def search_tables_based_on_specific_columns(
    store: TripleStore, conditions: list
) -> pd.DataFrame:
    """Keyword search over column labels.

    ``conditions`` is a list whose elements are either a term (matched
    disjunctively) or a nested list of terms (matched conjunctively),
    e.g. ``[["heart", "disease"], "patients"]``.
    """
    rows = (
        store.df.filter(
            (F.col("p") == O.RDFS_LABEL)
            | ((F.col("p") == O.RDF_TYPE) & (F.col("o") == O.COLUMN))
        )
        .select("s", "p", F.lower(F.col("o")).alias("label"))
        .toPandas()
    )
    is_label = rows["p"] == O.RDFS_LABEL
    columns = set(rows.loc[~is_label, "s"])  # subjects typed kglids:Column
    cols = rows[is_label & rows["s"].isin(columns)]
    parts = cols["s"].str.removeprefix(O.RESOURCE).str.split("/")
    frame = pd.DataFrame(
        {
            "dataset": parts.str[0],
            "table": parts.str[1],
            "column": parts.str[2],
            "label": cols["label"].to_numpy(),
        }
    )

    def _matches(group: pd.DataFrame) -> bool:
        table_labels = " ".join(group["label"])
        for cond in conditions:
            if isinstance(cond, list):
                if all(term.lower() in table_labels for term in cond):
                    return True
            elif str(cond).lower() in table_labels:
                return True
        return False

    hits = [
        {"dataset": ds, "table": t}
        for (ds, t), grp in frame.groupby(["dataset", "table"])
        if _matches(grp)
    ]
    return pd.DataFrame(hits, columns=["dataset", "table"])


def find_unionable_columns(
    index: UnionSearchIndex, table_a: str, table_b: str
) -> pd.DataFrame:
    """Matched (unionable) column pairs between two tables — the
    recommended merged schema of §5."""
    edges = index.edges
    mine = edges[
        (edges["table_a"] == table_a) & (edges["table_b"] == table_b)
    ]
    if mine.empty:
        return pd.DataFrame(columns=["column_a", "column_b", "similarity"])
    best = (
        mine.groupby(["col_a", "col_b"])["w"].max().reset_index()
        .sort_values("w", ascending=False)
        .drop_duplicates("col_a")
        .rename(columns={"col_a": "column_a", "col_b": "column_b",
                         "w": "similarity"})
        .reset_index(drop=True)
    )
    return best


def get_path_to_table(
    index: UnionSearchIndex, source: str, target: str, hops: int = 2
) -> pd.DataFrame:
    """Join paths (≤ ``hops``) from source to target, as a DataFrame."""
    return join_paths_frame(find_join_paths(index, source, target, hops))


def get_top_k_library_used(store: TripleStore, k: int) -> pd.DataFrame:
    """Top-k libraries by number of unique pipelines calling them (Fig. 4)."""
    return get_top_used_libraries(store, k)


def get_top_used_libraries(
    store: TripleStore, k: int = 10, task: str | None = None
) -> pd.DataFrame:
    """Top-k libraries among pipelines of a given task (§5)."""
    patterns = [
        ("?stmt", O.CALLS_LIBRARY, "?lib"),
        ("?stmt", O.IS_PART_OF, "?pipe"),
    ]
    if task is not None:
        patterns.append(("?pipe", O.HAS_TASK, task))
    calls = store.match_bgp(patterns).toPandas()
    calls["library"] = calls["lib"].str.rsplit("/", n=1).str[-1]
    return (
        calls.groupby("library")["pipe"]
        .nunique()
        .reset_index(name="n_pipelines")
        .sort_values(["n_pipelines", "library"], ascending=[False, True])
        .head(k)
        .reset_index(drop=True)
    )


def get_pipelines_calling_libraries(
    store: TripleStore, *functions: str
) -> pd.DataFrame:
    """Pipelines that call *all* the given library functions, with
    metadata (votes, author, score)."""
    patterns = []
    for i, fn in enumerate(functions):
        uri = O.res("library", *fn.split("."))
        patterns.append((f"?stmt{i}", O.CALLS, uri))
        patterns.append((f"?stmt{i}", O.IS_PART_OF, "?pipe"))
    patterns.append(("?pipe", O.HAS_VOTES, "?votes"))
    patterns.append(("?pipe", O.HAS_AUTHOR, "?author"))
    rows = store.match_bgp(patterns).toPandas()
    if rows.empty:
        return pd.DataFrame(columns=["pipeline", "author", "votes"])
    rows["pipeline"] = rows["pipe"].str.rsplit("/", n=1).str[-1]
    out = (
        rows[["pipeline", "author", "votes"]]
        .drop_duplicates("pipeline")
        .sort_values("pipeline")
        .reset_index(drop=True)
    )
    out["votes"] = out["votes"].astype(float).astype(int)
    return out
