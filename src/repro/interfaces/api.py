"""The KGLiDS Interfaces: pre-defined operations of §5.

A thin Python-library facade over the LiDS graph, the union-search
index, and the trained recommenders. Every operation returns a pandas
DataFrame, the paper's interoperability contract. Keyword search
supports conjunctive (nested list) and disjunctive (top-level) terms,
as in the paper's heart-failure walkthrough.
"""
from __future__ import annotations

import pandas as pd

from repro.core import ontology as O
from repro.core.triples import TripleStore
from repro.discovery.join_discovery import find_join_paths, join_paths_frame
from repro.discovery.union_search import PAIR_COLUMNS, UnionSearchIndex


def search_tables_based_on_specific_columns(
    store: TripleStore, conditions: list
) -> pd.DataFrame:
    """Keyword search over column labels.

    ``conditions`` is a list whose elements are either a term (matched
    disjunctively) or a nested list of terms (matched conjunctively),
    e.g. ``[["heart", "disease"], "patients"]``.
    """
    cols = store.match_bgp(
        [("?col", O.RDF_TYPE, O.COLUMN), ("?col", O.RDFS_LABEL, "?label")]
    )
    names = O.decode(cols["col"], O.data_names)
    frame = pd.DataFrame(
        {
            "dataset": names.str[0],
            "table": names.str[1],
            "column": names.str[2],
            "label": cols["label"].str.lower(),
        }
    )

    def _matches(group: pd.DataFrame) -> bool:
        labels = list(group["label"])

        def found(term) -> bool:  # within one column label
            term = str(term).lower()
            return any(term in label for label in labels)

        for cond in conditions:
            if isinstance(cond, list):
                if all(found(term) for term in cond):
                    return True
            elif found(cond):
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
    recommended merged schema of §5. Each column of ``table_a`` keeps its
    most similar partner, the first by name on ties; rows run by
    similarity, then by name. The index holds every pair's rows; this is
    a lookup."""
    rows = index.pair_rows.get((table_a, table_b))
    if rows is None:
        return pd.DataFrame(columns=PAIR_COLUMNS)
    # reset_index copies: the caller may change the answer, not the index
    return index.pairs.iloc[rows].reset_index(drop=True)


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
    calls = store.match_bgp(patterns)
    calls["library"] = O.decode(calls["lib"], lambda uri: O.parts(uri)[-1])
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
        patterns.append((f"?stmt{i}", O.CALLS, O.library(fn)))
        patterns.append((f"?stmt{i}", O.IS_PART_OF, "?pipe"))
    patterns.append(("?pipe", O.HAS_VOTES, "?votes"))
    patterns.append(("?pipe", O.HAS_AUTHOR, "?author"))
    rows = store.match_bgp(patterns)
    if rows.empty:
        return pd.DataFrame(columns=["pipeline", "author", "votes"])
    rows["pipeline"] = O.decode(rows["pipe"], lambda uri: O.parts(uri)[-1])
    out = (
        rows[["pipeline", "author", "votes"]]
        .drop_duplicates("pipeline")
        .sort_values("pipeline")
        .reset_index(drop=True)
    )
    out["votes"] = out["votes"].astype(float).astype(int)
    return out
