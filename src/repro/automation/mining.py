"""Training labels mined from the pipelines in the LiDS graph (§4.2-4.4).

Every recommender learns from the same fact: which library functions
the pipelines of a dataset call, and how many votes those pipelines
have. That is one BGP query; each recommender then keeps the calls it
has labels for.
"""
from __future__ import annotations

import pandas as pd

from repro.core import ontology as O
from repro.core.triples import TripleStore


def pipeline_calls(store: TripleStore) -> pd.DataFrame:
    """(stmt, func, pipe, ds, votes, dataset) for every library call.

    SPARQL-equivalent BGP: ?stmt callsFunction ?func . ?stmt isPartOf
    ?pipe . ?pipe usesDataset ?ds . ?pipe hasVotes ?votes
    """
    rows = store.match_bgp(
        [
            ("?stmt", O.CALLS, "?func"),
            ("?stmt", O.IS_PART_OF, "?pipe"),
            ("?pipe", O.USES_DATASET, "?ds"),
            ("?pipe", O.HAS_VOTES, "?votes"),
        ]
    ).toPandas()
    rows["dataset"] = rows["ds"].str.rsplit("/", n=1).str[-1]
    return rows


def vote_weighted_labels(calls: pd.DataFrame, call_to_op: dict[str, str]) -> pd.DataFrame:
    """dataset -> the operation its pipelines call most, each call
    weighted by its pipeline's votes + 1 (ties: first op by name).

    ``call_to_op`` maps a library-function URI tail to an operation;
    calls of other functions are ignored.
    """
    prefix = O.res("library") + "/"
    rows = calls.assign(op=calls["func"].str.removeprefix(prefix).map(call_to_op))
    rows = rows.dropna(subset=["op"])
    rows["votes"] = rows["votes"].astype(float) + 1.0
    weighted = rows.groupby(["dataset", "op"])["votes"].sum().reset_index()
    best = weighted.sort_values(
        ["dataset", "votes", "op"], ascending=[True, False, True]
    ).drop_duplicates("dataset")
    return best[["dataset", "op"]].reset_index(drop=True)
