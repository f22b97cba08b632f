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


def pipeline_calls(store: TripleStore, dataset: str | None = None) -> pd.DataFrame:
    """(stmt, func, pipe, ds, votes, dataset) for every library call; with
    ``dataset`` given, ?ds is bound to its URI and only the calls of its
    pipelines come back, without the ``ds`` column.

    SPARQL-equivalent BGP: ?stmt callsFunction ?func . ?stmt isPartOf
    ?pipe . ?pipe usesDataset ?ds . ?pipe hasVotes ?votes
    """
    rows = store.match_bgp(
        [
            ("?stmt", O.CALLS, "?func"),
            ("?stmt", O.IS_PART_OF, "?pipe"),
            ("?pipe", O.USES_DATASET, "?ds" if dataset is None else O.data_node(dataset)),
            ("?pipe", O.HAS_VOTES, "?votes"),
        ]
    )
    rows["dataset"] = (O.decode(rows["ds"], lambda uri: O.data_names(uri)[0])
                       if dataset is None else dataset)
    return rows


def vote_weighted_labels(calls: pd.DataFrame, call_to_op: dict[str, str]) -> pd.DataFrame:
    """dataset -> the operation its pipelines call most, each call
    weighted by its pipeline's votes + 1 (ties: first op by name).

    ``call_to_op`` maps a dotted library-function name
    (``"sklearn.impute.KNNImputer"``) to an operation; calls of other
    functions are ignored.
    """
    op_of = {O.library(name): op for name, op in call_to_op.items()}
    rows = calls.assign(op=calls["func"].map(op_of))
    rows = rows.dropna(subset=["op"])
    rows["votes"] = rows["votes"].astype(float) + 1.0
    weighted = rows.groupby(["dataset", "op"])["votes"].sum().reset_index()
    best = weighted.sort_values(
        ["dataset", "votes", "op"], ascending=[True, False, True]
    ).drop_duplicates("dataset")
    return best[["dataset", "op"]].reset_index(drop=True)
