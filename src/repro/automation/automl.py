"""AutoML support on the LiDS graph (§4.4, §6.3.3 / Figure 9 mechanism).

KGLiDS improves KGpip by (1) skipping graph filtration — the LiDS graph
holds only data-science semantics — and (2) recommending the classifier
and *initial hyperparameters* mined from the pipelines of the most
similar dataset, pruning the hyperparameter search space. Figure 9 is
out of scope (figures are not reproduced), but the mechanism is
implemented and unit-tested here: classifier + hyperparameter
recommendation via KG queries over function-call parameter triples.
"""
from __future__ import annotations

import pandas as pd

from repro.core import ontology as O
from repro.core.triples import TripleStore

from .mining import pipeline_calls

_CLASSIFIER_TAILS = (
    "RandomForestClassifier", "LogisticRegression", "XGBClassifier", "SVC",
    "GradientBoostingClassifier", "KNeighborsClassifier",
    "DecisionTreeClassifier",
)


def _classifier_calls(store: TripleStore) -> pd.DataFrame:
    """(dataset, pipeline, classifier, votes) for every estimator call."""
    rows = pipeline_calls(store)
    rows["classifier"] = rows["func"].str.rsplit("/", n=1).str[-1]
    rows = rows[rows["classifier"].isin(_CLASSIFIER_TAILS)].copy()
    rows["votes"] = rows["votes"].astype(float)
    return rows[["dataset", "pipe", "stmt", "classifier", "votes"]]


def recommend_ml_models(
    store: TripleStore, dataset: str, task: str = "classification"
) -> pd.DataFrame:
    """Classifiers used on ``dataset``'s pipelines, ranked by votes."""
    calls = _classifier_calls(store)
    mine = calls[calls["dataset"] == dataset]
    out = (
        mine.groupby("classifier")
        .agg(n_pipelines=("pipe", "nunique"), votes=("votes", "sum"))
        .reset_index()
        .sort_values(["votes", "classifier"], ascending=[False, True])
        .reset_index(drop=True)
    )
    out["task"] = task
    return out


def recommend_hyperparameters(
    store: TripleStore, dataset: str, classifier: str
) -> pd.DataFrame:
    """Most common (hyperparameter, value) pairs for ``classifier`` among
    the top-voted pipelines of ``dataset`` — the search-space pruner.

    Possible because the LiDS graph materializes implicit and default
    parameter names from documentation analysis; a GraphGen4Code-based
    KG has no such triples (§4.4).
    """
    calls = _classifier_calls(store)
    mine = calls[(calls["dataset"] == dataset) & (calls["classifier"] == classifier)]
    if mine.empty:
        return pd.DataFrame(columns=["hyperparameter", "value", "weight"])
    params = store.match_bgp(
        [("?stmt", O.HAS_PARAMETER, "?param")]
    ).toPandas()
    merged = mine.merge(params, on="stmt")
    split = merged["param"].str.split("=", n=1, expand=True)
    merged["hyperparameter"] = split[0]
    merged["value"] = split[1]
    best = (
        merged.groupby(["hyperparameter", "value"])["votes"]
        .sum()
        .reset_index(name="weight")
        .sort_values(["hyperparameter", "weight", "value"],
                     ascending=[True, False, True])
        .drop_duplicates("hyperparameter")
        .reset_index(drop=True)
    )
    return best[["hyperparameter", "value", "weight"]]
