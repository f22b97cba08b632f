"""Synthetic Kaggle-style pipeline corpus (substitution S6).

The paper abstracts 13,800 real Kaggle pipeline scripts over the top
1000 Kaggle datasets. We generate the closest synthetic equivalent: for
each synthetic "Kaggle dataset" (a small table with *planted traits*), a
set of Figure-3-style Python scripts that read it, clean it, transform
it, and fit a classifier — with metadata (author, votes, score, task).

The planted traits drive which cleaning/scaling/unary operations are
*near-optimal* for the dataset, and most (not all) synthetic data
scientists pick the near-optimal ones — higher-voted pipelines more so.
That gives the KG the signal the paper's GNN recommenders learn from
(§4.2-4.3), with label noise, exactly like crowd-sourced pipelines.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

# trait kind -> near-optimal cleaning operation (see automation/cleaning.py)
BEST_CLEANING_OF_KIND = {
    "smooth": "Interpolate",
    "clustered": "KNNImputer",
    "correlated": "IterativeImputer",
    "categorical": "SimpleImputer",
    "plain": "Fillna",
}
CLEANING_OPS = sorted(set(BEST_CLEANING_OF_KIND.values()))

# numeric shape -> near-optimal table scaler
BEST_SCALER_OF_SHAPE = {
    "outliers": "RobustScaler",
    "uniform": "MinMaxScaler",
    "gaussian": "StandardScaler",
}
SCALERS = sorted(set(BEST_SCALER_OF_SHAPE.values()))

CLASSIFIERS = [
    ("sklearn.ensemble.RandomForestClassifier", "RandomForestClassifier",
     {"n_estimators": [50, 100, 200], "max_depth": [5, 10, 20]}),
    ("sklearn.linear_model.LogisticRegression", "LogisticRegression",
     {"C": [0.1, 1.0, 10.0], "max_iter": [100, 500]}),
    ("xgboost.XGBClassifier", "XGBClassifier",
     {"n_estimators": [50, 100], "learning_rate": [0.05, 0.1, 0.3]}),
    ("sklearn.svm.SVC", "SVC", {"C": [0.5, 1.0, 2.0], "kernel": ["'rbf'", "'linear'"]}),
]


@dataclass
class CorpusDataset:
    """A synthetic Kaggle dataset with planted traits and ground truth."""

    name: str
    kind: str  # cleaning trait
    shape: str  # numeric-scale trait
    table: pd.DataFrame | None
    best_cleaning: str
    best_scaler: str
    col_transforms: dict[str, str] = field(default_factory=dict)
    task: str = "classification"


def _dataset_table(
    rng: np.random.Generator, kind: str, shape: str, rows: int
) -> tuple[pd.DataFrame, dict[str, str]]:
    """Generate the dataset's table; traits control value distributions.

    Cleaning-trait columns come from the shared ``datasets.traits``
    generators (so the KG recommender transfers to the Table-5 eval
    datasets); two extra columns carry the unary-transform traits (one
    exp-warped -> log, one squared -> sqrt), and the ``shape`` trait
    controls magnitudes for the scaler model.
    """
    from repro.datasets.traits import trait_numeric_columns

    n_num = int(rng.integers(3, 6))
    cols = {
        name: pd.Series(vals)
        for name, vals in trait_numeric_columns(rng, kind, rows, n_num).items()
    }
    transforms: dict[str, str] = {f"f{i}": "none" for i in range(n_num)}
    scale = {"outliers": 40.0, "uniform": 300.0, "gaussian": 1.0}[shape]
    z = rng.normal(0, 1, rows)
    cols[f"f{n_num}"] = pd.Series(np.round(np.exp(1.5 * z) * scale, 4))
    transforms[f"f{n_num}"] = "log"
    z2 = rng.uniform(-1.5, 1.5, rows) if shape == "uniform" else rng.normal(0, 1, rows)
    cols[f"f{n_num+1}"] = pd.Series(np.round(np.square(z2 + 3.0) * scale, 4))
    transforms[f"f{n_num+1}"] = "sqrt"
    if shape == "outliers":
        spike = rng.random(rows) < 0.04
        cols["f0"] = pd.Series(np.where(spike, cols["f0"] * 25, cols["f0"]))
    n_num += 2
    n_cat = int(rng.integers(3, 5)) if kind == "categorical" else int(rng.integers(0, 2))
    for i in range(n_cat):
        cols[f"c{i}"] = pd.Series(
            rng.choice(["red", "green", "blue", "black"], rows,
                       p=[0.55, 0.25, 0.15, 0.05])
        )
    # planted label: depends on the numeric features (so cleaning quality
    # genuinely moves downstream model quality)
    num_mat = np.column_stack([cols[f"f{i}"] for i in range(n_num)])
    z = (num_mat - num_mat.mean(0)) / (num_mat.std(0) + 1e-9)
    logits = z @ rng.normal(0, 1.2, n_num)
    cols["target"] = pd.Series((logits > np.median(logits)).astype(int))
    pdf = pd.DataFrame(cols)
    # inject missingness into the first numeric columns
    miss_cols = [f"f{i}" for i in range(min(2, n_num))] + (
        ["c0"] if n_cat else []
    )
    for c in miss_cols:
        mask = rng.random(rows) < 0.15
        pdf.loc[mask, c] = np.nan
    return pdf, transforms


def _script(
    rng: np.random.Generator,
    dataset: CorpusDataset,
    cleaning: str,
    scaler: str,
    clf_import: str,
    clf_name: str,
    params: dict[str, list],
    cols: list[str],
) -> str:
    """Render one Figure-3-style pipeline script."""
    chosen = {k: rng.choice(v) for k, v in params.items()}
    param_str = ", ".join(f"{k}={v}" for k, v in chosen.items())
    module, cls = clf_import.rsplit(".", 1)
    col_a = cols[0] if cols else "f0"
    cleaning_code = {
        "Fillna": f"df['{col_a}'] = df['{col_a}'].fillna(0)",
        "Interpolate": f"df['{col_a}'] = df['{col_a}'].interpolate()",
        "SimpleImputer": (
            "imputer = SimpleImputer(strategy='most_frequent')\n"
            f"df['{col_a}'] = imputer.fit_transform(df['{col_a}'])"
        ),
        "KNNImputer": (
            "imputer = KNNImputer(n_neighbors=5)\n"
            f"df['{col_a}'] = imputer.fit_transform(df['{col_a}'])"
        ),
        "IterativeImputer": (
            "imputer = IterativeImputer(max_iter=10)\n"
            f"df['{col_a}'] = imputer.fit_transform(df['{col_a}'])"
        ),
    }[cleaning]
    unary_lines = []
    for c, t in dataset.col_transforms.items():
        if t == "log" and rng.random() < 0.8:
            unary_lines.append(f"df['{c}'] = np.log(df['{c}'])")
        elif t == "sqrt" and rng.random() < 0.8:
            unary_lines.append(f"df['{c}'] = np.sqrt(df['{c}'])")
    unary = "\n".join(unary_lines)
    return f"""import pandas as pd
import numpy as np
from sklearn.impute import SimpleImputer, KNNImputer, IterativeImputer
from sklearn.preprocessing import {scaler}
from sklearn.model_selection import train_test_split
from {module} import {cls}
from sklearn.metrics import f1_score

df = pd.read_csv('{dataset.name}/{dataset.name}.csv')
X, y = df.drop('target', axis=1), df['target']
{cleaning_code}
scaler = {scaler}()
X = scaler.fit_transform(X)
{unary}
X_train, X_test, y_train, y_test = train_test_split(X, y, 0.2)
clf = {clf_name}({param_str})
clf.fit(X_train, y_train)
print(f1_score(y_test, clf.predict(X_test)))
"""


def make_corpus(
    *,
    n_datasets: int = 20,
    pipelines_per_dataset: int = 10,
    rows: int = 200,
    with_tables: bool = True,
    seed: int = 0,
) -> tuple[list[CorpusDataset], pd.DataFrame]:
    """Build the corpus: datasets (optionally with tables) + scripts DF.

    Scripts DF columns match ``pipeline_abstraction.SCRIPTS_COLUMNS``.
    """
    rng = np.random.default_rng(seed)
    kinds = sorted(BEST_CLEANING_OF_KIND)
    shapes = sorted(BEST_SCALER_OF_SHAPE)
    datasets: list[CorpusDataset] = []
    script_rows = []
    for d in range(n_datasets):
        kind = kinds[d % len(kinds)]
        shape = shapes[(d // len(kinds)) % len(shapes)]
        name = f"kgds_{d:04d}"
        table, transforms = (
            _dataset_table(rng, kind, shape, rows) if with_tables else (None, {})
        )
        ds = CorpusDataset(
            name=name,
            kind=kind,
            shape=shape,
            table=table,
            best_cleaning=BEST_CLEANING_OF_KIND[kind],
            best_scaler=BEST_SCALER_OF_SHAPE[shape],
            col_transforms=transforms,
        )
        datasets.append(ds)
        cols = list(table.columns[:2]) if table is not None else ["f0"]
        for p in range(pipelines_per_dataset):
            follows_best = rng.random() < 0.75
            cleaning = (
                ds.best_cleaning if follows_best else str(rng.choice(CLEANING_OPS))
            )
            scaler = ds.best_scaler if rng.random() < 0.75 else str(rng.choice(SCALERS))
            clf_import, clf_name, params = CLASSIFIERS[
                int(rng.integers(0, len(CLASSIFIERS)))
            ]
            votes = int(rng.integers(20, 100)) if follows_best else int(rng.integers(0, 25))
            script_rows.append(
                {
                    "pipeline_id": f"{name}_p{p:03d}",
                    "script": _script(
                        rng, ds, cleaning, scaler, clf_import, clf_name, params, cols
                    ),
                    "dataset": name,
                    "author": f"user_{int(rng.integers(0, 500)):03d}",
                    "votes": votes,
                    "score": round(float(rng.uniform(0.6, 0.95)), 3),
                    "task": ds.task,
                }
            )
    return datasets, pd.DataFrame(script_rows)
