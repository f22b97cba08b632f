"""The 13 data-cleaning evaluation datasets of Table 5 (substitution S7).

The paper uses 13 datasets with missing values from an AutoML benchmark
plus UCI (hepatitis ... albert). We synthesize analogues that preserve
what the experiment measures:

* each dataset has a *cleaning trait* (the same trait vocabulary the
  pipeline corpus plants), so the KG-trained recommender can transfer;
* missingness is MCAR or MAR-on-target; the three paper rows with
  baseline F1 = 00.00 (horsecolic, creditg, albert) get missingness that
  hits every row of one class, so dropping nulls degenerates training;
* sizes ramp up and the three largest (higgs, APSFailure, albert) carry
  high-cardinality floats — which is exactly what blows up the
  HoloClean-like baseline's co-occurrence tables (OOM), while KGLiDS's
  fixed-size embeddings don't care;
* cleveland_heart_disease is 5-class with weak signal (its paper F1 is
  ~0.27 for every system).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd


@dataclass(frozen=True)
class CleaningDatasetSpec:
    id: int
    name: str
    kind: str  # cleaning trait (matches pipelines_corpus kinds)
    rows: int
    n_classes: int = 2
    signal: float = 1.6  # label separability
    missing_rate: float = 0.15
    mar_on_target: bool = False  # True -> drop-nulls degenerates
    high_cardinality: bool = False  # True -> HoloClean-like OOM


SPECS: list[CleaningDatasetSpec] = [
    CleaningDatasetSpec(1, "hepatitis", "smooth", 160),
    CleaningDatasetSpec(2, "horsecolic", "categorical", 300, mar_on_target=True),
    CleaningDatasetSpec(3, "housevotes84", "categorical", 435, signal=3.0),
    CleaningDatasetSpec(4, "breastcancerwisconsin", "correlated", 560, signal=3.0),
    CleaningDatasetSpec(5, "credit", "plain", 690, signal=2.2),
    CleaningDatasetSpec(6, "cleveland_heart_disease", "clustered", 800,
                        n_classes=5, signal=0.35),
    CleaningDatasetSpec(7, "titanic", "categorical", 900, signal=1.8),
    CleaningDatasetSpec(8, "creditg", "plain", 1000, mar_on_target=True),
    CleaningDatasetSpec(9, "jm1", "correlated", 2000, signal=1.0),
    CleaningDatasetSpec(10, "adult", "plain", 4000, signal=1.6),
    CleaningDatasetSpec(11, "higgs", "plain", 8000, signal=1.2,
                        high_cardinality=True),
    CleaningDatasetSpec(12, "APSFailure", "correlated", 12000, signal=2.4,
                        high_cardinality=True),
    CleaningDatasetSpec(13, "albert", "clustered", 16000, signal=1.0,
                        mar_on_target=True, high_cardinality=True),
]


def build_dataset(spec: CleaningDatasetSpec, seed: int = 0) -> pd.DataFrame:
    """Generate the dataset; last column is the classification target."""
    from .traits import trait_numeric_columns

    rng = np.random.default_rng(seed + spec.id * 1000)
    n, k = spec.rows, 5
    cols = trait_numeric_columns(rng, spec.kind, n, k)
    decimals = 6 if spec.high_cardinality else 1
    for i in range(k):
        cols[f"f{i}"] = np.round(
            cols[f"f{i}"]
            + (rng.normal(0, 1e-2, n) if spec.high_cardinality else 0.0),
            decimals,
        )
    if spec.kind == "categorical":
        for i in range(3):
            cols[f"c{i}"] = rng.choice(
                ["single", "married", "divorced", "widowed"], n,
                p=[0.45, 0.35, 0.15, 0.05],
            )
    # planted label over standardized features
    X = np.column_stack([cols[f"f{i}"] for i in range(k)])
    Z = (X - X.mean(0)) / (X.std(0) + 1e-9)
    w = rng.normal(0, spec.signal, k)
    logits = Z @ w + rng.normal(0, 1.0, n)
    if spec.n_classes == 2:
        y = (logits > np.median(logits)).astype(int)
    else:
        qs = np.quantile(logits, np.linspace(0, 1, spec.n_classes + 1)[1:-1])
        y = np.digitize(logits, qs)
    pdf = pd.DataFrame(cols)
    pdf["target"] = y
    # categorical columns correlate with the label so their imputation matters
    if spec.kind == "categorical":
        flip = rng.random(n) < 0.25
        pdf["c0"] = np.where(
            flip, pdf["c0"], np.where(y % 2 == 0, "single", "married")
        )
    # inject missingness into the first two features (and c0 if present)
    targets = ["f0", "f1"] + (["c0"] if spec.kind == "categorical" else [])
    for c in targets:
        if spec.mar_on_target:
            # every row of class 0 loses this value -> dropna removes the class
            mask = (y == 0) | (rng.random(n) < spec.missing_rate / 2)
        else:
            mask = rng.random(n) < spec.missing_rate
        col = pdf[c].astype("object" if pdf[c].dtype == object else "float64")
        col[mask] = np.nan
        pdf[c] = col
    return pdf


# Paper Table 5 numbers, for EXPERIMENTS.md side-by-side output.
PAPER_TABLE5 = {
    "hepatitis": (69.76, 67.78, 69.35),
    "horsecolic": (0.00, 82.28, 85.38),
    "housevotes84": (96.10, 96.64, 95.89),
    "breastcancerwisconsin": (97.43, 95.93, 96.85),
    "credit": (88.11, 86.95, 88.17),
    "cleveland_heart_disease": (28.31, 27.51, 25.50),
    "titanic": (70.68, 81.89, 82.63),
    "creditg": (0.00, 65.63, 66.63),
    "jm1": (61.59, 60.55, 61.55),
    "adult": (79.15, 78.49, 79.46),
    "higgs": (71.70, None, 71.73),  # None = HoloClean OOM
    "APSFailure": (91.49, None, 90.89),
    "albert": (0.00, None, 66.70),
}
