"""End-to-end harnesses for the Table-5 and Table-6 experiments.

Shared by ``tests/`` and ``benchmarks/``:

1. generate the Kaggle-style corpus, abstract it into the LiDS graph
   (Algorithm 1, Spark), and train the GNN recommenders from KG queries;
2. for each unseen evaluation dataset, treat it with every system
   (baseline / HoloClean-like / KGLiDS for cleaning; baseline /
   AutoLearn-like / KGLiDS for transformation) and score a downstream
   model with cross-validation — the paper's protocol (§6.3).
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.baselines import autolearn_like, holoclean_like
from repro.core.pipeline_abstraction import SCRIPTS_COLUMNS, abstract_corpus
from repro.core.triples import TripleStore
from repro.datasets import cleaning_datasets, transformation_datasets
from repro.pipelines_corpus.generator import make_corpus

from . import cleaning as cl
from . import transformation as tr
from .forest import (
    LogisticRegressionClassifier,
    RandomForestClassifier,
    cross_val_score,
    accuracy,
    f1_weighted,
)


# --------------------------------------------------------------------------
# shared: corpus -> KG -> recommenders
# --------------------------------------------------------------------------
@dataclass
class TrainedPlatform:
    store: TripleStore
    cleaning: cl.CleaningRecommender
    transformation: tr.TransformationRecommender


def train_platform(
    spark: SparkSession,
    *,
    n_datasets: int = 30,
    pipelines_per_dataset: int = 8,
    rows: int = 150,
    seed: int = 0,
) -> TrainedPlatform:
    """Corpus -> Algorithm-1 KG -> GNN recommenders, end to end."""
    datasets, scripts = make_corpus(
        n_datasets=n_datasets, pipelines_per_dataset=pipelines_per_dataset,
        rows=rows, seed=seed,
    )
    scripts_df = spark.createDataFrame(scripts[SCRIPTS_COLUMNS])
    store = abstract_corpus(spark, scripts_df)
    store.persist()
    tables = {d.name: d.table for d in datasets if d.table is not None}
    cleaning = cl.CleaningRecommender().fit_from_kg(store, tables)
    transformation = tr.TransformationRecommender().fit_from_kg(store, tables)
    return TrainedPlatform(store=store, cleaning=cleaning,
                           transformation=transformation)


def _encode(pdf: pd.DataFrame, target_col: str = "target"):
    """Features matrix (categoricals factorized) + labels."""
    X_cols = []
    for c in pdf.columns:
        if c == target_col:
            continue
        if pd.api.types.is_numeric_dtype(pdf[c]):
            X_cols.append(pdf[c].to_numpy(dtype="float64"))
        else:
            codes, _ = pd.factorize(pdf[c], use_na_sentinel=True)
            X_cols.append(codes.astype("float64"))
    X = np.column_stack(X_cols) if X_cols else np.zeros((len(pdf), 1))
    y = pdf[target_col].to_numpy()
    return np.nan_to_num(X), y


# --------------------------------------------------------------------------
# Table 5: data cleaning
# --------------------------------------------------------------------------
def run_cleaning_experiment(
    platform: TrainedPlatform,
    specs: list[cleaning_datasets.CleaningDatasetSpec] | None = None,
    *,
    folds: int = 3,
    seed: int = 1,
    forest_trees: int = 20,
) -> pd.DataFrame:
    """Baseline vs HoloClean-like vs KGLiDS F1 per dataset (Table 5)."""
    specs = specs or cleaning_datasets.SPECS
    rows = []
    for spec in specs:
        pdf = cleaning_datasets.build_dataset(spec, seed)

        def score(frame: pd.DataFrame) -> float:
            X, y = _encode(frame)
            return 100.0 * cross_val_score(
                lambda: RandomForestClassifier(
                    n_estimators=forest_trees, max_depth=10, random_state=0
                ),
                X, y, k=folds, metric=f1_weighted,
            )

        t0 = time.perf_counter()
        base_f1 = score(cl.baseline_drop_nulls(pdf))
        t_base = time.perf_counter() - t0

        t0 = time.perf_counter()
        try:
            hc_clean, _ = holoclean_like.clean(pdf)
            hc_f1: float | None = score(hc_clean)
        except holoclean_like.HoloCleanOOM:
            hc_f1 = None
        t_hc = time.perf_counter() - t0

        t0 = time.perf_counter()
        op = platform.cleaning.recommend_cleaning_operations(
            pdf.drop(columns=["target"])
        )
        kg_clean = cl.apply_cleaning_operations(op, pdf)
        kg_f1 = score(kg_clean)
        t_kg = time.perf_counter() - t0

        rows.append(
            {
                "id": spec.id,
                "dataset": spec.name,
                "baseline_f1": round(base_f1, 2),
                "holoclean_f1": None if hc_f1 is None else round(hc_f1, 2),
                "kglids_f1": round(kg_f1, 2),
                "kglids_op": op,
                "best_op": cleaning_datasets_best_op(spec),
                "t_baseline_s": round(t_base, 2),
                "t_holoclean_s": round(t_hc, 2),
                "t_kglids_s": round(t_kg, 2),
            }
        )
    return pd.DataFrame(rows)


def cleaning_datasets_best_op(spec: cleaning_datasets.CleaningDatasetSpec) -> str:
    from repro.pipelines_corpus.generator import BEST_CLEANING_OF_KIND

    return BEST_CLEANING_OF_KIND[spec.kind]


# --------------------------------------------------------------------------
# Table 6: data transformation
# --------------------------------------------------------------------------
def run_transformation_experiment(
    platform: TrainedPlatform,
    specs: list[transformation_datasets.TransformDatasetSpec] | None = None,
    *,
    folds: int = 3,
    seed: int = 1,
    autolearn_time_budget_s: float = 8.0,
    autolearn_memory_budget: int = 700_000_000,
) -> pd.DataFrame:
    """Baseline vs AutoLearn-like vs KGLiDS accuracy (Table 6).

    The evaluation model is multinomial logistic regression (S9):
    scale-sensitive, so scaler/unary-transform quality registers.
    """
    specs = specs or transformation_datasets.SPECS
    rows = []
    for spec in specs:
        pdf, _truth = transformation_datasets.build_dataset(spec, seed)

        def score(frame: pd.DataFrame) -> float:
            X, y = _encode(frame)
            return 100.0 * cross_val_score(
                lambda: LogisticRegressionClassifier(epochs=200),
                X, y, k=folds, metric=accuracy,
            )

        t0 = time.perf_counter()
        base_acc = score(pdf)
        t_base = time.perf_counter() - t0

        t0 = time.perf_counter()
        al_status = "ok"
        try:
            al_frame, _ = autolearn_like.generate_features(
                pdf, time_budget_s=autolearn_time_budget_s,
                memory_budget_bytes=autolearn_memory_budget,
            )
            al_acc: float | None = score(al_frame)
        except autolearn_like.AutoLearnTimeout:
            al_acc, al_status = None, "TO"
        except autolearn_like.AutoLearnOOM:
            al_acc, al_status = None, "OOM"
        t_al = time.perf_counter() - t0

        t0 = time.perf_counter()
        scaler, col_ops = platform.transformation.recommend_transformations(
            pdf.drop(columns=["target"])
        )
        kg_frame = tr.apply_transformations(scaler, col_ops, pdf)
        kg_acc = score(kg_frame)
        t_kg = time.perf_counter() - t0

        rows.append(
            {
                "id": spec.id,
                "dataset": spec.name,
                "baseline_acc": round(base_acc, 2),
                "autolearn_acc": None if al_acc is None else round(al_acc, 2),
                "autolearn_status": al_status,
                "kglids_acc": round(kg_acc, 2),
                "kglids_scaler": scaler,
                "t_baseline_s": round(t_base, 2),
                "t_autolearn_s": round(t_al, 2),
                "t_kglids_s": round(t_kg, 2),
            }
        )
    return pd.DataFrame(rows)
