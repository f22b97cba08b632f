"""Data Profiling — Algorithm 2 — as a Spark DataFrame job.

Tables are exploded into a long ``columns`` DataFrame (one row per
column, with its pickled value sample), then each column is profiled in
parallel with ``mapInPandas`` by ``profile_column``: fine-grained type
inference, statistics, and the averaged CoLR embedding over a 10 %
sample (min 1000 values).
The output is a ``profiles`` DataFrame — the distributed equivalent of
the per-column JSON documents the paper dumps.
"""
from __future__ import annotations

import pickle
from collections.abc import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

from . import colr
from .type_inference import infer_fine_grained_type
from .types import FineGrainedType
from .word_embeddings import label_embedding

COLUMNS_SCHEMA = T.StructType(
    [
        T.StructField("dataset", T.StringType(), False),
        T.StructField("table", T.StringType(), False),
        T.StructField("column", T.StringType(), False),
        T.StructField("sample", T.BinaryType(), False),
        T.StructField("n_rows", T.LongType(), False),
        T.StructField("n_nulls", T.LongType(), False),
        T.StructField("n_distinct", T.LongType(), False),
    ]
)

PROFILE_SCHEMA = T.StructType(
    [
        T.StructField("dataset", T.StringType(), False),
        T.StructField("table", T.StringType(), False),
        T.StructField("column", T.StringType(), False),
        T.StructField("fgt", T.StringType(), False),
        T.StructField("n_rows", T.LongType(), False),
        T.StructField("n_nulls", T.LongType(), False),
        T.StructField("n_distinct", T.LongType(), False),
        T.StructField("true_ratio", T.DoubleType(), True),
        T.StructField("mean", T.DoubleType(), True),
        T.StructField("std", T.DoubleType(), True),
        T.StructField("embedding", T.ArrayType(T.DoubleType()), False),
        T.StructField("label_embedding", T.ArrayType(T.DoubleType()), False),
    ]
)


def profile_column(
    sample: pd.Series,
) -> tuple[FineGrainedType, float | None, float | None, float | None, np.ndarray]:
    """Algorithm 2 over one column's sample (``colr.sample_values``):
    fine-grained type, true ratio (booleans), mean and std (numbers) and
    the averaged CoLR embedding. Spark workers and the driver-side
    automation path (§4.1) both profile columns with this function."""
    fgt = infer_fine_grained_type(sample)
    true_ratio = mean = std = None
    if fgt is FineGrainedType.BOOLEAN:
        true_ratio = float(colr._bool_features(sample.to_numpy()).mean())
    if fgt in (FineGrainedType.INT, FineGrainedType.FLOAT):
        num = pd.to_numeric(sample, errors="coerce").dropna()
        if len(num):
            mean, std = float(num.mean()), float(num.std() or 0.0)
    return fgt, true_ratio, mean, std, colr.embed_sample(sample, fgt)


def columns_dataframe(
    spark: SparkSession, tables: dict[str, pd.DataFrame], dataset: str
) -> DataFrame:
    """One dataset's ``tables`` as the long per-column DataFrame."""
    return _columns_frame(spark, {dataset: tables})


def _columns_frame(
    spark: SparkSession, tables_by_dataset: dict[str, dict[str, pd.DataFrame]]
) -> DataFrame:
    """Explode every dataset's tables into one long per-column DataFrame.

    The value sample (Algorithm 2's ``col.sample(max(0.1|col|, 1000))``)
    is taken here so executors never see full columns — the profiler's
    memory is bounded per column regardless of table size. It is shipped
    pickled, so workers profile it in the column's own dtype. Full-column
    statistics (null/distinct counts) are computed before sampling.
    """
    rows = [
        {
            "dataset": dataset,
            "table": tname,
            "column": str(cname),
            "sample": pickle.dumps(colr.sample_values(s)),
            "n_rows": int(len(s)),
            "n_nulls": int(s.isna().sum()),
            "n_distinct": int(s.nunique()),
        }
        for dataset, tables in tables_by_dataset.items()
        for tname, pdf in tables.items()
        for cname, s in pdf.items()
    ]
    n_part = max(8, min(64, len(rows) // 32 or 1))
    return spark.createDataFrame(rows, COLUMNS_SCHEMA).repartition(n_part)


def _profile_partition(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
    for batch in batches:
        out = []
        for row in batch.itertuples(index=False):
            fgt, true_ratio, mean, std, emb = profile_column(pickle.loads(row.sample))
            out.append(
                {
                    "dataset": row.dataset,
                    "table": row.table,
                    "column": row.column,
                    "fgt": fgt.value,
                    "n_rows": row.n_rows,
                    "n_nulls": row.n_nulls,
                    "n_distinct": row.n_distinct,
                    "true_ratio": true_ratio,
                    "mean": mean,
                    "std": std,
                    "embedding": emb.astype("float64").tolist(),
                    "label_embedding": label_embedding(row.column)
                    .astype("float64")
                    .tolist(),
                }
            )
        yield pd.DataFrame(out, columns=[f.name for f in PROFILE_SCHEMA.fields])


def profile_columns(columns_df: DataFrame) -> DataFrame:
    """Algorithm 2's parallel ``profile_column`` over the columns DF."""
    return columns_df.mapInPandas(_profile_partition, PROFILE_SCHEMA)


def profile_tables(
    spark: SparkSession, tables_by_dataset: dict[str, dict[str, pd.DataFrame]]
) -> DataFrame:
    """Algorithm 2 over ``{dataset: {table: frame}}`` in one columns frame."""
    return profile_columns(_columns_frame(spark, tables_by_dataset))


def type_breakdown(profiles: DataFrame) -> pd.DataFrame:
    """Column count per fine-grained type — the Table-1 breakdown rows."""
    pdf = profiles.groupBy("fgt").count().toPandas()
    order = [t.value for t in FineGrainedType]
    pdf["fgt"] = pd.Categorical(pdf["fgt"], categories=order, ordered=True)
    return pdf.sort_values("fgt").reset_index(drop=True)
