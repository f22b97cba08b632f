"""Algorithm 2 is one ``profile_column`` over one sample, on Spark and on
the driver alike.

The references below are the two paths the profiler had before: the
Spark worker path, which shipped ``Series.sample`` values as strings and
parsed them back by dtype, and the driver's ``column_embeddings``, which
inferred the type on the full column. Columns of at most 1,000 non-null
values must profile exactly as they did then.
"""
from collections.abc import Iterator

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import types as T

from repro.automation.embeddings import column_embeddings
from repro.core import colr
from repro.core import profiler
from repro.core.profiler import PROFILE_SCHEMA, profile_tables
from repro.core.type_inference import infer_fine_grained_type
from repro.core.types import FineGrainedType
from repro.core.word_embeddings import label_embedding
from repro.datasets import cleaning_datasets, transformation_datasets
from repro.lakegen.lake import build_lake

from .test_dataset_graph_once import LAKE


# --------------------------------------------------------------------------
# references: the worker path with a string round-trip, and the driver path
# --------------------------------------------------------------------------
_REF_TRUTHY = {"true", "t", "yes", "y", "1", "1.0"}

_REF_COLUMNS_SCHEMA = T.StructType(
    [
        T.StructField("dataset", T.StringType(), False),
        T.StructField("table", T.StringType(), False),
        T.StructField("column", T.StringType(), False),
        T.StructField("dtype", T.StringType(), False),
        T.StructField("values", T.ArrayType(T.StringType(), True), False),
        T.StructField("n_rows", T.LongType(), False),
        T.StructField("n_nulls", T.LongType(), False),
        T.StructField("n_distinct", T.LongType(), False),
    ]
)


def _ref_columns_dataframe(spark, tables, dataset):
    rows = []
    for tname, pdf in tables.items():
        for cname in pdf.columns:
            s = pdf[cname]
            non_null = s.dropna()
            k = colr.sample_size(len(non_null))
            sample = (
                non_null.sample(k, random_state=0) if k < len(non_null) else non_null
            )
            rows.append(
                {
                    "dataset": dataset,
                    "table": tname,
                    "column": str(cname),
                    "dtype": str(s.dtype),
                    "values": [str(v) for v in sample],
                    "n_rows": int(len(s)),
                    "n_nulls": int(s.isna().sum()),
                    "n_distinct": int(non_null.nunique()),
                }
            )
    n_part = max(8, min(64, len(rows) // 32 or 1))
    return spark.createDataFrame(rows, _REF_COLUMNS_SCHEMA).repartition(n_part)


def _ref_series_from(values, dtype):
    s = pd.Series(values, dtype="object")
    if dtype.startswith(("int", "Int", "uint")):
        return pd.to_numeric(s, errors="coerce").astype("Int64")
    if dtype.startswith(("float", "Float")):
        return pd.to_numeric(s, errors="coerce")
    if dtype.startswith("bool"):
        return s.str.lower().isin(_REF_TRUTHY)
    if dtype.startswith("datetime"):
        return pd.to_datetime(s, errors="coerce", format="mixed")
    return s


def _ref_profile_partition(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
    for batch in batches:
        out = []
        for row in batch.itertuples(index=False):
            s = _ref_series_from(list(row.values), row.dtype)
            fgt = infer_fine_grained_type(s)
            vals = s.dropna().to_numpy()
            true_ratio = mean = std = None
            if fgt is FineGrainedType.BOOLEAN:
                sv = pd.Series(vals).astype(str).str.strip().str.lower()
                true_ratio = float(sv.isin(_REF_TRUTHY).mean()) if len(sv) else 0.0
            if fgt in (FineGrainedType.INT, FineGrainedType.FLOAT):
                num = pd.to_numeric(pd.Series(vals), errors="coerce").dropna()
                if len(num):
                    mean, std = float(num.mean()), float(num.std() or 0.0)
            emb = colr.embed_sample(vals, fgt)
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


def _ref_column_embeddings(pdf):
    out = {}
    for col in pdf.columns:
        s = pdf[col]
        fgt = infer_fine_grained_type(s)
        out[str(col)] = (fgt, colr.embed_values(s.dropna().to_numpy(), fgt))
    return out


def _by_column(profiles):
    return {(r["table"], r["column"]): r.asDict() for r in profiles.collect()}


# --------------------------------------------------------------------------
# one function: Spark equals the driver
# --------------------------------------------------------------------------
@pytest.fixture(scope="module")
def mixed_tables():
    g = np.random.default_rng(3)
    n = 200
    age = g.integers(18, 90, n).astype("float64")
    age[::7] = np.nan
    small = pd.DataFrame(
        {
            "age": age,
            "income": g.lognormal(10, 1, n).round(2),
            "active": g.choice(["true", "false", "True"], n),
            "paid": [None if i % 9 == 0 else bool(v) for i, v in enumerate(g.integers(0, 2, n))],
            "joined": pd.to_datetime("2015-01-01")
            + pd.to_timedelta(g.integers(0, 2000, n), unit="D"),
            "name": g.choice(["John", "Mary", "Robert", "Linda", "David"], n),
            "review": g.choice(
                ["this product is really good and cheap",
                 "the delivery was slow but the item works"], n
            ),
            "postal code": g.choice(["H3G 1M8", "K1A 0B1", "V5K 0A1"], n),
        }
    )
    big = pd.DataFrame({"reading": g.normal(50, 10, 20_000).round(3)})
    return {"small": small, "big": big}


def test_mixed_lake_covers_every_type(mixed_tables):
    fgts = {
        infer_fine_grained_type(pdf[c])
        for pdf in mixed_tables.values()
        for c in pdf.columns
    }
    assert fgts == set(FineGrainedType)
    assert mixed_tables["small"]["paid"].dtype == object
    assert mixed_tables["small"]["age"].isna().any()
    assert len(mixed_tables["big"]) == 20_000


def test_spark_profiles_equal_driver_profile_column(spark, mixed_tables):
    """Workers and the driver run the same CoLR network on the same
    sample. Embeddings may differ in the last bit only: PySpark runs its
    workers' BLAS on one thread, and a threaded matmul rounds the rows at
    its thread boundaries differently."""
    got = _by_column(profile_tables(spark, mixed_tables, "mixed"))
    assert len(got) == sum(len(t.columns) for t in mixed_tables.values())
    for tname, pdf in mixed_tables.items():
        embeddings = column_embeddings(pdf)
        for cname in pdf.columns:
            fgt, true_ratio, mean, std, emb = profiler.profile_column(
                colr.sample_values(pdf[cname])
            )
            row = got[(tname, cname)]
            assert (row["fgt"], row["true_ratio"], row["mean"], row["std"]) == (
                fgt.value, true_ratio, mean, std
            ), cname
            np.testing.assert_allclose(row["embedding"], emb, rtol=0, atol=1e-12)
            assert embeddings[cname][0] is fgt, cname
            assert np.array_equal(embeddings[cname][1], emb), cname


# --------------------------------------------------------------------------
# no change where the sampler did not change
# --------------------------------------------------------------------------
def test_spark_profiles_equal_string_round_trip(spark):
    lake = build_lake(LAKE)
    assert max(len(t) for t in lake.tables.values()) <= 1000
    got = _by_column(profile_tables(spark, lake.tables, lake.name))
    ref = _ref_columns_dataframe(spark, lake.tables, lake.name).mapInPandas(
        _ref_profile_partition, PROFILE_SCHEMA
    )
    assert got == _by_column(ref)


@pytest.mark.parametrize(
    "module", [cleaning_datasets, transformation_datasets], ids=["cleaning", "transformation"]
)
def test_column_embeddings_equal_full_column_reference(module):
    for spec in module.SPECS:
        pdf = module.build_dataset(spec, 0)
        pdf = pdf[0] if isinstance(pdf, tuple) else pdf
        got = column_embeddings(pdf)
        want = _ref_column_embeddings(pdf)
        assert list(got) == list(want)
        for col, (fgt, emb) in want.items():
            assert got[col][0] is fgt, (spec.name, col)
            assert np.array_equal(got[col][1], emb), (spec.name, col)
