"""Tests for the Spark data profiler (Algorithm 2)."""
import pickle

import numpy as np
import pandas as pd
import pytest

from repro.core import colr, profiler
from repro.core.types import EMBEDDING_DIM, FineGrainedType
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def tiny_tables():
    g = np.random.default_rng(0)
    return {
        "people": pd.DataFrame(
            {
                "name": ["John", "Mary", "Robert", "Linda", "David"] * 20,
                "age": g.integers(18, 90, 100),
                "income": g.lognormal(10, 1, 100).round(2),
                "active": g.choice(["true", "false"], 100),
                "joined": pd.to_datetime("2015-01-01")
                + pd.to_timedelta(g.integers(0, 2000, 100), unit="D"),
                "postal": ["H3G 1M8"] * 100,
            }
        ),
        "reviews": pd.DataFrame(
            {
                "review": ["this product is really good and cheap"] * 50,
                "stars": g.integers(1, 6, 50),
                "with_nulls": [None if i % 5 == 0 else float(i) + 0.5 for i in range(50)],
            }
        ),
    }


@pytest.fixture(scope="module")
def profiles(spark, tiny_tables):
    return profiler.profile_tables(spark, {"lakeA": tiny_tables}).cache()


def test_one_profile_per_column(profiles, tiny_tables):
    n_cols = sum(len(t.columns) for t in tiny_tables.values())
    assert profiles.count() == n_cols


def test_inferred_types(profiles):
    got = {
        (r["table"], r["column"]): r["fgt"] for r in profiles.collect()
    }
    assert got[("people", "name")] == FineGrainedType.NAMED_ENTITY.value
    assert got[("people", "age")] == FineGrainedType.INT.value
    assert got[("people", "income")] == FineGrainedType.FLOAT.value
    assert got[("people", "active")] == FineGrainedType.BOOLEAN.value
    assert got[("people", "joined")] == FineGrainedType.DATE.value
    assert got[("people", "postal")] == FineGrainedType.STRING.value
    assert got[("reviews", "review")] == FineGrainedType.NATURAL_LANGUAGE.value
    assert got[("reviews", "stars")] == FineGrainedType.INT.value
    assert got[("reviews", "with_nulls")] == FineGrainedType.FLOAT.value


def test_null_and_distinct_counts(profiles):
    row = profiles.filter("column = 'with_nulls'").collect()[0]
    assert row["n_rows"] == 50
    assert row["n_nulls"] == 10
    assert row["n_distinct"] == 40


def test_true_ratio_only_for_booleans(profiles):
    for r in profiles.collect():
        if r["fgt"] == FineGrainedType.BOOLEAN.value:
            assert 0.0 <= r["true_ratio"] <= 1.0
        else:
            assert r["true_ratio"] is None


def test_numeric_stats(profiles, tiny_tables):
    row = profiles.filter("column = 'age'").collect()[0]
    assert row["mean"] == pytest.approx(tiny_tables["people"]["age"].mean(), rel=0.01)
    assert row["std"] > 0


def test_embedding_dims(profiles):
    row = profiles.filter("column = 'income'").collect()[0]
    assert len(row["embedding"]) == EMBEDDING_DIM
    assert len(row["label_embedding"]) == 100
    assert any(abs(v) > 0 for v in row["embedding"])


def test_type_breakdown_matches_oracle(spark, profiles):
    got = spark.createDataFrame(
        profiler.type_breakdown(profiles).astype({"fgt": str})
    )
    sql = "SELECT fgt, COUNT(*) AS count FROM profiles GROUP BY fgt"
    assert_equivalent(
        got, sql, profiles=profiles.select("fgt").toPandas()
    )


def test_sampling_bounds_serialized_values(spark):
    """Columns DF carries at most max(0.1n, 1000) values per column, in
    the column's dtype."""
    big = {"t": pd.DataFrame({"x": np.arange(30_000)})}
    cols = profiler.columns_dataframe(spark, big, "d")
    row = cols.collect()[0]
    sample = pickle.loads(row["sample"])
    assert len(sample) == 3000
    assert sample.dtype == big["t"]["x"].dtype
    assert row["n_rows"] == 30_000


def test_worker_embeds_the_whole_shipped_sample(spark):
    """Algorithm 2 samples once: a 20,000-value column ships max(10 %,
    1000) = 2,000 values, and the embedding averages all 2,000 of them."""
    vals = np.random.default_rng(9).normal(50, 10, 20_000).round(3)
    cols = profiler.columns_dataframe(spark, {"t": pd.DataFrame({"x": vals})}, "d")
    shipped = pickle.loads(cols.collect()[0]["sample"])
    assert len(shipped) == 2000
    prof = profiler.profile_columns(cols).collect()[0]
    assert prof["fgt"] == FineGrainedType.FLOAT.value
    fgt = FineGrainedType.FLOAT
    feats = colr._numeric_features(shipped.to_numpy())
    want = colr._forward(feats, fgt).mean(axis=0) - colr._CENTERS[fgt]
    np.testing.assert_allclose(prof["embedding"], want, rtol=0, atol=1e-12)
