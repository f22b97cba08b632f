"""Unit tests for the CoLR embedding models (DESIGN.md S3)."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import colr
from repro.core.types import EMBEDDING_DIM, FineGrainedType
from repro.core.word_embeddings import cosine


def test_sample_size_rule():
    # Algorithm 2: max(0.1|col|, 1000), capped at |col|
    assert colr.sample_size(50) == 50
    assert colr.sample_size(1000) == 1000
    assert colr.sample_size(5000) == 1000
    assert colr.sample_size(50_000) == 5000


@pytest.mark.parametrize("fgt", list(FineGrainedType))
def test_embedding_shape(fgt):
    if fgt in (FineGrainedType.INT, FineGrainedType.FLOAT):
        vals = np.arange(100)
    elif fgt is FineGrainedType.DATE:
        vals = np.array(["2020-01-01", "2021-02-02"], dtype=object)
    elif fgt is FineGrainedType.BOOLEAN:
        vals = np.array(["true", "false"], dtype=object)
    else:
        vals = np.array(["alpha", "beta"], dtype=object)
    emb = colr.embed_sample(colr.sample_values(vals), fgt)
    assert emb.shape == (EMBEDDING_DIM,)
    assert np.all(np.isfinite(emb))


def test_empty_values_zero_embedding():
    assert np.all(colr.embed_sample(colr.sample_values([]), FineGrainedType.INT) == 0.0)
    nulls = colr.sample_values([None, float("nan")])
    assert np.all(colr.embed_sample(nulls, FineGrainedType.FLOAT) == 0.0)


def test_determinism():
    vals = np.random.default_rng(1).normal(10, 2, 5000)
    a = colr.embed_sample(colr.sample_values(vals), FineGrainedType.FLOAT)
    b = colr.embed_sample(colr.sample_values(vals), FineGrainedType.FLOAT)
    assert np.array_equal(a, b)


def test_same_distribution_high_similarity():
    g = np.random.default_rng(2)
    a = colr.embed_sample(colr.sample_values(g.normal(70, 5, 3000)), FineGrainedType.FLOAT)
    b = colr.embed_sample(colr.sample_values(g.normal(70, 5, 3000)), FineGrainedType.FLOAT)
    assert cosine(a, b) > 0.98


def test_different_distribution_lower_similarity():
    g = np.random.default_rng(3)
    a = colr.embed_sample(colr.sample_values(g.normal(70, 5, 3000)), FineGrainedType.FLOAT)
    c = colr.embed_sample(
        colr.sample_values(g.lognormal(8, 1, 3000)), FineGrainedType.FLOAT
    )
    assert cosine(a, c) < 0.95


def test_overlapping_values_similar():
    g = np.random.default_rng(4)
    pool = g.integers(0, 500, 10_000)
    a = colr.embed_sample(colr.sample_values(pool[:5000]), FineGrainedType.INT)
    b = colr.embed_sample(colr.sample_values(pool[5000:]), FineGrainedType.INT)
    assert cosine(a, b) > 0.98


def test_text_topics_separate():
    happy = np.array(["great product really good value"] * 200, dtype=object)
    sad = np.array(["terrible awful broken useless item"] * 200, dtype=object)
    e1 = colr.embed_sample(colr.sample_values(happy), FineGrainedType.NATURAL_LANGUAGE)
    e2 = colr.embed_sample(colr.sample_values(sad), FineGrainedType.NATURAL_LANGUAGE)
    assert cosine(e1, e2) < 0.8


def test_subsampling_close_to_full(
):
    """§6.1.3: 10% sampling gives comparable embeddings to full columns."""
    g = np.random.default_rng(5)
    vals = g.normal(42, 7, 30_000)
    full = colr._forward(colr._numeric_features(vals), FineGrainedType.FLOAT).mean(
        axis=0
    ) - colr._CENTERS[FineGrainedType.FLOAT]
    sampled = colr.embed_sample(colr.sample_values(vals), FineGrainedType.FLOAT)
    assert cosine(full, sampled) > 0.99


def test_fixed_size_regardless_of_length():
    small = colr.embed_sample(colr.sample_values(np.arange(10)), FineGrainedType.INT)
    large = colr.embed_sample(colr.sample_values(np.arange(100_000)), FineGrainedType.INT)
    assert small.shape == large.shape == (EMBEDDING_DIM,)


_HASH_SEED_PROBE = """
import hashlib
import numpy as np
import pandas as pd
from repro.core import colr
from repro.core.types import FineGrainedType
from repro.lakegen.lake import LakeConfig, build_lake

lake = build_lake(LakeConfig(name="h", n_groups=3, members_per_group=2, rows=40,
                             n_query=1, k=1, seed=4))
h = hashlib.sha256()
for name in sorted(lake.tables):
    h.update(name.encode())
    h.update(pd.util.hash_pandas_object(lake.tables[name], index=True).to_numpy().tobytes())
    h.update(repr(list(lake.tables[name].columns)).encode())
print(h.hexdigest())
vals = {"int": np.arange(9), "float": np.linspace(0, 5, 50),
        "boolean": ["true", "false"], "date": ["2020-01-01", "2021-02-02"]}
for fgt in FineGrainedType:
    v = vals.get(fgt.value, ["alpha", "beta"])
    print(fgt.value, colr.embed_sample(colr.sample_values(v), fgt).tobytes().hex())
"""


def test_same_lake_and_embeddings_under_any_hash_seed():
    """Lake values and CoLR weights are seeded from a digest, not from
    ``hash()``, so processes with different hash seeds (Spark workers
    and the driver) agree."""
    src = str(Path(colr.__file__).parents[2])
    outs = [
        subprocess.run(
            [sys.executable, "-c", _HASH_SEED_PROBE],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in ("1", "2")
    ]
    assert outs[0].count("\n") == 1 + len(FineGrainedType)
    assert outs[0] == outs[1]
