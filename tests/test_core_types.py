"""Unit tests for the fine-grained type system and table embeddings."""
import numpy as np
import pandas as pd
import pytest

from repro.automation.embeddings import table_embedding_1800
from repro.core.types import (
    ALL_TYPES,
    EMBEDDED_TYPES,
    EMBEDDING_DIM,
    TABLE_EMBEDDING_DIM,
    FineGrainedType,
)


def _table_embedding(*columns):
    """``table_embedding_1800`` of a table whose columns carry the given
    (fgt, embedding) pairs; a missing embedding is all ones."""
    embeddings = {
        f"c{i}": (fgt, emb if emb is not None else np.ones(EMBEDDING_DIM))
        for i, (fgt, emb) in enumerate(columns)
    }
    pdf = pd.DataFrame({c: [0] for c in embeddings})
    return table_embedding_1800(pdf, embeddings=embeddings)


def test_seven_types():
    assert len(ALL_TYPES) == 7


def test_embedded_types_excludes_boolean():
    assert FineGrainedType.BOOLEAN not in EMBEDDED_TYPES
    assert len(EMBEDDED_TYPES) == 6


def test_table_embedding_dim_is_1800():
    assert TABLE_EMBEDDING_DIM == 1800
    emb = _table_embedding((FineGrainedType.INT, None))
    assert emb.shape == (1800,)


def test_table_embedding_zero_blocks_for_absent_types():
    emb = _table_embedding((FineGrainedType.INT, None))
    # int is the first block; everything else must be zero
    assert np.all(emb[:EMBEDDING_DIM] == 1.0)
    assert np.all(emb[EMBEDDING_DIM:] == 0.0)


@pytest.mark.parametrize("fgt", EMBEDDED_TYPES)
def test_table_embedding_block_position(fgt):
    emb = _table_embedding((fgt, None))
    i = EMBEDDED_TYPES.index(fgt)
    block = emb[i * EMBEDDING_DIM : (i + 1) * EMBEDDING_DIM]
    assert np.all(block == 1.0)
    assert emb.sum() == EMBEDDING_DIM


def test_table_embedding_averages_same_type():
    emb = _table_embedding(
        (FineGrainedType.FLOAT, np.full(EMBEDDING_DIM, 2.0)),
        (FineGrainedType.FLOAT, np.full(EMBEDDING_DIM, 4.0)),
    )
    i = EMBEDDED_TYPES.index(FineGrainedType.FLOAT)
    assert np.allclose(emb[i * EMBEDDING_DIM : (i + 1) * EMBEDDING_DIM], 3.0)


def test_table_embedding_ignores_booleans():
    emb = _table_embedding((FineGrainedType.BOOLEAN, None))
    assert np.all(emb == 0.0)
