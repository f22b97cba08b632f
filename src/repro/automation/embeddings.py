"""In-memory dataset embeddings for on-demand automation (§4.1).

At inference time "the GNN model takes the unseen dataset in the form of
a DataFrame and calculates the CoLR embedding for each column" — no
Spark job, no raw-data-scale work: the model input is the fixed-size
1800-dim table embedding regardless of dataset size. This module
computes those embeddings directly from a pandas DataFrame with the
Spark profiler's own ``profile_column`` over the same sample.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core import colr
from repro.core.profiler import profile_column
from repro.core.types import EMBEDDED_TYPES, EMBEDDING_DIM, FineGrainedType


def column_embeddings(
    pdf: pd.DataFrame,
) -> dict[str, tuple[FineGrainedType, np.ndarray]]:
    """fgt + 300-dim CoLR embedding per column."""
    out = {}
    for col in pdf.columns:
        fgt, *_, emb = profile_column(colr.sample_values(pdf[col]))
        out[str(col)] = (fgt, emb)
    return out


def table_embedding_1800(
    pdf: pd.DataFrame,
    only_missing: bool = False,
    embeddings: dict[str, tuple[FineGrainedType, np.ndarray]] | None = None,
) -> np.ndarray:
    """Concatenated per-type averages (§4.2).

    With ``only_missing=True``, averages only the columns that contain
    missing values — the paper's initialization for the cleaning model.
    Falls back to all columns when nothing is missing. ``embeddings`` is
    ``column_embeddings(pdf)`` when the caller already has it, so that
    no column is embedded twice.
    """
    cols = pdf.columns
    if only_missing:
        with_na = [c for c in cols if pdf[c].isna().any()]
        cols = with_na if with_na else cols
    if embeddings is None:
        embs = column_embeddings(pdf[list(cols)])
    else:
        embs = {str(c): embeddings[str(c)] for c in cols}
    blocks = []
    for fgt in EMBEDDED_TYPES:
        of_type = [e for t, e in embs.values() if t == fgt]
        blocks.append(
            np.mean(of_type, axis=0) if of_type else np.zeros(EMBEDDING_DIM)
        )
    return np.concatenate(blocks)
