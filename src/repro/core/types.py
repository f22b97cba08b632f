"""Fine-grained column type system (paper §3.2).

KGLiDS classifies every column into one of 7 fine-grained types and only
compares columns of the same type when predicting similarity edges —
this is the main cost reducer of Algorithm 3 and the basis of the
per-type CoLR embedding models.
"""
from __future__ import annotations

from enum import Enum

EMBEDDING_DIM = 300
"""Dimensionality of a CoLR column embedding (paper: 300)."""

TABLE_EMBEDDING_DIM = 6 * EMBEDDING_DIM
"""Table embeddings concatenate per-type averages for the six non-boolean
fine-grained types (paper §4.2: 'embeddings ... of length 1800')."""


class FineGrainedType(str, Enum):
    """The 7 fine-grained column data types of KGLiDS (§3.2)."""

    INT = "int"
    FLOAT = "float"
    BOOLEAN = "boolean"
    DATE = "date"
    NAMED_ENTITY = "named_entity"
    NATURAL_LANGUAGE = "natural_language"
    STRING = "string"


ALL_TYPES = list(FineGrainedType)

EMBEDDED_TYPES = [t for t in ALL_TYPES if t is not FineGrainedType.BOOLEAN]
"""Types that carry a CoLR embedding. Boolean columns are compared via
true-ratio instead (Algorithm 3 lines 13-15), and the 1800-dim table
embedding concatenates the six types in this order."""
