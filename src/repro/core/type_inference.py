"""Fine-grained data type inference (paper §3.2).

Classifies a column into one of the 7 fine-grained types:
boolean -> int -> float -> date -> named_entity -> natural_language ->
string (fallback). Named entities are detected with the (gazetteer) NER
model; natural-language text is detected by the existence of word
embeddings — here, membership in ``ENGLISH_VOCAB`` — for the value's
tokens, exactly the paper's criterion.

The check reads at most 500 values, drawn at the rows
``Series.sample(500, random_state=0)`` takes. Only object-like samples
are turned into stripped strings, once, for the numeric, date, NER and
natural-language checks; NER and the vocabulary lookup run once per
distinct value.
"""
from __future__ import annotations

from collections import Counter

import numpy as np
import pandas as pd

from . import ner
from .types import FineGrainedType
from .word_embeddings import ENGLISH_VOCAB

_BOOL_VOCAB = {"true", "false", "t", "f", "yes", "no", "y", "n", "0", "1",
               "0.0", "1.0"}
_MAX_SAMPLE = 500


def _prints_nonblank(dtype) -> bool:
    """No non-null bool, number or datetime prints as a blank string."""
    return (
        pd.api.types.is_bool_dtype(dtype)
        or pd.api.types.is_integer_dtype(dtype)
        or pd.api.types.is_float_dtype(dtype)
        or pd.api.types.is_datetime64_any_dtype(dtype)
    )


def _non_null_sample(values: pd.Series) -> tuple[pd.Series, pd.Series | None]:
    """At most ``_MAX_SAMPLE`` non-null, non-blank values, drawn at the
    positions ``Series.sample(_MAX_SAMPLE, random_state=0)`` takes, and
    their stripped strings (None for the dtypes of ``_prints_nonblank``,
    whose type is settled without them)."""
    s = values.dropna()
    stripped = None
    if not _prints_nonblank(s.dtype):
        stripped = s.astype(str).str.strip()
        keep = (stripped != "").to_numpy()
        s, stripped = s[keep], stripped[keep]
    if len(s) > _MAX_SAMPLE:
        pos = np.random.RandomState(0).choice(len(s), _MAX_SAMPLE, replace=False)
        s = s.iloc[pos]
        stripped = None if stripped is None else stripped.iloc[pos]
    return s, stripped


def _is_boolean(s: pd.Series) -> bool:
    """One or two distinct values, all in ``_BOOL_VOCAB`` once stripped
    and lowercased. Stops at the first value outside the vocabulary or
    at a third distinct one."""
    distinct = set()
    for v in s.unique():
        norm = str(v).strip().lower()
        if norm not in _BOOL_VOCAB:
            return False
        distinct.add(norm)
        if len(distinct) > 2:
            return False
    return bool(distinct)


def _nl_ratio(values: pd.Series) -> float:
    """Fraction of tokens that have a word embedding (are in-vocab),
    counted once per distinct value and weighted by its count."""
    hits = total = 0
    for v, n in Counter(values).items():
        for tok in str(v).lower().split():
            tok = tok.strip(".,!?;:'\"()")
            if tok:
                total += n
                hits += n * (tok in ENGLISH_VOCAB)
    return hits / total if total else 0.0


def infer_fine_grained_type(values: pd.Series) -> FineGrainedType:
    """Infer the fine-grained type of a column from (a sample of) values."""
    s, as_str = _non_null_sample(values)
    if s.empty:
        return FineGrainedType.STRING
    if pd.api.types.is_bool_dtype(values.dtype):
        return FineGrainedType.BOOLEAN
    if _is_boolean(s):
        return FineGrainedType.BOOLEAN
    if pd.api.types.is_integer_dtype(values.dtype):
        return FineGrainedType.INT
    if pd.api.types.is_float_dtype(values.dtype):
        num = s.to_numpy(dtype="float64")
        return (
            FineGrainedType.INT
            if np.all(num == np.rint(num))
            else FineGrainedType.FLOAT
        )
    if pd.api.types.is_datetime64_any_dtype(values.dtype):
        return FineGrainedType.DATE
    num = pd.to_numeric(as_str, errors="coerce")
    if num.notna().mean() >= 0.95:
        v = num.dropna().to_numpy(dtype="float64")
        return (
            FineGrainedType.INT
            if np.all(v == np.rint(v))
            else FineGrainedType.FLOAT
        )
    # only attempt date parsing on date-shaped strings — pandas "mixed"
    # parsing is permissive enough to misread postal codes as timezones
    dateish = as_str.str.match(
        r"^\d{4}[-/]\d{1,2}[-/]\d{1,2}([ T]\d{2}:\d{2}(:\d{2})?)?$"
        r"|^\d{1,2}[-/]\d{1,2}[-/]\d{2,4}$"
    )
    if dateish.mean() >= 0.95:
        dates = pd.to_datetime(as_str, errors="coerce", format="mixed")
        if dates.notna().mean() >= 0.95:
            return FineGrainedType.DATE
    if ner.entity_ratio(as_str) >= 0.5:
        return FineGrainedType.NAMED_ENTITY
    if _nl_ratio(as_str) >= 0.5 and as_str.str.split().str.len().mean() >= 3:
        return FineGrainedType.NATURAL_LANGUAGE
    return FineGrainedType.STRING
