"""Unit tests for fine-grained type inference (paper §3.2)."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.type_inference import _BOOL_VOCAB, _is_boolean, infer_fine_grained_type
from repro.core.types import FineGrainedType as F


@pytest.mark.parametrize(
    "values,expected",
    [
        (pd.Series([1, 2, 3]), F.INT),
        (pd.Series([1.5, 2.25]), F.FLOAT),
        (pd.Series([1.0, 2.0, 3.0]), F.INT),  # whole floats are ints
        (pd.Series([True, False]), F.BOOLEAN),
        (pd.Series(["true", "false", "true"]), F.BOOLEAN),
        (pd.Series(["yes", "no"]), F.BOOLEAN),
        (pd.Series(["0", "1", "0"]), F.BOOLEAN),
        (pd.Series(["12", "15", "100"]), F.INT),
        (pd.Series(["1.5", "2.25"]), F.FLOAT),
        (pd.Series(pd.to_datetime(["2020-01-01", "2021-01-01"])), F.DATE),
        (pd.Series(["2020-01-01", "2021-05-05", "1999-12-31"]), F.DATE),
        (pd.Series(["John", "Mary", "Robert", "Linda"]), F.NAMED_ENTITY),
        (pd.Series(["Canada", "France", "Egypt", "Japan"]), F.NAMED_ENTITY),
        (
            pd.Series(
                [
                    "this product is really good and i love it",
                    "the quality was bad and delivery very slow",
                ]
            ),
            F.NATURAL_LANGUAGE,
        ),
        (pd.Series(["H3G 1M8", "K2P 0A4", "M5V 2T6"]), F.STRING),
        (pd.Series(["ABC-1234", "XYZ-9876"]), F.STRING),
    ],
)
def test_inference(values, expected):
    assert infer_fine_grained_type(values) is expected


def test_empty_and_all_null_fall_back_to_string():
    assert infer_fine_grained_type(pd.Series([], dtype=object)) is F.STRING
    assert infer_fine_grained_type(pd.Series([None, None])) is F.STRING


def test_nulls_ignored():
    s = pd.Series([1, 2, None, 4], dtype="object")
    assert infer_fine_grained_type(s) is F.INT


def test_mostly_numeric_with_noise():
    s = pd.Series(["1", "2", "3", "4", "5", "6", "7", "8", "9", "10",
                   "11", "12", "13", "14", "15", "16", "17", "18", "19", "x"])
    assert infer_fine_grained_type(s) is F.INT


def test_short_entity_names_not_natural_language():
    # entities are 1-2 tokens; NL requires >= 3 tokens on average
    s = pd.Series(["John Smith", "Mary Davis", "Linda Brown"])
    assert infer_fine_grained_type(s) is F.NAMED_ENTITY


def test_large_column_sampled():
    g = np.random.default_rng(0)
    s = pd.Series(g.integers(0, 100, 50_000))
    assert infer_fine_grained_type(s) is F.INT


def _ref_is_boolean(s):
    """The set-based check ``_is_boolean`` replaced."""
    distinct = {str(v).strip().lower() for v in s.unique()}
    return 0 < len(distinct) <= 2 and distinct <= _BOOL_VOCAB


_BOOLISH = st.one_of(
    st.sampled_from(sorted(_BOOL_VOCAB)).map(lambda v: v.upper() if len(v) == 1 else v),
    st.sampled_from([" true", "No ", "2", "maybe", ""]),
    st.integers(-1, 2),
    st.floats(-1, 2, allow_nan=False),
    st.booleans(),
)


@given(st.lists(_BOOLISH, max_size=8))
@example([])
@example(["yes", "no", "y"])
@example([0, 1.0, "1"])
@settings(max_examples=300, deadline=None)
def test_is_boolean_matches_set_based_check(values):
    s = pd.Series(values, dtype=object)
    assert _is_boolean(s) == _ref_is_boolean(s)
