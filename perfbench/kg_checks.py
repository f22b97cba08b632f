"""Independent references for the automation workload's answers.

Each BGP-backed §5 operation is re-expressed as one SQL query and run in
DuckDB over the collected triples through ``repro.oracle``. The graph
linker is checked by brute force in pandas: the kept predictions plus
``graph_linker.dropped_predictions`` must be exactly the predicted reads,
and the kept ones exactly those whose target node exists.
"""
from __future__ import annotations

from collections import Counter

import duckdb
import pandas as pd

from repro.automation import automl
from repro.core import ontology as O
from repro.oracle import assert_equivalent

_TAIL = "regexp_extract({}, '[^/]*$')"  # str.rsplit('/', 1)[-1]


def _q(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


def top_used_libraries_sql(k: int, task: str | None) -> str:
    task_join = (
        f"JOIN triples t ON t.s = b.o AND t.p = {_q(O.HAS_TASK)} AND t.o = {_q(task)}"
        if task is not None else ""
    )
    return f"""
    WITH calls AS (
      SELECT DISTINCT a.s AS stmt, a.o AS lib, b.o AS pipe
      FROM triples a
      JOIN triples b ON b.s = a.s AND b.p = {_q(O.IS_PART_OF)}
      {task_join}
      WHERE a.p = {_q(O.CALLS_LIBRARY)}
    )
    SELECT {_TAIL.format('lib')} AS library, COUNT(DISTINCT pipe) AS n_pipelines
    FROM calls GROUP BY library
    ORDER BY n_pipelines DESC, library ASC LIMIT {int(k)}
    """


def pipelines_calling_libraries_sql(functions: tuple[str, ...]) -> str:
    exists = "".join(
        f"""
      AND EXISTS (
        SELECT 1 FROM triples c
        JOIN triples pp ON pp.s = c.s AND pp.p = {_q(O.IS_PART_OF)}
        WHERE c.p = {_q(O.CALLS)}
          AND c.o = {_q(O.res('library', *fn.split('.')))} AND pp.o = v.s)"""
        for fn in functions
    )
    return f"""
    SELECT DISTINCT {_TAIL.format('v.s')} AS pipeline, a.o AS author,
           CAST(CAST(v.o AS DOUBLE) AS BIGINT) AS votes
    FROM triples v
    JOIN triples a ON a.s = v.s AND a.p = {_q(O.HAS_AUTHOR)}
    WHERE v.p = {_q(O.HAS_VOTES)} {exists}
    """


def _classifier_calls_sql(dataset: str) -> str:
    tails = ", ".join(_q(t) for t in automl._CLASSIFIER_TAILS)
    return f"""
    calls AS (
      SELECT DISTINCT c.s AS stmt, c.o AS func, pp.o AS pipe, u.o AS ds, v.o AS votes
      FROM triples c
      JOIN triples pp ON pp.s = c.s AND pp.p = {_q(O.IS_PART_OF)}
      JOIN triples u ON u.s = pp.o AND u.p = {_q(O.USES_DATASET)}
      JOIN triples v ON v.s = pp.o AND v.p = {_q(O.HAS_VOTES)}
      WHERE c.p = {_q(O.CALLS)}
    ),
    clf AS (
      SELECT stmt, pipe, {_TAIL.format('func')} AS classifier,
             CAST(votes AS DOUBLE) AS votes
      FROM calls
      WHERE {_TAIL.format('func')} IN ({tails})
        AND {_TAIL.format('ds')} = {_q(dataset)}
    )"""


def recommend_ml_models_sql(dataset: str, task: str) -> str:
    return f"""
    WITH {_classifier_calls_sql(dataset)}
    SELECT classifier, COUNT(DISTINCT pipe) AS n_pipelines, SUM(votes) AS votes,
           {_q(task)} AS task
    FROM clf GROUP BY classifier
    """


def recommend_hyperparameters_sql(dataset: str, classifier: str) -> str:
    return f"""
    WITH {_classifier_calls_sql(dataset)},
    params AS (
      SELECT DISTINCT s AS stmt, o AS param FROM triples
      WHERE p = {_q(O.HAS_PARAMETER)}
    ),
    merged AS (
      SELECT split_part(param, '=', 1) AS hyperparameter,
             substr(param, strpos(param, '=') + 1) AS value, votes
      FROM clf JOIN params USING (stmt)
      WHERE classifier = {_q(classifier)}
    ),
    weighted AS (
      SELECT hyperparameter, value, SUM(votes) AS weight
      FROM merged GROUP BY hyperparameter, value
    )
    SELECT hyperparameter, value, weight FROM (
      SELECT *, row_number() OVER (
        PARTITION BY hyperparameter ORDER BY weight DESC, value ASC) AS rn
      FROM weighted)
    WHERE rn = 1
    """


class _Collected:
    """An answer that is already a pandas frame, offered to the oracle in
    place of the Spark DataFrame it collects."""

    def __init__(self, pdf: pd.DataFrame):
        self.pdf = pdf

    def toPandas(self) -> pd.DataFrame:
        return self.pdf


def matches_oracle(got: pd.DataFrame, sql: str, triples: pd.DataFrame) -> None:
    """Raise AssertionError unless ``got`` equals the DuckDB answer."""
    if got.empty:
        con = duckdb.connect()
        try:
            con.register("triples", triples)
            n = con.execute(f"SELECT COUNT(*) FROM ({sql})").fetchone()[0]
        finally:
            con.close()
        assert n == 0, f"API returned no rows, DuckDB returned {n}"
        return
    assert_equivalent(_Collected(got), sql, triples=triples)


def _reads(pdf: pd.DataFrame) -> Counter:
    mask = pdf["p"].isin([O.READS_TABLE, O.READS_COLUMN])
    return Counter(map(tuple, pdf.loc[mask, ["g", "s", "p", "o"]].to_numpy()))


def check_linker(pipeline_triples: pd.DataFrame, dropped: pd.DataFrame,
                 lids_triples: pd.DataFrame) -> tuple[int, int]:
    """Brute-force check of the linker; returns (predicted, kept) counts.

    ``pipeline_triples`` is the abstracted corpus the linker verified,
    ``dropped`` what ``graph_linker.dropped_predictions`` returned for it,
    and ``lids_triples`` the linked LiDS graph.
    """
    predicted = _reads(pipeline_triples)
    is_pipeline = lids_triples["g"].str.startswith(O.res("pipelineGraph"))
    kept = _reads(lids_triples[is_pipeline])
    assert kept + _reads(dropped) == predicted, "kept + dropped != predicted reads"
    typed = lids_triples[(lids_triples["g"] == O.res("datasetGraph"))
                         & (lids_triples["p"] == O.RDF_TYPE)]
    exists = {
        O.READS_TABLE: set(typed.loc[typed["o"] == O.TABLE, "s"]),
        O.READS_COLUMN: set(typed.loc[typed["o"] == O.COLUMN, "s"]),
    }
    expected = Counter(
        {row: n for row, n in predicted.items() if row[3] in exists[row[2]]}
    )
    assert kept == expected, "kept predictions differ from the brute-force set"
    return sum(predicted.values()), sum(kept.values())
