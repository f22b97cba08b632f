"""Precision@k / Recall@k for table-union search (paper §6.1.1)."""
from __future__ import annotations

import time

from repro.lakegen.lake import Lake


def precision_at_k(ranked: list[str], truth: set[str], k: int) -> float:
    """Fraction of the top-k results that are truly unionable."""
    if k <= 0:
        return 0.0
    top = ranked[:k]
    if not top:
        return 0.0
    return sum(1 for t in top if t in truth) / len(top)


def recall_at_k(ranked: list[str], truth: set[str], k: int) -> float:
    """Fraction of truly unionable tables found in the top-k."""
    if not truth:
        return 0.0
    return sum(1 for t in ranked[:k] if t in truth) / len(truth)


def average_pr_at_k(
    results: dict[str, list[str]], truths: dict[str, set[str]], k: int
) -> tuple[float, float]:
    """Averages over N query tables, as in the benchmarks."""
    if not results:
        return 0.0, 0.0
    ps = [precision_at_k(r, truths[q], k) for q, r in results.items()]
    rs = [recall_at_k(r, truths[q], k) for q, r in results.items()]
    return sum(ps) / len(ps), sum(rs) / len(rs)


def evaluate(
    index, lake: Lake, k: int | None = None
) -> tuple[dict[str, list[str]], float]:
    """Run a lake's benchmark queries against any union-search index with
    ``query(table, k)``; returns the rankings and the average query
    seconds."""
    k = k or lake.k
    results: dict[str, list[str]] = {}
    t0 = time.perf_counter()
    for q in lake.query_tables:
        results[q] = [t for t, _ in index.query(q, k=k)]
    avg_s = (time.perf_counter() - t0) / max(1, len(lake.query_tables))
    return results, avg_s
