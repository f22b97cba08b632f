"""Join-path discovery over the LiDS dataset graph (paper §5).

Per §3.3, two tables are *joinable* if columns share high **content**
similarity (value overlap), while unionability relies on label
similarity. Join paths chain joinable tables: a 2-hop path joins the
source to the target through one intermediate table. Implemented as BFS
over the joinable-table adjacency the union-search index derives once
from its content-similarity edges; a path of ``hops`` joins is never
extended.
"""
from __future__ import annotations

from collections import deque

import pandas as pd

from .union_search import UnionSearchIndex


def joinable_adjacency(index: UnionSearchIndex) -> dict[str, set[str]]:
    """table -> directly joinable tables (content-similar column pairs)."""
    return {table: set(tables) for table, tables in index.adjacency.items()}


def find_join_paths(
    index: UnionSearchIndex, source: str, target: str, hops: int = 2
) -> list[list[str]]:
    """All join paths from ``source`` to ``target`` within ``hops`` joins."""
    adj = index.adjacency
    paths: list[list[str]] = []
    queue: deque[list[str]] = deque([[source]])
    while queue:
        path = queue.popleft()
        if path[-1] == target and len(path) > 1:
            paths.append(path)
            continue
        if len(path) - 1 >= hops:
            continue
        for nxt in adj.get(path[-1], ()):
            if nxt not in path:
                queue.append(path + [nxt])
    return paths


def join_paths_frame(paths: list[list[str]]) -> pd.DataFrame:
    """Paths as the Pandas DataFrame the KGLiDS API returns, by hops and
    then by path."""
    rows = sorted((len(p) - 1, " -> ".join(p)) for p in paths)
    return pd.DataFrame({"hops": [h for h, _ in rows], "path": [p for _, p in rows]})
