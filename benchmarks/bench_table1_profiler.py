"""Table 1 — Data-discovery benchmark statistics + column-type breakdown.

Builds the four lite-scale lakes and runs the Spark data profiler
(Algorithm 2) over each, reporting the same rows as the paper's Table 1
(size, tables, query tables, rows/table, and the fine-grained column
type breakdown produced by our profiler), next to the paper's values.
"""
import re

import pandas as pd
import pytest

from repro.core import profiler
from repro.lakegen.benchmarks import CONFIGS, PAPER_TABLE1, build_benchmark

from _report import RESULTS_DIR, report

_TYPES = ["int", "float", "boolean", "date", "named_entity",
          "natural_language", "string"]


@pytest.mark.benchmark(group="table1")
def test_table1_profiler_statistics(spark, benchmark):
    # the committed counts, read before ``report`` rewrites the file
    committed = _type_counts((RESULTS_DIR / "table1.md").read_text())
    rows = []

    def run():
        for name in CONFIGS:
            lake = build_benchmark(name)
            profiles = profiler.profile_tables(spark, {name: lake.tables}).cache()
            breakdown = profiler.type_breakdown(profiles).set_index("fgt")["count"]
            paper = PAPER_TABLE1[name]
            rows.append(
                {
                    "benchmark": name,
                    "size_mb(paper_gb)": f"{lake.size_bytes()/1e6:.0f} ({paper['size_gb']})",
                    "tables(paper)": f"{len(lake.tables)} ({paper['n_tables']})",
                    "query_tables(paper)": f"{len(lake.query_tables)} ({paper['n_query']})",
                    "avg_rows(paper)": (
                        f"{int(sum(len(t) for t in lake.tables.values())/len(lake.tables))}"
                        f" ({paper['avg_rows']})"
                    ),
                    "total_cols(paper)": f"{lake.n_columns()} ({paper['total_cols']})",
                    **{
                        f"{t}(paper)": f"{int(breakdown.get(t, 0))} ({paper[t]})"
                        for t in _TYPES
                    },
                }
            )
            profiles.unpersist()
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    out = pd.DataFrame(rows)
    report("table1", out.to_string(index=False))
    # sanity: natural_language dominates and int is next, as in the paper
    for name in CONFIGS:
        lake_row = out[out["benchmark"] == name].iloc[0]
        nl = int(lake_row["natural_language(paper)"].split(" ")[0])
        total = int(lake_row["total_cols(paper)"].split(" ")[0])
        assert nl > 0.2 * total
    # the profiler's per-type column counts are the committed ones
    assert _type_counts(out.to_string(index=False)) == committed


def _type_counts(table: str) -> dict[str, list[int]]:
    """Lake name → measured per-type counts, the last ``len(_TYPES)``
    "measured (paper)" cells of each row of the Table 1 text."""
    return {
        line.split()[0]: [int(n) for n in re.findall(r"(\d+) \(", line)[-len(_TYPES):]]
        for line in table.splitlines()[1:]
    }
