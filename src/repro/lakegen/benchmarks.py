"""Lite-scale configurations of the four discovery benchmarks (Table 1).

Paper corpora -> our lite scale (DESIGN.md S5): table counts divided by
~10 (SANTOS Large by ~25), rows per table by ~30. Proportions between
benchmarks (D3L < TUS, SANTOS Small smallest, SANTOS Large much larger)
and the (N query tables, k) protocol of §6.1.1 are preserved.
"""
from __future__ import annotations

from .lake import Lake, LakeConfig, build_lake

# Paper's Table 1 statistics, for EXPERIMENTS.md side-by-side output.
PAPER_TABLE1 = {
    "d3l_small": {
        "size_gb": 1.3, "n_tables": 654, "n_query": 50, "avg_rows": 12207,
        "total_cols": 8767, "int": 1885, "float": 513, "boolean": 8,
        "date": 661, "named_entity": 516, "natural_language": 4241, "string": 957,
    },
    "tus_small": {
        "size_gb": 1.2, "n_tables": 1530, "n_query": 150, "avg_rows": 4457,
        "total_cols": 14810, "int": 1222, "float": 288, "boolean": 111,
        "date": 884, "named_entity": 1766, "natural_language": 9345, "string": 1194,
    },
    "santos_small": {
        "size_gb": 0.4, "n_tables": 550, "n_query": 50, "avg_rows": 6921,
        "total_cols": 6336, "int": 1267, "float": 271, "boolean": 110,
        "date": 331, "named_entity": 1053, "natural_language": 2908, "string": 396,
    },
    "santos_large": {
        "size_gb": 11.5, "n_tables": 11090, "n_query": 80, "avg_rows": 7718,
        "total_cols": 121796, "int": 25618, "float": 5702, "boolean": 1173,
        "date": 6891, "named_entity": 18897, "natural_language": 53502, "string": 10013,
    },
}

# (N, k) per §6.1.1, scaled with the lakes: paper used (50, 185), (150,
# 60), (50, 10), (80, 10).
CONFIGS: dict[str, LakeConfig] = {
    "d3l_small": LakeConfig(
        name="d3l_small", n_groups=13, members_per_group=5, rows=300,
        n_query=10, k=4, hard=True, nl_extra=2, seed=101,
    ),
    "tus_small": LakeConfig(
        name="tus_small", n_groups=17, members_per_group=9, rows=150,
        n_query=15, k=8, hard=False, nl_extra=3, seed=202,
    ),
    "santos_small": LakeConfig(
        name="santos_small", n_groups=11, members_per_group=5, rows=230,
        n_query=10, k=4, hard=False, nl_extra=2, seed=303,
    ),
    "santos_large": LakeConfig(
        name="santos_large", n_groups=22, members_per_group=11, rows=250,
        n_query=16, k=10, hard=False, nl_extra=2, seed=404,
    ),
}

def build_benchmark(name: str) -> Lake:
    return build_lake(CONFIGS[name])
