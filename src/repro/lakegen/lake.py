"""Synthetic data lakes with table-union ground truth (sub. S5).

Lakes are built the way TUS / SANTOS built theirs: start from base
tables and derive each unionable *family* by horizontal partitioning
(row slices) plus vertical partitioning (column subsets), renaming
columns to synonyms (``sex`` -> ``gender``). The D3L-style "hard" mode
additionally perturbs numeric scales and value distributions, mimicking
its manually-annotated, really-different-sources character. Ground
truth: two tables are unionable iff they derive from the same base.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from . import generators as G

# concept -> (synonym column names, fine-grained type family, generator)
# The synonyms deliberately mirror the word-embedding concept table so
# label similarity behaves as GloVe+WordNet would on real column names.
_CONCEPTS: dict[str, tuple[list[str], str]] = {
    "id": (["id", "identifier", "key"], "id"),
    "person": (["name", "fullname"], "ne_person"),
    "age": (["age", "years"], "int_small"),
    "sex": (["sex", "gender"], "cat2"),
    "country": (["country", "nation", "nationality"], "ne_gpe"),
    "city": (["city", "town"], "ne_gpe"),
    "income": (["income", "salary", "wage"], "float_log"),
    "price": (["price", "cost", "amount"], "float_log"),
    "quantity": (["quantity", "qty", "count"], "int_small"),
    "score": (["score", "rating", "grade"], "int_tiny"),
    "date": (["date", "timestamp", "day"], "date"),
    "review": (["review", "feedback", "opinion"], "nl"),
    "comment": (["comment", "description", "details"], "nl"),
    "summary": (["summary", "text"], "nl"),
    "active": (["active", "enabled"], "bool"),
    "survived": (["survived", "alive"], "bool"),
    "won": (["won", "winner"], "bool"),
    "weight": (["weight", "mass"], "float_norm"),
    "height": (["height", "stature"], "float_norm"),
    "temperature": (["temperature", "temp"], "float_norm"),
    "pressure": (["pressure", "bp"], "float_norm"),
    "company": (["company", "employer", "organization"], "ne_org"),
    "product": (["product", "item"], "ne_product"),
    "language": (["language", "lang"], "ne_lang"),
    "postal": (["postal_code", "zip_code"], "str_postal"),
    "code": (["code", "reference"], "str_code"),
    "year": (["year", "yr"], "int_year"),
    "revenue": (["revenue", "sales", "turnover"], "float_log"),
}

_TEMPLATES: dict[str, list[str]] = {
    "people": ["id", "person", "age", "sex", "country", "income", "date", "active", "comment"],
    "sales": ["id", "product", "price", "quantity", "date", "review", "score", "city"],
    "health": ["id", "person", "age", "weight", "height", "pressure", "date", "survived", "summary"],
    "reviews": ["id", "product", "review", "comment", "score", "active", "date", "summary"],
    "weather": ["code", "city", "date", "temperature", "pressure", "summary", "won"],
    "finance": ["company", "revenue", "year", "country", "price", "active", "comment"],
    "sports": ["company", "person", "score", "date", "city", "won", "review"],
    "catalog": ["id", "product", "language", "price", "postal", "comment", "year"],
}


def _generate(kind: str, rng: np.random.Generator, n: int, salt: int) -> pd.Series:
    """Generate n values of a concept family; ``salt`` varies the family's
    distribution between groups so distinct groups are separable."""
    if kind == "id":
        return G.id_values(rng, n, start=1 + salt * 10_000)
    if kind == "int_small":
        lo = 7 * (salt % 29)
        return G.int_values(rng, n, lo=lo, hi=lo + 60 + 3 * (salt % 11))
    if kind == "int_tiny":
        return G.int_values(rng, n, lo=1, hi=6 + (salt % 5))
    if kind == "int_year":
        return G.int_values(rng, n, lo=1980 + (salt % 9) * 4, hi=2024)
    if kind == "float_log":
        return G.float_values(rng, n, mu=20 * (1 + salt % 17), lognormal=True)
    if kind == "float_norm":
        return G.float_values(rng, n, mu=15.0 * (1 + salt % 13), sigma=2.0 + (salt % 7))
    if kind == "bool":
        return G.bool_values(rng, n, p_true=0.05 + 0.08 * (salt % 11))
    if kind == "date":
        return G.date_values(rng, n, start=f"{1984 + (salt % 9) * 4}-01-01", span_days=1500)
    if kind == "ne_person":
        return G.named_entity_values(rng, n, etype="PERSON", subpool=salt)
    if kind == "ne_gpe":
        return G.named_entity_values(rng, n, etype="GPE", subpool=salt)
    if kind == "ne_org":
        return G.named_entity_values(rng, n, etype="ORG", subpool=salt)
    if kind == "ne_product":
        return G.named_entity_values(rng, n, etype="PRODUCT", subpool=salt)
    if kind == "ne_lang":
        return G.named_entity_values(rng, n, etype="LANGUAGE", subpool=salt)
    if kind == "nl":
        return G.natural_language_values(rng, n, topic_seed=salt)
    if kind == "str_postal":
        return G.string_values(rng, n, kind="postal")
    if kind == "str_code":
        return G.string_values(rng, n, kind="code")
    if kind == "cat2":
        return pd.Series(rng.choice(["M", "F", "X"], n, p=[0.48, 0.48, 0.04]))
    raise ValueError(kind)


@dataclass
class Lake:
    """A synthetic data lake with union ground truth."""

    name: str
    tables: dict[str, pd.DataFrame] = field(default_factory=dict)
    group_of: dict[str, int] = field(default_factory=dict)
    query_tables: list[str] = field(default_factory=list)
    k: int = 10

    def unionable_with(self, table: str) -> set[str]:
        gid = self.group_of[table]
        return {t for t, g in self.group_of.items() if g == gid and t != table}

    def n_columns(self) -> int:
        return sum(len(t.columns) for t in self.tables.values())

    def size_bytes(self) -> int:
        return int(
            sum(t.memory_usage(deep=True).sum() for t in self.tables.values())
        )


@dataclass(frozen=True)
class LakeConfig:
    """Scale knobs for one benchmark lake (lite scale of Table 1)."""

    name: str
    n_groups: int
    members_per_group: int
    rows: int
    n_query: int
    k: int
    hard: bool = False  # D3L-style distribution perturbation
    nl_extra: int = 1  # extra natural-language columns per base table
    seed: int = 0


def build_lake(cfg: LakeConfig) -> Lake:
    """Build a lake per ``cfg``; deterministic in ``cfg.seed``."""
    rng = np.random.default_rng(cfg.seed)
    lake = Lake(name=cfg.name, k=cfg.k)
    template_names = sorted(_TEMPLATES)
    for gid in range(cfg.n_groups):
        template = _TEMPLATES[template_names[gid % len(template_names)]]
        concepts = list(template) + [
            f"extra_nl_{i}" for i in range(cfg.nl_extra)
        ]
        base_rows = cfg.rows * 3
        base = {}
        for concept in concepts:
            if concept.startswith("extra_nl_"):
                names, kind = ([f"notes_{concept[-1]}", f"remarks_{concept[-1]}"], "nl")
            else:
                names, kind = _CONCEPTS[concept]
            digest = hashlib.blake2b(concept.encode(), digest_size=8).digest()
            salt = gid * 13 + int.from_bytes(digest, "big") % 11
            base[concept] = (names, _generate(kind, rng, base_rows, salt), kind)
        # derive members by horizontal + vertical partitioning + renaming
        for m in range(cfg.members_per_group):
            start = rng.integers(0, base_rows - cfg.rows + 1)
            rows = slice(int(start), int(start) + cfg.rows)
            keep = [
                c
                for c in concepts
                if rng.random() < 0.8 or c == concepts[0]
            ]
            data = {}
            for concept in keep:
                names, series, kind = base[concept]
                name = names[int(rng.integers(0, len(names)))]
                vals = series.iloc[rows].reset_index(drop=True)
                if cfg.hard and kind.startswith("float"):
                    # D3L: same variable measured on a different scale
                    vals = (vals * float(rng.choice([0.5, 1.0, 2.2]))).round(3)
                if cfg.hard and rng.random() < 0.3:
                    vals = vals.sample(frac=0.9, random_state=int(gid)).reset_index(
                        drop=True
                    )
                data[name] = vals
            tname = f"{cfg.name}_g{gid:03d}_m{m:02d}"
            lake.tables[tname] = pd.DataFrame(data).dropna().reset_index(drop=True)
            lake.group_of[tname] = gid
    members = sorted(lake.tables)
    q_groups = rng.choice(cfg.n_groups, size=min(cfg.n_query, cfg.n_groups), replace=False)
    lake.query_tables = [
        next(t for t in members if lake.group_of[t] == g) for g in sorted(q_groups)
    ]
    return lake
