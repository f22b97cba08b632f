"""Gazetteer-based named-entity recognition (substitution S1 in DESIGN.md).

The paper uses a pre-trained BiLSTM NER model (OntoNotes 5, 18 entity
types) to decide whether a string column holds named entities. The
container has no network and no model weights, so we implement the
closest synthetic equivalent: gazetteer lookup over curated entity
lists. The *role* in the pipeline is identical — given a sample of a
column's values, estimate the fraction that are named entities — and so
are the error modes (out-of-gazetteer entities are missed).
``entity_ratio`` looks up each distinct value once.
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Iterable

PERSONS = {
    "james", "mary", "john", "patricia", "robert", "jennifer", "michael",
    "linda", "william", "elizabeth", "david", "barbara", "richard", "susan",
    "joseph", "jessica", "thomas", "sarah", "charles", "karen", "omar",
    "fatima", "chen", "wei", "yuki", "ahmed", "mossad", "katja", "essam",
    "smith", "johnson", "williams", "brown", "jones", "garcia", "miller",
    "davis", "rodriguez", "martinez", "hernandez", "lopez", "gonzalez",
    "wilson", "anderson", "taylor", "moore", "jackson", "martin", "lee",
}

COUNTRIES = {
    "canada", "usa", "mexico", "brazil", "france", "germany", "spain",
    "italy", "egypt", "china", "japan", "india", "australia", "austria",
    "norway", "sweden", "denmark", "poland", "turkey", "greece", "kenya",
    "nigeria", "argentina", "chile", "peru", "portugal", "ireland",
    "netherlands", "belgium", "switzerland", "finland", "iceland", "qatar",
}

CITIES = {
    "montreal", "toronto", "vancouver", "ottawa", "boston", "seattle",
    "chicago", "houston", "paris", "berlin", "madrid", "rome", "cairo",
    "beijing", "tokyo", "mumbai", "sydney", "vienna", "oslo", "stockholm",
    "copenhagen", "warsaw", "istanbul", "athens", "nairobi", "lagos",
    "lima", "lisbon", "dublin", "amsterdam", "brussels", "zurich",
}

ORGANIZATIONS = {
    "google", "microsoft", "amazon", "apple", "ibm", "intel", "nvidia",
    "oracle", "samsung", "toyota", "siemens", "airbus", "boeing", "shell",
    "nestle", "unilever", "pfizer", "novartis", "walmart", "target",
    "concordia", "waterloo", "unesco", "unicef", "nasa", "cern",
}

LANGUAGES = {
    "english", "french", "german", "spanish", "italian", "arabic",
    "mandarin", "japanese", "hindi", "portuguese", "russian", "dutch",
    "swedish", "norwegian", "danish", "polish", "turkish", "greek",
}

PRODUCTS = {
    "iphone", "android", "windows", "linux", "excel", "photoshop",
    "corolla", "civic", "mustang", "thinkpad", "macbook", "kindle",
    "playstation", "xbox", "roomba", "fitbit",
}

_GAZETTEERS: dict[str, frozenset[str]] = {
    "PERSON": frozenset(PERSONS),
    "GPE": frozenset(COUNTRIES | CITIES),
    "ORG": frozenset(ORGANIZATIONS),
    "LANGUAGE": frozenset(LANGUAGES),
    "PRODUCT": frozenset(PRODUCTS),
}

ENTITY_TYPES = sorted(_GAZETTEERS)


def recognize(value: str) -> str | None:
    """Return the entity type of ``value``, or None if unrecognized.

    Multi-token values (e.g. ``"John Smith"``, ``"New York City"``) are
    recognized when a majority of their tokens hit one gazetteer.
    """
    tokens = [t for t in str(value).lower().replace("-", " ").split() if t]
    if not tokens or len(tokens) > 4:
        return None
    best_type, best_hits = None, 0
    for etype, gaz in _GAZETTEERS.items():
        hits = sum(1 for t in tokens if t in gaz)
        if hits > best_hits:
            best_type, best_hits = etype, hits
    if best_type is not None and best_hits * 2 >= len(tokens):
        return best_type
    return None


def entity_ratio(values: Iterable[str]) -> float:
    """Fraction of ``values`` recognized as named entities (any type).
    Each distinct value is recognized once and weighted by its count."""
    hits = total = 0
    for v, n in Counter(str(v) for v in values if v is not None).items():
        if v.strip():
            total += n
            hits += n * (recognize(v) is not None)
    return hits / total if total else 0.0
