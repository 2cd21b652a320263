"""Delivery-date inference from delivery-indicating clinical events.

Delivery events for one birth concentrate within days of the true delivery,
so clustering here runs on raw event days. Procedure-domain records are the
most trustworthy, then conditions, then observations; within a rank the
latest record wins. Clustering is the same anchor-and-absorb rule the start
engine uses, on the same `(day ordinal, concept id)` events.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, NamedTuple

from .concept_registry import ConceptRegistry
from .ga_engine import SEPARATION_WINDOW_DAYS, anchor_and_absorb

DOD_DAY = itemgetter(1)  # DeliveryRecord.dod_day


class DeliveryRecord(NamedTuple):
    """One inferred delivery day (an ordinal), anchored by its best event."""

    person_id: int
    dod_day: int
    anchor_concept_id: int
    domain_rank: int
    cluster_size: int


def rank_table(registry: ConceptRegistry) -> dict[int, int]:
    """The registry as `infer_delivery_dates` reads it: concept -> domain rank."""
    return {spec.concept_id: spec.domain_rank for spec in registry}


def infer_delivery_dates(
    person_id: int,
    events: Iterable[tuple[int, int]],
    ranks: dict[int, int],
    window_days: int = SEPARATION_WINDOW_DAYS,
) -> list[DeliveryRecord]:
    """Collapse one person's `(day, concept id)` delivery events into one day per gestation.

    Iteratively selects the best remaining event (domain rank, then latest
    day, then lowest concept id), emits its day, and removes every remaining
    event dated within ±window_days (inclusive) of it. Events whose concept
    is not in `ranks` are ignored. Result is sorted latest first.
    """
    # (rank, -day, concept id) sorts natively into anchor order.
    pool = sorted(
        [(rank, -day, concept_id) for day, concept_id in events if (rank := ranks.get(concept_id)) is not None]
    )
    days = [-p[1] for p in pool]
    results = []
    for i, members in anchor_and_absorb(days, window_days):
        rank, _, concept_id = pool[i]
        results.append(DeliveryRecord(person_id, days[i], concept_id, rank, len(members)))
    results.sort(key=DOD_DAY, reverse=True)
    return results
