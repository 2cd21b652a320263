"""Delivery-date inference from delivery-indicating clinical events.

Delivery events for one birth concentrate within days of the true delivery,
so clustering here runs on raw event dates. Procedure-domain records are the
most trustworthy, then conditions, then observations; within a rank the
latest record wins. Clustering is the same anchor-and-absorb rule the start
engine uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import Iterable

from .concept_registry import DODRegistry
from .errors import InvariantError
from .ga_engine import SEPARATION_WINDOW_DAYS, anchor_and_absorb
from .ingestion import ClinicalEvent


@dataclass(frozen=True)
class DeliveryRecord:
    """One inferred delivery date, anchored by its best event."""

    person_id: int
    dod: date
    anchor_concept_id: int
    domain_rank: int
    cluster_size: int


def infer_delivery_dates(
    events: Iterable[ClinicalEvent],
    registry: DODRegistry,
    window_days: int = SEPARATION_WINDOW_DAYS,
) -> list[DeliveryRecord]:
    """Collapse one person's delivery events into one date per gestation.

    Iteratively selects the best remaining event (domain rank, then latest
    event date, then lowest concept id), emits its date, and removes every
    remaining event dated within ±window_days (inclusive) of it. Events whose
    concept is not in the registry are ignored. Result is sorted latest first.
    """
    pool = [(e, registry.rank_of(e.concept_id)) for e in events if e.concept_id in registry]
    if not pool:
        return []
    person_id = pool[0][0].person_id
    if any(e.person_id != person_id for e, _ in pool):
        raise InvariantError("events for more than one person in one inference call")
    date_ord = [e.event_date.toordinal() for e, _ in pool]
    order = sorted(range(len(pool)), key=lambda i: (pool[i][1], -date_ord[i], pool[i][0].concept_id))
    results = []
    for i, members in anchor_and_absorb(date_ord, order, window_days):
        anchor, rank = pool[i]
        results.append(DeliveryRecord(person_id, anchor.event_date, anchor.concept_id, rank, len(members)))
    results.sort(key=lambda r: r.dod, reverse=True)
    return results
