"""Pregnancy start-date inference from GA-bearing clinical events.

Each GA event implies a candidate pregnancy start: the event date minus the
gestation its concept encodes (median of the concept's week range). Candidates
for one person are collapsed into gestations by repeatedly anchoring on the
most accurate remaining candidate and absorbing everything whose implied start
falls within the separation window of the anchor's.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import Iterable, NamedTuple

from .concept_registry import AccuracyLevel, GAConceptSpec, GARegistry
from .errors import InvariantError
from .ingestion import ClinicalEvent

# Two gestations of one person are assumed to start more than this many days apart.
SEPARATION_WINDOW_DAYS = 270
# An absorbed high-accuracy candidate further than this from its anchor flags a conflict.
CONFLICT_WINDOW_DAYS = 14


class GACandidate(NamedTuple):
    event: ClinicalEvent
    spec: GAConceptSpec
    start_date: date
    accuracy: AccuracyLevel


@dataclass(frozen=True)
class GestationStart:
    """One inferred pregnancy start, anchored by its best candidate."""

    person_id: int
    start_date: date
    anchor: GACandidate
    accuracy: AccuracyLevel
    conflict_flag: bool
    cluster_size: int


def ga_days(spec: GAConceptSpec) -> int:
    """Gestation length in days implied by a concept's week range.

    Uses the median time point of the range; a half-day median rounds up.
    """
    total = 7 * (spec.week_low + spec.week_high)
    return (total + 1) // 2


def start_date_from_event(event_date: date, spec: GAConceptSpec) -> date:
    """Pregnancy start implied by one GA event: exact calendar arithmetic."""
    return date.fromordinal(event_date.toordinal() - ga_days(spec))


def build_candidates(events: Iterable[ClinicalEvent], registry: GARegistry) -> list[GACandidate]:
    """Turn a person's events into GA candidates; non-GA events are skipped."""
    candidates = []
    for event in events:
        spec = registry.get(event.concept_id)
        if spec is None:
            continue
        candidates.append(GACandidate(event, spec, start_date_from_event(event.event_date, spec), spec.accuracy))
    return candidates


def anchor_and_absorb(
    positions: list[int], order: Iterable[int], window_days: int
) -> list[tuple[int, list[int]]]:
    """Greedy clustering shared by the start and delivery engines.

    Walks `order` (indices into `positions`, best first). Each index not yet
    absorbed becomes an anchor and absorbs every remaining index whose
    position lies within ±window_days (inclusive) of its own, itself
    included. Returns (anchor, members) pairs in anchor order, members in
    index order.
    """
    alive = bytearray([1]) * len(positions)
    clusters = []
    for i in order:
        if not alive[i]:
            continue
        anchor = positions[i]
        members = []
        for j in range(len(positions)):
            if alive[j] and abs(positions[j] - anchor) <= window_days:
                alive[j] = 0
                members.append(j)
        clusters.append((i, members))
    return clusters


def infer_gestation_starts(
    candidates: list[GACandidate],
    window_days: int = SEPARATION_WINDOW_DAYS,
    conflict_days: int = CONFLICT_WINDOW_DAYS,
) -> list[GestationStart]:
    """Collapse one person's candidates into one start per gestation.

    Iteratively selects the best remaining candidate (accuracy rank, then
    earliest event date, then lowest concept id), emits its start date, and
    removes every remaining candidate whose start lies within ±window_days
    (inclusive) of the anchor's. The conflict flag records an absorbed
    high-accuracy candidate disagreeing with the anchor by more than
    conflict_days; it never alters the output. Result is sorted by start date.
    """
    if not candidates:
        return []
    person_id = candidates[0].event.person_id
    if any(c.event.person_id != person_id for c in candidates):
        raise InvariantError("candidates for more than one person in one inference call")
    order = sorted(
        range(len(candidates)),
        key=lambda i: (
            candidates[i].accuracy,
            candidates[i].event.event_date,
            candidates[i].event.concept_id,
        ),
    )
    start_ord = [c.start_date.toordinal() for c in candidates]
    high = AccuracyLevel.HIGH  # looked up once: attribute access on an Enum class is slow
    results = []
    for i, members in anchor_and_absorb(start_ord, order, window_days):
        anchor = candidates[i]
        conflict = any(
            candidates[j].accuracy is high and abs(start_ord[j] - start_ord[i]) > conflict_days for j in members
        )
        results.append(
            GestationStart(person_id, anchor.start_date, anchor, anchor.accuracy, conflict, len(members))
        )
    results.sort(key=lambda g: g.start_date)
    return results
