"""Pregnancy start-date inference from GA-bearing clinical events.

Each GA event implies a candidate pregnancy start: the event day minus the
gestation its concept encodes (median of the concept's week range). Candidates
for one person are collapsed into gestations by repeatedly anchoring on the
most accurate remaining candidate and absorbing everything whose implied start
falls within the separation window of the anchor's.
Days are ordinals throughout: a candidate is an `(accuracy, day, concept id,
start day)` tuple whose native order is the anchor order.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, NamedTuple

from .concept_registry import AccuracyLevel, ConceptRegistry, GAConceptSpec

# Two gestations of one person are assumed to start more than this many days apart.
SEPARATION_WINDOW_DAYS = 270
# An absorbed high-accuracy candidate further than this from its anchor flags a conflict.
CONFLICT_WINDOW_DAYS = 14

_HIGH = int(AccuracyLevel.HIGH)
_LEVEL_OF_RANK = {int(level): level for level in AccuracyLevel}
_START_DAY = itemgetter(1)  # GestationStart.start_day

# One GA candidate: (accuracy rank, event day, concept id, implied start day).
Candidate = tuple[int, int, int, int]


class GestationStart(NamedTuple):
    """One inferred pregnancy start (a day ordinal), anchored by its best candidate."""

    person_id: int
    start_day: int
    accuracy: AccuracyLevel
    anchor_concept_id: int
    anchor_day: int
    conflict_flag: bool
    cluster_size: int


def ga_days(spec: GAConceptSpec) -> int:
    """Gestation length in days implied by a concept's week range.

    Uses the median time point of the range; a half-day median rounds up.
    """
    total = 7 * (spec.week_low + spec.week_high)
    return (total + 1) // 2


def candidate_table(registry: ConceptRegistry) -> dict[int, tuple[int, int]]:
    """The registry as `build_candidates` reads it: concept -> (gestation days, accuracy rank)."""
    return {spec.concept_id: (ga_days(spec), int(spec.accuracy)) for spec in registry}


def build_candidates(events: Iterable[tuple[int, int]], table: dict[int, tuple[int, int]]) -> list[Candidate]:
    """Turn a person's `(day, concept id)` events into GA candidates; non-GA events are skipped."""
    return [
        (spec[1], day, concept_id, day - spec[0])
        for day, concept_id in events
        if (spec := table.get(concept_id)) is not None
    ]


def anchor_and_absorb(positions: list[int], window_days: int) -> list[tuple[int, list[int]]]:
    """Greedy clustering shared by the start and delivery engines.

    Walks `positions` in index order, which is anchor order: best first.
    The first index not yet absorbed anchors a cluster of every remaining
    index within ±window_days (inclusive) of its position, itself included.
    One pass partitions the remaining indices, kept in index order, into the
    cluster and the rest: O(n) per cluster, so one cluster costs one pass.
    Returns (anchor, members) pairs in anchor order, members in index order.
    """
    rest = range(len(positions))
    clusters = []
    while rest:
        anchor = positions[rest[0]]
        low, high = anchor - window_days, anchor + window_days
        members = [j for j in rest if low <= positions[j] <= high]
        clusters.append((rest[0], members))
        if len(members) == len(rest):
            break
        rest = [j for j in rest if not low <= positions[j] <= high]
    return clusters


def infer_gestation_starts(
    person_id: int,
    candidates: list[Candidate],
    window_days: int = SEPARATION_WINDOW_DAYS,
    conflict_days: int = CONFLICT_WINDOW_DAYS,
) -> list[GestationStart]:
    """Collapse one person's candidates into one start per gestation.

    Iteratively selects the best remaining candidate (accuracy rank, then
    earliest event day, then lowest concept id: the candidates' native
    order), emits its start day, and removes every remaining candidate whose
    start lies within ±window_days (inclusive) of the anchor's. The conflict
    flag records an absorbed high-accuracy candidate disagreeing with the
    anchor by more than conflict_days; it never alters the output. Result is
    sorted by start day.
    """
    pool = sorted(candidates)
    starts = [c[3] for c in pool]
    results = []
    for i, members in anchor_and_absorb(starts, window_days):
        accuracy, day, concept_id, start = pool[i]
        conflict = False
        for j in members:
            if pool[j][0] == _HIGH and abs(starts[j] - start) > conflict_days:
                conflict = True
                break
        results.append(
            GestationStart(person_id, start, _LEVEL_OF_RANK[accuracy], concept_id, day, conflict, len(members))
        )
    results.sort(key=_START_DAY)
    return results
