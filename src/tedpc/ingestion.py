"""Person and clinical-event table ingestion.

Events are grouped per person and sorted by (event date, concept id) so that
every downstream "first" selection is deterministic regardless of input row
order. Events referencing unknown persons are quarantined, never dropped
silently.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Iterable, NamedTuple

from .concept_registry import DODRegistry, Domain, GARegistry
from .csvio import read_rows, write_rows

logger = logging.getLogger(__name__)

# De-identified date shifting never leaves this window; anything outside is corrupt.
MIN_EVENT_DATE = date(1900, 1, 1)
MAX_EVENT_DATE = date(2100, 12, 31)

PERSON_HEADER = ["person_id", "birth_date", "sex", "race", "ethnicity"]
EVENT_HEADER = ["person_id", "concept_id", "domain", "event_date"]


class Person(NamedTuple):
    person_id: int
    birth_date: date
    sex: str
    race: str
    ethnicity: str


class ClinicalEvent(NamedTuple):
    person_id: int
    concept_id: int
    domain: Domain
    event_date: date


@dataclass
class EventTable:
    """Per-person ordered event lists plus ingestion diagnostics."""

    events_by_person: dict[int, list[ClinicalEvent]]
    quarantined: list[ClinicalEvent] = field(default_factory=list)
    total_rows: int = 0
    domain_mismatches: int = 0

    def grouped_count(self) -> int:
        return sum(len(evs) for evs in self.events_by_person.values())


def load_persons(path: Path | str, today: date | None = None) -> dict[int, Person]:
    """Load the persons table keyed by person id.

    Identical duplicate rows collapse; conflicting duplicates fail. Birth
    dates must parse and lie in [1900-01-01, today].
    """
    today = today or date.today()
    persons: dict[int, Person] = {}

    def parse(row: list[str]) -> Person:
        person = Person(int(row[0]), date.fromisoformat(row[1]), row[2], row[3], row[4])
        if not (MIN_EVENT_DATE <= person.birth_date <= today):
            raise ValueError(
                f"birth_date {person.birth_date.isoformat()} outside "
                f"[{MIN_EVENT_DATE.isoformat()}, {today.isoformat()}]"
            )
        if persons.get(person.person_id, person) != person:
            raise ValueError(f"conflicting duplicate for person {person.person_id}")
        return person

    for person in read_rows(path, PERSON_HEADER, parse):
        persons[person.person_id] = person
    logger.info("loaded %d persons from %s", len(persons), path)
    return persons


def load_events(
    path: Path | str,
    ga_registry: GARegistry | None = None,
    dod_registry: DODRegistry | None = None,
    known_persons: Iterable[int] | None = None,
    concepts: Iterable[int] | None = None,
) -> EventTable:
    """Load the events table grouped by person.

    Within a person, events are sorted by (event_date, concept_id). Rows for
    persons absent from `known_persons` are quarantined with a diagnostic.
    When registries are given, an event whose domain disagrees with the
    registry's domain for that concept is kept but counted and warned about.
    With `concepts`, every row is still parsed, checked and counted, but only
    events of those concepts are grouped.
    """
    known = set(known_persons) if known_persons is not None else None
    wanted = frozenset(concepts) if concepts is not None else None
    # The GA registry's domain wins where a concept is in both registries.
    expected_domain = {spec.concept_id: spec.domain for spec in dod_registry or ()}
    expected_domain.update((spec.concept_id, spec.domain) for spec in ga_registry or ())
    by_person: dict[int, list[ClinicalEvent]] = {}
    quarantined: list[ClinicalEvent] = []
    mismatches = 0
    mismatch_samples: list[ClinicalEvent] = []
    total = 0
    # Dates and domains repeat across rows: each distinct text is parsed and
    # checked once. A bad value raises before it is cached.
    dates: dict[str, date] = {}
    domains: dict[str, Domain] = {}

    def parse_date(text: str) -> date:
        day = date.fromisoformat(text)
        if not (MIN_EVENT_DATE <= day <= MAX_EVENT_DATE):
            raise ValueError(
                f"event_date {day.isoformat()} outside "
                f"[{MIN_EVENT_DATE.isoformat()}, {MAX_EVENT_DATE.isoformat()}]"
            )
        return day

    def parse(row: list[str]) -> ClinicalEvent:
        person_id, concept_id = int(row[0]), int(row[1])
        domain = domains.get(row[2])
        if domain is None:
            domain = domains[row[2]] = Domain.parse(row[2])
        day = dates.get(row[3])
        if day is None:
            day = dates[row[3]] = parse_date(row[3])
        return ClinicalEvent(person_id, concept_id, domain, day)

    for event in read_rows(path, EVENT_HEADER, parse):
        total += 1
        person_id, concept_id, domain, _ = event
        if known is not None and person_id not in known:
            quarantined.append(event)
            continue
        expected = expected_domain.get(concept_id)
        if expected is not None and expected != domain:
            mismatches += 1
            if len(mismatch_samples) < 5:
                mismatch_samples.append(event)
        if wanted is None or concept_id in wanted:
            by_person.setdefault(person_id, []).append(event)
    for events in by_person.values():
        events.sort(key=lambda e: (e.event_date, e.concept_id))
    if quarantined:
        logger.warning("%s: quarantined %d events referencing unknown persons", path, len(quarantined))
    if mismatches:
        logger.warning(
            "%s: %d events disagree with the registry domain for their concept, e.g. %s",
            path,
            mismatches,
            mismatch_samples[0],
        )
    logger.info("loaded %d events for %d persons from %s", total - len(quarantined), len(by_person), path)
    return EventTable(by_person, quarantined, total, mismatches)


def write_persons(path: Path | str, persons: Iterable[Person]) -> None:
    """Write a persons table in canonical (person id) order."""
    write_rows(
        path,
        PERSON_HEADER,
        (
            [p.person_id, p.birth_date.isoformat(), p.sex, p.race, p.ethnicity]
            for p in sorted(persons, key=lambda p: p.person_id)
        ),
    )


def write_events(path: Path | str, events: Iterable[ClinicalEvent]) -> None:
    """Write an events table in canonical (person, date, concept) order."""
    write_rows(
        path,
        EVENT_HEADER,
        (
            [e.person_id, e.concept_id, e.domain.value, e.event_date.isoformat()]
            for e in sorted(events, key=lambda e: (e.person_id, e.event_date, e.concept_id))
        ),
    )
