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
) -> EventTable:
    """Load the events table grouped by person.

    Within a person, events are sorted by (event_date, concept_id). Rows for
    persons absent from `known_persons` are quarantined with a diagnostic.
    When registries are given, an event whose domain disagrees with the
    registry's domain for that concept is kept but counted and warned about.
    """
    known = set(known_persons) if known_persons is not None else None
    by_person: dict[int, list[ClinicalEvent]] = {}
    quarantined: list[ClinicalEvent] = []
    mismatches = 0
    mismatch_samples: list[ClinicalEvent] = []
    total = 0
    # Bound once: attribute lookup on an Enum class costs more than the parse itself.
    parse_domain = Domain.parse

    def parse(row: list[str]) -> ClinicalEvent:
        event = ClinicalEvent(int(row[0]), int(row[1]), parse_domain(row[2]), date.fromisoformat(row[3]))
        if not (MIN_EVENT_DATE <= event.event_date <= MAX_EVENT_DATE):
            raise ValueError(
                f"event_date {event.event_date.isoformat()} outside "
                f"[{MIN_EVENT_DATE.isoformat()}, {MAX_EVENT_DATE.isoformat()}]"
            )
        return event

    for event in read_rows(path, EVENT_HEADER, parse):
        total += 1
        person_id, concept_id, domain, _ = event
        if known is not None and person_id not in known:
            quarantined.append(event)
            continue
        expected = None
        if ga_registry is not None:
            spec = ga_registry.get(concept_id)
            if spec is not None:
                expected = spec.domain
        if expected is None and dod_registry is not None:
            spec = dod_registry.get(concept_id)
            if spec is not None:
                expected = spec.domain
        if expected is not None and expected != domain:
            mismatches += 1
            if len(mismatch_samples) < 5:
                mismatch_samples.append(event)
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
