"""Person and clinical-event table ingestion.

Events are grouped per person as one flat list of ints, `[day ordinal,
concept id, day ordinal, concept id, ...]` in file order, with no object per
event. `event_pairs` reads a person's list as `(day ordinal, concept id)`
pairs, still in file order: a reader whose output depends on event order
sorts the pairs itself, so that every "first" selection is deterministic
regardless of input row order.
Days stay ints up to the writers; dates come back only in `PregnancyEpisode`
and in written text.
Events referencing unknown persons are quarantined as whole rows, never
dropped silently.
"""

from __future__ import annotations

import logging
from datetime import date
from pathlib import Path
from typing import Container, Iterable, Iterator, NamedTuple

from .concept_registry import Domain
from .csvio import Memo, iso_date, table, write_rows

logger = logging.getLogger(__name__)

# De-identified date shifting never leaves this window; anything outside is corrupt.
MIN_EVENT_DATE = date(1900, 1, 1)
MAX_EVENT_DATE = date(2100, 12, 31)

PERSON_HEADER = ["person_id", "birth_date", "sex", "race", "ethnicity"]
EVENT_HEADER = ["person_id", "concept_id", "domain", "event_date"]

# A domain's text as written; a dict lookup is cheaper than the Enum's `.value`.
_DOMAIN_TEXT = {domain: domain.value for domain in Domain}

# One event as `event_pairs` yields it: (day ordinal, concept id).
Event = tuple[int, int]


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


class EventTable(NamedTuple):
    """Per-person flat `[day ordinal, concept id, ...]` lists in file order, plus ingestion diagnostics.

    The ints are the loader's shared objects, two list slots per event; read a
    person's events through `event_pairs`. Quarantined rows are
    `(person id, day ordinal, concept id, domain)` tuples in file order, whose
    native order is the order quarantine.csv is written in.
    """

    events_by_person: dict[int, list[int]]
    quarantined: list[tuple[int, int, int, Domain]]
    total_rows: int
    domain_mismatches: int


def event_pairs(flat: Iterable[int]) -> Iterator[Event]:
    """A person's flat `[day, concept id, ...]` list as `(day, concept id)` pairs, lazily and in file order."""
    pairs = iter(flat)
    return zip(pairs, pairs)


def load_persons(path: Path | str) -> dict[int, Person]:
    """Load the persons table keyed by person id.

    Identical duplicate rows collapse; conflicting duplicates fail. Birth
    dates must be `YYYY-MM-DD` and lie in [1900-01-01, today].
    """
    today = date.today()
    persons: dict[int, Person] = {}
    # Birth dates and the sex, race and ethnicity texts repeat across rows:
    # each distinct value is held once.
    birth_dates = Memo(iso_date)
    texts = Memo(str)
    with table(path, PERSON_HEADER) as rows:
        for row in rows:
            person = Person(int(row[0]), birth_dates[row[1]], texts[row[2]], texts[row[3]], texts[row[4]])
            if not (MIN_EVENT_DATE <= person.birth_date <= today):
                raise ValueError(
                    f"birth_date {person.birth_date.isoformat()} outside "
                    f"[{MIN_EVENT_DATE.isoformat()}, {today.isoformat()}]"
                )
            if persons.setdefault(person.person_id, person) != person:
                raise ValueError(f"conflicting duplicate for person {person.person_id}")
    logger.info("loaded %d persons from %s", len(persons), path)
    return persons


def _event_day(text: str) -> int:
    day = iso_date(text)
    if not (MIN_EVENT_DATE <= day <= MAX_EVENT_DATE):
        raise ValueError(
            f"event_date {day.isoformat()} outside [{MIN_EVENT_DATE.isoformat()}, {MAX_EVENT_DATE.isoformat()}]"
        )
    return day.toordinal()


def load_events(
    path: Path | str, concepts: dict[int, Domain | None], known_persons: Container[int] | None = None
) -> EventTable:
    """Load the events of `concepts` grouped by person as flat `[day ordinal, concept id, ...]` lists.

    `concepts` maps each concept id to be grouped to the domain its registry
    expects, or to None for no domain check. Every row is parsed, checked and
    counted; a grouped event whose domain disagrees with its concept's
    expected domain is kept but counted and warned about. A person's list
    keeps file order (`event_pairs`). Rows for persons not in the
    `known_persons` container (tested with `in` as given, not copied: pass the
    persons dict) are quarantined with a diagnostic.
    """
    by_person: dict[int, list[int]] = {}
    quarantined: list[tuple[int, int, int, Domain]] = []
    mismatches = 0
    mismatch_sample: ClinicalEvent | None = None
    # Concept ids, dates and domains repeat across rows: each distinct text is
    # parsed and checked once, and its value is held once.
    concept_ids = Memo(int)
    days = Memo(_event_day)
    domains = Memo(Domain.parse)
    total = 0
    with table(path, EVENT_HEADER) as rows:
        for row in rows:
            total += 1
            person_id, concept_id = int(row[0]), concept_ids[row[1]]
            domain, day = domains[row[2]], days[row[3]]
            if known_persons is not None and person_id not in known_persons:
                quarantined.append((person_id, day, concept_id, domain))
                continue
            if concept_id not in concepts:
                continue
            expected = concepts[concept_id]
            if expected is not None and expected is not domain:
                mismatches += 1
                if mismatch_sample is None:
                    mismatch_sample = ClinicalEvent(person_id, concept_id, domain, date.fromordinal(day))
            by_person.setdefault(person_id, []).extend((day, concept_id))
    if quarantined:
        logger.warning("%s: quarantined %d events referencing unknown persons", path, len(quarantined))
    if mismatches:
        logger.warning(
            "%s: %d events disagree with the registry domain for their concept, e.g. %s",
            path,
            mismatches,
            mismatch_sample,
        )
    logger.info("loaded %d events for %d persons from %s", total - len(quarantined), len(by_person), path)
    return EventTable(by_person, quarantined, total, mismatches)


def first_event_days(path: Path | str, labels: dict[int, tuple]) -> dict[int, dict]:
    """Each person's first event day per label, `{person_id: {label: day ordinal}}`; no event is held.

    `labels` maps a concept id to the labels its events count toward. Rows are checked as in `load_events`.
    """
    firsts: dict[int, dict] = {}
    concept_ids, days, domains = Memo(int), Memo(_event_day), Memo(Domain.parse)
    with table(path, EVENT_HEADER) as rows:
        for row in rows:
            person_id, concept_id = int(row[0]), concept_ids[row[1]]
            domains[row[2]]  # checked, not kept
            day = days[row[3]]
            for label in labels.get(concept_id, ()):
                first = firsts.setdefault(person_id, {})
                if first.setdefault(label, day) > day:
                    first[label] = day
    return firsts


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
    """Write an events table with its rows in the order given."""
    iso = Memo(date.isoformat)
    write_rows(
        path, EVENT_HEADER, ([e.person_id, e.concept_id, _DOMAIN_TEXT[e.domain], iso[e.event_date]] for e in events)
    )
