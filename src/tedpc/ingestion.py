"""Person and clinical-event table ingestion.

Events are grouped per person as one flat list of ints, `[day ordinal,
concept id, day ordinal, concept id, ...]` in file order, with no object per
event. `event_pairs` reads a person's list as `(day ordinal, concept id)`
pairs, still in file order: a reader whose output depends on event order
sorts the pairs itself, so that every "first" selection is deterministic
regardless of input row order.
Days stay ints up to the writers, episodes' days too; dates come back only in
the calendar rules and in written text.
Events referencing unknown persons are quarantined as whole rows, never
dropped silently. `load_events` is the one reader of events.csv: it groups the
events of one concept map and, given labels, keeps each label's first day per
person in the same pass. `write_events` writes a flat `[person id, day
ordinal, concept id, ...]` list, as the generator holds its events.
"""

from __future__ import annotations

import logging
from datetime import date
from functools import partial
from itertools import compress
from operator import and_, not_
from pathlib import Path
from typing import Container, Iterable, Iterator, NamedTuple

from .concept_registry import Domain
from .csvio import Memo, columns, iso_date, iso_text, write_lines, write_rows

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
    native order is the order quarantine.csv is written in. `first_days` holds
    each label's first day per person, `{label: {person_id: day ordinal}}`,
    one dict for every label `load_events` was given, and is empty without labels.
    """

    events_by_person: dict[int, list[int]]
    quarantined: list[tuple[int, int, int, Domain]]
    total_rows: int
    domain_mismatches: int
    first_days: dict[object, dict[int, int]]


def event_pairs(flat: Iterable[int]) -> Iterator[Event]:
    """A person's flat `[day, concept id, ...]` list as `(day, concept id)` pairs, lazily and in file order."""
    pairs = iter(flat)
    return zip(pairs, pairs)


def load_persons(path: Path | str) -> dict[int, Person]:
    """Load the persons table keyed by person id.

    Identical duplicate rows collapse; conflicting duplicates fail. Birth
    dates must be `YYYY-MM-DD` and lie in [1900-01-01, today]. Read a block at
    a time (`csvio.columns`), with no Python code per row.
    """
    today = date.today()
    persons: dict[int, Person] = {}

    def birth_date(text: str) -> date:
        day = iso_date(text)
        if not (MIN_EVENT_DATE <= day <= today):
            raise ValueError(f"birth_date {day} outside [{MIN_EVENT_DATE}, {today}]")
        return day

    def check(block: list[list], _texts: list) -> None:
        # tuple.__new__ makes each Person with no Python call of its own. The setdefault is
        # idempotent, as a block that fails is checked again a row at a time.
        people = list(map(partial(tuple.__new__, Person), zip(*block)))
        if list(map(persons.setdefault, block[0], people)) != people:
            person = next(p for p in people if persons.setdefault(p.person_id, p) != p)
            raise ValueError(f"conflicting duplicate for person {person.person_id}")

    # Birth dates and the sex, race and ethnicity texts repeat across rows:
    # each distinct value is parsed and checked once, and held once.
    birth_dates, texts = Memo(birth_date), Memo(str)
    parsers = (int, birth_dates.__getitem__, texts.__getitem__, texts.__getitem__, texts.__getitem__)
    for _ in columns(path, PERSON_HEADER, parsers, check):
        pass
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
    path: Path | str,
    concepts: dict[int, Domain | None],
    known_persons: Container[int] | None = None,
    labels: dict[int, tuple] | None = None,
) -> EventTable:
    """Load the events of `concepts` grouped by person as flat `[day ordinal, concept id, ...]` lists.

    `concepts` maps each concept id to be grouped to the domain its registry
    expects, or to None for no domain check. Every row is parsed, checked and
    counted; a grouped event whose domain disagrees with its concept's
    expected domain is kept but counted and warned about. A person's list
    keeps file order (`event_pairs`). Rows for persons not in the
    `known_persons` container (tested with `in` as given, not copied: pass the
    persons dict) are quarantined with a diagnostic.

    `labels` maps a concept id to the labels its events count toward. With it,
    the same pass keeps each label's first day per person in `first_days`, as
    `{label: {person_id: day ordinal}}`, from the rows not quarantined.

    The file is parsed a block of rows at a time (`csvio.columns`): the fields
    of a block are parsed and checked a column at a time, and Python code runs
    per row only for the rows grouped, labelled or quarantined.
    """
    by_person: dict[int, list[int]] = {}
    firsts: dict[object, dict[int, int]] = {}
    # Each labelled concept -> the first-day dicts of its labels.
    targets = {
        concept_id: tuple(firsts.setdefault(label, {}) for label in concept_labels)
        for concept_id, concept_labels in (labels or {}).items()
    }
    quarantined: list[tuple[int, int, int, Domain]] = []
    mismatches = 0
    mismatch_sample: ClinicalEvent | None = None
    # Concept ids, dates and domains repeat across rows: each distinct text is
    # parsed and checked once, and its value is held once.
    concept_ids = Memo(int)
    days = Memo(_event_day)
    domains = Memo(Domain.parse)
    parsers = (int, concept_ids.__getitem__, domains.__getitem__, days.__getitem__)
    grouped, labelled = concepts.__contains__, targets.__contains__
    total = 0
    for person_col, concept_col, domain_col, day_col in columns(path, EVENT_HEADER, parsers):
        total += len(person_col)
        known = None if known_persons is None else list(map(known_persons.__contains__, person_col))
        if known is not None and False in known:
            rows = zip(person_col, day_col, concept_col, domain_col)
            quarantined.extend(compress(rows, map(not_, known)))
        for person_id, day, concept_id, domain in _kept(person_col, day_col, concept_col, domain_col, grouped, known):
            expected = concepts[concept_id]
            if expected is not None and expected is not domain:
                mismatches += 1
                if mismatch_sample is None:
                    mismatch_sample = ClinicalEvent(person_id, concept_id, domain, date.fromordinal(day))
            by_person.setdefault(person_id, []).extend((day, concept_id))
        if targets:
            for person_id, day, concept_id, _ in _kept(person_col, day_col, concept_col, domain_col, labelled, known):
                for first in targets[concept_id]:
                    if first.setdefault(person_id, day) > day:
                        first[person_id] = day
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
    return EventTable(by_person, quarantined, total, mismatches, firsts)


def _kept(person_col, day_col, concept_col, domain_col, wanted, known) -> Iterator[tuple[int, int, int, Domain]]:
    """A block's `(person id, day, concept id, domain)` rows whose concept is `wanted`, of known persons only."""
    keep = map(wanted, concept_col)
    if known is not None:
        keep = map(and_, known, keep)
    return compress(zip(person_col, day_col, concept_col, domain_col), keep)


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


def write_events(path: Path | str, events: Iterable[int], domains: dict[int, Domain]) -> None:
    """Write an events table from a flat `[person id, day ordinal, concept id, ...]` list, rows in the order given.

    `domains` maps each concept id to the domain written with it. No field of
    an events row needs quoting (two ints, a domain's text, a `YYYY-MM-DD`
    date), so each row is formatted as text for `write_lines`, at a third of
    the cost of a list per row through `csv.writer`.
    """
    iso = Memo(iso_text)
    # Each concept's `concept id,domain,` text.
    middles = {concept_id: f"{concept_id},{_DOMAIN_TEXT[domain]}," for concept_id, domain in domains.items()}
    fields = iter(events)
    write_lines(path, EVENT_HEADER, (f"{p},{middles[c]}{iso[day]}\n" for p, day, c in zip(fields, fields, fields)))
