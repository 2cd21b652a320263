"""Person and clinical-event table ingestion.

Events are grouped per person as one flat list of ints, `[day ordinal,
concept id, day ordinal, concept id, ...]` in file order, with no object per
event. `event_pairs` reads a person's list as `(day ordinal, concept id)`
pairs, still in file order: a reader whose output depends on event order
sorts the pairs itself, so that every "first" selection is deterministic
regardless of input row order.
Days stay ints up to the writers, births and episodes' days too; dates come
back only in the calendar rules and in written text.
Events referencing unknown persons are quarantined as whole rows, never
dropped silently. `load_events` is the one reader of events.csv: it groups the
events of one concept map and, given labels, keeps each label's first day per
person in the same pass. A large, plain, regular events.csv is read in two
processes where two CPUs can be used: a forked child scans the half after the
first line end past the middle byte while this process scans the first, with
the same parsers and checks, and the halves are joined in file order. Each
person's list is this process's part, then the child's; quarantined rows keep
file order; the domain mismatch shown is the first in the file; each first day
is the earlier of the two. Any doubt in either half (a bad row, text that is
not UTF-8, a child that fails or dies) sends the whole file through the read
in one process, which names the first bad row, so the result and every message
are those of one process. `write_events` writes a flat
`[person id, day ordinal, concept id, ...]` list, as the generator holds its
events.
"""

from __future__ import annotations

import logging
from datetime import date
from functools import partial
from itertools import chain, compress
from operator import and_, itemgetter, not_
from pathlib import Path
from typing import Callable, Container, Iterable, Iterator, NamedTuple

from .concept_registry import Domain
from .csvio import Memo, columns, forked, iso_date, iso_text, span_columns, split_point, write_lines, write_rows

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
    birth_day: int  # a day ordinal, written as the `birth_date` field
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
    native order is the order quarantine.csv is written in. A row's domain is
    its canonical text, a `Domain`'s value, which equals (`==`) the member.
    `first_days` holds each label's first day per person, `{label: {person_id:
    day ordinal}}`, one dict for every label `load_events` was given, and is
    empty without labels.
    """

    events_by_person: dict[int, list[int]]
    quarantined: list[tuple[int, int, int, str]]
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
    dates must be `YYYY-MM-DD` in [1900-01-01, today], held as day ordinals.
    Read a block at a time (`csvio.columns`), with no Python code per row.
    """
    today = date.today()
    persons: dict[int, Person] = {}

    def birth_day(text: str) -> int:
        day = iso_date(text)
        if not (MIN_EVENT_DATE <= day <= today):
            raise ValueError(f"birth_date {day} outside [{MIN_EVENT_DATE}, {today}]")
        return day.toordinal()

    def check(block: list[list], _texts: list) -> None:
        # tuple.__new__ makes each Person with no Python call of its own. The setdefault is
        # idempotent, as a block that fails is checked again a row at a time.
        people = list(map(partial(tuple.__new__, Person), zip(*block)))
        if list(map(persons.setdefault, block[0], people)) != people:
            person = next(p for p in people if persons.setdefault(p.person_id, p) != p)
            raise ValueError(f"conflicting duplicate for person {person.person_id}")

    # Birth dates and the sex, race and ethnicity texts repeat across rows:
    # each distinct value is parsed and checked once, and held once.
    birth_days, texts = Memo(birth_day), Memo(str)
    parsers = (int, birth_days.__getitem__, texts.__getitem__, texts.__getitem__, texts.__getitem__)
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
    per row only for the rows grouped, labelled or quarantined. A large plain
    file is read in two processes where two CPUs can be used
    (`csvio.split_point`): a forked child scans the second half while this
    process scans the first, and the halves are joined in file order. On any
    doubt in either half the whole file is read again as one, so a bad row is
    named as it would be without the split.
    """
    parsers = _event_parsers()
    scan = partial(_scan, concepts=concepts, known_persons=known_persons, labels=labels or {})
    result = _scan_halves(path, parsers, scan) or scan(columns(path, EVENT_HEADER, parsers))
    by_person, quarantined, total, mismatches, sample, firsts = result
    if quarantined:
        logger.warning("%s: quarantined %d events referencing unknown persons", path, len(quarantined))
    if mismatches:
        person_id, day, concept_id, domain = sample
        logger.warning(
            "%s: %d events disagree with the registry domain for their concept, e.g. %s",
            path,
            mismatches,
            ClinicalEvent(person_id, concept_id, Domain(domain), date.fromordinal(day)),
        )
    logger.info("loaded %d events for %d persons from %s", total - len(quarantined), len(by_person), path)
    return EventTable(by_person, quarantined, total, mismatches, firsts)


def grouped_events(
    path: Path | str, concepts: dict[int, Domain | None], known_persons: Container[int]
) -> dict[int, list[int]]:
    """The per-person lists `load_events` groups, read again in one process, with nothing logged.

    For a caller that has freed some of them and needs them back: the file was
    read, and its warnings logged, once already.
    """
    return _scan(columns(path, EVENT_HEADER, _event_parsers()), concepts, known_persons, {})[0]


def _event_parsers() -> tuple:
    """The parsers of an events row's four fields.

    Concept ids, dates and domains repeat across rows: each distinct text is
    parsed and checked once, and its value is held once. A domain is held as
    its canonical text (`Domain.parse`, then the member's value).
    """
    concept_ids = Memo(int)
    days = Memo(_event_day)
    domains = Memo(lambda text: Domain.parse(text).value)
    return (int, concept_ids.__getitem__, domains.__getitem__, days.__getitem__)


# What `_scan` returns: grouped lists, quarantined rows, rows read, domain mismatches, the first mismatched row
# (or None) and the first days, each as in EventTable; rows are `(person id, day, concept id, domain)`.
_Scanned = tuple[dict[int, list[int]], list, int, int, tuple | None, dict[object, dict[int, int]]]


def _scan(blocks: Iterable[list[list]], concepts, known_persons, labels: dict[int, tuple]) -> _Scanned:
    """`load_events`' pass over a file's parsed blocks, or over a span of them."""
    by_person: dict[int, list[int]] = {}
    firsts: dict[object, dict[int, int]] = {}
    # Each labelled concept -> the first-day dicts of its labels.
    targets = {
        concept_id: tuple(firsts.setdefault(label, {}) for label in concept_labels)
        for concept_id, concept_labels in labels.items()
    }
    quarantined: list[tuple[int, int, int, str]] = []
    mismatches = 0
    sample = None
    grouped, labelled = concepts.__contains__, targets.__contains__
    total = 0
    for person_col, concept_col, domain_col, day_col in blocks:
        total += len(person_col)
        known = None if known_persons is None else list(map(known_persons.__contains__, person_col))
        if known is not None and False in known:
            rows = zip(person_col, day_col, concept_col, domain_col)
            quarantined.extend(compress(rows, map(not_, known)))
        for person_id, day, concept_id, domain in _kept(person_col, day_col, concept_col, domain_col, grouped, known):
            expected = concepts[concept_id]
            if expected is not None and expected != domain:
                mismatches += 1
                if sample is None:
                    sample = (person_id, day, concept_id, domain)
            by_person.setdefault(person_id, []).extend((day, concept_id))
        if targets:
            for person_id, day, concept_id, _ in _kept(person_col, day_col, concept_col, domain_col, labelled, known):
                for first in targets[concept_id]:
                    if first.setdefault(person_id, day) > day:
                        first[person_id] = day
    return by_person, quarantined, total, mismatches, sample, firsts


def _scan_halves(path: Path | str, parsers: tuple, scan: Callable[[Iterable], _Scanned]) -> _Scanned | None:
    """`scan` over the whole file as two halves, the second in a forked child, joined in file order.

    None when the file does not qualify (`csvio.split_point`), or on any doubt:
    either half fails, the child dies, or its payload is malformed.
    """
    cut = split_point(path)
    if cut is None:
        return None

    def second_half() -> tuple:
        # The child's result, with each label's first days, in label order, as a flat `[person id, day, ...]`
        # list, which this process holds beside its own in less room.
        by_person, quarantined, total, mismatches, sample, firsts = scan(span_columns(path, EVENT_HEADER, parsers, cut))
        flat_firsts = [list(chain.from_iterable(first.items())) for first in firsts.values()]
        return by_person, quarantined, total, mismatches, sample, flat_firsts

    try:
        ours, theirs = forked(second_half, lambda: scan(span_columns(path, EVENT_HEADER, parsers, 0, cut)))
        if theirs is None:
            return None
        by_person, quarantined, total, mismatches, sample, firsts = ours
        their_by_person, their_quarantined, their_total, their_mismatches, their_sample, their_firsts = theirs
        del theirs  # each part of the child's result is let go once merged: this process's dicts grow into its room
        for person_id, flat in their_by_person.items():
            mine = by_person.get(person_id)
            if mine is None:
                by_person[person_id] = flat
            else:
                mine.extend(flat)
        quarantined += their_quarantined
        del their_by_person, their_quarantined
        for first, their_first in zip(firsts.values(), their_firsts, strict=True):
            pairs = iter(their_first)
            for person_id, day in zip(pairs, pairs):
                if first.setdefault(person_id, day) > day:
                    first[person_id] = day
            their_first.clear()
        if sample is None:
            sample = their_sample
        return by_person, quarantined, total + their_total, mismatches + their_mismatches, sample, firsts
    except Exception:
        # Any doubt: the caller reads the whole file in one process, which names a bad row.
        logger.debug("%s: reading in one process, as a half failed", path, exc_info=True)
        return None


def _kept(person_col, day_col, concept_col, domain_col, wanted, known) -> Iterator[tuple[int, int, int, str]]:
    """A block's `(person id, day, concept id, domain)` rows whose concept is `wanted`, of known persons only."""
    keep = map(wanted, concept_col)
    if known is not None:
        keep = map(and_, known, keep)
    return compress(zip(person_col, day_col, concept_col, domain_col), keep)


def write_persons(path: Path | str, persons: Iterable[Person]) -> None:
    """Write a persons table in canonical (person id) order, each birth day as its `YYYY-MM-DD` text."""
    write_rows(
        path,
        PERSON_HEADER,
        (
            [person_id, iso_text(birth), sex, race, ethnicity]
            for person_id, birth, sex, race, ethnicity in sorted(persons, key=itemgetter(0))
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
