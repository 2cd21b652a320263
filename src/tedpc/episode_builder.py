"""Consolidation of start and delivery streams into pregnancy episodes.

Deliveries are matched latest-first to the unused start whose implied
gestation length is plausible and closest to 280 days. Matched pairs become
episodes; everything unmatched is reported. Episodes can then be filtered by
the cohort inclusion rules (delivery window, maternal age) and queried for
the gestational week of arbitrary index events. Episodes hold day ordinals,
as starts and deliveries do; of them, only the cohort rules build a `date`.
An episode holds its GA accuracy as an `AccuracyLevel`'s int and its extreme
flag as the text written ("none", "short" or "long"); a timing holds its
trimester as text too ("pre", "first", "second" or "third").
"""

from __future__ import annotations

from datetime import date
from functools import partial
from operator import itemgetter, lt, sub
from pathlib import Path
from typing import Iterable, NamedTuple

from .concept_registry import ACCURACY_TOKENS, DOMAIN_RANKS, TOKEN_BY_ACCURACY
from .dod_engine import DOD_DAY, DeliveryRecord
from .csvio import BOOL_TEXT, BOOL_TOKENS, Memo, columns, iso_date, iso_text, write_lines
from .errors import InvariantError
from .ga_engine import GestationStart
from .ingestion import Person

# Plausible gestation length for matching a delivery to a start, in days.
MATCH_MIN_DAYS = 140
MATCH_MAX_DAYS = 308
TYPICAL_GESTATION_DAYS = 280

# Extreme gestation lengths flagged for review (never excluded by flagging).
SHORT_GESTATION_DAYS = 150
LONG_GESTATION_DAYS = 300

# Cohort inclusion: at least one delivery inside the window, maternal age in range.
COHORT_WINDOW = (date(2018, 6, 1), date(2021, 5, 31))
MIN_AGE_AT_DELIVERY = 15
MAX_AGE_AT_DELIVERY = 49

FIRST_TRIMESTER_MAX_WEEK = 13
SECOND_TRIMESTER_MAX_WEEK = 27


class GestationalTiming(NamedTuple):
    """Gestational week (0 = pre-pregnancy) and trimester of one event."""

    week: int
    trimester: str  # "pre", "first", "second" or "third"


class PregnancyEpisode(NamedTuple):
    """One consolidated (start, delivery) pair for one gestation; both days are ordinals."""

    person_id: int
    episode_index: int
    start_day: int
    dod_day: int
    gestation_days: int
    ga_accuracy: int  # an AccuracyLevel's value
    dod_domain_rank: int
    extreme_flag: str  # "none", "short" or "long"
    conflict_flag: bool


class MatchDiagnostics(NamedTuple):
    """Starts and deliveries left unpaired by episode matching."""

    unmatched_starts: list[GestationStart]
    unmatched_dods: list[DeliveryRecord]


def extreme_flag_of(gestation_days: int) -> str:
    if gestation_days < SHORT_GESTATION_DAYS:
        return "short"
    if gestation_days > LONG_GESTATION_DAYS:
        return "long"
    return "none"


def match_episodes(
    starts: list[GestationStart],
    dods: list[DeliveryRecord],
    min_days: int = MATCH_MIN_DAYS,
    max_days: int = MATCH_MAX_DAYS,
) -> tuple[list[PregnancyEpisode], MatchDiagnostics]:
    """Pair one person's delivery days with pregnancy starts.

    Deliveries are processed latest first. A start is eligible when the
    implied gestation length lies in [min_days, max_days]; among eligible
    starts the one closest to 280 days wins, earlier start on a tie. Each
    start and delivery is used at most once; leftovers are reported.
    """
    if len({x.person_id for x in (*starts, *dods)}) > 1:
        raise InvariantError("episode matching called with more than one person")
    diagnostics = MatchDiagnostics([], [])
    unused = list(starts)
    pairs: list[tuple[int, GestationStart, DeliveryRecord]] = []
    for record in sorted(dods, key=DOD_DAY, reverse=True):
        best = best_key = None
        for start in unused:
            gestation = record.dod_day - start.start_day
            if min_days <= gestation <= max_days:
                key = (abs(gestation - TYPICAL_GESTATION_DAYS), start.start_day)
                if best_key is None or key < best_key:
                    best, best_key = start, key
        if best is None:
            diagnostics.unmatched_dods.append(record)
        else:
            unused.remove(best)
            pairs.append((best.start_day, best, record))
    diagnostics.unmatched_starts.extend(unused)
    pairs.sort(key=itemgetter(0))
    episodes = []
    for index, (_, start, record) in enumerate(pairs, start=1):
        gestation = record.dod_day - start.start_day
        episodes.append(
            PregnancyEpisode(
                start.person_id, index, start.start_day, record.dod_day, gestation, start.accuracy,
                record.domain_rank, extreme_flag_of(gestation), start.conflict_flag,
            )
        )
    return episodes, diagnostics


def age_at(birth_date: date, on_date: date) -> int:
    """Whole years elapsed between birth_date and on_date."""
    years = on_date.year - birth_date.year
    if (on_date.month, on_date.day) < (birth_date.month, birth_date.day):
        years -= 1
    return years


def apply_cohort_filters(
    episodes: Iterable[PregnancyEpisode], persons: dict[int, Person]
) -> tuple[list[PregnancyEpisode], list[tuple[PregnancyEpisode, str]]]:
    """Retain episodes delivered inside COHORT_WINDOW with maternal age in range.

    Age is whole years at delivery, bounds inclusive. Episodes whose person is
    missing from the persons table are excluded with a diagnostic.
    """
    kept: list[PregnancyEpisode] = []
    excluded: list[tuple[PregnancyEpisode, str]] = []
    for episode in episodes:
        person = persons.get(episode.person_id)
        if person is None:
            excluded.append((episode, "person missing from persons table"))
            continue
        dod = date.fromordinal(episode.dod_day)
        if not (COHORT_WINDOW[0] <= dod <= COHORT_WINDOW[1]):
            excluded.append((episode, "delivery outside cohort window"))
            continue
        age = age_at(person.birth_date, dod)
        if not (MIN_AGE_AT_DELIVERY <= age <= MAX_AGE_AT_DELIVERY):
            excluded.append((episode, f"age {age} at delivery outside [{MIN_AGE_AT_DELIVERY}, {MAX_AGE_AT_DELIVERY}]"))
            continue
        kept.append(episode)
    return kept, excluded


def week_of(start_day: int, day: int) -> int:
    """Ordinal gestational week of a day: the start day is in week 1, a day before the start in week 0."""
    return 0 if day < start_day else (day - start_day) // 7 + 1


def trimester_of(week: int) -> str:
    """Trimester of a gestational week; week 0 is pre-pregnancy."""
    if week < 0:
        raise ValueError(f"negative gestational week {week}")
    if week == 0:
        return "pre"
    if week <= FIRST_TRIMESTER_MAX_WEEK:
        return "first"
    if week <= SECOND_TRIMESTER_MAX_WEEK:
        return "second"
    return "third"


def gestational_week_of(day: int, start_day: int) -> GestationalTiming:
    """Map an event day, on or before the delivery, onto an episode's timeline; both are day ordinals.

    Days before the start are week 0 (pre-pregnancy).
    """
    week = week_of(start_day, day)
    return GestationalTiming(week, trimester_of(week))


EPISODE_HEADER = ["person_id", "episode_index", "start_date", "dod", "gestation_days", "ga_accuracy", "dod_domain_rank",
                  "extreme_flag", "conflict_flag"]
# The parsers of ga_accuracy, a token to its AccuracyLevel's int, and of extreme_flag, a flag's text to itself.
_ACCURACY_RANKS = {token: level.value for token, level in ACCURACY_TOKENS.items()}
_EXTREME_FLAGS = {flag: flag for flag in ("none", "short", "long")}
_EPISODE_KEY = itemgetter(0, 1)  # (person_id, episode_index)
_DOD_RANKS = frozenset(DOMAIN_RANKS.values())
# A PregnancyEpisode from a tuple of its fields, with no Python call of its own.
_NEW_EPISODE = partial(tuple.__new__, PregnancyEpisode)


def write_episodes(path: Path | str, episodes: Iterable[PregnancyEpisode]) -> None:
    """Write episodes in canonical (person, episode index) order, each as one text line (`write_lines`)."""
    day_text = Memo(iso_text)
    write_lines(
        path,
        EPISODE_HEADER,
        (
            f"{person_id},{index},{day_text[start]},{day_text[dod]},{days},{TOKEN_BY_ACCURACY[accuracy]},"
            f"{rank},{flag},{BOOL_TEXT[conflict]}\n"
            for person_id, index, start, dod, days, accuracy, rank, flag, conflict in sorted(episodes, key=_EPISODE_KEY)
        ),
    )


def read_episodes(path: Path | str) -> list[PregnancyEpisode]:
    """Read an episodes table written by write_episodes.

    Every token field takes exactly the values write_episodes writes; any
    other text is a bad row, as is a row whose gestation_days or extreme_flag
    contradicts its dates, whose dod is not after its start, whose
    episode_index is below 1, whose dod_domain_rank is not a domain rank, or
    that repeats a (person_id, episode_index). Dates are read as day ordinals.
    Each block (`csvio.columns`) is checked a column at a time. Keys that
    ascend, as write_episodes writes them, cannot repeat: only a file out of
    that order builds a set of its keys.
    """
    days, ints, flags = Memo(lambda text: iso_date(text).toordinal()), Memo(int), Memo(extreme_flag_of)
    parsers = (int, ints.__getitem__, days.__getitem__, days.__getitem__, ints.__getitem__,
               _ACCURACY_RANKS.__getitem__, ints.__getitem__, _EXTREME_FLAGS.__getitem__, BOOL_TOKENS.__getitem__)
    episodes: list[PregnancyEpisode] = []
    last_key: tuple = ()  # the last key read, while the keys ascend; () is below every key
    seen: set[tuple[int, int]] | None = None  # every key read, once they do not

    def check(block: list[list], texts: list) -> None:
        # Commits its state only once the block passes: a failed block is checked again a row at a time.
        nonlocal last_key, seen
        person_ids, indexes, starts, dods, gestations, _, ranks, extreme_flags, _ = block
        lengths = list(map(sub, dods, starts))
        if (lengths != gestations or list(map(flags.__getitem__, lengths)) != extreme_flags or min(lengths) < 1
                or min(indexes) < 1 or not _DOD_RANKS.issuperset(ranks)):
            for row, index, rank, length, gestation, flag in zip(
                zip(*texts), indexes, ranks, lengths, gestations, extreme_flags
            ):
                if index < 1:
                    raise ValueError(f"episode_index {row[1]} is below 1")
                if rank not in _DOD_RANKS:
                    raise ValueError(f"dod_domain_rank {row[6]} is not one of {sorted(_DOD_RANKS)}")
                if gestation != length or flag != flags[length]:
                    raise ValueError(f"gestation_days {row[4]}, extreme_flag {row[7]!r} contradict dates {length} days apart")
                if length < 1:
                    raise ValueError(f"gestation_days {row[4]}: dod {row[3]} is not after start_date {row[2]}")
        keys = list(zip(person_ids, indexes))
        if seen is None and all(map(lt, [last_key, *keys], keys)):
            last_key = keys[-1]
            return
        if seen is None:
            seen = set(map(_EPISODE_KEY, episodes))
        fresh = set(keys)
        if len(fresh) < len(keys) or not seen.isdisjoint(fresh):
            known = set(seen)
            row = next(row for row, key in zip(zip(*texts), keys) if key in known or known.add(key))
            raise ValueError(f"episode {row[1]} of person {row[0]} repeats an earlier row")
        seen |= fresh

    for block in columns(path, EPISODE_HEADER, parsers, check):
        episodes.extend(map(_NEW_EPISODE, zip(*block)))
    return episodes
