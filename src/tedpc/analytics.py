"""Descriptive outputs over an episode set.

Produces the index-event gestational-week histogram and the stratified
demographics/conditions table, with small-cell suppression applied at render
time only: raw counts are computed once and never altered by suppression.
Both read only each person's first day of the index set and of each condition
set (`EventTable.first_days`, from `ingestion.load_events` given labels),
through `first_day_exposures`. Timeline needs every index event:
`episode_exposures` sorts one person's flat event list at a time into
`(day ordinal, concept id)` pairs (`ingestion.event_pairs`), the one place
events are sorted, and walks each episode's pairs once, up to the first after
its delivery.
"""

from __future__ import annotations

import re
from datetime import date
from enum import Enum
from typing import Callable, Iterable, Iterator, NamedTuple

from .csvio import Memo
from .episode_builder import SECOND_TRIMESTER_MAX_WEEK, PregnancyEpisode, age_at, trimester_of, week_of
from .ingestion import Event, Person, event_pairs

PANDEMIC_CUTOFF = date(2020, 3, 1)
SUPPRESSION_THRESHOLD = 20
MAX_HISTOGRAM_WEEK = 45
# One episode as `first_day_exposures` yields it: (episode, week of its first index event, condition sets met).
Exposure = tuple[PregnancyEpisode, int | None, list[str]]

AGE_BANDS = ["15-19", "20-24", "25-29", "30-34", "35-39", "40-44", "45-49"]
RACE_CATEGORIES = [
    "White",
    "Black",
    "Hispanic/Latino",
    "Asian",
    "NHOPI",
    "Other/unknown",
    "Multiracial",
]

_RACE_SYNONYMS = {
    "white": "White",
    "black": "Black",
    "black or african american": "Black",
    "hispanic/latino": "Hispanic/Latino",
    "hispanic or latino": "Hispanic/Latino",
    "asian": "Asian",
    "nhopi": "NHOPI",
    "native hawaiian or other pacific islander": "NHOPI",
    "multiracial": "Multiracial",
    "multiple": "Multiracial",
}


class PandemicStratum(str, Enum):
    PRE = "pre"
    PERI = "peri"


def pandemic_stratum_of(dod: date, cutoff: date = PANDEMIC_CUTOFF) -> PandemicStratum:
    """Classify a delivery as pre- or peri-pandemic by a single cutoff date."""
    return PandemicStratum.PRE if dod < cutoff else PandemicStratum.PERI


def suppress_small_cells(count: int, threshold: int = SUPPRESSION_THRESHOLD) -> str:
    """Rendered value of a count under small-cell suppression."""
    if count < 0:
        raise ValueError(f"negative count {count}")
    return "-" if count < threshold else str(count)


def episode_exposures(
    episodes: Iterable[PregnancyEpisode], events_by_person: dict[int, list[int]]
) -> Iterator[tuple[PregnancyEpisode, list[Event]]]:
    """Yield each episode with its person's events on or before its delivery, in `(day, concept id)` order.

    `events_by_person` holds only index events, as `load_events` groups them: one flat `[day, concept id, ...]`
    list per person in file order. Pairs are sorted for one person at a time, as the walk stops at the first event
    after the delivery and timing.csv lists events in day order, and reused across that person's episodes.
    """
    person_id, events = None, []
    for episode in episodes:
        if episode.person_id != person_id:
            person_id = episode.person_id
            events = sorted(event_pairs(events_by_person.get(person_id, ())))
        index_events = []
        for event in events:
            if event[0] > episode.dod_day:
                break
            index_events.append(event)
        yield episode, index_events


def first_day_exposures(
    episodes: Iterable[PregnancyEpisode], first_days: dict[object, dict[int, int]], condition_names: Iterable[str]
) -> Iterator[Exposure]:
    """Yield each episode's index week (0 before the start) and the condition sets it meets by its delivery.

    `first_days` maps None (the index set) and each condition set's name to its first day per person.
    """
    index_firsts = first_days.get(None, {})
    condition_firsts = [(name, first_days.get(name, {})) for name in condition_names]
    for episode in episodes:
        person_id = episode.person_id
        after = episode.dod_day + 1
        first = index_firsts.get(person_id, after)
        week = None if first >= after else week_of(episode.start_day, first)
        yield episode, week, [name for name, firsts in condition_firsts if firsts.get(person_id, after) < after]


def infection_week_histogram(exposures: Iterable[Exposure]) -> dict[int, int]:
    """Count episodes by the gestational week of their earliest index event.

    Week 0 is pre-pregnancy; only events on or before the delivery count, and
    each episode contributes at most once. Weeks past MAX_HISTOGRAM_WEEK
    collapse into the final bucket.
    """
    counts = {week: 0 for week in range(MAX_HISTOGRAM_WEEK + 1)}
    for _, week, _ in exposures:
        if week is not None:
            counts[min(week, MAX_HISTOGRAM_WEEK)] += 1
    return counts


# Each age that falls in a band, mapped to the band's label; parsed once from the labels.
_BAND_OF_AGE = {
    age: band for band in AGE_BANDS for low, high in [band.split("-")] for age in range(int(low), int(high) + 1)
}


def age_band_of(age: int) -> str | None:
    return _BAND_OF_AGE.get(age)


def race_category_of(race: str, ethnicity: str) -> str:
    """Collapse raw race/ethnicity text into the seven reporting categories.

    Ethnicity wins when its words include "hispanic" and neither "not" nor "non".
    """
    words = re.findall("[a-z]+", ethnicity.lower())
    if "hispanic" in words and "not" not in words and "non" not in words:
        return "Hispanic/Latino"
    return _RACE_SYNONYMS.get(race.strip().lower(), "Other/unknown")


# Column labels: totals per stratum, then index-event exposure splits.
COLUMN_LABELS = [
    "Pre-pandemic (all)",
    "Peri-pandemic (all)",
    "Index before delivery: no",
    "Index before delivery: yes",
    "Index in weeks 1-27: no",
    "Index in weeks 1-27: yes",
    "Index in week 28+: no",
    "Index in week 28+: yes",
]
# report.csv's sections that are not condition sets: a condition set named like one would merge into it.
BUILT_IN_SECTIONS = frozenset({"total", "Age group", "Race"})


def _columns_of(stratum: PandemicStratum, week: int | None, long_gestation: bool) -> tuple[int, ...]:
    """Indices of the columns an episode of this stratum, index week and gestation length counts in."""
    peri = stratum is PandemicStratum.PERI
    trimester = None if week is None else trimester_of(week)
    t12 = trimester in ("first", "second")
    t3 = trimester == "third"
    # One flag per column, in COLUMN_LABELS order.
    flags = [
        stratum is PandemicStratum.PRE,
        peri,
        peri and week is None,
        peri and week is not None,
        peri and not t12,
        peri and t12,
        peri and long_gestation and not t3,
        peri and long_gestation and t3,
    ]
    return tuple(j for j, flag in enumerate(flags) if flag)


class StratifiedTable(NamedTuple):
    """Raw counts per (characteristic row, stratum column)."""

    columns: list[str]
    column_totals: list[int]
    sections: list[tuple[str, list[tuple[str, list[int]]]]]

    def csv_rows(self) -> list[list]:
        """Raw counts, never suppressed; suppression is render-only."""
        rows = [["section", "category"] + self.columns]
        rows.append(["total", "episodes"] + list(self.column_totals))
        for section, categories in self.sections:
            for category, counts in categories:
                rows.append([section, category] + list(counts))
        return rows

    def render_markdown(self, threshold: int = SUPPRESSION_THRESHOLD) -> str:
        """The table as markdown, counts below `threshold` shown as "-"."""

        def cell(count: int, total: int) -> str:
            if count < threshold:
                return "-"
            pct = f" ({100.0 * count / total:.1f}%)" if total else ""
            return f"{count}{pct}"

        lines = ["| Characteristic | " + " | ".join(self.columns) + " |"]
        lines.append("| --- |" + " --- |" * len(self.columns))
        totals = [suppress_small_cells(t, threshold) for t in self.column_totals]
        lines.append("| Episodes (n) | " + " | ".join(totals) + " |")
        for section, categories in self.sections:
            lines.append(f"| **{section}** |" + "  |" * len(self.columns))
            for category, counts in categories:
                cells = [cell(count, total) for count, total in zip(counts, self.column_totals)]
                lines.append(f"| {category} | " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"


def stratified_table(
    exposures: Iterable[Exposure],
    persons: dict[int, Person],
    condition_names: Iterable[str],
    stratum_of: Callable[[date], PandemicStratum | None] = pandemic_stratum_of,
) -> StratifiedTable:
    """Build the stratified demographics and conditions table.

    Rows are age bands, race categories, and a yes/no pair per condition set
    (any matching event on or before delivery). Columns split peri-pandemic
    episodes by index-event exposure overall, in weeks 1-27, and in week 28+
    (the latter only among gestations longer than 27 weeks). `stratum_of`
    maps a delivery date to its stratum; an episode it maps to None is left
    out. Percentages use unsuppressed column totals.
    """
    width = len(COLUMN_LABELS)
    column_totals = [0] * width
    age_rows = {band: [0] * width for band in AGE_BANDS}
    race_rows = {category: [0] * width for category in RACE_CATEGORIES}
    condition_yes = {name: [0] * width for name in sorted(condition_names)}
    # Episodes per (columns, age band, race category, condition sets met): the keys are few, however many episodes.
    counts: dict[tuple, int] = {}
    # Stratum, columns and race category each follow from a few distinct values: each value is worked out once.
    strata = Memo(lambda day: stratum_of(date.fromordinal(day)))
    columns_of, races = Memo(lambda key: _columns_of(*key)), Memo(lambda texts: race_category_of(*texts))
    for episode, week, conditions in exposures:
        stratum = strata[episode.dod_day]
        if stratum is None:
            continue
        person = persons.get(episode.person_id)
        band = race = None
        if person is not None:
            band, race = age_band_of(age_at(person.birth_day, episode.dod_day)), races[person.race, person.ethnicity]
        columns = columns_of[stratum, week, episode.gestation_days > SECOND_TRIMESTER_MAX_WEEK * 7]
        key = (columns, band, race, *conditions)
        counts[key] = counts.get(key, 0) + 1
    for (columns, band, race, *conditions), n in counts.items():
        for row in (column_totals, age_rows.get(band), race_rows.get(race), *map(condition_yes.get, conditions)):
            if row is not None:
                for j in columns:
                    row[j] += n

    sections: list[tuple[str, list[tuple[str, list[int]]]]] = [
        ("Age group", list(age_rows.items())),
        ("Race", list(race_rows.items())),
    ]
    for name, yes in condition_yes.items():
        no = [total - y for total, y in zip(column_totals, yes)]
        sections.append((name, [("No", no), ("Yes", yes)]))

    return StratifiedTable(columns=list(COLUMN_LABELS), column_totals=column_totals, sections=sections)


def render_histogram_markdown(counts: dict[int, int], threshold: int = SUPPRESSION_THRESHOLD) -> str:
    """Render the week histogram as a markdown table (week 0 = pre-pregnancy)."""
    lines = ["| Gestational week | Episodes |", "| --- | --- |"]
    for week in sorted(counts):
        label = "0 (pre-pregnancy)" if week == 0 else str(week)
        lines.append(f"| {label} | {suppress_small_cells(counts[week], threshold)} |")
    return "\n".join(lines) + "\n"
