"""Seeded synthetic cohort generation with recorded ground truth.

The generator draws pregnancies whose starts and deliveries are separated by
more than the engines' clustering window, emits GA events whose concepts
contain the visit's true week, delivery events dated exactly on the true
delivery, and optional index events, then applies configurable noise
channels. Identical (seed, config) pairs produce byte-identical files.

Randomness comes from the standard library's Mersenne Twister. Each
(seed, stream, person) triple gets its own `random.Random`, seeded with the
integer `(seed << 33) | (stream << 32) | person_id`. Stream 0 draws a
person's base events and stream 1 their noise; stream 1 is seeded only when
some noise rate is set. The packing is injective while the seed and the
person id are below 2**32, so no two triples share a stream;
`SynthConfig.validate` rejects a seed or person count outside those bounds.
Each person is generated whole in one pass: base events, then noise, then
their own events sorted and their truth worked out. A person's rows
therefore depend only on the seed, the config and their own id: persons 1-30
are the same in a 30-person cohort as in a 60-person one. The key is built
by arithmetic, never by `hash()`, which is salted per process for strings
and may change between Python versions. So a forked child can generate the
upper ids and the cohort still be that of one process (`csvio.halves`); if
the child fails, this process generates every person again.

Every draw calls one of three methods of a stream: `getrandbits`, `random()`
or `gauss`. `_below`, `_sample` and `_pick` make the draws of `randrange` and
`choice`, of `sample` and of `choices` straight from `getrandbits` and
`random()`, with the same calls and results as those methods and without
their argument checks, so the generated bytes rest on those three methods
alone.

Events stay ordinals until they are written. A person's events are `(day,
concept id)` pairs, sorted natively; the cohort then holds every event as
three slots of one flat list, `[person id, day ordinal, concept id, ...]` in
write order, each distinct day int held once by each process that generates
(a day of both halves twice), and each concept's domain comes from one map.
No object exists per event: `SyntheticCohort.write` streams the flat list to
`events.csv`. Persons' births and truth are day ordinals too, so every row
crosses the fork in its final form.

The noise log is kept the same way. Each perturbation is a plain tuple
`(channel, person id, concept id, day ordinal, detail)` of shared values: the
day int from the same dict as the events', one detail text per shift delta,
and one per (concept, option) of the conflict channel, built only when that
channel is on. The native order of these rows is the order of
`noise_log.csv`, and `SyntheticCohort.write` formats them as text.

The delivery window (`episode_builder.COHORT_WINDOW`), the weights of one, two
and three gestations (`GESTATION_COUNT_PROBS`) and the index concept
(`INDEX_CONCEPT_ID`) are the study's constants, not settings.
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate
from math import ceil, log
from operator import itemgetter
from pathlib import Path
from typing import Iterable, NamedTuple

from .concept_registry import AccuracyLevel, ConceptRegistry, Domain, concept_domains
from .csvio import Memo, halves, iso_date, iso_text, output_dir, table, write_lines, write_rows
from .episode_builder import COHORT_WINDOW, week_of
from .errors import ConfigError, GenerationError
from .ga_engine import SEPARATION_WINDOW_DAYS, ga_days
from .ingestion import MAX_EVENT_DATE, MIN_EVENT_DATE, Person, write_events, write_persons

# Sub-stream tags so base generation and noise never share a random stream.
_BASE_STREAM = 0
_NOISE_STREAM = 1
# Bounds within which the stream key of `_person_rng` is injective.
MAX_SEED = 2**32 - 1
MAX_PERSON_ID = 2**32 - 1

MIN_GAP_DAYS = SEPARATION_WINDOW_DAYS + 1

# The cohort is generated in two processes only over more persons than this. On a 2-vCPU Xeon (Python
# 3.11) the split broke even near 220 persons of the default shape, and saved 23 % at 500 and 32 % at 1,000.
SPLIT_PERSONS = 250

# Weights of a person having one, two or three gestations.
GESTATION_COUNT_PROBS = (0.90, 0.09, 0.01)
# Gestation lengths are drawn from a normal law, rounded and clamped to [low, high] days.
GESTATION_MEAN_DAYS = 274.0
GESTATION_SD_DAYS = 12.0
GESTATION_CLAMP_DAYS = (100, 320)
# Weeks at which high-accuracy GA events may be recorded.
VISIT_WEEKS = (8, 12, 16, 20, 24, 28, 32, 36, 38, 40)
# Pre-pregnancy index events fall 7 to this many days before a true start.
PRE_INDEX_MAX_DAYS = 90
INDEX_CONCEPT_ID = 900000001
# No event lies before the earliest start less the pre-index margin, or after
# the window; a shift must keep both inside the readable range: 29,068 days.
MAX_SHIFT_DAYS = min(
    COHORT_WINDOW[0].toordinal() - GESTATION_CLAMP_DAYS[1] - PRE_INDEX_MAX_DAYS - MIN_EVENT_DATE.toordinal(),
    MAX_EVENT_DATE.toordinal() - COHORT_WINDOW[1].toordinal(),
)

# One generated event of a person until the cohort holds it: (day ordinal, concept id).
_Event = tuple[int, int]
# One noise log row until it is written: (channel, person id, concept id, day ordinal, detail).
_NoiseRow = tuple[str, int, int, int, str]

_RACE_PROBS = (
    ("White", 0.50),
    ("Black", 0.17),
    ("Hispanic/Latino", 0.19),
    ("Asian", 0.05),
    ("NHOPI", 0.005),
    ("Other/unknown", 0.075),
    ("Multiracial", 0.01),
)


@dataclass
class NoiseSpec:
    """Per-event / per-gestation perturbation rates, all in [0, 1]."""

    drop_ga_rate: float = 0.0
    conflict_ga_rate: float = 0.0
    shift_rate: float = 0.0
    shift_max_days: int = 7
    drop_dod_rate: float = 0.0
    pre_pregnancy_index_rate: float = 0.0
    # The names of the channel rates above; not a field.
    RATES = ("drop_ga_rate", "conflict_ga_rate", "shift_rate", "drop_dod_rate", "pre_pregnancy_index_rate")

    def validate(self) -> None:
        for name in self.RATES:
            value = getattr(self, name)
            if not _is_rate(value):
                raise ConfigError(f"noise {name} must be a number in [0, 1], got {value!r}")
        if not _is_int(self.shift_max_days) or self.shift_max_days < 1:
            raise ConfigError(f"shift_max_days must be an int of at least 1, got {self.shift_max_days!r}")
        if self.shift_max_days > MAX_SHIFT_DAYS:
            raise ConfigError(
                f"shift_max_days must be at most {MAX_SHIFT_DAYS}, so that events stay inside "
                f"[{MIN_EVENT_DATE}, {MAX_EVENT_DATE}], got {self.shift_max_days}"
            )


@dataclass
class SynthConfig:
    """Generator settings; identical (seed, config) means identical output."""

    seed: int = 0
    n_persons: int = 100
    ga_events_per_gestation: dict[AccuracyLevel, int] = field(
        default_factory=lambda: {
            AccuracyLevel.HIGH: 3,
            AccuracyLevel.MODERATE_HIGH: 1,
            AccuracyLevel.MODERATE_LOW: 1,
            AccuracyLevel.LOW: 2,
        }
    )
    dod_events_per_gestation: int = 2
    index_event_rate: float = 0.3
    noise: NoiseSpec = field(default_factory=NoiseSpec)

    def validate(self) -> None:
        if not _is_int(self.seed) or not 0 <= self.seed <= MAX_SEED:
            raise ConfigError(f"seed must be an int in [0, {MAX_SEED}], got {self.seed!r}")
        if not _is_int(self.n_persons) or not 0 <= self.n_persons <= MAX_PERSON_ID:
            raise ConfigError(f"n_persons must be an int in [0, {MAX_PERSON_ID}], got {self.n_persons!r}")
        if not _is_rate(self.index_event_rate):
            raise ConfigError(f"index_event_rate must be a number in [0, 1], got {self.index_event_rate!r}")
        counts = self.ga_events_per_gestation
        if not isinstance(counts, dict) or not all(type(level) is AccuracyLevel for level in counts):
            raise ConfigError(f"ga_events_per_gestation must map AccuracyLevel to counts, got {counts!r}")
        for level, count in counts.items():
            if not _is_count(count):
                raise ConfigError(f"ga_events_per_gestation[{level.name}] must be a non-negative int, got {count!r}")
        dod_count = self.dod_events_per_gestation
        if not _is_count(dod_count):
            raise ConfigError(f"dod_events_per_gestation must be a non-negative int, got {dod_count!r}")
        if not isinstance(self.noise, NoiseSpec):
            raise ConfigError(f"noise must be a NoiseSpec, got {self.noise!r}")
        self.noise.validate()


def _is_int(value) -> bool:
    """True for an int; a bool is not taken for one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_count(value) -> bool:
    """True for a non-negative int."""
    return _is_int(value) and value >= 0


def _is_rate(value) -> bool:
    """True for an int or float in [0, 1]; a bool is not a rate."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and 0.0 <= value <= 1.0


class TruthRecord(NamedTuple):
    """One generated gestation: its start and delivery as day ordinals, and its index event's week."""

    person_id: int
    episode_index: int
    true_start_day: int
    true_dod_day: int
    index_event_week: int | None


TRUTH_HEADER = ["person_id", "episode_index", "true_start", "true_dod", "index_event_week"]
NOISE_LOG_HEADER = ["channel", "person_id", "concept_id", "event_date", "detail"]


@dataclass
class SyntheticCohort:
    """Generated tables plus ground truth and the noise sidecar log.

    `flat_events` holds the events as `[person id, day ordinal, concept id, ...]`
    in write order, and `domains` each concept's domain. `noise_rows` holds the
    noise log as `(channel, person id, concept id, day ordinal, detail)` tuples
    in the order the perturbations were drawn.
    """

    persons: list[Person]
    flat_events: list[int]
    domains: dict[int, Domain]
    truth: list[TruthRecord]
    noise_rows: list[_NoiseRow]

    @property
    def event_count(self) -> int:
        return len(self.flat_events) // 3

    def write(self, out_dir: Path | str) -> dict[str, Path]:
        """Write the five tables into `out_dir`, made and taken back on failure as every command's (`output_dir`)."""
        with output_dir(out_dir) as out_dir:
            paths = {
                "persons": out_dir / "persons.csv",
                "events": out_dir / "events.csv",
                "truth": out_dir / "truth.csv",
                "noise_log": out_dir / "noise_log.csv",
                "index_concepts": out_dir / "index_concepts.csv",
            }
            write_persons(paths["persons"], self.persons)
            write_events(paths["events"], self.flat_events, self.domains)
            write_truth(paths["truth"], self.truth)
            iso = Memo(iso_text)
            write_lines(
                paths["noise_log"],
                NOISE_LOG_HEADER,
                (f"{channel},{p},{c},{iso[day]},{detail}\n" for channel, p, c, day, detail in sorted(self.noise_rows)),
            )
            write_rows(paths["index_concepts"], ["concept_id"], [[INDEX_CONCEPT_ID]])
        return paths


def write_truth(path: Path | str, truth: Iterable[TruthRecord]) -> None:
    """Write a truth table in (person id, episode index) order, ties in the order given."""
    iso = Memo(iso_text)
    write_lines(
        path,
        TRUTH_HEADER,
        (
            f"{p},{i},{iso[start]},{iso[dod]},{'' if week is None else week}\n"
            for p, i, start, dod, week in sorted(truth, key=itemgetter(0, 1))
        ),
    )


def read_truth(path: Path | str) -> list[TruthRecord]:
    """Read a truth table written by `write_truth`.

    Dates are read as day ordinals. A row whose true_dod is not after its
    true_start, whose index_event_week is negative, or that repeats a
    (person_id, episode_index), is a bad row.
    """
    truth: dict[tuple[int, int], TruthRecord] = {}
    with table(path, TRUTH_HEADER) as rows:
        for row in rows:
            week = int(row[4]) if row[4] != "" else None
            start, dod = iso_date(row[2]).toordinal(), iso_date(row[3]).toordinal()
            record = TruthRecord(int(row[0]), int(row[1]), start, dod, week)
            if record.true_dod_day <= record.true_start_day:
                raise ValueError(f"true_dod {row[3]} is not after true_start {row[2]}")
            if week is not None and week < 0:
                raise ValueError(f"index_event_week {row[4]} is negative")
            if truth.setdefault(record[:2], record) is not record:
                raise ValueError(f"episode {row[1]} of person {row[0]} repeats an earlier row")
    return list(truth.values())


def _person_rng(seed: int, stream: int, person_id: int) -> random.Random:
    return random.Random((seed << 33) | (stream << 32) | person_id)


# The three draws below take a stream's bound `getrandbits` or `random`.
# Callers pass only valid arguments, as nothing is checked.
# tests/test_draws_fuzz.py holds each to the `random.Random` method it replaces.


def _below(getrandbits, n: int) -> int:
    """A uniform int in [0, n), n > 0: `Random._randbelow`, so `randrange(n)` and `choice`'s index."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _sample(getrandbits, population, k: int) -> list:
    """`Random.sample(population, k)` for 0 <= k <= len(population), both of its branches."""
    n = len(population)
    setsize = 21
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))
    result = []
    if n <= setsize:
        pool = list(population)
        for size in range(n, n - k, -1):
            j = _below(getrandbits, size)
            result.append(pool[j])
            pool[j] = pool[size - 1]
        return result
    selected = set()
    for _ in range(k):
        j = _below(getrandbits, n)
        while j in selected:
            j = _below(getrandbits, n)
        selected.add(j)
        result.append(population[j])
    return result


def _pick(random, cum_weights: list[float]) -> int:
    """The index `Random.choices(population, cum_weights=cum_weights)` picks, from one `random()`."""
    return bisect(cum_weights, random() * (cum_weights[-1] + 0.0), 0, len(cum_weights) - 1)


def _plan_gestations(
    rng: random.Random, window_start: int, window_len: int, count_weights: list[float]
) -> list[tuple[int, int, int]]:
    """Draw (start, delivery, length) triples, days as ordinals, with deliveries inside the window.

    Consecutive gestations are separated by a gap of at least MIN_GAP_DAYS
    between one delivery and the next start, which keeps both consecutive
    starts and consecutive deliveries more than the clustering window apart.
    """
    lo, hi = GESTATION_CLAMP_DAYS
    getrandbits = rng.getrandbits
    n_gestations = 1 + _pick(rng.random, count_weights)
    lengths = None
    for _ in range(100):
        draw = [
            min(max(round(rng.gauss(GESTATION_MEAN_DAYS, GESTATION_SD_DAYS)), lo), hi) for _ in range(n_gestations)
        ]
        if sum(MIN_GAP_DAYS + g for g in draw[1:]) <= window_len:
            lengths = draw
            break
    if lengths is None:
        raise GenerationError(
            f"cannot place {n_gestations} gestations separated by {MIN_GAP_DAYS} days "
            f"inside a {window_len}-day delivery window"
        )
    slack = window_len - sum(MIN_GAP_DAYS + g for g in lengths[1:])
    gaps = []
    for _ in range(n_gestations - 1):
        extra = _below(getrandbits, min(slack, 120) + 1)
        gaps.append(MIN_GAP_DAYS + extra)
        slack -= extra
    dod = window_start + _below(getrandbits, slack + 1)
    triples = [(dod - lengths[0], dod, lengths[0])]
    for gap, length in zip(gaps, lengths[1:]):
        dod += gap + length
        triples.append((dod - length, dod, length))
    return triples


def _range_event(getrandbits, start: int, gestation_days: int, pool: list[tuple[int, int, int]]) -> _Event | None:
    """One GA event from a week-range pool; the event's true week stays in range.

    Each pool entry is (first week, at least 1; last week; concept id).
    """
    max_week = gestation_days // 7
    for _ in range(8):
        week_lo, week_hi, concept_id = pool[_below(getrandbits, len(pool))]
        week_hi = min(week_hi, max_week)
        if week_lo > week_hi:
            continue
        week = week_lo + _below(getrandbits, week_hi + 1 - week_lo)
        return start + min(7 * week + _below(getrandbits, 7), gestation_days), concept_id
    return None


def generate_cohort(
    config: SynthConfig, ga_registry: ConceptRegistry, dod_registry: ConceptRegistry
) -> SyntheticCohort:
    """Generate persons, events, and ground truth under the given config.

    Concepts appearing in both registries are excluded from sampling so a
    generated event feeds exactly one engine; both engines still handle such
    concepts when they occur in real data.
    """
    config.validate()
    if INDEX_CONCEPT_ID in ga_registry or INDEX_CONCEPT_ID in dod_registry:
        raise ConfigError(f"index concept {INDEX_CONCEPT_ID} collides with a registry concept")
    overlap = {spec.concept_id for spec in ga_registry if spec.concept_id in dod_registry}
    high_by_week = {
        spec.week_low: spec.concept_id
        for spec in ga_registry
        if spec.accuracy is AccuracyLevel.HIGH and spec.concept_id not in overlap
    }
    range_draws = []
    for level in (AccuracyLevel.MODERATE_HIGH, AccuracyLevel.MODERATE_LOW, AccuracyLevel.LOW):
        pool = [
            (max(s.week_low, 1), s.week_high, s.concept_id)
            for s in ga_registry
            if s.accuracy is level and s.concept_id not in overlap
        ]
        if pool:
            range_draws.append((pool, config.ga_events_per_gestation.get(level, 0)))
    dod_pool = [spec.concept_id for spec in dod_registry if spec.concept_id not in overlap]
    if not high_by_week or not dod_pool:
        raise GenerationError("registries too small to generate events")

    race_labels = [label for label, _ in _RACE_PROBS]
    race_weights = list(accumulate(p for _, p in _RACE_PROBS))
    count_weights = list(accumulate(GESTATION_COUNT_PROBS))
    window_start = COHORT_WINDOW[0].toordinal()
    window_len = COHORT_WINDOW[1].toordinal() - window_start
    n_high = config.ga_events_per_gestation.get(AccuracyLevel.HIGH, 0)
    # Per completed weeks of a gestation: the visit weeks it reaches.
    schedules = Memo(lambda max_week: [w for w in VISIT_WEEKS if w <= max_week and w in high_by_week])
    n_dod = min(config.dod_events_per_gestation, len(dod_pool))
    noise = config.noise
    noisy = any(getattr(noise, name) for name in noise.RATES)
    ga_ids = {spec.concept_id for spec in ga_registry}
    dod_ids = {spec.concept_id for spec in dod_registry}
    # Per GA concept: the low-accuracy concepts that conflict with it, each with its log detail.
    ga_conflicts: dict[int, list[tuple[int, str]]] = {}
    if noise.conflict_ga_rate:
        low = [(spec.concept_id, ga_days(spec)) for spec in ga_registry if spec.accuracy is AccuracyLevel.LOW]
        for spec in ga_registry:
            base = ga_days(spec)
            ga_conflicts[spec.concept_id] = [
                (c, f"conflicts with {spec.concept_id} by {days - base:+d}d")
                for c, days in low
                if 14 < abs(days - base) <= 200
            ]
    shift_details = Memo(lambda delta: f"shifted {delta:+d}d")
    # Overlap concepts come only from GA draws (conflicts), so the GA registry's domain is the one to write.
    domains = concept_domains(ga_registry, dod_registry)
    domains[INDEX_CONCEPT_ID] = Domain.CONDITION
    # Each distinct day's int is held once in this process's flat events and noise rows.
    days: dict[int, int] = {}
    person = partial(tuple.__new__, Person)

    def generate(person_ids: range) -> tuple[list[int], list[_NoiseRow], list[Person], list[TruthRecord]]:
        persons: list[Person] = []
        flat_events: list[int] = []
        truth: list[TruthRecord] = []
        noise_rows: list[_NoiseRow] = []
        for person_id in person_ids:
            rng = _person_rng(config.seed, _BASE_STREAM, person_id)
            getrandbits = rng.getrandbits
            triples = _plan_gestations(rng, window_start, window_len, count_weights)
            birth = triples[0][1] - (16 + _below(getrandbits, 29)) * 365 - _below(getrandbits, 365)
            race = race_labels[_pick(rng.random, race_weights)]
            ethnicity = "Hispanic or Latino" if race == "Hispanic/Latino" else "Not Hispanic or Latino"
            persons.append(person((person_id, birth, "F", race, ethnicity)))
            person_events: list[_Event] = []
            for start, dod, gestation_days in triples:
                schedule = schedules[gestation_days // 7]
                if schedule and n_high:
                    for week in sorted(_sample(getrandbits, schedule, min(n_high, len(schedule)))):
                        # Exact placement: the event implies precisely the true start.
                        person_events.append((start + 7 * week, high_by_week[week]))
                for pool, count in range_draws:
                    for _ in range(count):
                        event = _range_event(getrandbits, start, gestation_days, pool)
                        if event is not None:
                            person_events.append(event)
                for concept_id in _sample(getrandbits, dod_pool, n_dod):
                    person_events.append((dod, concept_id))
                if config.index_event_rate and rng.random() < config.index_event_rate:
                    person_events.append((start + _below(getrandbits, gestation_days + 1), INDEX_CONCEPT_ID))

            if noisy:
                person_events = _add_noise(
                    person_id, person_events, triples, config,
                    ga_ids, dod_ids, ga_conflicts, shift_details, days, noise_rows,
                )
            # Events that tie on (day, concept) are equal pairs, so the native sort
            # orders them as a stable sort on (day, concept) would.
            person_events.sort()
            for day, concept_id in person_events:
                flat_events += person_id, days.setdefault(day, day), concept_id

            # Ground-truth index weeks follow the same rule analytics applies: the
            # earliest index event on or before the delivery, week 0 when pre-start.
            earliest = next((day for day, concept_id in person_events if concept_id == INDEX_CONCEPT_ID), None)
            for index, (start, dod, _) in enumerate(triples, start=1):
                week = week_of(start, earliest) if earliest is not None and earliest <= dod else None
                truth.append(TruthRecord(person_id, index, start, dod, week))
        return flat_events, noise_rows, persons, truth

    # The events go first: they are appended while the child's persons and truth are still columns.
    ids = range(1, config.n_persons + 1)
    flat_events, noise_rows, persons, truth = halves(
        generate, ids, lambda person_id: 1, SPLIT_PERSONS, "generating persons", (None, None, Person, TruthRecord)
    ) or generate(ids)
    return SyntheticCohort(persons, flat_events, domains, truth, noise_rows)


def _add_noise(
    person_id: int,
    events: list[_Event],
    triples: list[tuple[int, int, int]],
    config: SynthConfig,
    ga_ids: set[int],
    dod_ids: set[int],
    ga_conflicts: dict[int, list[tuple[int, str]]],
    shift_details: Memo,
    days: dict[int, int],
    log: list[_NoiseRow],
) -> list[_Event]:
    """One person's events under the noise channels, drawn from their noise stream.

    Channels, in order: drop GA events, drop delivery events, shift event
    dates, add a same-date conflicting GA event, add a pre-pregnancy index
    event before each gestation's true start. Conflicts use a low-accuracy
    concept whose implied start disagrees with the original event's by more
    than 14 days but stays well inside the clustering window, so gestation
    separability is preserved. Returns the kept events, then the additions;
    each perturbation is appended to `log` as a row of shared values: its day
    from `days`, its detail from `shift_details` or `ga_conflicts`.
    """
    noise = config.noise
    rng = _person_rng(config.seed, _NOISE_STREAM, person_id)
    getrandbits = rng.getrandbits
    kept: list[_Event] = []
    for event in events:
        day, concept_id = event
        in_ga = concept_id in ga_ids
        in_dod = concept_id in dod_ids
        if in_ga and noise.drop_ga_rate and rng.random() < noise.drop_ga_rate:
            log.append(("drop_ga", person_id, concept_id, days.setdefault(day, day), "dropped"))
            continue
        if in_dod and not in_ga and noise.drop_dod_rate and rng.random() < noise.drop_dod_rate:
            log.append(("drop_dod", person_id, concept_id, days.setdefault(day, day), "dropped"))
            continue
        if (in_ga or in_dod) and noise.shift_rate and rng.random() < noise.shift_rate:
            delta = 1 + _below(getrandbits, noise.shift_max_days)
            if rng.random() < 0.5:
                delta = -delta
            log.append(("shift", person_id, concept_id, days.setdefault(day, day), shift_details[delta]))
            event = (day + delta, concept_id)
        kept.append(event)
    additions: list[_Event] = []
    if noise.conflict_ga_rate:
        for day, concept_id in kept:
            if concept_id not in ga_conflicts or rng.random() >= noise.conflict_ga_rate:
                continue
            options = ga_conflicts[concept_id]
            if not options:
                continue
            chosen, detail = options[_below(getrandbits, len(options))]
            additions.append((day, chosen))
            log.append(("conflict_ga", person_id, chosen, days.setdefault(day, day), detail))
    if noise.pre_pregnancy_index_rate:
        for start, _, _ in triples:
            if rng.random() < noise.pre_pregnancy_index_rate:
                day = start - 7 - _below(getrandbits, PRE_INDEX_MAX_DAYS - 7 + 1)
                additions.append((day, INDEX_CONCEPT_ID))
                detail = "pre-pregnancy index event"
                log.append(("pre_index", person_id, INDEX_CONCEPT_ID, days.setdefault(day, day), detail))
    return kept + additions
