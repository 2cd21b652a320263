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
and may change between Python versions.

Events stay ordinals until they are written. A person's events are `(day,
concept id)` pairs, sorted natively; the cohort then holds every event as
three slots of one flat list, `[person id, day ordinal, concept id, ...]` in
write order, each distinct day int held once, and each concept's domain comes
from one map. No object exists per event: `SyntheticCohort.write` streams the
flat list to `events.csv`, and `SyntheticCohort.events` builds `ClinicalEvent`s
only when a caller asks for them. Each distinct day becomes a `date` once per
run, for the persons and truth alike.

The noise log is kept the same way. Each perturbation is a plain tuple
`(channel, person id, concept id, day ordinal, detail)` of shared values: the
day int from the same dict as the events', one detail text per shift delta,
and one per (concept, option) of the conflict channel, built only when that
channel is on. The native order of these rows is the order of
`noise_log.csv`. `SyntheticCohort.write` formats them as text, and
`SyntheticCohort.noise_log` builds `NoiseLogEntry`s only when a caller asks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from datetime import date
from itertools import accumulate
from operator import itemgetter
from pathlib import Path
from typing import Iterable, NamedTuple

from .concept_registry import AccuracyLevel, ConceptRegistry, Domain
from .csvio import Memo, iso_date, iso_text, table, write_lines, write_rows
from .episode_builder import COHORT_WINDOW
from .errors import ConfigError, GenerationError
from .ga_engine import SEPARATION_WINDOW_DAYS, ga_days
from .ingestion import MAX_EVENT_DATE, MIN_EVENT_DATE, ClinicalEvent, Person, write_events, write_persons

# Sub-stream tags so base generation and noise never share a random stream.
_BASE_STREAM = 0
_NOISE_STREAM = 1
# Bounds within which the stream key of `_person_rng` is injective.
MAX_SEED = 2**32 - 1
MAX_PERSON_ID = 2**32 - 1

MIN_GAP_DAYS = SEPARATION_WINDOW_DAYS + 1

# Gestation lengths are drawn from a normal law, rounded and clamped to [low, high] days.
GESTATION_MEAN_DAYS = 274.0
GESTATION_SD_DAYS = 12.0
GESTATION_CLAMP_DAYS = (100, 320)
# Weeks at which high-accuracy GA events may be recorded.
VISIT_WEEKS = (8, 12, 16, 20, 24, 28, 32, 36, 38, 40)
# Pre-pregnancy index events fall 7 to this many days before a true start.
PRE_INDEX_MAX_DAYS = 90
DEFAULT_INDEX_CONCEPT_ID = 900000001

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
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"noise {name} must be in [0, 1], got {value}")
        if self.shift_max_days < 1:
            raise ConfigError("shift_max_days must be at least 1")


@dataclass
class SynthConfig:
    """Generator settings; identical (seed, config) means identical output."""

    seed: int = 0
    n_persons: int = 100
    gestation_count_probs: tuple[float, float, float] = (0.90, 0.09, 0.01)
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
    index_concept_id: int = DEFAULT_INDEX_CONCEPT_ID
    window: tuple[date, date] = COHORT_WINDOW
    noise: NoiseSpec = field(default_factory=NoiseSpec)

    def validate(self) -> None:
        if not 0 <= self.seed <= MAX_SEED:
            raise ConfigError(f"seed must be in [0, {MAX_SEED}], got {self.seed}")
        if not 0 <= self.n_persons <= MAX_PERSON_ID:
            raise ConfigError(f"n_persons must be in [0, {MAX_PERSON_ID}], got {self.n_persons}")
        probs = self.gestation_count_probs
        if len(probs) != 3 or not all(0.0 <= p <= 1.0 for p in probs):
            raise ConfigError(f"gestation_count_probs must be three weights in [0, 1], got {probs}")
        if abs(sum(probs) - 1.0) > 1e-9:
            raise ConfigError("gestation_count_probs must sum to 1")
        if self.window[0] > self.window[1]:
            raise ConfigError("window start must not be after window end")
        if not 0.0 <= self.index_event_rate <= 1.0:
            raise ConfigError("index_event_rate must be in [0, 1]")
        counts = self.ga_events_per_gestation
        if not isinstance(counts, dict) or not all(type(level) is AccuracyLevel for level in counts):
            raise ConfigError(f"ga_events_per_gestation must map AccuracyLevel to counts, got {counts!r}")
        for level, count in counts.items():
            if not _is_count(count):
                raise ConfigError(f"ga_events_per_gestation[{level.name}] must be a non-negative int, got {count!r}")
        dod_count = self.dod_events_per_gestation
        if not _is_count(dod_count):
            raise ConfigError(f"dod_events_per_gestation must be a non-negative int, got {dod_count!r}")
        self.noise.validate()
        # No event lies before the earliest start less the pre-index margin, or
        # after the window; a shift must keep both inside the readable range.
        earliest = self.window[0].toordinal() - GESTATION_CLAMP_DAYS[1] - PRE_INDEX_MAX_DAYS
        max_shift = min(earliest - MIN_EVENT_DATE.toordinal(), MAX_EVENT_DATE.toordinal() - self.window[1].toordinal())
        if self.noise.shift_max_days > max_shift:
            raise ConfigError(
                f"shift_max_days must be at most {max_shift} for window {self.window[0]} to {self.window[1]}, so that "
                f"events stay inside [{MIN_EVENT_DATE}, {MAX_EVENT_DATE}], got {self.noise.shift_max_days}"
            )


def _is_count(value) -> bool:
    """True for a non-negative int; a bool is not a count."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


class TruthRecord(NamedTuple):
    person_id: int
    episode_index: int
    true_start: date
    true_dod: date
    index_event_week: int | None


class NoiseLogEntry(NamedTuple):
    channel: str
    person_id: int
    concept_id: int
    event_date: date
    detail: str


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
    index_concept_id: int

    @property
    def event_count(self) -> int:
        return len(self.flat_events) // 3

    @property
    def events(self) -> list[ClinicalEvent]:
        """The events as `ClinicalEvent`s in write order, built anew on each access."""
        dates, domains = Memo(date.fromordinal), self.domains
        fields = iter(self.flat_events)
        return [ClinicalEvent(p, c, domains[c], dates[day]) for p, day, c in zip(fields, fields, fields)]

    @property
    def noise_log(self) -> list[NoiseLogEntry]:
        """The noise rows as `NoiseLogEntry`s in draw order, built anew on each access."""
        dates = Memo(date.fromordinal)
        return [NoiseLogEntry(channel, p, c, dates[day], detail) for channel, p, c, day, detail in self.noise_rows]

    def write(self, out_dir: Path | str) -> dict[str, Path]:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
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
        write_rows(paths["index_concepts"], ["concept_id"], [[self.index_concept_id]])
        return paths


def write_truth(path: Path | str, truth: Iterable[TruthRecord]) -> None:
    """Write a truth table in (person id, episode index) order, ties in the order given."""
    iso = Memo(date.isoformat)
    write_lines(
        path,
        TRUTH_HEADER,
        (
            f"{p},{i},{iso[start]},{iso[dod]},{'' if week is None else week}\n"
            for p, i, start, dod, week in sorted(truth, key=itemgetter(0, 1))
        ),
    )


def read_truth(path: Path | str) -> list[TruthRecord]:
    truth = []
    with table(path, TRUTH_HEADER) as rows:
        for row in rows:
            week = int(row[4]) if row[4] != "" else None
            truth.append(TruthRecord(int(row[0]), int(row[1]), iso_date(row[2]), iso_date(row[3]), week))
    return truth


def _person_rng(seed: int, stream: int, person_id: int) -> random.Random:
    return random.Random((seed << 33) | (stream << 32) | person_id)


def _plan_gestations(
    rng: random.Random, window_start: int, window_len: int, count_weights: list[float]
) -> list[tuple[int, int, int]]:
    """Draw (start, delivery, length) triples, days as ordinals, with deliveries inside the window.

    Consecutive gestations are separated by a gap of at least MIN_GAP_DAYS
    between one delivery and the next start, which keeps both consecutive
    starts and consecutive deliveries more than the clustering window apart.
    """
    lo, hi = GESTATION_CLAMP_DAYS
    n_gestations = rng.choices((1, 2, 3), cum_weights=count_weights)[0]
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
        extra = rng.randrange(min(slack, 120) + 1)
        gaps.append(MIN_GAP_DAYS + extra)
        slack -= extra
    dod = window_start + rng.randrange(slack + 1)
    triples = [(dod - lengths[0], dod, lengths[0])]
    for gap, length in zip(gaps, lengths[1:]):
        dod += gap + length
        triples.append((dod - length, dod, length))
    return triples


def _range_event(rng: random.Random, start: int, gestation_days: int, pool: list) -> _Event | None:
    """One GA event from a week-range pool; the event's true week stays in range."""
    max_week = gestation_days // 7
    for _ in range(8):
        spec = rng.choice(pool)
        week_lo = max(spec.week_low, 1)
        week_hi = min(spec.week_high, max_week)
        if week_lo > week_hi:
            continue
        week = rng.randrange(week_lo, week_hi + 1)
        return start + min(7 * week + rng.randrange(7), gestation_days), spec.concept_id
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
    if config.index_concept_id in ga_registry or config.index_concept_id in dod_registry:
        raise ConfigError(f"index_concept_id {config.index_concept_id} collides with a registry concept")
    overlap = {spec.concept_id for spec in ga_registry if spec.concept_id in dod_registry}
    high_by_week = {
        spec.week_low: spec.concept_id
        for spec in ga_registry
        if spec.accuracy is AccuracyLevel.HIGH and spec.concept_id not in overlap
    }
    range_draws = []
    for level in (AccuracyLevel.MODERATE_HIGH, AccuracyLevel.MODERATE_LOW, AccuracyLevel.LOW):
        pool = [s for s in ga_registry if s.accuracy is level and s.concept_id not in overlap]
        if pool:
            range_draws.append((pool, config.ga_events_per_gestation.get(level, 0)))
    dod_pool = [spec.concept_id for spec in dod_registry if spec.concept_id not in overlap]
    if not high_by_week or not dod_pool:
        raise GenerationError("registries too small to generate events")

    race_labels = [label for label, _ in _RACE_PROBS]
    race_weights = list(accumulate(p for _, p in _RACE_PROBS))
    count_weights = list(accumulate(config.gestation_count_probs))
    window_start = config.window[0].toordinal()
    window_len = config.window[1].toordinal() - window_start
    n_high = config.ga_events_per_gestation.get(AccuracyLevel.HIGH, 0)
    n_dod = min(config.dod_events_per_gestation, len(dod_pool))
    index_concept_id = config.index_concept_id
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
    # A concept's domain; overlap concepts come only from GA draws (conflicts), so the GA registry wins.
    domains = {spec.concept_id: spec.domain for registry in (dod_registry, ga_registry) for spec in registry}
    domains[index_concept_id] = Domain.CONDITION
    # Each distinct day becomes a date once, and its int is held once in the flat events and noise rows.
    dates = Memo(date.fromordinal)
    days: dict[int, int] = {}

    persons: list[Person] = []
    flat_events: list[int] = []
    truth: list[TruthRecord] = []
    noise_rows: list[_NoiseRow] = []
    for person_id in range(1, config.n_persons + 1):
        rng = _person_rng(config.seed, _BASE_STREAM, person_id)
        triples = _plan_gestations(rng, window_start, window_len, count_weights)
        birth = triples[0][1] - rng.randrange(16, 45) * 365 - rng.randrange(365)
        race = rng.choices(race_labels, cum_weights=race_weights)[0]
        ethnicity = "Hispanic or Latino" if race == "Hispanic/Latino" else "Not Hispanic or Latino"
        persons.append(Person(person_id, dates[birth], "F", race, ethnicity))
        person_events: list[_Event] = []
        for start, dod, gestation_days in triples:
            schedule = [w for w in VISIT_WEEKS if w <= gestation_days // 7 and w in high_by_week]
            if schedule and n_high:
                for week in sorted(rng.sample(schedule, min(n_high, len(schedule)))):
                    # Exact placement: the event implies precisely the true start.
                    person_events.append((start + 7 * week, high_by_week[week]))
            for pool, count in range_draws:
                for _ in range(count):
                    event = _range_event(rng, start, gestation_days, pool)
                    if event is not None:
                        person_events.append(event)
            for concept_id in rng.sample(dod_pool, n_dod):
                person_events.append((dod, concept_id))
            if config.index_event_rate and rng.random() < config.index_event_rate:
                person_events.append((start + rng.randrange(gestation_days + 1), index_concept_id))

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
        earliest = next((day for day, concept_id in person_events if concept_id == index_concept_id), None)
        for index, (start, dod, _) in enumerate(triples, start=1):
            week = None
            if earliest is not None and earliest <= dod:
                week = 0 if earliest < start else (earliest - start) // 7 + 1
            truth.append(TruthRecord(person_id, index, dates[start], dates[dod], week))

    return SyntheticCohort(persons, flat_events, domains, truth, noise_rows, index_concept_id)


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
            delta = rng.randrange(1, noise.shift_max_days + 1)
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
            chosen, detail = rng.choice(options)
            additions.append((day, chosen))
            log.append(("conflict_ga", person_id, chosen, days.setdefault(day, day), detail))
    if noise.pre_pregnancy_index_rate:
        index_concept_id = config.index_concept_id
        for start, _, _ in triples:
            if rng.random() < noise.pre_pregnancy_index_rate:
                day = start - rng.randrange(7, PRE_INDEX_MAX_DAYS + 1)
                additions.append((day, index_concept_id))
                detail = "pre-pregnancy index event"
                log.append(("pre_index", person_id, index_concept_id, days.setdefault(day, day), detail))
    return kept + additions
