import csv
from datetime import date, timedelta

import numpy as np
import pytest

from conftest import write_clinical_events
from oracles import histogram_reference, table_reference, timeline_reference
from tedpc import analytics
from tedpc.analytics import (
    PandemicStratum,
    age_band_of,
    episode_exposures,
    first_day_exposures,
    infection_week_histogram,
    pandemic_stratum_of,
    race_category_of,
    render_histogram_markdown,
    stratified_table,
    suppress_small_cells,
)
from tedpc.concept_registry import AccuracyLevel, Domain
from tedpc.episode_builder import PregnancyEpisode, extreme_flag_of, write_episodes
from tedpc.errors import ConfigError
from tedpc.config import RunConfig
from tedpc.ingestion import ClinicalEvent, Person, load_events, write_persons
from tedpc.pipeline import run_stats, run_timeline

INDEX = 900000001


def episode(start, dod, person_id=1, index=1):
    """An episode from its start and delivery dates, which it holds as day ordinals."""
    gestation = (dod - start).days
    return PregnancyEpisode(
        person_id, index, start.toordinal(), dod.toordinal(), gestation, AccuracyLevel.HIGH.value, 1,
        extreme_flag_of(gestation), False,
    )


def event_on(day, concept_id=INDEX):
    return (day.toordinal(), concept_id)


def exposures_of(episodes, events_by_person, condition_sets):
    """The exposures stats reads, with INDEX as the index concept: each label's first day per person."""
    first_days = {}
    for person_id, events in events_by_person.items():
        for day, concept_id in events:
            labels = [None] * (concept_id == INDEX) + [name for name, ids in condition_sets.items() if concept_id in ids]
            for label in labels:
                firsts = first_days.setdefault(label, {})
                firsts[person_id] = min(day, firsts.get(person_id, day))
    return first_day_exposures(episodes, first_days, condition_sets)


def histogram(episodes, events_by_person):
    return infection_week_histogram(exposures_of(episodes, events_by_person, {}))


def table_of(episodes, persons, events_by_person, condition_sets):
    return stratified_table(exposures_of(episodes, events_by_person, condition_sets), persons, condition_sets)


class TestPandemicStratum:
    def test_last_pre_pandemic_day(self):
        assert pandemic_stratum_of(date(2020, 2, 29)) is PandemicStratum.PRE

    def test_peri_window_start(self):
        assert pandemic_stratum_of(date(2020, 5, 1)) is PandemicStratum.PERI

    def test_gap_date_is_peri_under_single_cutoff(self):
        assert pandemic_stratum_of(date(2020, 4, 1)) is PandemicStratum.PERI

    def test_explicit_windows_leave_gap_unclassified(self):
        config = RunConfig(
            pre_window=(date(2018, 6, 1), date(2020, 2, 29)),
            peri_window=(date(2020, 5, 1), date(2021, 5, 31)),
        )
        config.validate()
        assert config.stratum_of(date(2020, 2, 29)) is PandemicStratum.PRE
        assert config.stratum_of(date(2020, 4, 1)) is None
        assert config.stratum_of(date(2020, 5, 1)) is PandemicStratum.PERI

    def test_windows_must_come_in_pairs(self):
        with pytest.raises(ConfigError, match="given together"):
            RunConfig(pre_window=(date(2018, 6, 1), date(2020, 2, 29))).validate()

    @pytest.mark.parametrize(
        "pre, peri, message",
        [
            ((date(2020, 2, 29), date(2018, 6, 1)), (date(2020, 5, 1), date(2021, 5, 31)), "pre_window starts"),
            ((date(2018, 6, 1), date(2020, 2, 29)), (date(2021, 5, 31), date(2020, 5, 1)), "peri_window starts"),
            ((date(2018, 6, 1), date(2020, 5, 1)), (date(2020, 5, 1), date(2021, 5, 31)), "overlap"),
            ((date(2020, 5, 1), date(2021, 5, 31)), (date(2018, 6, 1), date(2020, 5, 1)), "overlap"),
        ],
        ids=["pre-disordered", "peri-disordered", "shared-day", "peri-first-shared-day"],
    )
    def test_disordered_or_overlapping_windows_rejected(self, pre, peri, message):
        with pytest.raises(ConfigError, match=message):
            RunConfig(pre_window=pre, peri_window=peri).validate()

    def test_adjacent_windows_and_one_day_windows_accepted(self):
        config = RunConfig(
            pre_window=(date(2020, 4, 30), date(2020, 4, 30)), peri_window=(date(2020, 5, 1), date(2020, 5, 1))
        )
        config.validate()
        assert config.stratum_of(date(2020, 4, 30)) is PandemicStratum.PRE
        assert config.stratum_of(date(2020, 5, 1)) is PandemicStratum.PERI


class TestSuppression:
    def test_below_threshold_masked(self):
        assert suppress_small_cells(19) == "-"

    def test_at_threshold_shown(self):
        assert suppress_small_cells(20) == "20"

    def test_zero_masked(self):
        assert suppress_small_cells(0) == "-"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            suppress_small_cells(-1)


class TestHistogram:
    def test_pre_pregnancy_event_goes_to_bucket_zero(self):
        ep = episode(date(2020, 1, 1), date(2020, 10, 7))
        events = {1: [event_on(date(2019, 12, 27))]}
        counts = histogram([ep], events)
        assert counts[0] == 1 and sum(counts.values()) == 1

    def test_no_index_event_contributes_nothing(self):
        ep = episode(date(2020, 1, 1), date(2020, 10, 7))
        counts = histogram([ep], {1: []})
        assert sum(counts.values()) == 0

    def test_earliest_of_two_events_counts(self):
        ep = episode(date(2020, 1, 1), date(2020, 10, 7))
        events = {
            1: [
                event_on(date(2020, 1, 1) + timedelta(days=9 * 7)),  # week 10
                event_on(date(2020, 1, 1) + timedelta(days=29 * 7)),  # week 30
            ]
        }
        counts = histogram([ep], events)
        assert counts[10] == 1 and counts[30] == 0

    def test_event_after_delivery_ignored(self):
        ep = episode(date(2020, 1, 1), date(2020, 10, 7))
        events = {1: [event_on(date(2020, 10, 8))]}
        assert sum(histogram([ep], events).values()) == 0

    def test_walk_stops_at_first_event_after_delivery(self, monkeypatch):
        ep = episode(date(2020, 1, 1), date(2020, 10, 7))
        # The pairs are walked as given, and None cannot be unpacked as an event:
        # reading past the first event after delivery fails.
        monkeypatch.setattr(analytics, "event_pairs", list)
        monkeypatch.setattr(analytics, "sorted", list, raising=False)
        events = {1: [event_on(date(2020, 3, 1)), event_on(date(2020, 10, 8)), None]}
        [(_, index_events)] = episode_exposures([ep], events)
        assert index_events == [event_on(date(2020, 3, 1))]

    def test_flat_events_in_file_order_walk_sorted_per_episode(self):
        first = episode(date(2019, 1, 1), date(2019, 10, 7))
        second = episode(date(2020, 1, 1), date(2020, 10, 7), index=2)
        days = [date(2020, 3, 1), date(2018, 12, 1), date(2020, 11, 1), date(2019, 5, 1)]
        flat = [value for day in days for value in event_on(day)]
        exposures = list(episode_exposures([first, second], {1: flat}))
        assert [index_events for _, index_events in exposures] == [
            [event_on(date(2018, 12, 1)), event_on(date(2019, 5, 1))],
            [event_on(date(2018, 12, 1)), event_on(date(2019, 5, 1)), event_on(date(2020, 3, 1))],
        ]

    def test_order_insensitive(self, tmp_path):
        # Through load_events' first days, which keep each person's earliest day whatever the row order.
        rng = np.random.default_rng(5)
        ep = episode(date(2020, 1, 1), date(2020, 10, 7))
        events = [
            ClinicalEvent(1, INDEX, Domain.CONDITION, date(2020, 1, 1) + timedelta(days=int(d)))
            for d in rng.integers(-30, 290, 8)
        ]

        def loaded_histogram():
            write_clinical_events(tmp_path / "e.csv", events)
            first_days = load_events(tmp_path / "e.csv", {}, labels={INDEX: (None,)}).first_days
            return infection_week_histogram(first_day_exposures([ep], first_days, ()))

        baseline = loaded_histogram()
        for _ in range(5):
            rng.shuffle(events)
            assert loaded_histogram() == baseline

    def test_total_equals_episodes_with_index_event(self):
        eps = [
            episode(date(2019, 1, 1), date(2019, 10, 7), person_id=1),
            episode(date(2020, 1, 1), date(2020, 10, 7), person_id=2),
            episode(date(2020, 2, 1), date(2020, 11, 7), person_id=3),
        ]
        events = {1: [event_on(date(2019, 5, 1))], 2: []}
        counts = histogram(eps, events)
        assert sum(counts.values()) == 1

    def test_render_masks_small_cells(self):
        text = render_histogram_markdown({0: 5, 1: 25}, threshold=20)
        assert "| 0 (pre-pregnancy) | - |" in text
        assert "| 1 | 25 |" in text


class TestCategories:
    def test_age_bands(self):
        assert age_band_of(15) == "15-19"
        assert age_band_of(49) == "45-49"
        assert age_band_of(50) is None
        # Both sides of every band edge: 14, 15, 19, 20, ..., 49, 50.
        assert age_band_of(14) is None
        for low in range(15, 50, 5):
            band = f"{low}-{low + 4}"
            assert age_band_of(low - 1) != band
            assert age_band_of(low) == band
            assert age_band_of(low + 4) == band
            assert age_band_of(low + 5) != band

    def test_race_by_ethnicity_wins(self):
        assert race_category_of("White", "Hispanic or Latino") == "Hispanic/Latino"

    def test_not_hispanic_uses_race(self):
        assert race_category_of("Black", "Not Hispanic or Latino") == "Black"

    @pytest.mark.parametrize("ethnicity", ["Non-Hispanic", "Non Hispanic", "non-hispanic/latino"])
    def test_non_hispanic_uses_race(self, ethnicity):
        assert race_category_of("Asian", ethnicity) == "Asian"

    @pytest.mark.parametrize("ethnicity", ["Hispanic/Latino", "HISPANIC", "Hispanic or Latino"])
    def test_hispanic_words_win(self, ethnicity):
        assert race_category_of("Asian", ethnicity) == "Hispanic/Latino"

    def test_unknown_race_is_catch_all(self):
        assert race_category_of("Martian", "Not Hispanic or Latino") == "Other/unknown"


def build_cohort(n, with_condition_event, index_week=None):
    """n identical-shape episodes; optional index event at a given week."""
    persons = {}
    events = {}
    episodes = []
    for person_id in range(1, n + 1):
        start = date(2020, 6, 1)
        dod = start + timedelta(days=280)
        persons[person_id] = Person(person_id, date(1992, 3, 5), "F", "White", "Not Hispanic or Latino")
        episodes.append(episode(start, dod, person_id=person_id))
        person_events = []
        if with_condition_event:
            person_events.append(event_on(start + timedelta(days=50), 777))
        if index_week is not None:
            person_events.append(event_on(start + timedelta(days=(index_week - 1) * 7)))
        events[person_id] = person_events
    return persons, events, episodes


class TestStratifiedTable:
    def test_saturated_condition_is_full_yes(self):
        persons, events, episodes = build_cohort(30, with_condition_event=True)
        table = table_of(episodes, persons, events, {"Obesity": {777}})
        columns = dict(zip(table.columns, table.column_totals))
        assert columns["Peri-pandemic (all)"] == 30
        section = dict(table.sections)["Obesity"]
        rows = dict(section)
        peri = table.columns.index("Peri-pandemic (all)")
        assert rows["Yes"][peri] == 30 and rows["No"][peri] == 0

    def test_empty_episode_list_fully_suppressed(self):
        table = table_of([], {}, {}, {"Obesity": {777}})
        assert all(total == 0 for total in table.column_totals)
        rendered = table.render_markdown()
        assert "| 15-19 | - | - | - | - | - | - | - | - |" in rendered

    def test_yes_no_sums_to_column_totals(self):
        persons, events, episodes = build_cohort(25, with_condition_event=False, index_week=10)
        # give some persons the condition event
        for person_id in list(events)[:11]:
            events[person_id].append(event_on(date(2020, 7, 1), 777))
        table = table_of(episodes, persons, events, {"Obesity": {777}})
        rows = dict(dict(table.sections)["Obesity"])
        for j in range(len(table.columns)):
            assert rows["Yes"][j] + rows["No"][j] == table.column_totals[j]

    def test_trimester_strata(self):
        persons, events, episodes = build_cohort(10, with_condition_event=False, index_week=10)
        p2, e2, ep2 = build_cohort(7, with_condition_event=False, index_week=30)
        offset = 100
        for person_id, person in p2.items():
            persons[person_id + offset] = person._replace(person_id=person_id + offset)
            events[person_id + offset] = e2[person_id]
        for ep in ep2:
            episodes.append(
                PregnancyEpisode(
                    ep.person_id + offset, ep.episode_index, ep.start_day, ep.dod_day, ep.gestation_days,
                    ep.ga_accuracy, ep.dod_domain_rank, ep.extreme_flag, ep.conflict_flag,
                )
            )
        table = table_of(episodes, persons, events, {})
        by_label = dict(zip(table.columns, table.column_totals))
        assert by_label["Index in weeks 1-27: yes"] == 10
        assert by_label["Index in week 28+: yes"] == 7
        assert by_label["Index before delivery: yes"] == 17

    def test_suppression_hides_rendered_counts_not_raw(self):
        persons, events, episodes = build_cohort(5, with_condition_event=True)
        table = table_of(episodes, persons, events, {"Obesity": {777}})
        rendered = table.render_markdown()
        assert "| Episodes (n) | - | - " in rendered
        raw = table.csv_rows()
        assert raw[1][2:] == [0, 5, 5, 0, 5, 0, 5, 0]

    def test_render_takes_the_threshold(self):
        persons, events, episodes = build_cohort(5, with_condition_event=True)
        table = table_of(episodes, persons, events, {"Obesity": {777}})
        assert "| Episodes (n) | 0 | 5 | 5 | 0 | 5 | 0 | 5 | 0 |" in table.render_markdown(0)
        assert "| Yes | - | 5 (100.0%) | 5 (100.0%) | - |" in table.render_markdown(5)
        assert "| Yes | - | - | - | - | - | - | - | - |" in table.render_markdown(6)

    def test_percentages_use_unsuppressed_denominators(self):
        persons, events, episodes = build_cohort(40, with_condition_event=True)
        table = table_of(episodes, persons, events, {"Obesity": {777}})
        rendered = table.render_markdown()
        assert "40 (100.0%)" in rendered

    def test_generator_bookkeeping_oracle(self):
        # Known truth table: 12 pre-pandemic, 23 peri (9 with an index event in
        # week 5); counts must equal that bookkeeping exactly.
        persons, events, episodes = {}, {}, []
        next_id = 1
        for _ in range(12):
            start = date(2019, 1, 1)
            persons[next_id] = Person(next_id, date(1990, 1, 1), "F", "Asian", "Not Hispanic or Latino")
            events[next_id] = []
            episodes.append(episode(start, start + timedelta(days=280), person_id=next_id))
            next_id += 1
        for i in range(23):
            start = date(2020, 6, 1)
            persons[next_id] = Person(next_id, date(1990, 1, 1), "F", "Asian", "Not Hispanic or Latino")
            events[next_id] = [event_on(start + timedelta(days=4 * 7))] if i < 9 else []
            episodes.append(episode(start, start + timedelta(days=280), person_id=next_id))
            next_id += 1
        table = table_of(episodes, persons, events, {})
        by_label = dict(zip(table.columns, table.column_totals))
        assert by_label["Pre-pandemic (all)"] == 12
        assert by_label["Peri-pandemic (all)"] == 23
        assert by_label["Index before delivery: yes"] == 9
        assert by_label["Index before delivery: no"] == 14
        assert by_label["Index in weeks 1-27: yes"] == 9


class TestTableOracle:
    RACES = ["White", " black ", "Black or African American", "Asian", "NHOPI",
             "Native Hawaiian or Other Pacific Islander", "Multiple", "multiracial", "Martian", ""]
    ETHNICITIES = ["Hispanic or Latino", "Not Hispanic or Latino", "HISPANIC", "", "Unknown", "Non-Hispanic"]
    CONCEPTS = [INDEX, INDEX + 1, 777, 778, 779, 5]
    # INDEX + 1 is an index concept and a member of B_set.
    CONDITIONS = {"B_set": {779, INDEX + 1}, "A_set": {777, 778}}

    def random_instance(self, rng):
        base = date(2018, 1, 1).toordinal()
        persons, events, episodes = {}, {}, []
        for person_id in range(1, int(rng.integers(1, 12)) + 1):
            if rng.random() < 0.8:
                birth = date.fromordinal(date(1960, 1, 1).toordinal() + int(rng.integers(0, 52 * 365)))
                race = self.RACES[int(rng.integers(len(self.RACES)))]
                ethnicity = self.ETHNICITIES[int(rng.integers(len(self.ETHNICITIES)))]
                persons[person_id] = Person(person_id, birth, "F", race, ethnicity)
            person_events = []
            for index in range(1, int(rng.integers(0, 3)) + 1):
                start = date.fromordinal(base + int(rng.integers(0, 4 * 365)))
                dod = start + timedelta(days=int(rng.integers(120, 320)))
                episodes.append(episode(start, dod, person_id=person_id, index=index))
                for _ in range(int(rng.integers(0, 5))):
                    day = start + timedelta(days=int(rng.integers(-60, (dod - start).days + 60)))
                    concept = self.CONCEPTS[int(rng.integers(len(self.CONCEPTS)))]
                    person_events.append(ClinicalEvent(person_id, concept, Domain.CONDITION, day))
            events[person_id] = person_events
        return persons, events, episodes

    def test_matches_brute_force_reference(self, tmp_path):
        # The real stats path, over written tables with events.csv rows shuffled.
        rng = np.random.default_rng(2024)
        index_concepts = {INDEX, INDEX + 1}
        paths = {name: tmp_path / f"{name}.csv" for name in ["index", *self.CONDITIONS]}
        for name, concept_ids in [("index", index_concepts), *self.CONDITIONS.items()]:
            paths[name].write_text("concept_id\n" + "".join(f"{c}\n" for c in sorted(concept_ids)))
        out = tmp_path / "out"
        base = RunConfig(
            persons_path=tmp_path / "persons.csv",
            events_path=tmp_path / "events.csv",
            episodes_path=tmp_path / "episodes.csv",
            index_events_path=paths["index"],
            out_dir=out,
        )
        seen = set()
        for trial in range(300):
            persons, events, episodes = self.random_instance(rng)
            for ep in episodes:
                if rng.random() < 0.2:
                    dod = date.fromordinal(ep.dod_day)
                    events[ep.person_id].append(ClinicalEvent(ep.person_id, INDEX + 1, Domain.CONDITION, dod))
            if trial % 2:
                windows = {
                    "pre_window": (date(2018, 6, 1), date(2019, 12, 31)),
                    "peri_window": (date(2020, 4, 1), date(2021, 12, 31)),
                }
                config = base._replace(**windows)
            else:
                windows = {"cutoff": date.fromordinal(date(2019, 1, 1).toordinal() + int(rng.integers(0, 900)))}
                config = base._replace(pandemic_cutoff=windows["cutoff"])
            rows = [e for person_events in events.values() for e in person_events]
            rng.shuffle(rows)
            write_clinical_events(config.events_path, rows)
            write_persons(config.persons_path, persons.values())
            write_episodes(config.episodes_path, episodes)
            run_stats(config, {name: paths[name] for name in self.CONDITIONS}, unsuppressed=True)
            with open(out / "report.csv", newline="", encoding="utf-8") as fh:
                header, *counts = csv.reader(fh)
            expected = table_reference(episodes, persons, events, index_concepts, self.CONDITIONS, **windows)
            assert [header] + [row[:2] + [int(n) for n in row[2:]] for row in counts] == expected
            with open(out / "histogram.csv", newline="", encoding="utf-8") as fh:
                histogram = {int(week): int(n) for week, n in list(csv.reader(fh))[1:]}
            assert histogram == histogram_reference(episodes, events, index_concepts)
            for ep in episodes:
                dod = date.fromordinal(ep.dod_day)
                person = persons.get(ep.person_id)
                if person is None:
                    seen.add("missing person")
                else:
                    age = dod.year - person.birth_date.year
                    if not 16 <= age <= 49:
                        seen.add("age outside bands")
                    if person.ethnicity in ("Hispanic or Latino", "HISPANIC") and person.race.strip():
                        seen.add("ethnicity overrides race")
                    if person.ethnicity == "Non-Hispanic" and race_category_of(person.race, person.ethnicity) != "Other/unknown":
                        seen.add("non-hispanic uses race")
                if config.stratum_of(dod) is None:
                    seen.add("dropped by windows")
                if any(e.event_date > dod for e in events[ep.person_id]):
                    seen.add("event after delivery")
                if any(e.concept_id == INDEX + 1 and e.event_date <= dod for e in events[ep.person_id]):
                    seen.add("index event meets a condition set")
        assert seen == {
            "missing person", "age outside bands", "ethnicity overrides race", "non-hispanic uses race",
            "dropped by windows", "event after delivery", "index event meets a condition set",
        }

    def test_timeline_and_histogram_match_brute_force(self, tmp_path):
        rng = np.random.default_rng(2025)
        index_concepts = {INDEX, INDEX + 1}
        (tmp_path / "index.csv").write_text(f"concept_id\n{INDEX}\n{INDEX + 1}\n")
        config = RunConfig(
            events_path=tmp_path / "e.csv",
            episodes_path=tmp_path / "episodes.csv",
            index_events_path=tmp_path / "index.csv",
            out_dir=tmp_path / "out",
        )
        seen = set()
        for _ in range(150):
            _, events, episodes = self.random_instance(rng)
            for ep in episodes:
                if rng.random() < 0.2:
                    dod = date.fromordinal(ep.dod_day)
                    events[ep.person_id].append(ClinicalEvent(ep.person_id, INDEX + 1, Domain.CONDITION, dod))
            write_clinical_events(config.events_path, [e for person_events in events.values() for e in person_events])
            write_episodes(config.episodes_path, episodes)
            rows = run_timeline(config)
            with open(config.out_dir / "timing.csv", newline="", encoding="utf-8") as fh:
                written = [[int(r[0]), int(r[1]), int(r[2]), r[3], int(r[4]), r[5]] for r in list(csv.reader(fh))[1:]]
            assert rows == len(written)
            assert written == timeline_reference(episodes, events, index_concepts)
            labels = {concept_id: (None,) for concept_id in index_concepts}
            first_days = load_events(config.events_path, {}, labels=labels).first_days
            exposures = first_day_exposures(episodes, first_days, ())
            assert infection_week_histogram(exposures) == histogram_reference(episodes, events, index_concepts)
            for ep in episodes:
                start, dod = date.fromordinal(ep.start_day), date.fromordinal(ep.dod_day)
                person_events = events[ep.person_id]
                if not person_events:
                    seen.add("person with no events")
                for e in person_events:
                    if e.concept_id in index_concepts:
                        if e.event_date < start:
                            seen.add("index before start")
                        elif e.event_date == dod:
                            seen.add("index on delivery day")
                        elif e.event_date > dod:
                            seen.add("index after delivery")
        assert seen == {"person with no events", "index before start", "index on delivery day", "index after delivery"}
