import tracemalloc
from datetime import date, timedelta

import numpy as np
import pytest

from oracles import match_reference
from tedpc.concept_registry import AccuracyLevel
from tedpc.dod_engine import DeliveryRecord
from tedpc.episode_builder import (
    PregnancyEpisode,
    age_at,
    apply_cohort_filters,
    extreme_flag_of,
    gestational_week_of,
    match_episodes,
    read_episodes,
    trimester_of,
    week_of,
    write_episodes,
)
from tedpc.errors import DataFormatError
from tedpc.ga_engine import GestationStart
from tedpc.ingestion import Person


def make_start(start, person_id=1, accuracy=AccuracyLevel.HIGH.value, conflict=False):
    return GestationStart(person_id, start.toordinal(), accuracy, 100, start.toordinal() + 140, conflict, 1)


def make_dod(dod, person_id=1, rank=1):
    return DeliveryRecord(person_id, dod.toordinal(), 2110316, rank, 1)


def timing_of(event_date, ep):
    return gestational_week_of(event_date.toordinal(), ep.start_day)


def episode(start, dod, person_id=1, index=1):
    """An episode from its start and delivery dates, which it holds as day ordinals."""
    gestation = (dod - start).days
    return PregnancyEpisode(
        person_id, index, start.toordinal(), dod.toordinal(), gestation, AccuracyLevel.HIGH.value, 1,
        extreme_flag_of(gestation), False,
    )


class TestMatchEpisodes:
    def test_single_compatible_pair(self):
        episodes, diag = match_episodes([make_start(date(2019, 12, 10))], [make_dod(date(2020, 9, 15))])
        assert len(episodes) == 1
        assert episodes[0].gestation_days == 280
        assert episodes[0].episode_index == 1
        assert not diag.unmatched_starts and not diag.unmatched_dods

    def test_too_short_gestation_leaves_both_unmatched(self):
        episodes, diag = match_episodes([make_start(date(2020, 1, 1))], [make_dod(date(2020, 2, 1))])
        assert episodes == []
        assert len(diag.unmatched_starts) == 1
        assert len(diag.unmatched_dods) == 1

    def test_two_pairs_nearest_plausible(self):
        starts = [make_start(date(2019, 12, 10)), make_start(date(2020, 11, 1))]
        dods = [make_dod(date(2020, 9, 15)), make_dod(date(2021, 7, 20))]
        episodes, diag = match_episodes(starts, dods)
        assert [(e.start_day, e.dod_day) for e in episodes] == [
            (date(2019, 12, 10).toordinal(), date(2020, 9, 15).toordinal()),
            (date(2020, 11, 1).toordinal(), date(2021, 7, 20).toordinal()),
        ]
        assert [e.episode_index for e in episodes] == [1, 2]

    def test_matching_is_injective_and_conserving(self):
        rng = np.random.default_rng(99)
        base = date(2018, 1, 1).toordinal()
        for _ in range(300):
            starts = [
                make_start(date.fromordinal(base + int(d)))
                for d in np.unique(rng.integers(0, 1500, size=rng.integers(0, 5)))
            ]
            dods = [
                make_dod(date.fromordinal(base + int(d)))
                for d in np.unique(rng.integers(0, 1500, size=rng.integers(0, 5)))
            ]
            episodes, diag = match_episodes(starts, dods)
            used_starts = [e.start_day for e in episodes]
            used_dods = [e.dod_day for e in episodes]
            assert len(set(used_starts)) == len(used_starts)
            assert len(set(used_dods)) == len(used_dods)
            assert len(episodes) + len(diag.unmatched_starts) == len(starts)
            assert len(episodes) + len(diag.unmatched_dods) == len(dods)

    def test_matches_reference_matcher(self):
        rng = np.random.default_rng(100)
        base = date(2018, 1, 1).toordinal()
        for _ in range(300):
            start_days = sorted(int(d) for d in np.unique(rng.integers(0, 1500, size=rng.integers(0, 5))))
            dod_days = sorted(int(d) for d in np.unique(rng.integers(0, 1500, size=rng.integers(0, 5))))
            starts = [date.fromordinal(base + d) for d in start_days]
            dods = [date.fromordinal(base + d) for d in dod_days]
            episodes, diag = match_episodes([make_start(s) for s in starts], [make_dod(d) for d in dods])
            pairs, leftover_starts, leftover_dods = match_reference(starts, dods)
            assert sorted((date.fromordinal(e.start_day), date.fromordinal(e.dod_day)) for e in episodes) == pairs
            assert sorted(date.fromordinal(s.start_day) for s in diag.unmatched_starts) == leftover_starts
            assert sorted(date.fromordinal(d.dod_day) for d in diag.unmatched_dods) == leftover_dods

    def test_bounds_inclusive(self):
        episodes, _ = match_episodes([make_start(date(2020, 1, 1))], [make_dod(date(2020, 1, 1) + timedelta(days=140))])
        assert len(episodes) == 1
        episodes, _ = match_episodes([make_start(date(2020, 1, 1))], [make_dod(date(2020, 1, 1) + timedelta(days=308))])
        assert len(episodes) == 1
        episodes, _ = match_episodes([make_start(date(2020, 1, 1))], [make_dod(date(2020, 1, 1) + timedelta(days=309))])
        assert episodes == []

    def test_mixed_persons_rejected(self):
        from tedpc.errors import InvariantError

        start = make_start(date(2020, 1, 1), person_id=1)
        with pytest.raises(InvariantError):
            match_episodes([start], [make_dod(date(2020, 10, 7), person_id=2)])
        with pytest.raises(InvariantError):
            match_episodes([start, make_start(date(2021, 6, 1), person_id=2)], [])


class TestExtremeFlags:
    def test_thresholds(self):
        flags = [extreme_flag_of(days) for days in (149, 150, 300, 301)]
        assert flags == ["short", "none", "none", "long"]
        # Plain texts, not members of an enum of str, which compare equal to them.
        assert {type(flag) for flag in flags} == {str}


class TestCohortFilters:
    PERSONS = {
        1: Person(1, date(2000, 1, 1).toordinal(), "F", "White", "x"),
        2: Person(2, date(2006, 6, 1).toordinal(), "F", "White", "x"),
    }

    def test_window_end_inclusive_age_21_retained(self):
        kept, excluded = apply_cohort_filters([episode(date(2020, 8, 25), date(2021, 5, 31))], self.PERSONS)
        assert len(kept) == 1 and not excluded

    def test_one_day_past_window_excluded(self):
        kept, excluded = apply_cohort_filters([episode(date(2020, 8, 26), date(2021, 6, 1))], self.PERSONS)
        assert kept == [] and excluded[0][1] == "delivery outside cohort window"

    def test_age_13_excluded(self):
        kept, excluded = apply_cohort_filters(
            [episode(date(2019, 4, 1), date(2020, 1, 1), person_id=2)], self.PERSONS
        )
        assert kept == [] and "age 13" in excluded[0][1]

    def test_missing_person_excluded_with_diagnostic(self):
        kept, excluded = apply_cohort_filters([episode(date(2019, 12, 1), date(2020, 9, 1), person_id=9)], self.PERSONS)
        assert kept == [] and "missing" in excluded[0][1]

    def test_age_boundaries_inclusive(self):
        persons = {
            1: Person(1, date(2005, 6, 1).toordinal(), "F", "W", "x"),  # turns 15 on 2020-06-01
            2: Person(2, date(1970, 6, 2).toordinal(), "F", "W", "x"),  # 49 until 2020-06-01
        }
        kept, _ = apply_cohort_filters([episode(date(2019, 8, 26), date(2020, 6, 1))], persons)
        assert len(kept) == 1
        kept, _ = apply_cohort_filters([episode(date(2019, 8, 26), date(2020, 6, 1), person_id=2)], persons)
        assert len(kept) == 1


class TestAgeAt:
    def test_birthday_not_yet_reached(self):
        assert age_at(date(2000, 6, 15).toordinal(), date(2020, 6, 14).toordinal()) == 19
        assert age_at(date(2000, 6, 15).toordinal(), date(2020, 6, 15).toordinal()) == 20

    def test_leap_day_birth(self):
        assert age_at(date(2000, 2, 29).toordinal(), date(2021, 2, 28).toordinal()) == 20
        assert age_at(date(2000, 2, 29).toordinal(), date(2021, 3, 1).toordinal()) == 21


class TestGestationalWeek:
    EPISODE = episode(date(2020, 1, 1), date(2020, 10, 7))

    def test_day_zero_is_week_one(self):
        timing = timing_of(date(2020, 1, 1), self.EPISODE)
        assert timing == (1, "first") and type(timing.trimester) is str

    def test_day_seven_is_week_two(self):
        assert timing_of(date(2020, 1, 8), self.EPISODE).week == 2

    def test_before_start_is_week_zero_pre(self):
        timing = timing_of(date(2019, 12, 22), self.EPISODE)
        assert timing == (0, "pre") and type(timing.trimester) is str

    def test_week_of_a_day_before_the_start_is_zero(self):
        start_day = date(2020, 1, 1).toordinal()
        assert week_of(start_day, start_day - 8) == 0
        assert week_of(start_day, start_day - 1) == 0
        assert week_of(start_day, start_day) == 1

    def test_day_189_is_week_28_third(self):
        timing = timing_of(date(2020, 1, 1) + timedelta(days=189), self.EPISODE)
        assert timing == (28, "third") and type(timing.trimester) is str

    def test_monotone_in_event_date(self):
        previous = -1
        for offset in range(-20, 300):
            timing = timing_of(date.fromordinal(self.EPISODE.start_day) + timedelta(days=offset), self.EPISODE)
            assert timing.week >= previous
            previous = timing.week

    def test_trimester_partition(self):
        for week in range(1, 46):
            count = sum(trimester_of(week) == t for t in ("first", "second", "third"))
            assert count == 1 and type(trimester_of(week)) is str
        assert [trimester_of(week) for week in (13, 14, 27, 28)] == ["first", "second", "second", "third"]

    def test_negative_week_rejected(self):
        with pytest.raises(ValueError):
            trimester_of(-1)


class TestEpisodeIO:
    def test_round_trip(self, tmp_path):
        episodes = [
            episode(date(2019, 12, 10), date(2020, 9, 15)),
            episode(date(2020, 11, 1), date(2021, 1, 25), person_id=2),  # short, flagged
        ]
        path = tmp_path / "episodes.csv"
        write_episodes(path, episodes)
        loaded = read_episodes(path)
        assert loaded == episodes
        assert loaded[1].extreme_flag == "short"
        # Each field comes back as the type an inferred episode holds: the accuracy an int, the flag a text.
        assert [list(map(type, e)) for e in loaded] == [[int, int, int, int, int, int, int, str, bool]] * 2
        # The start and delivery come back as the int day ordinals match_episodes holds.
        matched, _ = match_episodes([make_start(date(2019, 12, 10))], [make_dod(date(2020, 9, 15))])
        write_episodes(path, matched)
        loaded = read_episodes(path)
        assert loaded == matched
        assert [(type(e.start_day), type(e.dod_day)) for e in loaded] == [(int, int)]
        assert [(e.start_day, e.dod_day) for e in loaded] == [(e.start_day, e.dod_day) for e in matched] == [
            (date(2019, 12, 10).toordinal(), date(2020, 9, 15).toordinal())
        ]

    @pytest.mark.parametrize(
        "field, bad",
        [(2, "2020-02-30"), (2, "20191210"), (7, "huge"), (7, "None")],
        ids=["start-date", "start-date-shape", "extreme-flag", "extreme-flag-case"],
    )
    def test_repeated_bad_value_reported_at_first_line(self, tmp_path, field, bad):
        path = tmp_path / "episodes.csv"
        write_episodes(path, [episode(date(2019, 12, 10), date(2020, 9, 15), person_id=p) for p in (1, 2, 3, 4)])
        lines = path.read_text().splitlines()
        for i in (3, 4):
            row = lines[i].split(",")
            row[field] = bad
            lines[i] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match=r"episodes.csv:4: "):
            read_episodes(path)


class TestEpisodeTableMemory:
    def test_reading_an_ordered_table_builds_nothing_per_row(self, tmp_path, ga_registry, dod_registry):
        # A file in (person, episode index) order, as write_episodes writes it, has
        # no repeats when its keys ascend: reading it keeps the episodes and a
        # block's work, about 30 bytes per row beyond them. A dict of the
        # episodes by key costs about 130.
        from tedpc.synthgen import SynthConfig, generate_cohort

        cohort = generate_cohort(SynthConfig(seed=3, n_persons=10_000), ga_registry, dod_registry)
        path = tmp_path / "episodes.csv"
        write_episodes(
            path,
            [
                episode(date.fromordinal(t.true_start_day), date.fromordinal(t.true_dod_day), t.person_id, t.episode_index)
                for t in cohort.truth
            ],
        )
        tracemalloc.start()
        try:
            episodes = read_episodes(path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(episodes) == len(cohort.truth) > 10_000
        assert (peak - kept) / len(episodes) < 60
