from datetime import date, timedelta

import numpy as np
import pytest

from conftest import random_ga_events
from oracles import ga_reference, median_days
from tedpc.concept_registry import AccuracyLevel, Domain, GAConceptSpec
from tedpc.ga_engine import (
    anchor_and_absorb,
    build_candidates,
    ga_days,
    infer_gestation_starts,
    start_date_from_event,
)
from tedpc.ingestion import ClinicalEvent


def spec_for(week_low, week_high):
    return GAConceptSpec(0, "test", week_low, week_high, AccuracyLevel.LOW, Domain.CONDITION, "SNOMED")


class TestGADays:
    def test_exact_week(self):
        assert ga_days(spec_for(40, 40)) == 280

    def test_median_of_range(self):
        assert ga_days(spec_for(9, 13)) == 77

    def test_half_day_median_rounds_up(self):
        assert ga_days(spec_for(14, 27)) == 144

    def test_matches_decimal_oracle_on_all_ranges(self):
        for low in range(1, 46):
            for high in range(low, 46):
                assert ga_days(spec_for(low, high)) == median_days(low, high)


class TestStartDateFromEvent:
    def test_forty_weeks(self):
        assert start_date_from_event(date(2020, 9, 15), spec_for(40, 40)) == date(2019, 12, 10)

    def test_across_leap_day(self):
        assert start_date_from_event(date(2020, 3, 1), spec_for(12, 12)) == date(2019, 12, 8)

    def test_half_week_median(self):
        assert start_date_from_event(date(2020, 6, 1), spec_for(14, 27)) == date(2020, 1, 9)

    def test_build_candidates_uses_same_arithmetic(self, ga_registry):
        rng = np.random.default_rng(31)
        events = random_ga_events(rng, ga_registry, max_events=40)
        for candidate in build_candidates(events, ga_registry):
            assert candidate.start_date == start_date_from_event(
                candidate.event.event_date, candidate.spec
            )
            assert candidate.accuracy is candidate.spec.accuracy


def events_to_reference(events, registry):
    rows = []
    for event in events:
        spec = registry.get(event.concept_id)
        rows.append(
            {
                "event_date": event.event_date,
                "concept_id": event.concept_id,
                "rank": int(spec.accuracy),
                "week_low": spec.week_low,
                "week_high": spec.week_high,
            }
        )
    return rows


def run_engine(events, registry):
    return infer_gestation_starts(build_candidates(events, registry))


def assert_matches_reference(events, registry):
    got = run_engine(events, registry)
    expected = ga_reference(events_to_reference(events, registry))
    assert len(got) == len(expected)
    for out, ref in zip(got, expected):
        assert out.start_date == ref["start"]
        assert out.anchor.event.concept_id == ref["anchor"]
        assert out.cluster_size == ref["size"]
        assert out.conflict_flag == ref["conflict"]


class TestAnchorAndAbsorb:
    def test_empty(self):
        assert anchor_and_absorb([], [], 270) == []

    def test_anchor_order_decides_clusters(self):
        positions = [0, 200, 400]
        # Anchoring the middle first swallows both ends; anchoring an end first leaves the other.
        assert anchor_and_absorb(positions, [1, 0, 2], 270) == [(1, [0, 1, 2])]
        assert anchor_and_absorb(positions, [0, 1, 2], 270) == [(0, [0, 1]), (2, [2])]


class TestInferGestationStarts:
    def test_empty_input(self):
        assert infer_gestation_starts([]) == []

    def test_single_candidate(self, ga_registry):
        # 4051642 encodes 20 weeks.
        events = [ClinicalEvent(1, 4051642, Domain.CONDITION, date(2020, 7, 1))]
        starts = run_engine(events, ga_registry)
        assert len(starts) == 1
        assert starts[0].start_date == date(2020, 2, 12)
        assert starts[0].accuracy is AccuracyLevel.HIGH
        assert starts[0].cluster_size == 1
        assert not starts[0].conflict_flag

    def test_high_wins_and_low_absorbed(self, ga_registry):
        events = [
            ClinicalEvent(1, 4197245, Domain.CONDITION, date(2020, 3, 1)),  # 12 weeks
            ClinicalEvent(1, 4239938, Domain.CONDITION, date(2020, 2, 27)),  # first trimester
        ]
        starts = run_engine(events, ga_registry)
        assert len(starts) == 1
        assert starts[0].start_date == date(2019, 12, 8)
        assert starts[0].accuracy is AccuracyLevel.HIGH
        assert starts[0].cluster_size == 2
        # Absorbed candidate implies 2020-01-09, 32 days off the anchor.
        assert abs((date(2020, 1, 9) - starts[0].start_date).days) == 32
        assert not starts[0].conflict_flag
        assert_matches_reference(events, ga_registry)

    def test_separated_highs_make_two_gestations(self, ga_registry):
        first = date(2020, 7, 1)
        events = [
            ClinicalEvent(1, 4051642, Domain.CONDITION, first),
            ClinicalEvent(1, 4051642, Domain.CONDITION, first + timedelta(days=300)),
        ]
        starts = run_engine(events, ga_registry)
        assert len(starts) == 2
        assert (starts[1].start_date - starts[0].start_date).days == 300
        assert_matches_reference(events, ga_registry)

    def test_same_date_conflict_anchors_lower_concept_id(self, ga_registry):
        # Same-date 36-week (438543) vs 39-week (435655) records.
        day = date(2020, 9, 15)
        events = [
            ClinicalEvent(1, 438543, Domain.CONDITION, day),
            ClinicalEvent(1, 435655, Domain.CONDITION, day),
        ]
        starts = run_engine(events, ga_registry)
        assert len(starts) == 1
        assert starts[0].anchor.event.concept_id == 435655
        assert starts[0].start_date == day - timedelta(days=273)
        assert starts[0].conflict_flag
        assert_matches_reference(events, ga_registry)

    def test_boundary_exactly_window_days_absorbs(self, ga_registry):
        first = date(2020, 7, 1)
        events = [
            ClinicalEvent(1, 4051642, Domain.CONDITION, first),
            ClinicalEvent(1, 4051642, Domain.CONDITION, first + timedelta(days=270)),
        ]
        assert len(run_engine(events, ga_registry)) == 1

    def test_mixed_persons_rejected(self, ga_registry):
        from tedpc.errors import InvariantError

        events = [
            ClinicalEvent(1, 4051642, Domain.CONDITION, date(2020, 7, 1)),
            ClinicalEvent(2, 4051642, Domain.CONDITION, date(2020, 7, 1)),
        ]
        with pytest.raises(InvariantError):
            infer_gestation_starts(build_candidates(events, ga_registry))


class TestProperties:
    N_INSTANCES = 500

    def test_oracle_equivalence_on_random_instances(self, ga_registry):
        rng = np.random.default_rng(2024)
        for _ in range(self.N_INSTANCES):
            assert_matches_reference(random_ga_events(rng, ga_registry), ga_registry)

    def test_pairwise_separation(self, ga_registry):
        rng = np.random.default_rng(11)
        for _ in range(self.N_INSTANCES):
            starts = run_engine(random_ga_events(rng, ga_registry), ga_registry)
            days = sorted(s.start_date.toordinal() for s in starts)
            assert all(b - a > 270 for a, b in zip(days, days[1:]))

    def test_anchor_dominance_and_conservation(self, ga_registry):
        rng = np.random.default_rng(12)
        for _ in range(self.N_INSTANCES):
            events = random_ga_events(rng, ga_registry)
            candidates = build_candidates(events, ga_registry)
            starts = infer_gestation_starts(candidates)
            assert sum(s.cluster_size for s in starts) == len(candidates)
            # Dominance via the reference clusters (engine output is checked
            # equivalent elsewhere): nothing absorbed outranks its anchor.
            for cluster in ga_reference(events_to_reference(events, ga_registry)):
                assert min(cluster["member_ranks"]) == cluster["anchor_rank"]

    def test_permutation_invariance(self, ga_registry):
        rng = np.random.default_rng(13)
        for _ in range(100):
            events = random_ga_events(rng, ga_registry)
            baseline = run_engine(events, ga_registry)
            shuffled = list(events)
            rng.shuffle(shuffled)
            shuffled.sort(key=lambda e: (e.event_date, e.concept_id))
            assert run_engine(shuffled, ga_registry) == baseline
