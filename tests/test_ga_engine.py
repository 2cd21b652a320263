from datetime import date, timedelta

import numpy as np

from conftest import random_events
from oracles import ga_reference, median_days
from tedpc.concept_registry import AccuracyLevel, Domain, GAConceptSpec
from tedpc.ga_engine import (
    anchor_and_absorb,
    build_candidates,
    candidate_table,
    ga_days,
    infer_gestation_starts,
)


def spec_for(week_low, week_high):
    return GAConceptSpec(0, "test", week_low, week_high, AccuracyLevel.LOW, Domain.CONDITION, "SNOMED")


def day(*ymd):
    return date(*ymd).toordinal()


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


class TestBuildCandidates:
    def test_forty_weeks(self):
        table = {7: (ga_days(spec_for(40, 40)), 1)}
        assert build_candidates([(day(2020, 9, 15), 7)], table) == [(1, day(2020, 9, 15), 7, day(2019, 12, 10))]

    def test_across_leap_day(self):
        table = {7: (ga_days(spec_for(12, 12)), 1)}
        assert build_candidates([(day(2020, 3, 1), 7)], table)[0][3] == day(2019, 12, 8)

    def test_half_week_median(self):
        table = {7: (ga_days(spec_for(14, 27)), 3)}
        assert build_candidates([(day(2020, 6, 1), 7)], table)[0][3] == day(2020, 1, 9)

    def test_one_candidate_per_ga_event_with_its_registry_facts(self, ga_registry):
        rng = np.random.default_rng(31)
        events = random_events(rng, ga_registry, max_events=40) + [(day(2020, 1, 1), 999999999)]
        candidates = build_candidates(events, candidate_table(ga_registry))
        assert len(candidates) == len(events) - 1
        for (accuracy, event_day, concept_id, start), (want_day, want_concept) in zip(candidates, events):
            spec = ga_registry.get(concept_id)
            assert (event_day, concept_id) == (want_day, want_concept)
            assert accuracy == spec.accuracy
            assert start == event_day - ga_days(spec)


def events_to_reference(events, registry):
    rows = []
    for event_day, concept_id in events:
        spec = registry.get(concept_id)
        rows.append(
            {
                "event_date": date.fromordinal(event_day),
                "concept_id": concept_id,
                "rank": int(spec.accuracy),
                "week_low": spec.week_low,
                "week_high": spec.week_high,
            }
        )
    return rows


def run_engine(events, registry):
    return infer_gestation_starts(1, build_candidates(events, candidate_table(registry)))


def assert_matches_reference(events, registry):
    got = run_engine(events, registry)
    expected = ga_reference(events_to_reference(events, registry))
    assert len(got) == len(expected)
    for out, ref in zip(got, expected):
        assert out.start_day == ref["start"].toordinal()
        assert out.anchor_concept_id == ref["anchor"]
        assert out.cluster_size == ref["size"]
        assert out.conflict_flag == ref["conflict"]


class TestAnchorAndAbsorb:
    def test_empty(self):
        assert anchor_and_absorb([], 270) == []

    def test_anchor_order_decides_clusters(self):
        # Positions come best first. Anchoring the middle first swallows both ends;
        # anchoring an end first leaves the other.
        assert anchor_and_absorb([200, 0, 400], 270) == [(0, [0, 1, 2])]
        assert anchor_and_absorb([0, 200, 400], 270) == [(0, [0, 1]), (2, [2])]

    def test_window_of_one_day_splits_positions_two_days_apart(self):
        assert anchor_and_absorb([4, 0, 2], 1) == [(0, [0]), (1, [1]), (2, [2])]
        assert anchor_and_absorb([4, 0, 2], 2) == [(0, [0, 2]), (1, [1])]


class TestInferGestationStarts:
    def test_empty_input(self):
        assert infer_gestation_starts(1, []) == []

    def test_single_candidate(self, ga_registry):
        # 4051642 encodes 20 weeks.
        starts = run_engine([(day(2020, 7, 1), 4051642)], ga_registry)
        assert len(starts) == 1
        assert starts[0].start_day == day(2020, 2, 12)
        assert starts[0].accuracy is AccuracyLevel.HIGH
        assert (starts[0].anchor_concept_id, starts[0].anchor_day) == (4051642, day(2020, 7, 1))
        assert starts[0].cluster_size == 1
        assert not starts[0].conflict_flag

    def test_high_wins_and_low_absorbed(self, ga_registry):
        events = [
            (day(2020, 2, 27), 4239938),  # first trimester
            (day(2020, 3, 1), 4197245),  # 12 weeks
        ]
        starts = run_engine(events, ga_registry)
        assert len(starts) == 1
        assert starts[0].start_day == day(2019, 12, 8)
        assert starts[0].accuracy is AccuracyLevel.HIGH
        assert starts[0].cluster_size == 2
        # Absorbed candidate implies 2020-01-09, 32 days off the anchor.
        assert abs(day(2020, 1, 9) - starts[0].start_day) == 32
        assert not starts[0].conflict_flag
        assert_matches_reference(events, ga_registry)

    def test_separated_highs_make_two_gestations(self, ga_registry):
        first = day(2020, 7, 1)
        events = [(first, 4051642), (first + 300, 4051642)]
        starts = run_engine(events, ga_registry)
        assert len(starts) == 2
        assert starts[1].start_day - starts[0].start_day == 300
        assert_matches_reference(events, ga_registry)

    def test_same_date_conflict_anchors_lower_concept_id(self, ga_registry):
        # Same-date 36-week (438543) vs 39-week (435655) records.
        when = day(2020, 9, 15)
        events = [(when, 438543), (when, 435655)]
        starts = run_engine(events, ga_registry)
        assert len(starts) == 1
        assert starts[0].anchor_concept_id == 435655
        assert starts[0].start_day == when - 273
        assert starts[0].conflict_flag
        assert_matches_reference(events, ga_registry)

    def test_window_of_one_day_sorts_clusters_two_days_apart(self, ga_table):
        # The high-accuracy candidate anchors first although its start is the latest.
        base = day(2020, 1, 1)
        events = [
            (base + 4 + ga_table[4051642][0], 4051642),
            (base + ga_table[4239938][0], 4239938),
            (base + 2 + ga_table[4239938][0], 4239938),
        ]
        starts = infer_gestation_starts(1, build_candidates(events, ga_table), window_days=1)
        assert [s.start_day for s in starts] == [base, base + 2, base + 4]
        assert [s.cluster_size for s in starts] == [1, 1, 1]
        assert starts[2].accuracy is AccuracyLevel.HIGH and starts[0].accuracy is not AccuracyLevel.HIGH
        assert all(type(s.accuracy) is AccuracyLevel for s in starts)

    def test_boundary_exactly_window_days_absorbs(self, ga_registry):
        first = day(2020, 7, 1)
        assert len(run_engine([(first, 4051642), (first + 270, 4051642)], ga_registry)) == 1


class TestProperties:
    N_INSTANCES = 500

    def test_oracle_equivalence_on_random_instances(self, ga_registry):
        rng = np.random.default_rng(2024)
        for _ in range(self.N_INSTANCES):
            assert_matches_reference(random_events(rng, ga_registry), ga_registry)

    def test_pairwise_separation(self, ga_registry):
        rng = np.random.default_rng(11)
        for _ in range(self.N_INSTANCES):
            starts = run_engine(random_events(rng, ga_registry), ga_registry)
            days = sorted(s.start_day for s in starts)
            assert all(b - a > 270 for a, b in zip(days, days[1:]))

    def test_anchor_dominance_and_conservation(self, ga_registry):
        rng = np.random.default_rng(12)
        for _ in range(self.N_INSTANCES):
            events = random_events(rng, ga_registry)
            candidates = build_candidates(events, candidate_table(ga_registry))
            starts = infer_gestation_starts(1, candidates)
            assert sum(s.cluster_size for s in starts) == len(candidates)
            # Dominance via the reference clusters (engine output is checked
            # equivalent elsewhere): nothing absorbed outranks its anchor.
            for cluster in ga_reference(events_to_reference(events, ga_registry)):
                assert min(cluster["member_ranks"]) == cluster["anchor_rank"]

    def test_output_types_and_order(self, ga_registry, ga_table):
        # The writers index TOKEN_BY_ACCURACY, which takes a plain int too, so only a test sees the type.
        rng = np.random.default_rng(14)
        for _ in range(self.N_INSTANCES):
            candidates = build_candidates(random_events(rng, ga_registry, max_events=20), ga_table)
            for window in (1, 270):
                starts = infer_gestation_starts(1, candidates, window_days=window)
                assert all(type(s.accuracy) is AccuracyLevel for s in starts)
                assert all(a.start_day < b.start_day for a, b in zip(starts, starts[1:]))

    def test_permutation_invariance(self, ga_registry):
        rng = np.random.default_rng(13)
        table = candidate_table(ga_registry)
        for _ in range(100):
            events = random_events(rng, ga_registry)
            baseline = run_engine(events, ga_registry)
            shuffled = list(events)
            rng.shuffle(shuffled)
            # The engine sorts its candidates itself, so even unsorted events give the same starts.
            assert infer_gestation_starts(1, build_candidates(shuffled, table)) == baseline
