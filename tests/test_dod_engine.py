from datetime import date

import numpy as np

from conftest import random_events
from oracles import dod_reference
from tedpc.dod_engine import infer_delivery_dates, rank_table


def day(*ymd):
    return date(*ymd).toordinal()


def events_to_reference(events, registry):
    return [
        {
            "event_date": date.fromordinal(event_day),
            "concept_id": concept_id,
            "domain": registry.get(concept_id).domain.value,
        }
        for event_day, concept_id in events
        if concept_id in registry
    ]


def assert_matches_reference(events, registry):
    got = infer_delivery_dates(1, events, rank_table(registry))
    expected = dod_reference(events_to_reference(events, registry))
    assert len(got) == len(expected)
    for out, ref in zip(got, expected):
        assert out.dod_day == ref["dod"].toordinal()
        assert out.anchor_concept_id == ref["anchor"]
        assert out.cluster_size == ref["size"]


class TestInferDeliveryDates:
    def test_empty_input(self, dod_ranks):
        assert infer_delivery_dates(1, [], dod_ranks) == []

    def test_procedure_outranks_later_condition(self, dod_registry, dod_ranks):
        # 2110316 is a Procedure, 4014295 a Condition one day later.
        events = [(day(2020, 5, 2), 2110316), (day(2020, 5, 3), 4014295)]
        records = infer_delivery_dates(1, events, dod_ranks)
        assert len(records) == 1
        assert records[0].dod_day == day(2020, 5, 2)
        assert records[0].domain_rank == 1
        assert records[0].cluster_size == 2
        assert_matches_reference(events, dod_registry)

    def test_latest_wins_within_equal_rank(self, dod_registry, dod_ranks):
        events = [(day(2020, 5, 3), 4014295), (day(2020, 5, 4), 4014295)]
        records = infer_delivery_dates(1, events, dod_ranks)
        assert len(records) == 1
        assert records[0].dod_day == day(2020, 5, 4)
        assert_matches_reference(events, dod_registry)

    def test_distant_procedures_make_two_records(self, dod_registry, dod_ranks):
        first = day(2019, 5, 2)
        events = [(first, 2110316), (first + 400, 2110316)]
        records = infer_delivery_dates(1, events, dod_ranks)
        assert len(records) == 2
        assert records[0].dod_day > records[1].dod_day  # latest first
        assert_matches_reference(events, dod_registry)

    def test_non_registry_events_ignored(self, dod_ranks):
        assert infer_delivery_dates(1, [(day(2020, 5, 2), 999999999)], dod_ranks) == []

    def test_window_of_one_day_sorts_clusters_two_days_apart(self, dod_ranks):
        # The procedure anchors first although its day is the earliest; then the latest condition.
        first = day(2020, 5, 2)
        events = [(first, 2110316), (first + 2, 4014295), (first + 4, 4014295)]
        records = infer_delivery_dates(1, events, dod_ranks, window_days=1)
        assert [r.dod_day for r in records] == [first + 4, first + 2, first]
        assert [r.domain_rank for r in records] == [2, 2, 1]

    def test_same_date_same_rank_lowest_concept_anchors(self, dod_ranks):
        when = day(2020, 5, 2)
        records = infer_delivery_dates(1, [(when, 2110323), (when, 2110316)], dod_ranks)
        assert records[0].anchor_concept_id == 2110316


class TestProperties:
    N_INSTANCES = 500

    def test_oracle_equivalence_on_random_instances(self, dod_registry):
        rng = np.random.default_rng(3030)
        for _ in range(self.N_INSTANCES):
            assert_matches_reference(random_events(rng, dod_registry), dod_registry)

    def test_pairwise_separation(self, dod_registry, dod_ranks):
        rng = np.random.default_rng(21)
        for _ in range(self.N_INSTANCES):
            records = infer_delivery_dates(1, random_events(rng, dod_registry), dod_ranks)
            days = sorted(r.dod_day for r in records)
            assert all(b - a > 270 for a, b in zip(days, days[1:]))

    def test_conservation_and_output_order(self, dod_registry, dod_ranks):
        rng = np.random.default_rng(22)
        for _ in range(self.N_INSTANCES):
            events = random_events(rng, dod_registry)
            for window in (1, 270):
                records = infer_delivery_dates(1, events, dod_ranks, window_days=window)
                assert sum(r.cluster_size for r in records) == len(events)
                assert all(a.dod_day > b.dod_day for a, b in zip(records, records[1:]))

    def test_permutation_invariance(self, dod_registry, dod_ranks):
        rng = np.random.default_rng(23)
        for _ in range(100):
            events = random_events(rng, dod_registry)
            baseline = infer_delivery_dates(1, events, dod_ranks)
            shuffled = list(events)
            rng.shuffle(shuffled)
            # The engine sorts its pool itself, so even unsorted events give the same records.
            assert infer_delivery_dates(1, shuffled, dod_ranks) == baseline
