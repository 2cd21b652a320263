import random
import tracemalloc
from datetime import date

import pytest

from conftest import event_triples
from oracles import noise_log_reference, truth_reference
from tedpc import synthgen
from tedpc.concept_registry import AccuracyLevel, ConceptRegistry
from tedpc.dod_engine import infer_delivery_dates, rank_table
from tedpc.episode_builder import COHORT_WINDOW, match_episodes
from tedpc.errors import ConfigError, GenerationError
from tedpc.ga_engine import build_candidates, candidate_table, ga_days, infer_gestation_starts
from tedpc.ingestion import MAX_EVENT_DATE, MIN_EVENT_DATE
from tedpc.synthgen import (
    INDEX_CONCEPT_ID,
    MAX_PERSON_ID,
    MAX_SEED,
    MAX_SHIFT_DAYS,
    NoiseSpec,
    SynthConfig,
    generate_cohort,
    read_truth,
    write_truth,
)


def run_engines(cohort, ga_registry, dod_registry, bounds=(100, 320)):
    """Group events per person and run the full inference chain."""
    by_person = {}
    for person_id, day, concept_id in event_triples(cohort):
        by_person.setdefault(person_id, []).append((day, concept_id))
    ga_table, dod_ranks = candidate_table(ga_registry), rank_table(dod_registry)
    episodes = {}
    for person_id, events in by_person.items():
        starts = infer_gestation_starts(person_id, build_candidates(events, ga_table))
        records = infer_delivery_dates(person_id, events, dod_ranks)
        eps, _ = match_episodes(starts, records, min_days=bounds[0], max_days=bounds[1])
        episodes[person_id] = eps
    return episodes


class TestDeterminism:
    def test_same_seed_identical_output(self, ga_registry, dod_registry):
        config = SynthConfig(seed=42, n_persons=50, noise=NoiseSpec(conflict_ga_rate=0.3, shift_rate=0.2))
        first = generate_cohort(config, ga_registry, dod_registry)
        second = generate_cohort(config, ga_registry, dod_registry)
        assert first.persons == second.persons
        assert first.flat_events == second.flat_events
        assert first.truth == second.truth
        assert first.noise_rows == second.noise_rows

    def test_identical_bytes_on_disk(self, ga_registry, dod_registry, tmp_path):
        config = SynthConfig(seed=9, n_persons=40)
        for name in ("a", "b"):
            generate_cohort(config, ga_registry, dod_registry).write(tmp_path / name)
        for filename in ("persons.csv", "events.csv", "truth.csv", "noise_log.csv"):
            assert (tmp_path / "a" / filename).read_bytes() == (tmp_path / "b" / filename).read_bytes()

    def test_different_seed_differs(self, ga_registry, dod_registry):
        a = generate_cohort(SynthConfig(seed=1, n_persons=30), ga_registry, dod_registry)
        b = generate_cohort(SynthConfig(seed=2, n_persons=30), ga_registry, dod_registry)
        assert a.flat_events != b.flat_events

    def test_persons_do_not_depend_on_cohort_size(self, ga_registry, dod_registry):
        noise = NoiseSpec(
            drop_ga_rate=0.1, conflict_ga_rate=0.3, shift_rate=0.3, drop_dod_rate=0.1, pre_pregnancy_index_rate=0.3
        )
        small, large = (
            generate_cohort(SynthConfig(seed=31, n_persons=n, index_event_rate=0.5, noise=noise), ga_registry, dod_registry)
            for n in (30, 60)
        )
        assert {row[0] for row in small.noise_rows} == {"drop_ga", "drop_dod", "shift", "conflict_ga", "pre_index"}
        # Each table with the field that holds the person id: a noise row holds it second.
        tables = [(lambda c: c.persons, 0), (event_triples, 0), (lambda c: c.truth, 0), (lambda c: c.noise_rows, 1)]
        for table, person_field in tables:
            rows = table(small)
            assert rows and rows == [row for row in table(large) if row[person_field] <= 30]


class TestValidity:
    def test_events_use_registry_concepts_and_weeks_in_range(self, ga_registry, dod_registry):
        config = SynthConfig(seed=5, n_persons=120)
        cohort = generate_cohort(config, ga_registry, dod_registry)
        truth_by_person = {}
        for record in cohort.truth:
            truth_by_person.setdefault(record.person_id, []).append(record)
        for person_id, day, concept_id in event_triples(cohort):
            if concept_id == INDEX_CONCEPT_ID:
                continue
            ga_spec = ga_registry.get(concept_id)
            dod_spec = dod_registry.get(concept_id)
            assert ga_spec is not None or dod_spec is not None
            if ga_spec is not None:
                # The event's gestation (completed weeks) lies in the concept range.
                owner = next(t for t in truth_by_person[person_id] if t.true_start_day <= day <= t.true_dod_day)
                weeks = (day - owner.true_start_day) // 7
                assert ga_spec.week_low <= weeks <= ga_spec.week_high
            else:
                assert any(t.true_dod_day == day for t in truth_by_person[person_id])

    def test_truth_separation(self, ga_registry, dod_registry):
        cohort = generate_cohort(SynthConfig(seed=6, n_persons=200), ga_registry, dod_registry)
        by_person = {}
        for record in cohort.truth:
            by_person.setdefault(record.person_id, []).append(record)
        for records in by_person.values():
            starts = sorted(r.true_start_day for r in records)
            dods = sorted(r.true_dod_day for r in records)
            assert all(b - a > 270 for a, b in zip(starts, starts[1:]))
            assert all(b - a > 270 for a, b in zip(dods, dods[1:]))

    def test_deliveries_inside_window(self, ga_registry, dod_registry):
        cohort = generate_cohort(SynthConfig(seed=7, n_persons=100), ga_registry, dod_registry)
        assert all(COHORT_WINDOW[0] <= date.fromordinal(t.true_dod_day) <= COHORT_WINDOW[1] for t in cohort.truth)


class TestRoundTrip:
    def test_noiseless_recovery_is_exact(self, ga_registry, dod_registry):
        cohort = generate_cohort(SynthConfig(seed=8, n_persons=60), ga_registry, dod_registry)
        inferred = run_engines(cohort, ga_registry, dod_registry)
        truth_by_person = {}
        for record in cohort.truth:
            truth_by_person.setdefault(record.person_id, []).append(record)
        for person_id, records in truth_by_person.items():
            episodes = inferred.get(person_id, [])
            assert len(episodes) == len(records)
            for record, episode in zip(sorted(records, key=lambda r: r.true_start_day), episodes):
                assert episode.start_day == record.true_start_day
                assert episode.dod_day == record.true_dod_day


class TestNoise:
    def test_zero_noise_is_identity(self, ga_registry, dod_registry):
        cohort = generate_cohort(SynthConfig(seed=10, n_persons=30, noise=NoiseSpec()), ga_registry, dod_registry)
        assert cohort.noise_rows == []
        events = event_triples(cohort)
        assert events and events == sorted(events)

    def test_noise_leaves_persons_and_truth_alone(self, ga_registry, dod_registry):
        # Noise draws from its own stream, so it cannot move the base draws.
        all_on = NoiseSpec(
            drop_ga_rate=0.5, conflict_ga_rate=0.5, shift_rate=0.5, drop_dod_rate=0.5, pre_pregnancy_index_rate=0.5
        )
        clean, noisy = (
            generate_cohort(SynthConfig(seed=19, n_persons=40, noise=noise), ga_registry, dod_registry)
            for noise in (NoiseSpec(), all_on)
        )
        assert {row[0] for row in noisy.noise_rows} == {"drop_ga", "drop_dod", "shift", "conflict_ga", "pre_index"}
        assert noisy.flat_events != clean.flat_events
        assert noisy.persons == clean.persons
        assert [t[:4] for t in noisy.truth] == [t[:4] for t in clean.truth]

    def test_noisy_events_come_in_write_order(self, ga_registry, dod_registry):
        # write_events keeps the order it is given, so events.csv rows are in
        # (person, date, concept) order only if the generator emits them so.
        noise = NoiseSpec(
            drop_ga_rate=0.3, conflict_ga_rate=0.5, shift_rate=0.5, drop_dod_rate=0.3, pre_pregnancy_index_rate=0.5
        )
        config = SynthConfig(seed=23, n_persons=60, index_event_rate=0.8, noise=noise)
        cohort = generate_cohort(config, ga_registry, dod_registry)
        keys = event_triples(cohort)
        assert len({person_id for person_id, _, _ in keys}) == 60
        assert {row[0] for row in cohort.noise_rows} == {"drop_ga", "drop_dod", "shift", "conflict_ga", "pre_index"}
        assert keys == sorted(keys)

    def test_drop_all_ga_events_leaves_no_episodes(self, ga_registry, dod_registry):
        config = SynthConfig(seed=11, n_persons=25, noise=NoiseSpec(drop_ga_rate=1.0))
        cohort = generate_cohort(config, ga_registry, dod_registry)
        assert not any(concept_id in ga_registry for _, _, concept_id in event_triples(cohort))
        inferred = run_engines(cohort, ga_registry, dod_registry)
        assert all(episodes == [] for episodes in inferred.values())

    def test_conflicts_preserve_episode_counts(self, ga_registry, dod_registry):
        config = SynthConfig(seed=12, n_persons=50, noise=NoiseSpec(conflict_ga_rate=1.0))
        cohort = generate_cohort(config, ga_registry, dod_registry)
        conflict_rows = [row for row in cohort.noise_rows if row[0] == "conflict_ga"]
        assert conflict_rows
        # every gestation received at least one conflicting same-date record
        truth_by_person = {}
        for record in cohort.truth:
            truth_by_person.setdefault(record.person_id, []).append(record)
        for person_id, records in truth_by_person.items():
            for record in records:
                assert any(
                    row[1] == person_id and record.true_start_day <= row[3] <= record.true_dod_day
                    for row in conflict_rows
                )
        # conflicting records disagree with truth by more than the conflict window
        low_days = {ga_days(spec) for spec in ga_registry if spec.accuracy is AccuracyLevel.LOW}
        for _, _, concept_id, _, _ in conflict_rows:
            spec = ga_registry.get(concept_id)
            assert ga_days(spec) in low_days
        inferred = run_engines(cohort, ga_registry, dod_registry)
        for person_id, records in truth_by_person.items():
            episodes = inferred[person_id]
            assert len(episodes) == len(records)
            for record, episode in zip(sorted(records, key=lambda r: r.true_start_day), episodes):
                assert episode.start_day == record.true_start_day

    def test_pre_pregnancy_index_rewrites_truth_week(self, ga_registry, dod_registry):
        config = SynthConfig(
            seed=13, n_persons=20, index_event_rate=0.5, noise=NoiseSpec(pre_pregnancy_index_rate=1.0)
        )
        cohort = generate_cohort(config, ga_registry, dod_registry)
        assert all(record.index_event_week == 0 for record in cohort.truth)

    def test_shift_channel_logs_and_moves_dates(self, ga_registry, dod_registry):
        config = SynthConfig(seed=14, n_persons=20, noise=NoiseSpec(shift_rate=1.0, shift_max_days=3))
        cohort = generate_cohort(config, ga_registry, dod_registry)
        assert any(row[0] == "shift" for row in cohort.noise_rows)

    def test_bad_rate_rejected(self):
        with pytest.raises(ConfigError):
            NoiseSpec(drop_ga_rate=1.5).validate()


class TestNoiseStream:
    @staticmethod
    def streams(monkeypatch, ga_registry, dod_registry, noise):
        """The (stream, person id) of every `_person_rng` call of a 20-person cohort."""
        calls, real = [], synthgen._person_rng

        def spy(seed, stream, person_id):
            calls.append((stream, person_id))
            return real(seed, stream, person_id)

        monkeypatch.setattr(synthgen, "_person_rng", spy)
        generate_cohort(SynthConfig(seed=3, n_persons=20, noise=noise), ga_registry, dod_registry)
        return calls

    def test_no_noise_seeds_only_the_base_stream(self, monkeypatch, ga_registry, dod_registry):
        assert self.streams(monkeypatch, ga_registry, dod_registry, NoiseSpec()) == [(0, p) for p in range(1, 21)]

    @pytest.mark.parametrize(
        "rate", ["drop_ga_rate", "conflict_ga_rate", "shift_rate", "drop_dod_rate", "pre_pregnancy_index_rate"]
    )
    def test_any_rate_seeds_one_noise_stream_per_person(self, monkeypatch, ga_registry, dod_registry, rate):
        calls = self.streams(monkeypatch, ga_registry, dod_registry, NoiseSpec(**{rate: 0.5}))
        assert [p for stream, p in calls if stream == 1] == list(range(1, 21))
        assert [p for stream, p in calls if stream == 0] == list(range(1, 21))
        assert {stream for stream, _ in calls} == {0, 1}


class TestCohortMemory:
    def test_generated_events_cost_no_object_each(self, ga_registry, dod_registry):
        # The cohort holds its events as one flat list of shared ints: each further
        # event costs its three list slots, about 24 bytes; a ClinicalEvent and its
        # date per event cost 80 or more.
        few = {AccuracyLevel.HIGH: 3, AccuracyLevel.MODERATE_HIGH: 1, AccuracyLevel.MODERATE_LOW: 1, AccuracyLevel.LOW: 2}
        many = {level: 2 * count + 1 for level, count in few.items()}

        def traced_size(ga_events_per_gestation):
            config = SynthConfig(seed=3, n_persons=2000, ga_events_per_gestation=ga_events_per_gestation)
            tracemalloc.start()
            try:
                cohort = generate_cohort(config, ga_registry, dod_registry)
                return tracemalloc.get_traced_memory()[0], cohort
            finally:
                tracemalloc.stop()

        (size_few, cohort), (size_many, larger) = traced_size(few), traced_size(many)
        assert larger.persons == cohort.persons
        added = larger.event_count - cohort.event_count
        assert added > 20_000
        assert (size_many - size_few) / added < 32

    def test_noise_log_rows_cost_no_object_each(self, ga_registry, dod_registry):
        # A noise row is one tuple of shared values (day int, detail text): with
        # its list slot about 88 bytes. An object per row, with a date and a
        # detail text of its own per shift, cost about 150.
        def traced_size(shift_rate):
            config = SynthConfig(seed=3, n_persons=2000, noise=NoiseSpec(shift_rate=shift_rate))
            tracemalloc.start()
            try:
                cohort = generate_cohort(config, ga_registry, dod_registry)
                return tracemalloc.get_traced_memory()[0], cohort
            finally:
                tracemalloc.stop()

        (size_few, cohort), (size_many, larger) = traced_size(0.1), traced_size(0.9)
        assert larger.persons == cohort.persons and larger.event_count == cohort.event_count
        added = len(larger.noise_rows) - len(cohort.noise_rows)
        assert added > 10_000
        assert (size_many - size_few) / added < 100


class TestTextWriters:
    def test_noise_log_and_truth_bytes_match_the_csv_writer(self, ga_registry, dod_registry, tmp_path):
        noise = NoiseSpec(
            drop_ga_rate=0.2, conflict_ga_rate=0.3, shift_rate=0.5, shift_max_days=30, drop_dod_rate=0.2,
            pre_pregnancy_index_rate=0.3,
        )
        config = SynthConfig(seed=17, n_persons=300, index_event_rate=0.5, noise=noise)
        cohort = generate_cohort(config, ga_registry, dod_registry)
        log = cohort.noise_rows
        assert {row[0] for row in log} == {"drop_ga", "drop_dod", "shift", "conflict_ga", "pre_index"}
        assert {"shifted +30d", "shifted -30d"} <= {row[4] for row in log}
        assert {t.index_event_week is None for t in cohort.truth} == {True, False}
        paths = cohort.write(tmp_path / "cohort")
        noise_log_reference(tmp_path / "noise_log.csv", log)
        truth_reference(tmp_path / "truth.csv", cohort.truth)
        assert paths["noise_log"].read_bytes() == (tmp_path / "noise_log.csv").read_bytes()
        assert paths["truth"].read_bytes() == (tmp_path / "truth.csv").read_bytes()

        shuffled = list(cohort.truth)
        random.Random(5).shuffle(shuffled)
        write_truth(tmp_path / "shuffled.csv", shuffled)
        assert (tmp_path / "shuffled.csv").read_bytes() == paths["truth"].read_bytes()
        # Records that tie on (person, episode) keep the order they were given.
        tied = shuffled + [t._replace(true_dod_day=t.true_dod_day + 1) for t in shuffled[:20]]
        write_truth(tmp_path / "tied.csv", tied)
        truth_reference(tmp_path / "tied_reference.csv", tied)
        assert (tmp_path / "tied.csv").read_bytes() == (tmp_path / "tied_reference.csv").read_bytes()


class TestConfigBounds:
    @pytest.mark.parametrize(
        "setting",
        [
            {"seed": -1},
            {"seed": MAX_SEED + 1},
            {"n_persons": -1},
            {"n_persons": MAX_PERSON_ID + 1},
            {"ga_events_per_gestation": {AccuracyLevel.HIGH: -1}},
            {"ga_events_per_gestation": {AccuracyLevel.LOW: -2}},
            {"ga_events_per_gestation": {AccuracyLevel.MODERATE_HIGH: 1.5}},
            {"ga_events_per_gestation": {AccuracyLevel.HIGH: True}},
            {"ga_events_per_gestation": {"high": 3}},
            {"ga_events_per_gestation": [3, 1, 1, 2]},
            {"dod_events_per_gestation": -1},
            {"dod_events_per_gestation": 2.0},
            {"seed": 1.5},
            {"seed": True},
            {"n_persons": 2.5},
            {"n_persons": True},
            {"index_event_rate": True},
            {"index_event_rate": "0.5"},
            {"noise": {"shift_rate": 0.5}},
        ],
        ids=["seed-negative", "seed-too-big", "persons-negative", "persons-too-many", "ga-high-negative",
             "ga-low-negative", "ga-float", "ga-bool", "ga-text-key", "ga-not-a-map", "dod-negative", "dod-float",
             "seed-float", "seed-bool", "persons-float", "persons-bool", "index-rate-bool", "index-rate-text",
             "noise-not-a-spec"],
    )
    def test_out_of_bounds_setting_rejected(self, setting):
        with pytest.raises(ConfigError, match=next(iter(setting))):
            SynthConfig(**setting).validate()

    @pytest.mark.parametrize(
        "setting",
        [
            {"drop_ga_rate": "0.5"},
            {"conflict_ga_rate": True},
            {"shift_rate": None},
            {"drop_dod_rate": -0.1},
            {"pre_pregnancy_index_rate": float("nan")},
            {"shift_max_days": 0},
            {"shift_max_days": True},
            {"shift_max_days": 2.5},
            {"shift_max_days": "7"},
        ],
        ids=["rate-text", "rate-bool", "rate-none", "rate-negative", "rate-nan", "shift-zero", "shift-bool",
             "shift-float", "shift-text"],
    )
    def test_wrong_noise_setting_rejected(self, setting):
        with pytest.raises(ConfigError, match=next(iter(setting))):
            SynthConfig(noise=NoiseSpec(**setting)).validate()

    def test_packing_bounds_themselves_accepted(self):
        SynthConfig(seed=MAX_SEED, n_persons=MAX_PERSON_ID).validate()

    def test_largest_accepted_shift_keeps_events_in_the_readable_range(self, ga_registry, dod_registry):
        def accepted(days):
            noise = NoiseSpec(shift_rate=1.0, shift_max_days=days, pre_pregnancy_index_rate=1.0)
            try:
                SynthConfig(n_persons=200, noise=noise).validate()
            except ConfigError as exc:
                assert "shift_max_days" in str(exc)
                return False
            return True

        low, high = 1, 10**8
        assert accepted(low) and not accepted(high)
        while high - low > 1:
            mid = (low + high) // 2
            low, high = (mid, high) if accepted(mid) else (low, mid)
        # Deliveries as late as the window's end, 2021-05-31, may move that far forward.
        assert low == MAX_SHIFT_DAYS == 29_068
        noise = NoiseSpec(shift_rate=1.0, shift_max_days=low, pre_pregnancy_index_rate=1.0)
        cohort = generate_cohort(SynthConfig(seed=4, n_persons=200, noise=noise), ga_registry, dod_registry)
        days = [day for _, day, _ in event_triples(cohort)]
        assert MIN_EVENT_DATE.toordinal() <= min(days) and max(days) <= MAX_EVENT_DATE.toordinal()


class TestFeasibility:
    def test_impossible_window_fails_with_explanation(self, monkeypatch, ga_registry, dod_registry):
        # Three gestations always, in a one-year delivery window.
        monkeypatch.setattr(synthgen, "GESTATION_COUNT_PROBS", (0.0, 0.0, 1.0))
        monkeypatch.setattr(synthgen, "COHORT_WINDOW", (date(2020, 1, 1), date(2020, 12, 31)))
        with pytest.raises(GenerationError, match="separated"):
            generate_cohort(SynthConfig(seed=1, n_persons=1), ga_registry, dod_registry)

    def test_index_concept_collision_rejected(self, ga_registry, dod_registry):
        # `simulate --ga-concepts` may name a concept set that holds the index concept.
        spec = next(iter(ga_registry))._replace(concept_id=INDEX_CONCEPT_ID)
        with pytest.raises(ConfigError, match="collides"):
            generate_cohort(SynthConfig(seed=1, n_persons=1), ConceptRegistry([*ga_registry, spec]), dod_registry)


class TestTruthIO:
    def test_truth_round_trip(self, ga_registry, dod_registry, tmp_path):
        config = SynthConfig(seed=16, n_persons=15, index_event_rate=1.0)
        cohort = generate_cohort(config, ga_registry, dod_registry)
        paths = cohort.write(tmp_path)
        loaded = read_truth(paths["truth"])
        assert loaded == sorted(cohort.truth, key=lambda t: (t.person_id, t.episode_index))
        assert any(t.index_event_week is not None for t in loaded)


class TestCohortWrite:
    """`write` makes its output directory as the commands do, and takes back what it made when it fails."""

    @pytest.fixture(scope="class")
    def cohort(self, ga_registry, dod_registry):
        return generate_cohort(SynthConfig(seed=3, n_persons=2), ga_registry, dod_registry)

    def test_out_under_a_file_raises_config_error(self, cohort, tmp_path):
        (tmp_path / "afile").write_text("")
        target = tmp_path / "afile" / "sub"
        with pytest.raises(ConfigError) as raised:
            cohort.write(target)
        assert str(raised.value) == f"cannot create output directory {target}: Not a directory"
        assert list(tmp_path.iterdir()) == [tmp_path / "afile"]

    def test_out_name_too_long_leaves_no_parent(self, cohort, tmp_path):
        target = tmp_path / "new1" / "new2" / ("x" * 300)
        with pytest.raises(ConfigError) as raised:
            cohort.write(target)
        assert str(raised.value) == f"cannot create output directory {target}: File name too long"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out_dir", [None, 5, True])
    def test_out_that_is_not_a_path_raises_config_error(self, cohort, out_dir):
        with pytest.raises(ConfigError) as raised:
            cohort.write(out_dir)
        assert str(raised.value) == f"output directory must be a path, got {out_dir!r}"

    def test_existing_directory_is_never_removed(self, cohort, tmp_path):
        # The directory made under it goes again; it stays.
        (tmp_path / "out").mkdir()
        with pytest.raises(ConfigError):
            cohort.write(tmp_path / "out" / "new" / ("x" * 300))
        assert list(tmp_path.iterdir()) == [tmp_path / "out"]
        assert list((tmp_path / "out").iterdir()) == []
