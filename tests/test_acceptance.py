"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The throughput criterion
(9) generates a 100,000-person cohort and is the slow part of the suite.
"""

import random
import time
from collections import Counter
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from conftest import event_triples, random_events
from oracles import dod_reference, ga_reference
from tedpc.analytics import PandemicStratum, pandemic_stratum_of, suppress_small_cells
from tedpc.cli import main
from tedpc.concept_registry import AccuracyLevel, default_ga_concepts_path, load_ga_concepts
from tedpc.config import RunConfig
from tedpc.dod_engine import infer_delivery_dates
from tedpc.episode_builder import (
    Trimester,
    gestational_week_of,
    read_episodes,
    trimester_of,
)
from tedpc.errors import DataFormatError
from tedpc.evaluation import round_trip_score
from tedpc.ga_engine import build_candidates, infer_gestation_starts
from tedpc.pipeline import run_infer
from tedpc.synthgen import NoiseSpec, SynthConfig, generate_cohort
from test_dod_engine import events_to_reference as dod_to_reference
from test_ga_engine import events_to_reference as ga_to_reference


@pytest.fixture(scope="module")
def cohort_1000(ga_registry, dod_registry, tmp_path_factory):
    out = tmp_path_factory.mktemp("cohort1000")
    started = time.perf_counter()
    cohort = generate_cohort(SynthConfig(seed=1000, n_persons=1000), ga_registry, dod_registry)
    cohort.write(out)
    config = RunConfig(
        persons_path=out / "persons.csv",
        events_path=out / "events.csv",
        out_dir=out / "run",
        match_min_days=100,
        match_max_days=320,
    )
    run_infer(config)
    elapsed = time.perf_counter() - started
    return cohort, out, elapsed


def test_1_kappa_fidelity(tmp_path, capsys):
    matrix = tmp_path / "matrix.csv"
    matrix.write_text(",high,moderate,low\nhigh,33,1,0\nmoderate,2,1,1\nlow,0,1,1\n")
    assert main(["evaluate", "--matrix", str(matrix), "--weighting", "linear"]) == 0
    out = capsys.readouterr().out
    kappa = float(out.split("kappa=")[1].split()[0])
    assert abs(kappa - 0.62) <= 0.005

    for rows in ("a,3,0\nb,0,9", "a,40,0\nb,0,0", "a,1,0\nb,0,1"):
        perfect = tmp_path / "perfect.csv"
        perfect.write_text(",a,b\n" + rows + "\n")
        assert main(["evaluate", "--matrix", str(perfect), "--weighting", "unweighted"]) == 0
        out = capsys.readouterr().out
        assert float(out.split("kappa=")[1].split()[0]) == 1.0
    print("ACCEPTANCE 1 kappa-fidelity: PASS")


def test_2_concept_set_fidelity(ga_registry, dod_registry, tmp_path):
    assert len(ga_registry) == 138
    assert Counter(spec.accuracy for spec in ga_registry) == {
        AccuracyLevel.HIGH: 42,
        AccuracyLevel.MODERATE_HIGH: 9,
        AccuracyLevel.MODERATE_LOW: 5,
        AccuracyLevel.LOW: 82,
    }
    assert len(dod_registry) == 105
    # A deviated file must fail the manifest check, not load silently.
    lines = Path(default_ga_concepts_path()).read_text().splitlines()
    tampered = tmp_path / "ga.csv"
    tampered.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(DataFormatError, match="manifest"):
        load_ga_concepts(tampered)
    print("ACCEPTANCE 2 concept-set-fidelity: PASS")


def test_3_round_trip_exactness(cohort_1000):
    cohort, out, elapsed = cohort_1000
    report = round_trip_score(cohort.truth, read_episodes(out / "run" / "episodes.csv"))
    assert report.truth_episodes >= 1000
    assert report.exact_start == 1.0
    assert report.exact_dod == 1.0
    assert report.episode_count_match == 1.0
    assert elapsed < 10.0, f"round trip took {elapsed:.1f}s"
    print(f"ACCEPTANCE 3 round-trip-exactness: PASS ({report.truth_episodes} gestations in {elapsed:.1f}s)")


def test_4_oracle_equivalence(ga_registry, dod_registry, ga_table, dod_ranks):
    rng = np.random.default_rng(4040)
    mismatches = 0
    for _ in range(10_000):
        events = random_events(rng, ga_registry)
        got = infer_gestation_starts(1, build_candidates(events, ga_table))
        expected = ga_reference(ga_to_reference(events, ga_registry))
        ok = len(got) == len(expected) and all(
            g.start_day == e["start"].toordinal()
            and g.anchor_concept_id == e["anchor"]
            and g.cluster_size == e["size"]
            and g.conflict_flag == e["conflict"]
            for g, e in zip(got, expected)
        )
        mismatches += not ok
    for _ in range(10_000):
        events = random_events(rng, dod_registry)
        got = infer_delivery_dates(1, events, dod_ranks)
        expected = dod_reference(dod_to_reference(events, dod_registry))
        ok = len(got) == len(expected) and all(
            g.dod_day == e["dod"].toordinal() and g.anchor_concept_id == e["anchor"] and g.cluster_size == e["size"]
            for g, e in zip(got, expected)
        )
        mismatches += not ok
    assert mismatches == 0
    print("ACCEPTANCE 4 oracle-equivalence: PASS (10000 GA + 10000 delivery instances)")


def test_5_separation_invariant(ga_registry, dod_registry, ga_table, dod_ranks, cohort_1000):
    def check(days):
        ordered = sorted(days)
        assert all(b - a > 270 for a, b in zip(ordered, ordered[1:]))

    rng = np.random.default_rng(5050)
    for _ in range(2000):
        starts = infer_gestation_starts(1, build_candidates(random_events(rng, ga_registry), ga_table))
        check([s.start_day for s in starts])
        records = infer_delivery_dates(1, random_events(rng, dod_registry), dod_ranks)
        check([r.dod_day for r in records])
    _, out, _ = cohort_1000
    by_person_start: dict[int, list[int]] = {}
    by_person_dod: dict[int, list[int]] = {}
    for ep in read_episodes(out / "run" / "episodes.csv"):
        by_person_start.setdefault(ep.person_id, []).append(ep.start_day)
        by_person_dod.setdefault(ep.person_id, []).append(ep.dod_day)
    for days in by_person_start.values():
        check(days)
    for days in by_person_dod.values():
        check(days)
    print("ACCEPTANCE 5 separation-invariant: PASS")


def test_6_noise_robustness(ga_registry, dod_registry, ga_table):
    config = SynthConfig(seed=606, n_persons=300, noise=NoiseSpec(conflict_ga_rate=1.0))
    cohort = generate_cohort(config, ga_registry, dod_registry)
    truth_by_person: dict[int, list] = {}
    for record in cohort.truth:
        truth_by_person.setdefault(record.person_id, []).append(record)
    events_by_person: dict[int, list] = {}
    for person_id, day, concept_id in event_triples(cohort):
        events_by_person.setdefault(person_id, []).append((day, concept_id))
    for person_id, records in truth_by_person.items():
        starts = infer_gestation_starts(person_id, build_candidates(events_by_person[person_id], ga_table))
        assert len(starts) == len(records), "episode count changed under conflict noise"
        for record, start in zip(sorted(records, key=lambda r: r.true_start_day), starts):
            spec = ga_registry.get(start.anchor_concept_id)
            half_range_days = 7 * (spec.week_high - spec.week_low + 1) / 2
            delta = abs(start.start_day - record.true_start_day)
            assert delta <= half_range_days
    print("ACCEPTANCE 6 noise-robustness: PASS (300 persons, conflict rate 1.0)")


def test_7_determinism(tmp_path):
    sim = tmp_path / "sim"
    assert main(["simulate", "--out", str(sim), "--seed", "77", "--n-persons", "60"]) == 0
    # The same cohort with its persons.csv and events.csv data rows in another order.
    shuffled = tmp_path / "shuffled"
    shuffled.mkdir()
    rng = random.Random(77)
    for name in ("persons.csv", "events.csv"):
        header, *rows = (sim / name).read_text().splitlines()
        rng.shuffle(rows)
        (shuffled / name).write_text("\n".join([header, *rows]) + "\n")

    def infer(inputs, out_dir):
        code = main(
            [
                "infer",
                "--persons", str(inputs / "persons.csv"),
                "--events", str(inputs / "events.csv"),
                "--out", str(out_dir),
                "--match-min", "100",
                "--match-max", "320",
                "--emit-cohorts",
            ]
        )
        assert code == 0

    infer(sim, tmp_path / "a")
    infer(sim, tmp_path / "b")
    infer(shuffled, tmp_path / "c")
    names = [
        "episodes.csv", "summary.json", "unmatched_starts.csv", "unmatched_dods.csv",
        "quarantine.csv", "excluded_episodes.csv", "ga_cohort.csv", "dod_cohort.csv",
    ]
    assert sorted(path.name for path in (tmp_path / "a").iterdir()) == sorted(names)
    for name in names:
        reference = (tmp_path / "a" / name).read_bytes()
        assert (tmp_path / "b" / name).read_bytes() == reference, f"{name} differs across reruns"
        assert (tmp_path / "c" / name).read_bytes() == reference, f"{name} differs under shuffled input rows"
    print("ACCEPTANCE 7 determinism: PASS (rerun and row-shuffled inputs byte-identical)")


def test_8_boundary_behavior():
    start, dod = date(2020, 1, 1).toordinal(), date(2020, 10, 7).toordinal()
    assert gestational_week_of(start, start).week == 1
    assert gestational_week_of(start, start).trimester is Trimester.FIRST
    assert gestational_week_of(start - 10, start).week == 0
    assert gestational_week_of(start - 10, start).trimester is Trimester.PRE
    assert gestational_week_of(start + 189, start).week == 28
    assert gestational_week_of(start + 189, start).trimester is Trimester.THIRD
    assert trimester_of(13) is Trimester.FIRST
    assert trimester_of(14) is Trimester.SECOND
    assert trimester_of(27) is Trimester.SECOND
    assert trimester_of(28) is Trimester.THIRD
    assert pandemic_stratum_of(date(2020, 2, 29)) is PandemicStratum.PRE
    assert pandemic_stratum_of(date(2020, 5, 1)) is PandemicStratum.PERI
    assert suppress_small_cells(19) == "-"
    assert suppress_small_cells(20) == "20"
    print("ACCEPTANCE 8 boundary-behavior: PASS")


def test_9_throughput(ga_registry, dod_registry, tmp_path):
    cohort = generate_cohort(SynthConfig(seed=909, n_persons=100_000), ga_registry, dod_registry)
    assert cohort.event_count >= 1_000_000
    cohort.write(tmp_path)
    config = RunConfig(
        persons_path=tmp_path / "persons.csv",
        events_path=tmp_path / "events.csv",
        out_dir=tmp_path / "run",
        match_min_days=100,
        match_max_days=320,
    )
    started = time.perf_counter()
    summary = run_infer(config)
    elapsed = time.perf_counter() - started
    assert summary["episodes"] > 100_000
    assert elapsed <= 60.0, f"infer took {elapsed:.1f}s for {cohort.event_count} events"
    print(
        f"ACCEPTANCE 9 throughput: PASS ({cohort.event_count} events, "
        f"{summary['episodes']} episodes in {elapsed:.1f}s single-threaded)"
    )
