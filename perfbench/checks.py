"""Output checks of the benchmark; a failed check fails its operation.

The checks read the CSV files the operations wrote and compare them with
references that share no code with the engines: the generator's truth
table, the brute-force oracles in tests/oracles.py, and plain re-derivations
of gestational weeks written here.
"""

from __future__ import annotations

import csv
import json
import random
import sys
from collections import Counter, defaultdict
from datetime import date
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from oracles import DOMAIN_RANK, dod_reference, ga_reference  # noqa: E402
from tedpc.episode_builder import read_episodes  # noqa: E402
from tedpc.evaluation import round_trip_score  # noqa: E402
from tedpc.synthgen import read_truth  # noqa: E402

SAMPLE_PERSONS = 500
MAX_WEEK = 45
ACCURACY_RANK = {"high": 1, "moderate_high": 2, "moderate_low": 3, "low": 4}
DATA = ROOT / "src" / "tedpc" / "data"


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.reader(lines))[1:]


def _week(day: str, start: str) -> int:
    """Gestational week of an event: 0 before the start, day 0 is week 1."""
    delta = (date.fromisoformat(day) - date.fromisoformat(start)).days
    return 0 if delta < 0 else delta // 7 + 1


def _trimester(week: int) -> str:
    return "pre" if week == 0 else "first" if week <= 13 else "second" if week <= 27 else "third"


class CohortFacts:
    """What the checks need from the generated cohort, read once per run."""

    def __init__(self, cohort: Path, seed: int, persons: int):
        self.cohort = cohort
        self.sample = sorted(random.Random(seed).sample(range(1, persons + 1), min(SAMPLE_PERSONS, persons)))
        index_ids = {row[0] for row in _rows(cohort / "index_concepts.csv")}
        sample_ids = {str(p) for p in self.sample}
        self.sample_events: dict[int, list[tuple[int, str]]] = defaultdict(list)
        self.index_events: dict[int, list[tuple[str, int]]] = defaultdict(list)
        with open(cohort / "events.csv", encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                person, concept, _domain, day = line.rstrip("\n").split(",")
                if concept in index_ids:
                    self.index_events[int(person)].append((day, int(concept)))
                if person in sample_ids:
                    self.sample_events[int(person)].append((int(concept), day))


def check_infer(spec, facts: CohortFacts, out: Path) -> str | None:
    if spec.exact:
        report = round_trip_score(read_truth(facts.cohort / "truth.csv"), read_episodes(out / "episodes.csv"))
        if not report.exact_start == report.exact_dod == report.episode_count_match == 1.0:
            return "round trip against truth.csv is not exact: " + "; ".join(report.lines())
    if spec.emit_cohorts:
        return _check_cohorts_against_oracles(facts, out)
    return None


def _check_cohorts_against_oracles(facts: CohortFacts, out: Path) -> str | None:
    ga = {
        int(r[0]): {"rank": ACCURACY_RANK[r[2]], "week_low": int(r[3]), "week_high": int(r[4])}
        for r in _rows(DATA / "ga_concepts.csv")
    }
    dod = {int(r[0]): r[2] for r in _rows(DATA / "dod_concepts.csv")}
    known = {int(r[0]) for r in _rows(facts.cohort / "persons.csv")}
    sample = set(facts.sample)
    got_ga, got_dod = defaultdict(list), defaultdict(list)
    for r in _rows(out / "ga_cohort.csv"):
        if int(r[0]) in sample:
            got_ga[int(r[0])].append((r[1], int(r[2]), ACCURACY_RANK[r[4]], int(r[5]), r[6] == "true"))
    for r in _rows(out / "dod_cohort.csv"):
        if int(r[0]) in sample:
            got_dod[int(r[0])].append((r[1], int(r[2]), int(r[3]), int(r[4])))
    for person in facts.sample:
        events = facts.sample_events.get(person, []) if person in known else []
        candidates = [{"event_date": date.fromisoformat(day), "concept_id": c, **ga[c]} for c, day in events if c in ga]
        want_ga = [
            (g["start"].isoformat(), g["anchor"], g["anchor_rank"], g["size"], g["conflict"])
            for g in ga_reference(candidates)
        ]
        deliveries = [
            {"event_date": date.fromisoformat(day), "concept_id": c, "domain": dod[c]} for c, day in events if c in dod
        ]
        want_dod = [
            (d["dod"].isoformat(), d["anchor"], DOMAIN_RANK[dod[d["anchor"]]], d["size"])
            for d in dod_reference(deliveries)
        ]
        if got_ga.get(person, []) != want_ga:
            return f"ga_cohort.csv person {person}: {got_ga.get(person, [])} != oracle {want_ga}"
        if got_dod.get(person, []) != want_dod:
            return f"dod_cohort.csv person {person}: {got_dod.get(person, [])} != oracle {want_dod}"
    return None


def check_timeline(facts: CohortFacts, infer_out: Path, out: Path) -> str | None:
    sample = {str(p) for p in facts.sample}
    episodes = sorted(
        (int(r[0]), int(r[1]), r[2], r[3]) for r in _rows(infer_out / "episodes.csv") if r[0] in sample
    )
    want = []
    for person, index, start, dod in episodes:
        for day, concept in facts.index_events.get(person, []):
            if day <= dod:
                week = _week(day, start)
                want.append([str(person), str(index), str(concept), day, str(week), _trimester(week)])
    got = [r for r in _rows(out / "timing.csv") if r[0] in sample]
    if got != want:
        return f"timing.csv differs from the re-derived rows for the {len(facts.sample)} sampled persons"
    return None


def check_stats(spec, facts: CohortFacts, infer_out: Path, out: Path) -> str | None:
    got = {int(week): int(n) for week, n in _rows(out / "histogram.csv")}
    want = Counter({week: 0 for week in range(MAX_WEEK + 1)})
    if spec.exact:
        for r in _rows(facts.cohort / "truth.csv"):
            if r[4] != "":
                want[min(int(r[4]), MAX_WEEK)] += 1
    else:
        for r in _rows(infer_out / "episodes.csv"):
            hits = [day for day, _ in facts.index_events.get(int(r[0]), []) if day <= r[3]]
            if hits:
                want[min(_week(min(hits), r[2]), MAX_WEEK)] += 1
    if got != dict(want):
        source = "truth.csv index_event_week" if spec.exact else "episodes.csv and the index events"
        return f"histogram.csv differs from the histogram of {source}"
    return None


def check_first_pass(spec, seed: int, persons: int, cohort: Path, out: Path, results) -> None:
    """Check the outputs of the run's first pass; mark failures on the results."""
    facts = CohortFacts(cohort, seed, persons)
    infer_out = out / "infer"
    for r in results:
        if r.error:
            continue
        if r.op == "infer":
            problem = check_infer(spec, facts, infer_out)
        elif r.op == "timeline":
            problem = check_timeline(facts, infer_out, out / "timeline")
        else:
            problem = check_stats(spec, facts, infer_out, out / "stats")
        if problem:
            r.error = f"output check: {problem}"


def check_identical(passes, store: Path) -> None:
    """Every operation must write the same bytes in every pass of this run and
    in every earlier run of the same code on the same cohort.

    The first clean pass's digests are kept in `store`, named by workload,
    seed, size and a hash of the sources, for later runs to compare against.
    """
    first = {r.op: r for r in passes[0]}
    reference = {op: r.digest for op, r in first.items() if r.digest}
    if store.exists():
        reference.update(json.loads(store.read_text(encoding="utf-8")))
    elif len(first) == 3 and not any(r.error for r in first.values()):
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(reference), encoding="utf-8")
    for results in passes:
        for r in results:
            if r.error or not r.digest:
                continue
            if r.digest != reference.get(r.op, r.digest):
                r.error = "outputs differ from an earlier pass or run of the same code on the same cohort"
            elif first[r.op].error:
                r.error = first[r.op].error
