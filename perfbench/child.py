"""Child-process entry points of the benchmark; run.py starts one per step.

    child.py cohort <report.json> <workload> <seed> <persons> <dir>
        generate the workload's cohort and write its CSVs into <dir>
    child.py op <report.json> <trace 0|1> <tedpc arguments...>
        run tedpc.cli.main on the arguments, exactly as `tedpc` would, and
        exit with its code
    child.py cal
        fixed work that run.py times as its speed reference; imports no tedpc

`cohort` and `op` write a JSON report holding the process's own peak RSS: VmHWM, which
exec resets, whereas the ru_maxrss a parent reads after wait never reads below
the parent's own peak at the time of the fork. With trace 1,
`op` also reports per-layer seconds and counts. Tracing wraps the public
functions tedpc.pipeline calls by rebinding their names in that module's
namespace, and the run_* entry points in tedpc.cli's; nothing in src/ changes.
Totals are kept in memory per metric and written once, when the process ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from datetime import date
from pathlib import Path

from workloads import WORKLOADS

# Name in tedpc.pipeline's namespace -> per-layer metric its time counts toward.
LAYER_SPANS = {
    "load_ga_concepts": "concept_registry.load_s",
    "load_dod_concepts": "concept_registry.load_s",
    "read_concept_ids": "concept_registry.load_s",
    "load_persons": "ingestion.load_persons_s",
    "load_events": "ingestion.load_events_s",
    "build_candidates": "ga_engine.build_candidates_s",
    "infer_gestation_starts": "ga_engine.cluster_s",
    "infer_delivery_dates": "dod_engine.cluster_s",
    "match_episodes": "episode_builder.match_s",
    "apply_cohort_filters": "episode_builder.filters_s",
    "write_episodes": "episode_builder.write_s",
    "read_episodes": "episode_builder.read_s",
    "gestational_week_of": "episode_builder.week_s",
    "infection_week_histogram": "analytics.histogram_s",
    "stratified_table": "analytics.table_s",
    "render_histogram_markdown": "analytics.render_s",
    "suppress_small_cells": "analytics.render_s",
}
# Name in tedpc.cli's namespace -> metric for the pipeline's self time.
ENTRY_SPANS = {
    "run_infer": "pipeline.infer_self_s",
    "run_timeline": "pipeline.timeline_self_s",
    "run_stats": "pipeline.stats_self_s",
}


def _match_unmatched(args, result) -> int:
    diagnostics = result[1]
    return len(diagnostics.unmatched_starts) + len(diagnostics.unmatched_dods)


# Name in tedpc.pipeline's namespace -> (count metric, count from (args, result)).
COUNTERS = {
    "load_events": (
        ("ingestion.event_rows", lambda args, table: table.total_rows),
        ("ingestion.quarantined_rows", lambda args, table: len(table.quarantined)),
    ),
    "build_candidates": (("ga_engine.candidates", lambda args, result: len(result)),),
    "infer_gestation_starts": (("ga_engine.starts", lambda args, result: len(result)),),
    "infer_delivery_dates": (("dod_engine.records", lambda args, result: len(result)),),
    "match_episodes": (("episode_builder.unmatched", _match_unmatched),),
    "apply_cohort_filters": (("episode_builder.excluded", lambda args, result: len(result[1])),),
    "write_episodes": (("episode_builder.episodes", lambda args, result: len(args[1])),),
}


class Tracer:
    """Per-metric time and count totals of the wrapped calls in one process."""

    def __init__(self):
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.entry_seconds = 0.0

    def wrap(self, name: str, fn, metric: str):
        seconds, counts, counters, clock = self.seconds, self.counts, COUNTERS.get(name, ()), time.perf_counter

        def traced(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            seconds[metric] += clock() - start
            for key, count_of in counters:
                counts[key] += count_of(args, result)
            return result

        return traced

    def wrap_entry(self, fn, metric: str):
        def traced(*args, **kwargs):
            layers_before = self.layer_seconds()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.entry_seconds += elapsed
                self.seconds[metric] += elapsed - (self.layer_seconds() - layers_before)

        return traced

    def layer_seconds(self) -> float:
        return sum(self.seconds[metric] for metric in set(LAYER_SPANS.values()))

    def install(self, cli, pipeline) -> None:
        for name, metric in LAYER_SPANS.items():
            setattr(pipeline, name, self.wrap(name, getattr(pipeline, name), metric))
        for name, metric in ENTRY_SPANS.items():
            setattr(cli, name, self.wrap_entry(getattr(cli, name), metric))

    def report(self) -> dict:
        return {"seconds": dict(self.seconds), "counts": dict(self.counts), "entry_s": self.entry_seconds}


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run_op(report_path: str, traced: bool, argv: list[str]) -> int:
    from tedpc import cli, pipeline

    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install(cli, pipeline)
    code = cli.main(argv)
    report = {"peak_rss_kb": peak_rss_kb()}
    if tracer is not None:
        report.update(tracer.report())
    Path(report_path).write_text(json.dumps(report), encoding="utf-8")
    return code


def write_cohort(report_path: str, workload: str, seed: int, persons: int, out_dir: str) -> int:
    from tedpc.concept_registry import (
        ACCURACY_TOKENS,
        default_dod_concepts_path,
        default_ga_concepts_path,
        load_dod_concepts,
        load_ga_concepts,
    )
    from tedpc.synthgen import NoiseSpec, SynthConfig, generate_cohort

    spec = WORKLOADS[workload]
    synth = dict(spec.synth)
    if "noise" in synth:
        synth["noise"] = NoiseSpec(**synth["noise"])
    if "ga_events_per_gestation" in synth:
        synth["ga_events_per_gestation"] = {ACCURACY_TOKENS[k]: v for k, v in synth["ga_events_per_gestation"].items()}
    ga_registry = load_ga_concepts(default_ga_concepts_path())
    dod_registry = load_dod_concepts(default_dod_concepts_path())

    start = time.perf_counter()
    cohort = generate_cohort(SynthConfig(seed=seed, n_persons=persons, **synth), ga_registry, dod_registry)
    generated = time.perf_counter()
    if spec.drop_every:
        cohort.persons = [p for p in cohort.persons if p.person_id % spec.drop_every]
    cohort.write(out_dir)
    written = time.perf_counter()

    if spec.conditions:
        condition_sets = {
            "ga_high": [s.concept_id for s in ga_registry if s.accuracy == ACCURACY_TOKENS["high"]],
            "ga_range": [s.concept_id for s in ga_registry if s.accuracy != ACCURACY_TOKENS["high"]],
            "delivery": [s.concept_id for s in dod_registry],
        }
        for name, ids in condition_sets.items():
            Path(out_dir, f"condition_{name}.csv").write_text(
                "concept_id\n" + "".join(f"{i}\n" for i in sorted(ids)), encoding="utf-8"
            )
    report = {
        "peak_rss_kb": peak_rss_kb(),
        "seconds": {"synthgen.generate_s": generated - start, "synthgen.write_s": written - generated},
    }
    Path(report_path).write_text(json.dumps(report), encoding="utf-8")
    return 0


def calibrate() -> int:
    """Start-up and pure-Python work like an operation's, independent of tedpc."""
    import numpy  # noqa: F401  (every operation pays this import too)

    rows = [f"{i},{i * 7919 % 100003},Condition,2019-{1 + i % 12:02d}-{1 + i % 28:02d}" for i in range(20_000)]
    for _ in range(3):
        groups: dict[int, list] = {}
        for line in rows:
            person, concept, _domain, day = line.split(",")
            groups.setdefault(int(person) % 997, []).append((date.fromisoformat(day), int(concept)))
        for group in groups.values():
            group.sort()
    return 0


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "op":
        sys.exit(run_op(rest[0], rest[1] == "1", rest[2:]))
    if mode == "cal":
        sys.exit(calibrate())
    if mode == "cohort":
        sys.exit(write_cohort(rest[0], rest[1], int(rest[2]), int(rest[3]), rest[4]))
    sys.exit(f"unknown mode {mode!r}")
