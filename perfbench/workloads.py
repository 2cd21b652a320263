"""The benchmark's workloads: one generated cohort shape each.

Sizes are set so that a run (three set-ups, then passes for --seconds)
takes about 35 s on a 2-vCPU VM; see README.md for why each shape is there.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    """One cohort shape; `synth` holds SynthConfig fields as plain values."""

    persons: int
    # Cohort size of the self-check (report.py --tiny).
    tiny_persons: int
    synth: dict = field(default_factory=dict)
    # No GA or delivery noise: inferred episodes must equal the generator's
    # truth, and the index-week histogram follows from truth.csv.
    exact: bool = True
    emit_cohorts: bool = False
    # Remove every k-th person from persons.csv after generation.
    drop_every: int = 0
    # Pass the CONDITION_SETS to `stats`.
    conditions: bool = False


WORKLOADS = {
    # The generator's default shape: ~10 events and ~1.1 gestations per
    # person, so per-person call overhead and CSV ingestion dominate.
    "infer_clean": Workload(persons=10_000, tiny_persons=300),
    # ~50 GA and delivery events per person with every noise channel on, and
    # every 100th person missing from persons.csv: per-candidate engine work
    # dominates, and conflict flags, quarantine, filter exclusions and the
    # --emit-cohorts writers all do work.
    "infer_dense": Workload(
        persons=2_500,
        tiny_persons=200,
        synth={
            "ga_events_per_gestation": {"high": 6, "moderate_high": 4, "moderate_low": 4, "low": 16},
            "dod_events_per_gestation": 8,
            "noise": {
                "conflict_ga_rate": 0.3,
                "shift_rate": 0.3,
                "drop_ga_rate": 0.1,
                "drop_dod_rate": 0.1,
                "pre_pregnancy_index_rate": 0.3,
            },
        },
        exact=False,
        emit_cohorts=True,
        drop_every=100,
    ),
    # Index events on 90% of gestations plus pre-pregnancy ones, and three
    # condition sets: the stratified table dominates `stats`.
    "analyze": Workload(
        persons=8_000,
        tiny_persons=300,
        synth={"index_event_rate": 0.9, "noise": {"pre_pregnancy_index_rate": 0.3}},
        conditions=True,
    ),
}

# Condition sets cut from the shipped concept files: high-accuracy GA
# concepts, the other GA concepts, and delivery concepts.
CONDITION_SETS = ("ga_high", "ga_range", "delivery")
