"""End-to-end orchestration shared by the CLI and tests.

Events, starts, deliveries and episodes are day ordinals until a writer
formats them through the run's one `Memo(iso_text)`.

Every command validates every event row, in one scanner (`load_events`), but
keeps only what it reads: infer and timeline group the events of one concept
map, the engine concepts or the index set, as one flat `[day, concept id, ...]`
list of ints per person; stats groups none and keeps one first day per person
and label, the index set labelled None and each condition set by its name.

Where two CPUs are usable, a large events.csv is read in two processes, the
second half by a forked child, and joined in file order, so every command
gets the table, and writes the bytes, that one process would.
Inference is one loop over the persons in id order (`_infer_persons`). Over a
large cohort it runs in two processes (`csvio.halves`): a forked child runs it
over the upper half of the person ids, this process over the lower half, and
the child's results, sent as `halves` describes, are appended to this
process's, so the lists are those of one loop, and the loop's tally of counts
is added up. Over a piped events.csv, which could not be read again for a
failed child's persons, it runs in one.
Each person's list is popped off the table as the loop reaches it, so it is
freed once that person is done. Each engine reads it as
`(day, concept id)` pairs in file order (`event_pairs`) and sorts its own
candidate pool natively. One person's starts, or deliveries, are more than the
window apart by construction (`anchor_and_absorb`; property tests assert it),
so nothing checks that again. Starts and deliveries are kept only for
`--emit-cohorts`; otherwise summary.json counts them as they go. Timeline
sorts one person's pairs at a time and walks each episode's events once
(`analytics.episode_exposures`); stats reads each episode's index week and
condition sets off the first days (`analytics.first_day_exposures`).

Each `run_*` function validates its config and checks that the paths it reads
are set, before it makes anything. Then it makes its output directory through
`csvio.output_dir`, which removes again the directories it made if the run
fails, so a library caller is left what the CLI is left.
"""

from __future__ import annotations

import json
import logging
from functools import partial
from operator import itemgetter
from pathlib import Path

from .analytics import (
    episode_exposures,
    first_day_exposures,
    infection_week_histogram,
    render_histogram_markdown,
    stratified_table,
    suppress_small_cells,
)
from .concept_registry import (
    TOKEN_BY_ACCURACY,
    load_dod_concepts,
    load_ga_concepts,
    read_concept_ids,
)
from .config import RunConfig
from .csvio import BOOL_TEXT, Memo, halves, iso_text, output_dir, write_lines, write_rows
from .dod_engine import DeliveryRecord, infer_delivery_dates, rank_table
from .episode_builder import (
    PregnancyEpisode,
    apply_cohort_filters,
    gestational_week_of,
    match_episodes,
    read_episodes,
    write_episodes,
)
from .errors import ConfigError
from .ga_engine import GestationStart, build_candidates, candidate_table, infer_gestation_starts
from .ingestion import EVENT_HEADER, event_pairs, grouped_events, load_events, load_persons

logger = logging.getLogger(__name__)

# The person loop runs in two processes only over more grouped events than this. On a 2-vCPU Xeon the fork
# and the payload cost about 1.5 ms in a small process, as much as half the loop saves over about 2,500 events
# (250 persons of the generator's default shape); over 5,000 the split saved 20 %.
SPLIT_EVENTS = 5_000


def _checked(config: RunConfig, command: str, *required: str) -> None:
    """`config.validate()`, then each `required` path must be set."""
    config.validate()
    for name in required:
        if getattr(config, name) is None:
            raise ConfigError(f"{name.replace('_path', '')} file is required for {command}")


def run_infer(config: RunConfig) -> dict:
    """Run ingestion, both engines, and episode consolidation; write outputs into `config.out_dir`.

    Returns the summary that is also written to summary.json. A path it reads that is
    unset is a ConfigError; the output directory is taken back if the run fails.
    """
    _checked(config, "infer", "persons_path", "events_path")
    with output_dir(config.out_dir) as out:
        ga_registry = load_ga_concepts(config.ga_concepts_path)
        dod_registry = load_dod_concepts(config.dod_concepts_path)
        ga_table = candidate_table(ga_registry)
        dod_ranks = rank_table(dod_registry)
        persons = load_persons(config.persons_path)
        # Each engine concept with its registry's domain; the GA registry's wins where a concept is in both.
        concepts = {spec.concept_id: spec.domain for registry in (dod_registry, ga_registry) for spec in registry}
        table = load_events(config.events_path, concepts, known_persons=persons)

        # The one loop body, over the persons given: the run in one process and each half call it.
        loop = partial(_infer_persons, config=config, ga_table=ga_table, dod_ranks=dod_ranks)
        by_person = table.events_by_person

        def again(person_ids: list[int]) -> tuple:  # a failed child's persons, their events read again
            return loop(grouped_events(config.events_path, concepts, persons), person_ids)

        def release(person_ids: list[int]) -> None:  # the child's lists, freed before its payload is read
            for person_id in person_ids:
                del by_person[person_id]

        all_starts, all_records, episodes, unmatched_starts, unmatched_dods, tally = halves(
            partial(loop, by_person), sorted(by_person), lambda person_id: len(by_person[person_id]),
            # Two list slots per event. A pipe cannot give the events twice: over one, the loop runs in one process.
            2 * SPLIT_EVENTS, "inferring persons",
            (GestationStart, DeliveryRecord, PregnancyEpisode, GestationStart, DeliveryRecord, None),
            again if Path(config.events_path).is_file() else None, release,
        )

        excluded: list[tuple[PregnancyEpisode, str]] = []
        if config.apply_filters:
            episodes, excluded = apply_cohort_filters(episodes, persons)

        day_text = Memo(iso_text)
        write_episodes(out / "episodes.csv", episodes)
        # Every table but excluded_episodes.csv (whose reasons hold commas) is ints, ISO dates and fixed tokens:
        # each of its rows goes out as one text line.
        write_lines(
            out / "unmatched_starts.csv",
            ["person_id", "start_date", "anchor_concept_id", "accuracy"],
            (f"{s.person_id},{day_text[s.start_day]},{s.anchor_concept_id},{TOKEN_BY_ACCURACY[s.accuracy]}\n"
             for s in unmatched_starts),
        )
        write_lines(
            out / "unmatched_dods.csv",
            ["person_id", "dod", "anchor_concept_id", "domain_rank"],
            (f"{r.person_id},{day_text[r.dod_day]},{r.anchor_concept_id},{r.domain_rank}\n" for r in unmatched_dods),
        )
        # Sorted natively on the whole row (person, day, concept, domain), so rows that differ only in
        # domain do not keep their input order.
        lines = (f"{pid},{concept},{domain},{day_text[day]}\n" for pid, day, concept, domain in sorted(table.quarantined))
        write_lines(out / "quarantine.csv", EVENT_HEADER, lines)
        write_rows(
            out / "excluded_episodes.csv",
            ["person_id", "episode_index", "start_date", "dod", "reason"],
            [
                [e.person_id, e.episode_index, day_text[e.start_day], day_text[e.dod_day], reason]
                for e, reason in excluded
            ],
        )
        if config.emit_cohorts:
            write_lines(
                out / "ga_cohort.csv",
                ["person_id", "start_date", "anchor_concept_id", "anchor_event_date", "accuracy", "cluster_size", "conflict_flag"],
                (
                    f"{s.person_id},{day_text[s.start_day]},{s.anchor_concept_id},{day_text[s.anchor_day]},"
                    f"{TOKEN_BY_ACCURACY[s.accuracy]},{s.cluster_size},{BOOL_TEXT[s.conflict_flag]}\n"
                    for s in all_starts
                ),
            )
            write_lines(
                out / "dod_cohort.csv",
                ["person_id", "dod", "anchor_concept_id", "domain_rank", "cluster_size"],
                (f"{r.person_id},{day_text[r.dod_day]},{r.anchor_concept_id},{r.domain_rank},{r.cluster_size}\n"
                 for r in all_records),
            )

        summary = {
            "persons": len(persons),
            "event_rows": table.total_rows,
            "events_quarantined": len(table.quarantined),
            "domain_mismatches": table.domain_mismatches,
            **tally,
            "episodes": len(episodes),
            "episodes_excluded_by_filters": len(excluded),
            "unmatched_starts": len(unmatched_starts),
            "unmatched_dods": len(unmatched_dods),
        }
        with open(out / "summary.json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        logger.info("inference summary: %s", summary)
        return summary


def _infer_persons(
    by_person: dict[int, list[int]], person_ids: list[int], config: RunConfig, ga_table: dict, dod_ranks: dict
) -> tuple:
    """Both engines and matching over the persons of `person_ids`, in that order.

    Each person's list is popped off `by_person` as the loop reaches it, so it
    is freed once that person is done. Returns the lists of starts and
    deliveries (empty unless --emit-cohorts), episodes, unmatched starts and
    unmatched deliveries, each in person order, then the tally of counts.
    """
    all_starts: list[GestationStart] = []
    all_records: list[DeliveryRecord] = []
    tally = {"gestation_starts": 0, "delivery_records": 0}
    episodes: list[PregnancyEpisode] = []
    unmatched_starts: list[GestationStart] = []
    unmatched_dods: list[DeliveryRecord] = []
    for person_id in person_ids:
        events = by_person.pop(person_id)
        starts = infer_gestation_starts(
            person_id,
            build_candidates(event_pairs(events), ga_table),
            window_days=config.window_days,
            conflict_days=config.conflict_days,
        )
        records = infer_delivery_dates(person_id, event_pairs(events), dod_ranks, window_days=config.window_days)
        person_episodes, diagnostics = match_episodes(
            starts, records, min_days=config.match_min_days, max_days=config.match_max_days
        )
        tally["gestation_starts"] += len(starts)
        tally["delivery_records"] += len(records)
        if config.emit_cohorts:
            all_starts.extend(starts)
            all_records.extend(records)
        episodes.extend(person_episodes)
        unmatched_starts.extend(diagnostics.unmatched_starts)
        unmatched_dods.extend(diagnostics.unmatched_dods)
    return all_starts, all_records, episodes, unmatched_starts, unmatched_dods, tally


def run_timeline(config: RunConfig) -> int:
    """Join index events to episodes and write timing.csv into `config.out_dir`; returns row count.

    Each episode is joined with every index event of its person dated on or
    before that episode's delivery; events before the start map to week 0.
    Its paths and output directory are handled as in `run_infer`.
    """
    _checked(config, "timeline", "episodes_path", "events_path", "index_events_path")
    with output_dir(config.out_dir) as out:
        episodes = sorted(read_episodes(config.episodes_path), key=itemgetter(0, 1))
        table = load_events(config.events_path, dict.fromkeys(read_concept_ids(config.index_events_path)))
        day_text = Memo(iso_text)
        # No field can need quoting (ints, ISO dates, trimester tokens): each row is one text line.
        lines = []
        for episode, index_events in episode_exposures(episodes, table.events_by_person):
            prefix = f"{episode.person_id},{episode.episode_index},"
            for day, concept_id in index_events:
                week, trimester = gestational_week_of(day, episode.start_day)
                lines.append(f"{prefix}{concept_id},{day_text[day]},{week},{trimester}\n")
        write_lines(
            out / "timing.csv",
            ["person_id", "episode_index", "index_concept_id", "event_date", "gestational_week", "trimester"],
            lines,
        )
        return len(lines)


def run_stats(config: RunConfig, condition_set_paths: dict[str, Path], unsuppressed: bool = False) -> None:
    """Render the index-week histogram and stratified table into out_dir.

    The strata (`RunConfig.stratum_of`) and the suppression threshold come
    from the run config. report.md is always suppression-masked; the raw CSV
    exports are written only when `unsuppressed` is set. Its paths and output
    directory are handled as in `run_infer`.
    """
    _checked(config, "stats", "episodes_path", "persons_path", "events_path", "index_events_path")
    threshold = config.suppression_threshold
    with output_dir(config.out_dir) as out:
        episodes = read_episodes(config.episodes_path)
        persons = load_persons(config.persons_path)
        index_concepts = read_concept_ids(config.index_events_path)
        condition_sets = {name: read_concept_ids(path) for name, path in sorted(condition_set_paths.items())}
        labels: dict[int, tuple] = {concept_id: (None,) for concept_id in index_concepts}
        for name, concept_ids in condition_sets.items():
            for concept_id in concept_ids:
                labels[concept_id] = labels.get(concept_id, ()) + (name,)
        first_days = load_events(config.events_path, {}, labels=labels).first_days

        histogram = infection_week_histogram(first_day_exposures(episodes, first_days, ()))
        exposures = first_day_exposures(episodes, first_days, condition_sets)
        report_table = stratified_table(exposures, persons, condition_sets, config.stratum_of)

        lines = [
            "# Episode statistics",
            "",
            f"Episodes: {suppress_small_cells(len(episodes), threshold)}",
            "",
            "## Index events by gestational week",
            "",
            render_histogram_markdown(histogram, threshold),
            "## Stratified characteristics",
            "",
            report_table.render_markdown(threshold),
            f"Cells with fewer than {threshold} episodes are shown as \"-\".",
            "",
        ]
        (out / "report.md").write_text("\n".join(lines), encoding="utf-8")
        if unsuppressed:
            write_rows(out / "histogram.csv", ["gestational_week", "episodes"], sorted(histogram.items()))
            rows = report_table.csv_rows()
            write_rows(out / "report.csv", rows[0], rows[1:])
