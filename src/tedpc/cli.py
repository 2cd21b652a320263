"""Command-line entry point wiring the pipeline together.

Subcommands: phenotype, infer, timeline, stats, simulate, evaluate.
Exit codes: 0 success, 2 missing/invalid input file, 3 configuration
violation, 4 internal invariant breach, 141 stdout closed before the output
was written (`tedpc ... | head`).
"""

from __future__ import annotations

import argparse
import csv
import gc
import logging
import os
import sys
from pathlib import Path

from .analytics import BUILT_IN_SECTIONS
from .concept_registry import (
    VOCABULARY_HEADER,
    Domain,
    default_dod_concepts_path,
    default_ga_concepts_path,
    load_dod_concepts,
    load_ga_concepts,
    load_vocabulary,
    phenotype_search,
)
from .config import RunConfig, build_config, resolve_input_path
from .csvio import BOOL_TEXT, output_dir, write_rows
from .episode_builder import read_episodes
from .errors import ConfigError, DataFormatError, GenerationError, InvariantError
from .pipeline import run_infer, run_stats, run_timeline

EXIT_OK = 0
EXIT_DATA = 2
EXIT_CONFIG = 3
EXIT_INVARIANT = 4
# What a shell reports for a process that SIGPIPE ended (128 + 13).
EXIT_BROKEN_PIPE = 141

DEFAULT_KEYWORDS = "trimester,gestation,pregnan"


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="JSON config file; flags override it")
    parser.add_argument("--print-config", action="store_true", help="print the effective config and exit")


def _load_run_config(args: argparse.Namespace) -> RunConfig:
    """The run config of the subcommand's flags and config file; the run function checks the paths it needs."""
    # The RunConfig fields this subcommand has flags for, as parsed (None if not given).
    overrides = {name: getattr(args, name) for name in RunConfig._fields if hasattr(args, name)}
    config = build_config(getattr(args, "config", None), overrides)
    if getattr(args, "print_config", False):
        print(config.to_json())
        raise SystemExit(EXIT_OK)
    return config


def _cmd_phenotype(args: argparse.Namespace) -> None:
    keywords = [k.strip() for k in args.keywords.split(",") if k.strip()]
    if not keywords:
        raise ConfigError(f"--keywords needs at least one keyword, got {args.keywords!r}")
    domains = None
    if args.domains:
        try:
            domains = {Domain.parse(d) for d in args.domains.split(",") if d.strip()}
        except ValueError as exc:
            raise ConfigError(f"--domains: {exc}") from None
        if not domains:
            raise ConfigError(f"--domains needs at least one domain, got {args.domains!r}")
    vocabulary = load_vocabulary(resolve_input_path(args.vocabulary))
    matches = phenotype_search(
        vocabulary,
        keywords,
        domains=domains,
        standard_only=not args.include_non_standard,
        valid_only=not args.include_invalid,
    )
    rows = (
        [entry.concept_id, entry.name, entry.domain.value, BOOL_TEXT[entry.standard], BOOL_TEXT[entry.valid]]
        for entry in matches
    )
    if args.out:
        try:
            write_rows(args.out, VOCABULARY_HEADER, rows)
        except OSError as exc:
            raise ConfigError(f"cannot write output file {args.out}: {exc.strerror}") from None
    else:
        csv.writer(sys.stdout, lineterminator="\n").writerows([VOCABULARY_HEADER, *rows])


def _cmd_infer(args: argparse.Namespace) -> None:
    # --threads 1 is accepted, and ignored, for existing scripts: no flag sets how many CPUs `infer` uses.
    if args.threads not in (None, 1):
        raise ConfigError(
            f"--threads accepts only 1, and sets nothing (infer uses a second CPU wherever one is usable), "
            f"got {args.threads}"
        )
    summary = run_infer(_load_run_config(args))
    print(f"episodes={summary['episodes']} unmatched_starts={summary['unmatched_starts']} unmatched_dods={summary['unmatched_dods']}")


def _cmd_timeline(args: argparse.Namespace) -> None:
    rows = run_timeline(_load_run_config(args))
    print(f"timing_rows={rows}")


def _cmd_stats(args: argparse.Namespace) -> None:
    config = _load_run_config(args)
    condition_sets: dict[str, Path] = {}
    for item in args.condition or []:
        name, _, raw_path = item.partition("=")
        if not name or not raw_path:
            raise ConfigError(f"--condition expects name=path, got {item!r}")
        if name in condition_sets:
            raise ConfigError(f"--condition name {name!r} given more than once")
        if name in BUILT_IN_SECTIONS:
            raise ConfigError(f"--condition name {name!r} is a section the report always has")
        if any(char in name for char in "|\r\n"):
            raise ConfigError(f"--condition name {name!r} must not contain '|' or a line break")
        condition_sets[name] = resolve_input_path(raw_path)
    run_stats(config, condition_sets, unsuppressed=args.unsuppressed)
    print(f"report written to {config.out_dir}")


def _cmd_simulate(args: argparse.Namespace) -> None:
    # Only simulate and evaluate import the generator and the evaluation code.
    from .synthgen import NoiseSpec, SynthConfig, generate_cohort

    noise = NoiseSpec(
        drop_ga_rate=args.drop_ga,
        conflict_ga_rate=args.conflict_ga,
        shift_rate=args.shift,
        shift_max_days=args.shift_max_days,
        drop_dod_rate=args.drop_dod,
        pre_pregnancy_index_rate=args.pre_index,
    )
    config = SynthConfig(seed=args.seed, n_persons=args.n_persons, index_event_rate=args.index_rate, noise=noise)
    config.validate()
    # An output path that cannot be a directory fails before any input is read.
    with output_dir(args.out_dir) as out:
        ga_registry = load_ga_concepts(resolve_input_path(args.ga_concepts_path) or default_ga_concepts_path())
        dod_registry = load_dod_concepts(resolve_input_path(args.dod_concepts_path) or default_dod_concepts_path())
        cohort = generate_cohort(config, ga_registry, dod_registry)
        paths = cohort.write(out)
    print(
        f"persons={len(cohort.persons)} events={cohort.event_count} "
        f"gestations={len(cohort.truth)} out={paths['events'].parent}"
    )


def _cmd_evaluate(args: argparse.Namespace) -> None:
    from .evaluation import Weighting, cohen_kappa, read_matrix_csv, round_trip_score
    from .synthgen import read_truth

    if args.matrix:
        matrix = read_matrix_csv(resolve_input_path(args.matrix))
        result = cohen_kappa(matrix, Weighting(args.weighting))
        note = " degenerate=true" if result.degenerate else ""
        print(
            f"weighting={result.weighting.value} observed={result.observed_agreement:.4f} "
            f"expected={result.expected_agreement:.4f} kappa={result.kappa:.4f}{note}"
        )
        return
    if args.truth and args.episodes:
        report = round_trip_score(
            read_truth(resolve_input_path(args.truth)),
            read_episodes(resolve_input_path(args.episodes)),
        )
        for line in report.lines():
            print(line)
        return
    raise ConfigError("evaluate needs either --matrix or both --truth and --episodes")


class _Parser(argparse.ArgumentParser):
    """argparse drops an OSError from writing --help, which would turn a
    closed stdout into exit 0; here it reaches main like any other write's."""

    def print_help(self, file=None) -> None:
        (file or sys.stdout).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tedpc",
        description="Infer pregnancy episodes from normalized clinical-event tables",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phenotype", help="keyword search over a vocabulary file")
    p.add_argument("--vocabulary", required=True, type=Path)
    p.add_argument("--keywords", default=DEFAULT_KEYWORDS, help="comma-separated keyword stems")
    p.add_argument("--domains", default=None, help="comma-separated domain filter")
    p.add_argument("--include-non-standard", action="store_true")
    p.add_argument("--include-invalid", action="store_true")
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=_cmd_phenotype)

    p = sub.add_parser("infer", help="run the full inference pipeline")
    p.add_argument("--persons", dest="persons_path", type=Path)
    p.add_argument("--events", dest="events_path", type=Path)
    p.add_argument("--ga-concepts", dest="ga_concepts_path", type=Path)
    p.add_argument("--dod-concepts", dest="dod_concepts_path", type=Path)
    p.add_argument("--out", dest="out_dir", type=Path)
    p.add_argument("--window-days", dest="window_days", type=int)
    p.add_argument("--match-min", dest="match_min_days", type=int)
    p.add_argument("--match-max", dest="match_max_days", type=int)
    p.add_argument(
        "--threads",
        type=int,
        help="accepted only as 1, for existing scripts, and sets nothing: where two CPUs are usable, infer"
        " reads a large events.csv and infers a large cohort's persons on both, whatever this says",
    )
    p.add_argument("--emit-cohorts", dest="emit_cohorts", action="store_const", const=True, default=None)
    p.add_argument(
        "--no-cohort-filters",
        dest="apply_filters",
        action="store_const",
        const=False,
        default=None,
        help="skip the delivery-window and maternal-age filters",
    )
    _add_config_flags(p)
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("timeline", help="map index events to gestational weeks")
    p.add_argument("--episodes", dest="episodes_path", type=Path)
    p.add_argument("--events", dest="events_path", type=Path)
    p.add_argument("--index-events", dest="index_events_path", type=Path)
    p.add_argument("--out", dest="out_dir", type=Path)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_timeline)

    p = sub.add_parser("stats", help="histogram and stratified tables over episodes")
    p.add_argument("--episodes", dest="episodes_path", type=Path)
    p.add_argument("--persons", dest="persons_path", type=Path)
    p.add_argument("--events", dest="events_path", type=Path)
    p.add_argument("--index-events", dest="index_events_path", type=Path)
    p.add_argument("--out", dest="out_dir", type=Path)
    p.add_argument("--cutoff", dest="pandemic_cutoff", help="pandemic cutoff date (ISO)")
    p.add_argument("--condition", action="append", metavar="NAME=PATH", help="named concept-id set; repeatable")
    p.add_argument("--unsuppressed", action="store_true", help="also write raw, unsuppressed CSV exports")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("simulate", help="generate a synthetic cohort with ground truth")
    p.add_argument("--out", dest="out_dir", type=Path, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-persons", type=int, default=100)
    p.add_argument("--index-rate", type=float, default=0.3)
    p.add_argument("--drop-ga", type=float, default=0.0)
    p.add_argument("--conflict-ga", type=float, default=0.0)
    p.add_argument("--shift", type=float, default=0.0)
    p.add_argument("--shift-max-days", type=int, default=7)
    p.add_argument("--drop-dod", type=float, default=0.0)
    p.add_argument("--pre-index", type=float, default=0.0)
    p.add_argument("--ga-concepts", dest="ga_concepts_path", type=Path)
    p.add_argument("--dod-concepts", dest="dod_concepts_path", type=Path)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("evaluate", help="kappa over a matrix, or round-trip scoring")
    p.add_argument("--matrix", type=Path, help="labeled square confusion-matrix CSV")
    # evaluation.Weighting's values, spelled out so that building the parser does not load evaluation.
    p.add_argument("--weighting", choices=["unweighted", "linear"], default="unweighted")
    p.add_argument("--truth", type=Path, help="ground-truth table from simulate")
    p.add_argument("--episodes", type=Path, help="episodes table from infer")
    p.set_defaults(func=_cmd_evaluate)

    return parser


def main(argv: list[str] | None = None) -> int:
    # The rows a command reads and the results it builds form no reference
    # cycles, so the cyclic collector would only rescan the growing tables:
    # about a tenth of `infer`, freeing nothing (`gc.collect()` after a
    # command frees the same ~450 objects at 8k and at 100k persons).
    # Reference counting frees everything else, as soon as it is unused:
    # `infer` lets go of each person's events once that person is done. The
    # previous state comes back, so an in-process caller keeps its own
    # collector.
    collecting = gc.isenabled()
    gc.disable()
    try:
        code = _run(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout has gone. Point stdout at devnull, so the flush
        # at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    finally:
        if collecting:
            gc.enable()


def _run(argv: list[str] | None) -> int:
    try:
        # --help and a usage error end in SystemExit; its code is the exit code.
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (FileNotFoundError, NotADirectoryError) as exc:
        # Output directories are made by csvio.output_dir, which reports its own failure, so these name an input.
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return EXIT_DATA
    except IsADirectoryError as exc:
        # open_text reports an input that is a directory, so this names an output file.
        print(f"config error: cannot write output file {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_CONFIG
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ConfigError, GenerationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvariantError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
