"""`run_infer` runs its person loop in two processes; the loop in one process is its reference.

With the loop's threshold (`pipeline.SPLIT_EVENTS`) patched low, small drawn
cohorts qualify: noise on or off, persons missing from persons.csv, events
rows shuffled, with `--emit-cohorts` or not and with the cohort filters or
not. Every file `run_infer` writes, and every warning it logs, must be the
same with one usable CPU and with two, and `os.fork` must be called for the
loop exactly when the loop qualifies. events.csv stays far below the size at
which it is read in two processes, so every fork is the loop's.

A child that raises, exits or is killed before it writes, a payload cut
short, a fork that fails and an InvariantError for a person in either half
must each end as the run in one process ends: the same bytes, or the same
exit code and message. No child may be left behind. So must a killed child
when events.csv comes on stdin, through a pipe or from a regular file. And
summary.json's funnel must add up however the loop's tally was merged.
"""

import marshal
import os
import random
import signal
import subprocess
import sys
from contextlib import contextmanager
from functools import partial
from itertools import accumulate
from pathlib import Path

import pytest

from conftest import assert_no_child_left, event_triples, logged_warnings, usable_cpus
import tedpc
from tedpc import cli, csvio, pipeline
from tedpc.config import RunConfig
from tedpc.dod_engine import DeliveryRecord, rank_table
from tedpc.episode_builder import PregnancyEpisode
from tedpc.errors import InvariantError
from tedpc.ga_engine import GestationStart, candidate_table
from tedpc.ingestion import load_events, load_persons, write_events, write_persons
from tedpc.synthgen import NoiseSpec, SynthConfig, generate_cohort

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

NOISE = NoiseSpec(
    drop_ga_rate=0.1, conflict_ga_rate=0.3, shift_rate=0.3, shift_max_days=30, drop_dod_rate=0.1,
    pre_pregnancy_index_rate=0.3,
)

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def write_cohort(directory, cohort, drop_every, shuffle_seed):
    """Write persons.csv without every `drop_every`-th person, and events.csv, shuffled unless the seed is None."""
    persons = [p for p in cohort.persons if not drop_every or p.person_id % drop_every]
    write_persons(directory / "persons.csv", persons)
    triples = event_triples(cohort)
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(triples)
    write_events(directory / "events.csv", [field for triple in triples for field in triple], cohort.domains)


def outputs(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@contextmanager
def split_events(count):
    saved, pipeline.SPLIT_EVENTS = pipeline.SPLIT_EVENTS, count
    try:
        yield
    finally:
        pipeline.SPLIT_EVENTS = saved


@pytest.fixture(scope="module")
def concepts(ga_registry, dod_registry):
    return {spec.concept_id: spec.domain for registry in (dod_registry, ga_registry) for spec in registry}


def grouped(directory, concepts):
    """The lists `run_infer` infers from: each person's engine events, for the persons in persons.csv."""
    persons = load_persons(directory / "persons.csv")
    return load_events(directory / "events.csv", concepts, known_persons=persons).events_by_person


def loop_splits(directory, threshold, concepts):
    """Whether the loop qualifies for two processes: more grouped events than `threshold`, and a person on
    each side of the cut after the person at which the running count first reaches half."""
    by_person = grouped(directory, concepts)
    sizes = [len(by_person[person_id]) // 2 for person_id in sorted(by_person)]
    total = sum(sizes)
    if total <= threshold:
        return False
    cut = next(i for i, running in enumerate(accumulate(sizes), 1) if 2 * running >= total)
    return cut < len(sizes)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("loop")


@needs_fork
@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_persons=st.integers(0, 30),
    noisy=st.booleans(),
    drop_every=st.sampled_from([0, 2, 5]),
    shuffle_seed=st.none() | st.integers(0, 2**16),
    emit_cohorts=st.booleans(),
    apply_filters=st.booleans(),
    threshold=st.sampled_from([0, 1, 40, 400]),
)
def test_two_processes_write_what_one_does(
    scratch, ga_registry, dod_registry, concepts, seed, n_persons, noisy, drop_every, shuffle_seed, emit_cohorts,
    apply_filters, threshold,
):
    noise = NOISE if noisy else NoiseSpec()
    cohort = generate_cohort(SynthConfig(seed=seed, n_persons=n_persons, noise=noise), ga_registry, dod_registry)
    write_cohort(scratch, cohort, drop_every, shuffle_seed)
    pid = os.getpid()
    runs = {}
    with split_events(threshold):
        for cpus in (1, 2):
            out = scratch / f"cpus{cpus}"
            config = RunConfig(
                persons_path=scratch / "persons.csv", events_path=scratch / "events.csv", out_dir=out,
                emit_cohorts=emit_cohorts, apply_filters=apply_filters,
            )
            with usable_cpus(cpus) as forks, logged_warnings("tedpc") as warnings:
                summary = pipeline.run_infer(config)
            runs[cpus] = summary, outputs(out), warnings, forks
    assert_no_child_left(pid)
    assert runs[1][:3] == runs[2][:3]
    assert runs[1][3] == []
    assert runs[2][3] == ([pid] if loop_splits(scratch, threshold, concepts) else [])


@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory, ga_registry, dod_registry, concepts):
    """A noisy cohort with persons missing from persons.csv, whose loop splits at a threshold of 0."""
    directory = tmp_path_factory.mktemp("faults")
    cohort = generate_cohort(SynthConfig(seed=5, n_persons=40, noise=NOISE), ga_registry, dod_registry)
    write_cohort(directory, cohort, 7, 11)
    assert loop_splits(directory, 0, concepts)
    return directory


def run_cli(cohort_dir, out, capsys):
    """`tedpc infer --emit-cohorts` on the cohort: exit code, stdout, stderr, warnings and the files written.

    The files are None when the run left no `out` directory, as a run that fails before it writes does.
    """
    argv = ["infer", "--persons", str(cohort_dir / "persons.csv"), "--events", str(cohort_dir / "events.csv"),
            "--out", str(out), "--emit-cohorts"]
    with logged_warnings("tedpc") as warnings:
        code = cli.main(argv)
    printed = capsys.readouterr()
    return code, printed.out, printed.err, warnings, outputs(out) if out.exists() else None


@needs_fork
@pytest.mark.parametrize("fault", ["raises", "exits", "killed", "cut-short", "fork-fails"])
def test_a_failing_child_gives_the_result_of_one_process(cohort_dir, tmp_path, monkeypatch, capsys, fault):
    pid = os.getpid()
    real_loop, real_dumps = pipeline._infer_persons, marshal.dumps

    def loop(*args, **kwargs):
        if os.getpid() != pid:
            if fault == "raises":
                raise RuntimeError("child loop failed")
            if fault == "exits":
                os._exit(0)
            if fault == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
        return real_loop(*args, **kwargs)

    def dumps(value, *args):
        payload = real_dumps(value, *args)
        return payload[: len(payload) // 2] if os.getpid() != pid else payload

    def fork():
        forks.append(os.getpid())
        raise OSError("no fork")

    monkeypatch.setattr(pipeline, "SPLIT_EVENTS", 0)
    with usable_cpus(1):
        expected = run_cli(cohort_dir, tmp_path / "one", capsys)
    monkeypatch.setattr(pipeline, "_infer_persons", loop)
    if fault == "cut-short":
        monkeypatch.setattr(marshal, "dumps", dumps)
    with usable_cpus(2) as forks:
        if fault == "fork-fails":
            monkeypatch.setattr(os, "fork", fork)
        assert run_cli(cohort_dir, tmp_path / "two", capsys) == expected
    assert expected[0] == 0
    assert forks == [pid]
    assert_no_child_left(pid)


@needs_fork
@pytest.mark.parametrize("half", ["lower", "upper"])
def test_an_invariant_error_in_either_half_exits_4_as_in_one_process(
    cohort_dir, tmp_path, monkeypatch, capsys, concepts, half
):
    # The first person with grouped events is inferred in this process, the last in the child.
    ids = sorted(grouped(cohort_dir, concepts))
    target = ids[0] if half == "lower" else ids[-1]
    real_match = pipeline.match_episodes

    def match(starts, records, **bounds):
        # A person with grouped events has a start or a delivery; each names that person.
        if (starts or records)[0].person_id == target:
            raise InvariantError(f"person {target}: injected start violation")
        return real_match(starts, records, **bounds)

    pid = os.getpid()
    monkeypatch.setattr(pipeline, "SPLIT_EVENTS", 0)
    monkeypatch.setattr(pipeline, "match_episodes", match)
    with usable_cpus(1):
        expected = run_cli(cohort_dir, tmp_path / "one", capsys)
    with usable_cpus(2) as forks:
        assert run_cli(cohort_dir, tmp_path / "two", capsys) == expected
    assert expected[0] == 4
    assert expected[2] == f"invariant violated: person {target}: injected start violation\n"
    assert expected[4] is None
    assert forks == [pid]
    assert_no_child_left(pid)


@needs_fork
def test_a_run_that_fails_after_the_split_leaves_no_directory_and_no_child(cohort_dir, tmp_path, monkeypatch):
    # Called as a library caller would: the run function itself takes its output directory back.
    pid = os.getpid()

    def write_episodes(path, episodes):
        raise OSError(f"cannot write {path}")

    monkeypatch.setattr(pipeline, "SPLIT_EVENTS", 0)
    monkeypatch.setattr(pipeline, "write_episodes", write_episodes)
    config = RunConfig(
        persons_path=cohort_dir / "persons.csv", events_path=cohort_dir / "events.csv", out_dir=tmp_path / "new" / "out"
    )
    with usable_cpus(2) as forks, pytest.raises(OSError, match="cannot write"):
        pipeline.run_infer(config)
    assert forks == [pid]
    assert list(tmp_path.iterdir()) == []
    assert_no_child_left(pid)


@needs_fork
def test_the_joined_rows_are_those_of_one_process(cohort_dir, monkeypatch, ga_registry, dod_registry, concepts):
    # Rows equal as tuples could still differ in type: True == 1, and an enum's member equals its value.
    config = RunConfig(emit_cohorts=True)
    tables = {"ga_table": candidate_table(ga_registry), "dod_ranks": rank_table(dod_registry)}
    loop = partial(pipeline._infer_persons, config=config, **tables)
    by_person = grouped(cohort_dir, concepts)
    expected = loop(by_person, sorted(by_person))
    monkeypatch.setattr(pipeline, "SPLIT_EVENTS", 0)
    by_person = grouped(cohort_dir, concepts)
    with usable_cpus(2) as forks:
        joined = csvio.halves(
            partial(loop, by_person), sorted(by_person), lambda person_id: len(by_person[person_id]),
            2 * pipeline.SPLIT_EVENTS, "inferring persons",
            (GestationStart, DeliveryRecord, PregnancyEpisode, GestationStart, DeliveryRecord, None),
            lambda person_ids: loop(grouped(cohort_dir, concepts), person_ids),
        )
    assert forks == [os.getpid()]
    assert joined == expected
    assert [[list(map(type, row)) for row in rows] for rows in joined[:5]] == [
        [list(map(type, row)) for row in rows] for rows in expected[:5]
    ]
    assert all(expected[:5])


@needs_fork
@pytest.mark.parametrize("seed", [3, 5])
@pytest.mark.parametrize("apply_filters", [True, False])
def test_the_funnel_adds_up_in_one_process_and_in_two(tmp_path, monkeypatch, ga_registry, dod_registry, seed,
                                                      apply_filters):
    # Every start and every delivery ends in an episode, kept or excluded, or unmatched, however the loop's
    # tally was merged: in one process, from the child's payload, or from a cut-short payload's fallback.
    cohort = generate_cohort(SynthConfig(seed=seed, n_persons=400, noise=NOISE), ga_registry, dod_registry)
    write_cohort(tmp_path, cohort, 0, None)
    pid, real_dumps = os.getpid(), marshal.dumps

    def cut_short(value, *args):
        payload = real_dumps(value, *args)
        return payload[: len(payload) // 2] if os.getpid() != pid else payload

    monkeypatch.setattr(pipeline, "SPLIT_EVENTS", 0)
    summaries = []
    for cpus, fault in [(1, False), (2, False), (2, True)]:
        if fault:
            monkeypatch.setattr(marshal, "dumps", cut_short)
        config = RunConfig(
            persons_path=tmp_path / "persons.csv", events_path=tmp_path / "events.csv",
            out_dir=tmp_path / f"out{len(summaries)}", apply_filters=apply_filters,
        )
        with usable_cpus(cpus) as forks:
            summaries.append(pipeline.run_infer(config))
        assert forks == ([pid] if cpus == 2 else [])
    assert_no_child_left(pid)
    summary = summaries[0]
    assert summaries == [summary] * 3
    ended = summary["episodes"] + summary["episodes_excluded_by_filters"]
    assert summary["gestation_starts"] == ended + summary["unmatched_starts"]
    assert summary["delivery_records"] == ended + summary["unmatched_dods"]
    assert summary["unmatched_starts"] and summary["unmatched_dods"]
    assert bool(summary["episodes_excluded_by_filters"]) == apply_filters


# `tedpc infer` with two usable CPUs, the loop's threshold at 0 and its forked child killed; then prints the
# number of forks.
KILLED_CHILD_RUN = """
import os, signal, sys
from tedpc import cli, pipeline

pid, real_loop, real_fork, forks = os.getpid(), pipeline._infer_persons, os.fork, []

def loop(*args, **kwargs):
    if os.getpid() != pid:
        os.kill(os.getpid(), signal.SIGKILL)
    return real_loop(*args, **kwargs)

def fork():
    forks.append(pid)
    return real_fork()

pipeline.SPLIT_EVENTS, pipeline._infer_persons = 0, loop
os.fork, os.sched_getaffinity = fork, lambda _: {0, 1}
code = cli.main(sys.argv[1:])
print(len(forks))
sys.exit(code)
"""


@needs_fork
@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
@pytest.mark.parametrize("stdin", ["pipe", "file"])
def test_events_on_stdin_with_a_killed_child_give_the_result_of_one_process(cohort_dir, tmp_path, capsys, stdin):
    # A failed child's persons are read again from events.csv. A pipe is at its end by then, so over one
    # the loop runs in one process; a regular file on stdin is opened again from its start.
    with usable_cpus(1), split_events(0):
        expected = run_cli(cohort_dir, tmp_path / "one", capsys)
    argv = ["infer", "--persons", str(cohort_dir / "persons.csv"), "--events", "/dev/stdin",
            "--out", str(tmp_path / "two"), "--emit-cohorts"]
    src = str(Path(tedpc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    command = [sys.executable, "-c", KILLED_CHILD_RUN, *argv]
    events = cohort_dir / "events.csv"
    if stdin == "pipe":
        # input= hands the bytes to the child through a pipe, not as a regular file.
        result = subprocess.run(command, env=env, input=events.read_bytes(), capture_output=True)
    else:
        with open(events, "rb") as fh:
            result = subprocess.run(command, env=env, stdin=fh, capture_output=True)
    assert result.returncode == 0, result.stderr.decode()
    # The run's own output, then the forks: none over a pipe, one over a regular file.
    assert result.stdout.decode() == expected[1] + ("0\n" if stdin == "pipe" else "1\n")
    assert expected[0] == 0
    assert outputs(tmp_path / "two") == expected[4]
