"""`infer`, `timeline` and `stats` over byte-mutated inputs: both forks forced give what one CPU gives.

The base inputs are a noisy 80-person cohort and its episodes.csv. Each case
makes 1-3 byte edits to one of persons.csv, events.csv or episodes.csv, each
edit inserting or overwriting with text that csv treats apart: a comma, a
line end, a quote, a carriage return, a NUL, a BOM, a byte that is not UTF-8,
or a two-byte character. Then `infer --emit-cohorts`, `timeline` and `stats
--unsuppressed` with a condition set run through `cli.main` twice: with every
read and the person loop forced into two processes (`SPLIT_BLOCKS` 0, blocks
of 97 bytes, `SPLIT_EVENTS` 0, two usable CPUs), and on one usable CPU. Every
exit must be 0, 2 or 3 and leave no traceback, the two runs must agree on
exit codes, printed text, warnings and files, and no child may be left.
"""

import io
import os
import shutil
from contextlib import contextmanager, redirect_stderr, redirect_stdout

import pytest

from conftest import assert_no_child_left, logged_warnings, usable_cpus
from tedpc import cli, csvio, pipeline
from tedpc.synthgen import INDEX_CONCEPT_ID, NoiseSpec, SynthConfig, generate_cohort

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

NOISE = NoiseSpec(
    drop_ga_rate=0.2, conflict_ga_rate=0.2, shift_rate=0.2, shift_max_days=30, drop_dod_rate=0.2,
    pre_pregnancy_index_rate=0.2,
)
INPUTS = ("persons.csv", "events.csv", "episodes.csv")
EDIT_TEXTS = (b",", b"\n", b'"', b"\r", b"\0", "\ufeff".encode(), b"\xff", "\u00e9".encode())
edits = st.lists(
    st.tuples(st.integers(0, 10**6), st.booleans(), st.sampled_from(EDIT_TEXTS)), min_size=1, max_size=3
)


def mutated(data, edits):
    """`data` with each edit applied in turn: `text` inserted at, or written over the bytes from, a position."""
    for at, overwrite, text in edits:
        at %= len(data) + 1
        data = data[:at] + text + data[at + len(text) * overwrite:]
    return data


@pytest.fixture(scope="module")
def base(tmp_path_factory, ga_registry, dod_registry):
    """The base inputs' bytes, by file name, and the directory they are written to for each case."""
    directory = tmp_path_factory.mktemp("mutation")
    cohort = generate_cohort(
        SynthConfig(seed=11, n_persons=80, index_event_rate=0.5, noise=NOISE), ga_registry, dod_registry
    )
    cohort.write(directory / "sim")
    assert cli.main(["infer", "--persons", str(directory / "sim" / "persons.csv"), "--events",
                     str(directory / "sim" / "events.csv"), "--out", str(directory / "sim")]) == 0
    some_delivery = next(iter(dod_registry)).concept_id
    (directory / "sim" / "conditions.csv").write_text(
        f"concept_id\n{INDEX_CONCEPT_ID}\n{some_delivery}\n", encoding="utf-8"
    )
    inputs = {name: (directory / "sim" / name).read_bytes() for name in INPUTS}
    return inputs, directory


def commands(directory):
    sim, out = directory / "sim", directory / "out"
    reads = {name: str(sim / f"mutated_{name}") for name in INPUTS}
    analytics = ["--episodes", reads["episodes.csv"], "--events", reads["events.csv"],
                 "--index-events", str(sim / "index_concepts.csv")]
    return out, [
        ["infer", "--persons", reads["persons.csv"], "--events", reads["events.csv"], "--emit-cohorts",
         "--out", str(out / "infer")],
        ["timeline", *analytics, "--out", str(out / "timeline")],
        ["stats", *analytics, "--persons", reads["persons.csv"], "--unsuppressed",
         f"--condition=cond={sim / 'conditions.csv'}", "--out", str(out / "stats")],
    ]


@contextmanager
def forced_forks():
    """Two usable CPUs, and every events read and person loop over the threshold at which it splits."""
    saved = csvio.SPLIT_BLOCKS, csvio.BLOCK_CHARS, pipeline.SPLIT_EVENTS
    csvio.SPLIT_BLOCKS, csvio.BLOCK_CHARS, pipeline.SPLIT_EVENTS = 0, 97, 0
    try:
        with usable_cpus(2) as forks:
            yield forks
    finally:
        csvio.SPLIT_BLOCKS, csvio.BLOCK_CHARS, pipeline.SPLIT_EVENTS = saved


def run_all(directory):
    """Each command's exit code, printed text and warnings, then every file written."""
    out, argvs = commands(directory)
    results = []
    for argv in argvs:
        printed, errors = io.StringIO(), io.StringIO()
        with logged_warnings("tedpc") as warnings, redirect_stdout(printed), redirect_stderr(errors):
            code = cli.main(argv)
        assert code in (0, 2, 3), (argv[0], errors.getvalue())
        assert "Traceback" not in errors.getvalue()
        results.append((code, printed.getvalue(), errors.getvalue(), warnings))
    files = {str(path.relative_to(out)): path.read_bytes() for path in sorted(out.rglob("*")) if path.is_file()}
    shutil.rmtree(out, ignore_errors=True)
    return results, files


def write_inputs(base, which=None, edits=()):
    inputs, directory = base
    for name, data in inputs.items():
        (directory / "sim" / f"mutated_{name}").write_bytes(mutated(data, edits) if name == which else data)
    return directory


@needs_fork
@settings(max_examples=150, deadline=None)
@given(which=st.sampled_from(INPUTS), edits=edits)
def test_forced_forks_give_what_one_cpu_gives(base, which, edits):
    directory = write_inputs(base, which, edits)
    pid = os.getpid()
    with forced_forks():
        forced = run_all(directory)
    with usable_cpus(1) as forks:
        one = run_all(directory)
    assert forks == []
    assert_no_child_left(pid)
    assert forced == one


@needs_fork
def test_the_base_inputs_fork_in_every_command(base):
    # Each command reads events.csv in two processes, and infer runs its person loop in two as well.
    directory = write_inputs(base)
    pid = os.getpid()
    with forced_forks() as forks:
        results, files = run_all(directory)
    assert [code for code, *_ in results] == [0, 0, 0]
    assert forks == [pid] * 4
    assert {"infer/ga_cohort.csv", "timeline/timing.csv", "stats/report.csv"} <= set(files)
    assert_no_child_left(pid)
