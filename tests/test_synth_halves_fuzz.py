"""`generate_cohort` generates the upper person ids in a forked child; the cohort of one process is its reference.

With the split's threshold (`synthgen.SPLIT_PERSONS`) patched low, small drawn
cohorts qualify: any seed, index rate, noise rates and shift bound. The
persons, flat events, truth and noise rows, and every byte `write` makes, must
be the same with one usable CPU and with two, and `os.fork` must be called
exactly when the cohort has more persons than the threshold, and more than one.

A fork that fails, a child that raises, one that exits after writing only its
payload's length, a payload that `marshal` cannot make and one whose columns
do not line up must each end with the cohort of one process, which this
process generates again from its first person, and a GenerationError among
the child's persons with the message of one process. No child may be left
behind. Nor may the merge raise this process's peak of traced memory much
above that of one process.
"""

import marshal
import os
import tracemalloc
from contextlib import contextmanager
from datetime import date

import pytest

from conftest import LengthOnlyEnd, assert_no_child_left, usable_cpus
from tedpc import csvio, synthgen
from tedpc.concept_registry import AccuracyLevel
from tedpc.errors import GenerationError
from tedpc.synthgen import NoiseSpec, SynthConfig, generate_cohort

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

RATE = st.sampled_from([0.0, 0.1, 0.5, 1.0])


def cohort_tables(cohort):
    """The cohort's tables, with the type of every row and field: rows equal as tuples could differ in type."""
    tables = (cohort.persons, cohort.flat_events, cohort.truth, cohort.noise_rows)
    types = [type(cohort.flat_events)] + [
        [(type(row), *map(type, row)) for row in rows] for rows in (cohort.persons, cohort.truth, cohort.noise_rows)
    ]
    return tables, types, set(map(type, cohort.flat_events))


def written(cohort, directory):
    return {path.name: path.read_bytes() for path in cohort.write(directory).values()}


@contextmanager
def split_persons(count):
    saved, synthgen.SPLIT_PERSONS = synthgen.SPLIT_PERSONS, count
    try:
        yield
    finally:
        synthgen.SPLIT_PERSONS = saved


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("halves")


@needs_fork
@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_persons=st.integers(0, 60),
    index_rate=RATE,
    rates=st.tuples(RATE, RATE, RATE, RATE, RATE),
    shift_max_days=st.sampled_from([1, 7, 30, synthgen.MAX_SHIFT_DAYS]),
    threshold=st.sampled_from([0, 1, 20, 250]),
)
def test_two_processes_generate_what_one_does(
    scratch, ga_registry, dod_registry, seed, n_persons, index_rate, rates, shift_max_days, threshold
):
    noise = NoiseSpec(*rates[:3], shift_max_days, *rates[3:])
    config = SynthConfig(seed=seed, n_persons=n_persons, index_event_rate=index_rate, noise=noise)
    pid = os.getpid()
    runs = {}
    for cpus in (1, 2):
        with usable_cpus(cpus) as forks, split_persons(threshold):
            cohort = generate_cohort(config, ga_registry, dod_registry)
        runs[cpus] = cohort_tables(cohort), written(cohort, scratch / f"cpus{cpus}"), forks
    assert_no_child_left(pid)
    assert runs[1][:2] == runs[2][:2]
    assert runs[1][2] == []
    assert runs[2][2] == ([pid] if n_persons > threshold and n_persons > 1 else [])


NOISE = NoiseSpec(
    drop_ga_rate=0.1, conflict_ga_rate=0.3, shift_rate=0.3, shift_max_days=30, drop_dod_rate=0.1,
    pre_pregnancy_index_rate=0.3,
)


@needs_fork
@pytest.mark.parametrize("fault", ["fork-fails", "raises", "length-only", "dumps-fails", "short-column"])
def test_a_failing_child_gives_the_cohort_of_one_process(ga_registry, dod_registry, monkeypatch, tmp_path, fault):
    pid = os.getpid()
    config = SynthConfig(seed=5, n_persons=60, index_event_rate=0.5, noise=NOISE)
    monkeypatch.setattr(synthgen, "SPLIT_PERSONS", 0)
    with usable_cpus(1):
        expected = generate_cohort(config, ga_registry, dod_registry)
    real_rng, real_dumps = synthgen._person_rng, marshal.dumps
    generated = []  # the persons this process generates, in order

    def person_rng(seed, stream, person_id):
        if os.getpid() != pid:
            if fault == "raises":
                raise RuntimeError("child generation failed")
        elif stream == synthgen._BASE_STREAM:
            generated.append(person_id)
        return real_rng(seed, stream, person_id)

    def dumps(value, *args):
        if os.getpid() != pid:
            if fault == "dumps-fails":
                raise ValueError("unmarshallable object")
            # The persons' race column one short: the merge fails after the child's events are appended.
            value[2][3] = value[2][3][:-1]
        return real_dumps(value, *args)

    def child_open(file, mode="r", *args, **kwargs):
        return LengthOnlyEnd(file) if os.getpid() != pid and mode == "wb" else open(file, mode, *args, **kwargs)

    def fork():
        forks.append(os.getpid())
        raise OSError("no fork")

    monkeypatch.setattr(synthgen, "_person_rng", person_rng)
    if fault == "length-only":
        monkeypatch.setattr(csvio, "open", child_open, raising=False)
    if fault in ("dumps-fails", "short-column"):
        monkeypatch.setattr(marshal, "dumps", dumps)
    with usable_cpus(2) as forks:
        if fault == "fork-fails":
            monkeypatch.setattr(os, "fork", fork)
        cohort = generate_cohort(config, ga_registry, dod_registry)
    assert forks == [pid]
    assert_no_child_left(pid)
    assert cohort_tables(cohort) == cohort_tables(expected)
    assert written(cohort, tmp_path / "two") == written(expected, tmp_path / "one")
    # A failed fork leaves every person to this process; a failed child's half is dropped, and every person
    # is generated again.
    ids = list(range(1, 61))
    assert generated == (ids if fault == "fork-fails" else ids[:30] + ids)


@needs_fork
def test_a_generation_error_among_the_childs_persons_is_that_of_one_process(ga_registry, dod_registry, monkeypatch):
    # In a two-year delivery window two gestations fit, three do not: with seed 1 person 66 is the first
    # with three, so persons 1-50 generate and the child's persons 51-100 fail.
    monkeypatch.setattr(synthgen, "COHORT_WINDOW", (date(2020, 1, 1), date(2021, 12, 31)))
    monkeypatch.setattr(synthgen, "SPLIT_PERSONS", 0)
    pid = os.getpid()
    with usable_cpus(1):
        generate_cohort(SynthConfig(seed=1, n_persons=50), ga_registry, dod_registry)
        with pytest.raises(GenerationError) as one:
            generate_cohort(SynthConfig(seed=1, n_persons=100), ga_registry, dod_registry)
    with usable_cpus(2) as forks, pytest.raises(GenerationError) as two:
        generate_cohort(SynthConfig(seed=1, n_persons=100), ga_registry, dod_registry)
    assert forks == [pid]
    assert_no_child_left(pid)
    assert str(two.value) == str(one.value) == (
        "cannot place 3 gestations separated by 271 days inside a 730-day delivery window"
    )


@needs_fork
def test_the_merge_keeps_the_peak_near_that_of_one_process(ga_registry, dod_registry):
    # The child's persons and truth come back as columns, its flat events are appended before they are
    # rebuilt as rows, and each table is freed once appended. With two events a person, so that persons and
    # truth weigh most, the peak was 5 % above one process's on Python 3.11; persons and truth sent as
    # tuples, one per row, put it 22 % above.
    config = SynthConfig(
        seed=3, n_persons=3000, ga_events_per_gestation={AccuracyLevel.HIGH: 1}, dod_events_per_gestation=1,
        index_event_rate=0,
    )

    def traced_peak(cpus):
        with usable_cpus(cpus) as forks:
            tracemalloc.start()
            try:
                generate_cohort(config, ga_registry, dod_registry)
                return tracemalloc.get_traced_memory()[1], forks
            finally:
                tracemalloc.stop()

    (one, no_forks), (two, forks) = traced_peak(1), traced_peak(2)
    assert no_forks == [] and forks == [os.getpid()]
    assert two < 1.08 * one
