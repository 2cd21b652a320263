"""`read_episodes` and `load_persons` read a block at a time; a row loop over `csvio.table` is their reference.

The drawn files come in (person, episode index) order or out of it, with blank
lines, a byte-order mark, quoted CRLF rows, identical duplicate persons, and a
block size cut down so that rows straddle blocks. One row may be corrupted: a
bad int, date or token, an episode index below 1 or a rank outside 1-3, a
contradicting gestation or flag, backwards dates, a repeat of an earlier row's
key, a conflicting person, or a birth date after today. A file that loads must give what the reference gives; one that fails
must fail with the same `path:line: message`. The writers of episodes.csv and
timing.csv must write the bytes a list per row through `csv.writer` would.
"""

from contextlib import contextmanager
from datetime import date, timedelta

import pytest

from conftest import render_table, write_clinical_events
from oracles import (
    episodes_csv_reference,
    episodes_reference,
    persons_reference,
    timeline_reference,
    timing_csv_reference,
)
from tedpc import csvio
from tedpc.concept_registry import ACCURACY_TOKENS, Domain
from tedpc.config import RunConfig
from tedpc.episode_builder import EPISODE_HEADER, PregnancyEpisode, extreme_flag_of, read_episodes, write_episodes
from tedpc.errors import DataFormatError
from tedpc.ingestion import PERSON_HEADER, ClinicalEvent, load_persons
from tedpc.pipeline import run_timeline

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

BASE = date(2019, 1, 1)
BASE_DAY = BASE.toordinal()
INDEX = 900000001
FLAGS = ("none", "short", "long")


def episode_fields(person_id, index, start, gestation, accuracy, rank, conflict):
    first = BASE + timedelta(days=start)
    dod = first + timedelta(days=gestation)
    flag = extreme_flag_of(gestation).value
    return [str(person_id), str(index), first.isoformat(), dod.isoformat(), str(gestation), accuracy, str(rank), flag,
            "true" if conflict else "false"]


episode_rows = st.lists(
    st.tuples(
        st.integers(1, 30), st.integers(1, 3), st.integers(0, 600), st.integers(120, 320),
        st.sampled_from(sorted(ACCURACY_TOKENS)), st.integers(1, 3), st.booleans(),
    ),
    max_size=40,
    unique_by=lambda row: row[:2],
).map(lambda rows: [episode_fields(*row) for row in rows])
person_rows = st.lists(
    st.tuples(
        st.integers(1, 60), st.integers(0, 20_000), st.sampled_from(["F", "M", ""]),
        st.sampled_from(["White", "Asian", "Black or African American", " Asian"]),
        st.sampled_from(["Hispanic or Latino", "Not Hispanic or Latino"]),
    ),
    max_size=40,
    unique_by=lambda row: row[0],
).map(lambda rows: [[str(p), (date(1960, 1, 1) + timedelta(days=d)).isoformat(), *texts] for p, d, *texts in rows])
position = st.integers(0, 10**6)
bad_texts = st.sampled_from(["x", "", "1.5", "+2", " 3", "0", "-5", "4", "Long", "TRUE", "high ", "2020-02-30", "20200101", "a,b"])
episode_faults = st.none() | st.one_of(
    st.tuples(st.just("text"), position, st.integers(0, 8), bad_texts),
    st.tuples(st.sampled_from(["gestation", "flag", "backwards", "same-day"]), position, st.none(), st.none()),
    st.tuples(st.just("repeat"), position, position, st.none()),
)
person_faults = st.none() | st.one_of(
    st.tuples(st.just("text"), position, st.integers(0, 4), bad_texts),
    st.tuples(st.sampled_from(["future", "before-1900"]), position, st.none(), st.none()),
    st.tuples(st.just("conflict"), position, position, st.none()),
)
orders = st.sampled_from(["drawn", "sorted", "reversed"])
layouts = st.fixed_dictionaries(
    {
        "blanks": st.lists(st.integers(0, 50), max_size=3),
        "quoted": st.booleans(),
        "final_newline": st.booleans(),
        "bom": st.booleans(),
    }
)
block_sizes = st.sampled_from([1, 7, 64, 300, 8192])


def ordered(rows, order):
    rows = [list(fields) for fields in rows]
    if order == "drawn":
        return rows
    rows = sorted(rows, key=lambda fields: (int(fields[0]), int(fields[1])))
    return rows[::-1] if order == "reversed" else rows


def corrupt_episode(rows, fault):
    if fault is None or not rows:
        return
    kind, at, other, text = fault
    fields = rows[at % len(rows)]
    if kind == "text":
        fields[other] = text
    elif kind == "gestation":
        fields[4] = str(int(fields[4]) + 1)
    elif kind == "flag":
        fields[7] = FLAGS[(FLAGS.index(fields[7]) + 1) % 3]
    elif kind == "backwards":
        fields[2], fields[3], fields[4], fields[7] = fields[3], fields[2], f"-{fields[4]}", "short"
    elif kind == "same-day":
        fields[3], fields[4], fields[7] = fields[2], "0", "short"
    elif at % len(rows):  # repeat the key of an earlier row, often one in an earlier block
        fields[:2] = rows[other % (at % len(rows))][:2]


def corrupt_person(rows, fault):
    if fault is None or not rows:
        return
    kind, at, other, text = fault
    fields = rows[at % len(rows)]
    if kind == "text":
        fields[other] = text
    elif kind == "future":
        fields[1] = (date.today() + timedelta(days=1)).isoformat()
    elif kind == "before-1900":
        fields[1] = "1899-12-31"
    else:  # a second row for the person, anywhere in the file, that differs in sex
        rows.insert(other % (len(rows) + 1), [fields[0], fields[1], fields[2] + "X", *fields[3:]])


@contextmanager
def block_chars(size):
    saved, csvio.BLOCK_CHARS = csvio.BLOCK_CHARS, size
    try:
        yield
    finally:
        csvio.BLOCK_CHARS = saved


def outcome(reader, path):
    try:
        return reader(path)
    except DataFormatError as exc:
        return f"error: {exc}"


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("blocks")


@settings(max_examples=300, deadline=None)
@given(data=episode_rows, order=orders, fault=episode_faults, layout=layouts, size=block_sizes)
def test_episode_blocks_match_the_row_loop(scratch, data, order, fault, layout, size):
    rows = ordered(data, order)
    corrupt_episode(rows, fault)
    path = scratch / "episodes.csv"
    path.write_bytes(render_table(EPISODE_HEADER, rows, mutated=None, **layout).encode("utf-8"))
    with block_chars(size):
        assert outcome(read_episodes, path) == outcome(episodes_reference, path)


@settings(max_examples=300, deadline=None)
@given(
    data=person_rows,
    duplicates=st.lists(st.tuples(position, position), max_size=4),
    order=st.sampled_from(["drawn", "reversed"]),
    fault=person_faults,
    layout=layouts,
    size=block_sizes,
)
def test_person_blocks_match_the_row_loop(scratch, data, duplicates, order, fault, layout, size):
    rows = [list(fields) for fields in (data[::-1] if order == "reversed" else data)]
    for source, at in duplicates if rows else ():
        rows.insert(at % (len(rows) + 1), list(rows[source % len(rows)]))
    corrupt_person(rows, fault)
    path = scratch / "persons.csv"
    path.write_bytes(render_table(PERSON_HEADER, rows, mutated=None, **layout).encode("utf-8"))
    with block_chars(size):
        assert outcome(load_persons, path) == outcome(persons_reference, path)


def test_a_repeat_of_a_row_in_an_earlier_block_names_its_line(tmp_path):
    rows = [episode_fields(p, 1, p, 270, "high", 1, False) for p in range(1, 200)]
    rows.append(rows[0])
    path = tmp_path / "episodes.csv"
    path.write_text(render_table(EPISODE_HEADER, rows, [], None, False, True, False))
    with pytest.raises(DataFormatError, match=r"episodes\.csv:201: episode 1 of person 1 repeats an earlier row$"):
        read_episodes(path)


def test_messages_quote_the_field_texts(tmp_path):
    # An int field reads through int(), but a message shows the text as written.
    rows = [episode_fields(1, 1, 0, 270, "high", 1, False), episode_fields(1, 2, 300, 270, "high", 1, False)]
    rows[1][:2] = ["+1", "01"]
    path = tmp_path / "episodes.csv"
    path.write_text(render_table(EPISODE_HEADER, rows, [], None, False, True, False))
    with pytest.raises(DataFormatError, match=r":3: episode 01 of person \+1 repeats an earlier row$"):
        read_episodes(path)


episodes_drawn = st.lists(
    st.tuples(st.integers(1, 8), st.integers(1, 3), st.integers(0, 600), st.integers(1, 330),
              st.sampled_from(sorted(ACCURACY_TOKENS.values())), st.integers(1, 3), st.booleans()),
    max_size=20,
    unique_by=lambda row: row[:2],
).map(
    lambda rows: [
        PregnancyEpisode(p, i, BASE_DAY + s, BASE_DAY + s + g, g, a, r, extreme_flag_of(g), c)
        for p, i, s, g, a, r, c in rows
    ]
)


@settings(max_examples=100, deadline=None)
@given(episodes=episodes_drawn, index_days=st.lists(st.tuples(st.integers(1, 8), st.integers(-100, 1000)), max_size=30))
def test_episode_and_timing_writers_match_csv_writer(scratch, episodes, index_days):
    written, expected = scratch / "episodes.csv", scratch / "expected_episodes.csv"
    write_episodes(written, episodes)
    episodes_csv_reference(expected, episodes)
    assert written.read_bytes() == expected.read_bytes()

    events = {p: [] for p in range(1, 9)}
    for person_id, day in index_days:
        events[person_id].append(ClinicalEvent(person_id, INDEX, Domain.CONDITION, BASE + timedelta(days=day)))
    (scratch / "index.csv").write_text(f"concept_id\n{INDEX}\n")
    write_clinical_events(scratch / "events.csv", [e for person_events in events.values() for e in person_events])
    timing_csv_reference(scratch / "expected_timing.csv", timeline_reference(episodes, events, {INDEX}))
    # timeline sorts what it reads: episodes out of order give the same timing.csv.
    header, *lines = written.read_text().splitlines(keepends=True)
    (scratch / "reversed_episodes.csv").write_text(header + "".join(lines[::-1]))
    for name in ("episodes.csv", "reversed_episodes.csv"):
        config = RunConfig(
            events_path=scratch / "events.csv",
            episodes_path=scratch / name,
            index_events_path=scratch / "index.csv",
            out_dir=scratch / "out",
        )
        run_timeline(config)
        assert (scratch / "out" / "timing.csv").read_bytes() == (scratch / "expected_timing.csv").read_bytes()
