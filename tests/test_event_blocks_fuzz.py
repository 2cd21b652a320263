"""`load_events` reads events.csv a block at a time; a row loop over `csvio.table` is its reference.

The block size is cut down to a few characters, so rows straddle blocks, and
the drawn files hold blank lines, a missing final newline, a byte-order mark,
quoted CRLF rows, unknown persons, labels, lines over a lowered
`csv.field_size_limit()`, and one mutated field anywhere, header included. A
file that loads must give the same `EventTable`, first days included; one
that fails must fail with the same message.

With so small a block, a drawn file is large enough to be read in two
processes too (`csvio.split_point`): a forked child scans the second half.
Those files draw a person on both sides of the split, blank lines and a BOM
next to it, quarantined and domain-mismatched rows only after it, a quoted
field or a mutated field on either side; the logged warnings must be those of
a read in one process, and no child may be left behind.
"""

import csv
import errno
import marshal
import os
import signal
from contextlib import contextmanager
from datetime import date, timedelta

import pytest

from conftest import assert_no_child_left, logged_warnings, render_table, usable_cpus
from oracles import load_events_reference
from tedpc import csvio
from tedpc.concept_registry import Domain
from tedpc.errors import DataFormatError
from tedpc import ingestion
from tedpc.ingestion import EVENT_HEADER, load_events

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

CONCEPTS = (400, 401, 500, 444098, 4128331)
rows = st.lists(
    st.tuples(
        st.integers(1, 5),
        st.sampled_from(CONCEPTS),
        st.sampled_from(["Condition", "Procedure", "Observation", " observation ", "Observation" + " " * 12]),
        st.sampled_from(["2020-01-01", "2019-12-31", "2020-03-01", "2021-07-15"]),
    ).map(lambda row: [str(row[0]), str(row[1]), row[2], row[3]]),
    max_size=30,
)
bad_texts = st.sampled_from(
    ["", "x", "Widget", "2020-13-01", "1899-12-31", "20200101", "1,2", " 5", '"7"', "\0", "4" * 30]
)
mutation = st.none() | st.tuples(st.integers(0, 10**6), st.integers(0, 3), bad_texts | st.none())
concept_maps = st.sampled_from(
    [{}, {400: None}, {400: None, 500: Domain.CONDITION, 444098: Domain.CONDITION}, dict.fromkeys(CONCEPTS)]
)
label_maps = st.sampled_from([None, {}, {400: (None, "b"), 401: ("b",), 500: ("a",)}, {4128331: (None,)}])


def outcome(loader, path, concepts, known_persons, labels):
    try:
        return loader(path, concepts, known_persons=known_persons, labels=labels)
    except DataFormatError as exc:
        return f"error: {exc}"


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("blocks")


@settings(max_examples=300, deadline=None)
@given(
    data=rows,
    blanks=st.lists(st.integers(0, 40), max_size=3),
    mutated=mutation,
    quoted=st.booleans(),
    final_newline=st.booleans(),
    bom=st.booleans(),
    block_chars=st.integers(1, 64),
    # At 40, the header fits and some rows do not, though each of their fields does.
    field_limit=st.sampled_from([131_072, 12, 40]),
    concepts=concept_maps,
    known_persons=st.sampled_from([None, {1, 2, 3}]),
    labels=label_maps,
)
def test_block_scanner_matches_the_row_loop(
    scratch, data, blanks, mutated, quoted, final_newline, bom, block_chars, field_limit, concepts, known_persons,
    labels,
):
    path = scratch / "events.csv"
    text = render_table(EVENT_HEADER, data, blanks, mutated, quoted, final_newline, bom)
    path.write_bytes(text.encode("utf-8"))
    saved_block, saved_limit = csvio.BLOCK_CHARS, csv.field_size_limit(field_limit)
    try:
        csvio.BLOCK_CHARS = block_chars
        expected = outcome(load_events_reference, path, concepts, known_persons, labels)
        assert outcome(load_events, path, concepts, known_persons, labels) == expected
    finally:
        csvio.BLOCK_CHARS = saved_block
        csv.field_size_limit(saved_limit)


def test_lines_whose_widths_cancel_out_fail_at_the_first(tmp_path):
    # Parsers that take any text cannot catch fields shifted from one line to the next.
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1\n2,3,4\n")
    with pytest.raises(DataFormatError, match=r"t\.csv:2: expected 2 fields, got 1$"):
        list(csvio.columns(path, ["a", "b"], (str, str)))


def test_quoted_fields_are_read_by_csv(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text('a,b\n"x",y\n')
    assert list(csvio.columns(path, ["a", "b"], (str, str))) == [[["x"], ["y"]]]


def test_a_plain_file_is_opened_once(tmp_path, monkeypatch):
    # The text split itself finds a quote, a carriage return or a NUL: nothing reads the file ahead of it.
    path = tmp_path / "t.csv"
    path.write_text("a,b\n" + "x,y\n" * 5000)
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(csvio, "open", counting_open, raising=False)
    rows = [row for block in csvio.columns(path, ["a", "b"], (str, str)) for row in zip(*block)]
    assert rows == [("x", "y")] * 5000
    assert opened == [path]


def test_a_file_the_text_split_cannot_open_is_named_by_open_text(tmp_path, monkeypatch):
    # A regular file that the OS refuses to open fails as it would in a row loop over `table`.
    path = tmp_path / "t.csv"
    path.write_text("a,b\nx,y\n")

    def refusing_open(file, *args, **kwargs):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))

    monkeypatch.setattr(csvio, "open", refusing_open, raising=False)
    with pytest.raises(DataFormatError, match=rf"t\.csv: cannot open: {os.strerror(errno.EACCES)}$"):
        list(csvio.columns(path, ["a", "b"], (str, str)))


# Concepts with the domain each is registered under; a first-half row of a split file carries its concept's domain.
SPLIT_CONCEPTS = {400: Domain.CONDITION, 500: Domain.PROCEDURE, 444098: Domain.OBSERVATION, 4128331: None}
DOMAIN_TEXTS = ["Condition", "Procedure", "Observation", "Measurement"]
DAYS = ["2020-01-01", "2019-12-31", "2021-07-15"]
clean_rows = st.lists(
    st.tuples(
        st.integers(1, 5), st.sampled_from(sorted(SPLIT_CONCEPTS)), st.sampled_from(DOMAIN_TEXTS), st.sampled_from(DAYS)
    ).map(lambda row: [str(row[0]), str(row[1]), SPLIT_CONCEPTS[row[1]] or row[2], row[3]]),
    max_size=25,
)
noisy_rows = st.lists(
    st.tuples(
        st.integers(1, 7), st.sampled_from(sorted(SPLIT_CONCEPTS)), st.sampled_from(DOMAIN_TEXTS), st.sampled_from(DAYS)
    ).map(lambda row: [str(row[0]), str(row[1]), row[2], row[3]]),
    max_size=25,
)
# One field changed in a way csv reads differently from a split at commas, or not at all (None):
# a quoted person id, or a carriage return after a domain, which csv takes for a line end.
quirks = st.none() | st.tuples(st.integers(0, 10**6), st.sampled_from(["quote", "cr"]))


@contextmanager
def block_chars(size):
    saved, csvio.BLOCK_CHARS = csvio.BLOCK_CHARS, size
    try:
        yield
    finally:
        csvio.BLOCK_CHARS = saved


@contextmanager
def serial_reads():
    """Count the reads of a whole file as one (`csvio.columns`)."""
    calls = []
    real_columns = ingestion.columns

    def columns(*args, **kwargs):
        calls.append(args[0])
        return real_columns(*args, **kwargs)

    ingestion.columns = columns
    try:
        yield calls
    finally:
        ingestion.columns = real_columns


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


@needs_fork
@settings(max_examples=200, deadline=None)
@given(
    first=clean_rows,
    second=noisy_rows,
    blanks=st.integers(0, 3),
    bom_at_split=st.sampled_from([None, "line", "row"]),
    bom=st.booleans(),
    mutated=mutation,
    quirk=quirks,
    mismatch_first=st.booleans(),
    size=st.integers(1, 8),
    known_persons=st.sampled_from([None, {1, 2, 3, 4, 5}]),
    labels=label_maps,
)
def test_two_processes_match_the_row_loop(
    scratch, first, second, blanks, bom_at_split, bom, mutated, quirk, mismatch_first, size, known_persons, labels
):
    # Person 1's rows open the first half and close the second; blank lines after the first half
    # make it the longer, so the split falls before the second half's first row. The first half
    # holds no unknown person, and a domain mismatch only if `mismatch_first`.
    opening = ["1", "400", "Procedure" if mismatch_first else "Condition", "2020-03-01"]
    head = [EVENT_HEADER, opening, *first]
    tail = [*second, ["1", "500", "Procedure", "2019-12-31"]]
    lines = head + tail
    if mutated is not None:
        at, field, text = mutated
        fields = lines[1 + at % (len(lines) - 1)]
        if text is None:
            del fields[field % len(fields)]
        else:
            fields[field % len(fields)] = text
    if quirk is not None:
        at, kind = quirk
        fields = lines[1 + at % (len(lines) - 1)]
        if kind == "quote":
            fields[0] = f'"{fields[0]}"'
        elif len(fields) > 2:
            fields[2] += "\r"
    head_text = "".join(",".join(fields) + "\n" for fields in head)
    tail_text = "".join(",".join(fields) + "\n" for fields in tail)
    middle = "\n" * blanks + {None: "", "line": "\ufeff\n", "row": "\ufeff"}[bom_at_split]
    pad = "\n" * max(0, len(middle + tail_text) - len(head_text) + 1)
    text = ("\ufeff" if bom else "") + head_text + pad + middle + tail_text
    path = scratch / "split.csv"
    data = text.encode("utf-8")
    path.write_bytes(data)
    # The split falls after the first half's last line end, and before the end of the file.
    splits = size * csvio.SPLIT_BLOCKS < len(data) and b"\n" in data[len(data) // 2 : -1]
    pid = os.getpid()
    with block_chars(size):
        with usable_cpus(1), logged_warnings(ingestion.__name__) as expected_warnings:
            serial = outcome(load_events, path, SPLIT_CONCEPTS, known_persons, labels)
        with usable_cpus(2) as forks, serial_reads() as reads, logged_warnings(ingestion.__name__) as warnings:
            split = outcome(load_events, path, SPLIT_CONCEPTS, known_persons, labels)
    assert_no_child_left(pid)
    assert forks == ([pid] if splits else [])
    assert split == serial == outcome(load_events_reference, path, SPLIT_CONCEPTS, known_persons, labels)
    assert warnings == expected_warnings
    # A file the halves vouch for is read once; an error is named by a read as one.
    clean = mutated is None and quirk is None and bom_at_split is None
    if splits and clean:
        assert reads == []
    if isinstance(split, str):
        assert reads == [path]


def split_file(tmp_path, bad_row=None):
    """A file large enough to split at a block of 16 bytes; data row `bad_row` (of 200), if given, is bad."""
    rows = [f"{1 + i % 7},{(400, 500)[i % 2]},Condition,2020-01-{1 + i % 28:02d}" for i in range(200)]
    if bad_row is not None:
        rows[bad_row] = "3,400,Widget,2020-01-01"
    path = tmp_path / "events.csv"
    path.write_text("\n".join([",".join(EVENT_HEADER), *rows]) + "\n")
    return path


@pytest.fixture
def split_blocks(monkeypatch):
    monkeypatch.setattr(csvio, "BLOCK_CHARS", 16)


@needs_fork
@pytest.mark.parametrize("bad_row", [None, 50, 150], ids=["good", "bad-first-half", "bad-second-half"])
def test_no_child_is_left_after_a_split_read(tmp_path, split_blocks, bad_row):
    # A bad row in the first half fails this process's half, and the child is killed before it is reaped.
    path = split_file(tmp_path, bad_row)
    pid = os.getpid()
    expected = outcome(load_events_reference, path, {400: None}, {1, 2, 3, 4, 5}, None)
    with usable_cpus(2) as forks:
        assert outcome(load_events, path, {400: None}, {1, 2, 3, 4, 5}, None) == expected
    assert forks == [pid]
    assert_no_child_left(pid)
    if bad_row is not None:
        assert expected == f"error: {path}:{bad_row + 2}: unknown domain 'Widget'"


@needs_fork
@pytest.mark.parametrize("fault", ["raises", "exits", "killed", "garbled"])
@pytest.mark.parametrize("bad_row", [None, 150], ids=["good", "bad-row"])
def test_a_failing_child_falls_back_to_one_read(tmp_path, split_blocks, monkeypatch, fault, bad_row):
    """The child's scan raises, it exits or is killed before it writes, or its payload is cut short."""
    path = split_file(tmp_path, bad_row)
    pid = os.getpid()
    real_scan, real_dumps = ingestion._scan, marshal.dumps

    def scan(*args, **kwargs):
        if os.getpid() != pid:
            if fault == "raises":
                raise RuntimeError("child scan failed")
            if fault == "exits":
                os._exit(0)
            if fault == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
        return real_scan(*args, **kwargs)

    def dumps(value, *args):
        payload = real_dumps(value, *args)
        return payload[: len(payload) // 2] if os.getpid() != pid else payload

    monkeypatch.setattr(ingestion, "_scan", scan)
    if fault == "garbled":
        monkeypatch.setattr(marshal, "dumps", dumps)
    expected = outcome(load_events_reference, path, {400: None}, None, {500: ("x",)})
    with usable_cpus(2) as forks, serial_reads() as reads:
        assert outcome(load_events, path, {400: None}, None, {500: ("x",)}) == expected
    assert forks == [pid] and reads == [path]
    assert_no_child_left(pid)


@needs_fork
def test_an_earlier_first_day_in_the_second_half_wins(tmp_path, split_blocks):
    # Days fall through the file, so each person's first day of each label is in the child's half.
    last = date(2020, 12, 31)
    rows = [f"{1 + i % 7},{(400, 500)[i % 2]},Condition,{last - timedelta(days=i)}" for i in range(200)]
    path = tmp_path / "events.csv"
    path.write_text("\n".join([",".join(EVENT_HEADER), *rows]) + "\n")
    labels = {400: ("a",), 500: (None, "a")}
    pid = os.getpid()
    expected = outcome(load_events_reference, path, {}, None, labels)
    with usable_cpus(2) as forks, serial_reads() as reads:
        split = outcome(load_events, path, {}, None, labels)
    assert forks == [pid] and reads == []
    assert_no_child_left(pid)
    assert split == expected
    assert expected.first_days["a"] == {1 + i % 7: (last - timedelta(days=i)).toordinal() for i in range(193, 200)}


class _DyingEnd:
    """A forked child's end of the pipe: it writes the 8-byte length, then half the payload, and exits."""

    def __init__(self, fd):
        self.fd, self.writes = fd, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        os.close(self.fd)

    def write(self, data):
        self.writes += 1
        if self.writes == 1:
            return os.write(self.fd, data)
        os.write(self.fd, data[: len(data) // 2])
        os._exit(0)


@needs_fork
def test_a_child_that_dies_after_writing_its_length_gives_none(monkeypatch):
    pid = os.getpid()

    def child_open(file, mode="r", *args, **kwargs):
        return _DyingEnd(file) if os.getpid() != pid and mode == "wb" else open(file, mode, *args, **kwargs)

    monkeypatch.setattr(csvio, "open", child_open, raising=False)
    # A text cut short still loads, its tail read as NUL bytes: only the length check sees it.
    assert csvio.forked(lambda: "x" * 1000, lambda: "mine") == ("mine", None)
    assert_no_child_left(pid)
