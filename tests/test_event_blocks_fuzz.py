"""`load_events` reads events.csv a block at a time; a row loop over `csvio.table` is its reference.

The block size is cut down to a few characters, so rows straddle blocks, and
the drawn files hold blank lines, a missing final newline, a byte-order mark,
quoted CRLF rows, unknown persons, labels, lines over a lowered
`csv.field_size_limit()`, and one mutated field anywhere, header included. A
file that loads must give the same `EventTable`, first days included; one
that fails must fail with the same message.
"""

import csv

import pytest

from conftest import render_table
from oracles import load_events_reference
from tedpc import csvio
from tedpc.concept_registry import Domain
from tedpc.errors import DataFormatError
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
