"""`csvio.halves` on toy runs: two processes give the result of one, whatever fails.

A toy run maps each id to a square and a pair, each third id to a `Third`
row, and tallies the ids and their sum. The `Third` rows cross the pipe as
columns, their ids as positions when the ids are a list, and are rebuilt as
they are appended; either side may have none. An id's rows depend on that id
alone, so the run over every id is the reference for the run split in two. A
fork that fails must end with the result of one process. A child that raises
or exits after writing only its payload's length, and a payload that fails to
join after a first list or a first count was added, must each end in None, so
that the caller runs every id in one process; an exception in this process's
half propagates. No child may be left behind.
"""

import logging
import marshal
import os
from typing import NamedTuple

import pytest

from conftest import LengthOnlyEnd, assert_no_child_left, usable_cpus
from tedpc import csvio

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

DOING = "squaring ids"


class Third(NamedTuple):
    id: int
    text: str
    even: bool


def run(ids):
    """Squares, then the tally, then rows of a class, then pairs: a tally may sit between lists."""
    return (
        [i * i for i in ids],
        {"ids": len(ids), "total": sum(ids)},
        [Third(i, str(i), i % 2 == 0) for i in ids if i % 3 == 0],
        [(i, str(i)) for i in ids],
    )


# The row class of each part of `run`'s result: only the `Third` rows cross as columns.
ROWS = (None, None, Third, None)


def split(ids, weight=lambda i: 1, minimum=0, run=run):
    """`halves` over the toy run."""
    return csvio.halves(run, ids, weight, minimum, DOING, ROWS)


@needs_fork
@pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 101])
@pytest.mark.parametrize("weight", [lambda i: 1, lambda i: i % 3, lambda i: i * i], ids=["one", "mod3", "square"])
def test_two_cpus_give_the_result_of_one(caplog, n, weight):
    pid = os.getpid()
    ids = list(range(1, n + 1))
    with usable_cpus(1) as no_forks:
        one = split(ids, weight)
    with usable_cpus(2) as forks, caplog.at_level(logging.INFO, logger="tedpc.csvio"):
        two = split(ids, weight)
    assert_no_child_left(pid)
    assert one == two == run(ids)
    # Rows equal as tuples could still differ in type: a rebuilt row must be of its class.
    assert [list(map(type, part)) for part in two] == [list(map(type, part)) for part in run(ids)]
    assert no_forks == []
    # The cut follows the id at which the running weight first reaches half; both sides must keep an id.
    weights = list(map(weight, ids))
    cut = next((k for k in range(1, n + 1) if 2 * sum(weights[:k]) >= sum(weights)), n)
    splits = sum(weights) > 0 and cut < n
    assert forks == ([pid] if splits else [])
    expected = [f"{DOING} in two processes: {cut} here, {n - cut} in a forked child"] if splits else []
    assert [record.getMessage() for record in caplog.records if record.levelno == logging.INFO] == expected


@needs_fork
@pytest.mark.parametrize("n", [2, 3, 10, 101])
def test_a_range_of_ids_gives_the_result_of_one(n):
    # A range's ids go as they are, not as positions: indexing a range makes a new int each time.
    pid = os.getpid()
    ids = range(1, n + 1)
    with usable_cpus(1):
        one = split(ids)
    with usable_cpus(2) as forks:
        two = split(ids)
    assert_no_child_left(pid)
    assert one == two == run(ids)
    assert [list(map(type, part)) for part in two] == [list(map(type, part)) for part in run(ids)]
    assert forks == [pid]


@needs_fork
def test_no_minimum_reached_or_one_id_never_forks():
    pid = os.getpid()
    with usable_cpus(2) as forks:
        assert split([1, 2, 3], minimum=3) == run([1, 2, 3])
        assert split([7], minimum=-1) == run([7])
    assert forks == []
    assert_no_child_left(pid)


@needs_fork
def test_a_failed_fork_runs_every_id_here(monkeypatch):
    pid = os.getpid()
    ids = list(range(1, 11))

    def fork():
        forks.append(os.getpid())
        raise OSError("no fork")

    with usable_cpus(2) as forks:
        monkeypatch.setattr(os, "fork", fork)
        assert split(ids) == run(ids)
    assert forks == [pid]
    assert_no_child_left(pid)


@needs_fork
@pytest.mark.parametrize("fault", ["raises", "length-only"])
def test_a_failed_child_gives_none(monkeypatch, fault):
    pid = os.getpid()
    ids = list(range(1, 11))

    def failing_run(run_ids):
        if os.getpid() != pid:
            raise RuntimeError("child failed")
        return run(run_ids)

    def child_open(file, mode="r", *args, **kwargs):
        return LengthOnlyEnd(file) if os.getpid() != pid and mode == "wb" else open(file, mode, *args, **kwargs)

    if fault == "length-only":
        monkeypatch.setattr(csvio, "open", child_open, raising=False)
    with usable_cpus(2) as forks:
        result = split(ids, run=failing_run if fault == "raises" else run)
    assert forks == [pid]
    assert_no_child_left(pid)
    assert result is None


@needs_fork
@pytest.mark.parametrize("fault", ["second-list", "second-count", "extra-part"])
def test_a_payload_that_fails_to_join_gives_none(caplog, monkeypatch, fault):
    # The squares are appended and, for "second-list", the first of the child's `Third` rows, whose last column
    # is one short; for "second-count" and "extra-part" the tally is added in part or in full, before the join
    # fails: the partly joined result is dropped, so the caller's run over every id adds no id or count twice.
    pid, real_dumps = os.getpid(), marshal.dumps
    ids = list(range(1, 11))

    def dumps(value, *args):
        if os.getpid() != pid:
            squares, tally, thirds, pairs = value
            if fault == "second-list":
                thirds[-1] = thirds[-1][:-1]  # the rows of ids 6 and 9, the second without its last field
            elif fault == "second-count":
                value[1] = {"ids": tally["ids"], "total": "bad"}
            else:
                value.append([])
        return real_dumps(value, *args)

    monkeypatch.setattr(marshal, "dumps", dumps)
    with usable_cpus(2) as forks, caplog.at_level(logging.DEBUG, logger="tedpc.csvio"):
        result = split(ids)
    assert forks == [pid]
    assert_no_child_left(pid)
    assert result is None
    # The payload came whole, and its join failed: a child that failed would have sent none.
    [failed] = [record.exc_info[1] for record in caplog.records if record.exc_info]
    assert str(failed) == {
        "second-list": "zip() argument 3 is shorter than arguments 1-2",
        "second-count": "unsupported operand type(s) for +=: 'int' and 'str'",
        "extra-part": "zip() argument 2 is longer than argument 1",
    }[fault]


@needs_fork
def test_an_exception_in_this_processs_half_propagates():
    pid = os.getpid()

    def failing_run(run_ids):
        if os.getpid() == pid:
            raise RuntimeError("this half failed")
        return run(run_ids)

    with usable_cpus(2) as forks, pytest.raises(RuntimeError, match="this half failed"):
        split(list(range(1, 11)), run=failing_run)
    assert forks == [pid]
    assert_no_child_left(pid)
