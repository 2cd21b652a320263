"""`infer`'s person loop in two processes.

No person's episodes depend on another person's, so the loop over a large
cohort (`tedpc.pipeline._infer_persons`) can run on two CPUs: a forked child
runs it over the upper half of the person ids while this process runs it over
the lower half, and the child's results are appended to this process's. Ids
ascend, so every list is the one a single loop builds, and every output byte
is the same. The loop is given as a function of `(by_person, person ids)`,
so that one body serves the run in one process and each half. The loop's
rows hold ints, texts and bools only (a field of an enum holds the enum's
value), so the child sends them through `marshal` as they are, a column per
field. A child that fails leaves its persons to this process, which reads
their events again: over an events.csv that can be read only once, a pipe,
the loop runs in one process.

Only `infer` imports this module, when it runs: every tedpc command imports
`tedpc.pipeline`, and the others would compile this for nothing.
"""

from __future__ import annotations

import logging
from functools import partial
from typing import Callable

from .csvio import forkable, forked
from .dod_engine import DeliveryRecord
from .episode_builder import PregnancyEpisode
from .ga_engine import GestationStart

logger = logging.getLogger(__name__)

# The loop runs in two processes only over more grouped events than this. On a 2-vCPU Xeon the fork and the
# payload cost about 1.5 ms in a small process, as much as half the loop saves over about 2,500 events (250
# persons of the generator's default shape); over 5,000 the split saved 20 %.
SPLIT_EVENTS = 5_000

# The type of each list the loop returns after its two counts: starts, deliveries, episodes, unmatched
# starts and unmatched deliveries.
_RESULT_TYPES = (GestationStart, DeliveryRecord, PregnancyEpisode, GestationStart, DeliveryRecord)


def _person_cut(by_person: dict[int, list[int]], person_ids: list[int]) -> int | None:
    """How many of the sorted `person_ids` this process infers when the loop runs in two; None to run it in one.

    The cut follows the person at which the running count of grouped events
    first reaches half the total. None unless this process can fork onto a
    second CPU (`csvio.forkable`), the lists hold more than SPLIT_EVENTS
    events, and both sides of the cut hold a person.
    """
    if not forkable():
        return None
    # Two list slots per event.
    total = sum(map(len, by_person.values()))
    if total <= 2 * SPLIT_EVENTS:
        return None
    running = 0
    for cut, person_id in enumerate(person_ids, 1):
        running += len(by_person[person_id])
        if 2 * running >= total:
            return cut if cut < len(person_ids) else None
    return None


def infer_halves(
    by_person: dict[int, list[int]],
    loop: Callable[[dict[int, list[int]], list[int]], tuple],
    grouped_again: Callable[[], dict[int, list[int]]] | None,
) -> tuple:
    """`loop` over every person in id order, the upper ids in a forked child where the loop qualifies (`_person_cut`).

    The child sends its counts and each result list as plain columns, one per
    field, and this process appends the rows rebuilt from them to its own. When
    the fork fails, this process runs the loop over every person. On any doubt
    about the child (it raises, exits or is killed, or its payload does not
    load) this process runs the loop over the child's persons too, with their
    lists, freed here, read again through `grouped_again`; an InvariantError
    for one of them is then raised here, as in one process. An exception in
    this process's half propagates as it would in one process. With no
    `grouped_again` (the events cannot be read again) the loop runs in one process.
    """
    person_ids = sorted(by_person)
    cut = None if grouped_again is None else _person_cut(by_person, person_ids)
    if cut is None:
        return loop(by_person, person_ids)
    mine, theirs = person_ids[:cut], person_ids[cut:]
    logger.info("inferring persons in two processes: %d here, %d in a forked child", len(mine), len(theirs))

    def upper_half() -> list:
        inferred = loop(by_person, theirs)
        plain = list(inferred[:2])
        # Each row's person id goes as its position in `theirs`, so that the row rebuilt from it holds
        # this process's id object, as a row the loop builds here does, and not a copy from the payload.
        position = dict(zip(theirs, range(len(theirs))))
        for rows, cls in zip(inferred[2:], _RESULT_TYPES):
            columns = list(zip(*rows)) or [()] * len(cls._fields)
            columns[0] = list(map(position.__getitem__, columns[0]))
            plain.append(columns)
        return plain

    def lower_half() -> tuple:
        # The child's lists are freed here before its payload is read.
        for person_id in theirs:
            del by_person[person_id]
        return loop(by_person, mine)

    try:
        ours, plain = forked(upper_half, lower_half)
    except OSError:
        # No pipe or no fork: nothing has run, and every list is still here.
        logger.debug("inferring persons in one process, as the fork failed", exc_info=True)
        return loop(by_person, person_ids)
    try:
        # A payload that did not load is None, and fails here like one of another shape. Each list is
        # rebuilt in full before any is appended, so a failure leaves this process's lists as they were;
        # the id column is mapped lazily, as a list per mapped column raised infer_clean's peak RSS by 1.6 %.
        their_counts, their_rows = plain[:2], []
        for columns, cls in zip(plain[2:], _RESULT_TYPES, strict=True):
            columns[0] = map(theirs.__getitem__, columns[0])
            their_rows.append(list(map(partial(tuple.__new__, cls), zip(*columns, strict=True))))
    except (TypeError, ValueError, IndexError):
        logger.debug("inferring the child's persons here, as it failed", exc_info=True)
        inferred = loop(grouped_again(), theirs)
        their_counts, their_rows = inferred[:2], inferred[2:]
    for own, rows in zip(ours[2:], their_rows):
        own.extend(rows)
    return ours[0] + their_counts[0], ours[1] + their_counts[1], *ours[2:]
