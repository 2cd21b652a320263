"""The one CSV dialect of every tedpc table.

A table is UTF-8 text, optionally behind a byte-order mark, whose first
non-blank row is a fixed header. Blank rows are skipped, every other row must
have the header's field count, and a row that does not parse is reported as
`path:line`. A date field is `YYYY-MM-DD` and nothing else (`iso_date`).
Tables are written as UTF-8 with `\n` line ends, dates from day ordinals
through one `Memo(iso_text)` per run; a table no field of which can need
quoting goes out as preformatted text lines (`write_lines`). Every input, table
or not, is opened by `open_text`, so one encoding rule holds for all; the text
split below decodes its own bytes by the same rule, and leaves a file that is
not UTF-8 to `open_text` to name.

A reader of a header-first table runs its own row loop inside `table`:

    with table(path, HEADER) as rows:
        for row in rows:
            ...

`table` checks the header, skips blank rows and checks each row's width, and
turns a ValueError or KeyError raised in the loop into `path:line`. There is
no per-row callback, so a reader's per-row work costs what it would around a
bare `csv.reader`. Values that repeat across rows, such as dates and domains,
go through a `Memo`, which parses and checks each distinct text once.

A reader of a large table whose rows it mostly skips reads it a block at a
time instead, through `columns`, which parses each column of a block with one
`map` and leaves the reader's Python code only the rows it keeps. A file is
split as text, a block of lines at once, up to the first block that holds a
quote, carriage return or NUL; from that block's first row on, it is split by
`table`, a block of rows at once. Either way the rules are the ones above:
when a block breaks one, or a parser raises, `columns` reads the file again
one row at a time through `table`, which names the first bad row as it would
in a row loop. A reader's checks that span fields or rows (dates in order, no
repeated key) go in its `check`, which fails a block as a parser does, so a
reader that keeps every row runs no Python code per row. An input that is not
a regular file, such as a pipe, can be read only once: `columns` reads it one
row at a time through `table` from the start.

The text split also reads a span of a file's bytes (`span_columns`), which
raises where `columns` would read again. A reader can so read a large, regular
file in two processes: `split_point` finds where the second half starts, and
`forked` runs one half in a forked child, which sends back its result as one
`marshal` payload through a pipe, while this process reads the other.
`forkable` is the one rule for when a second process may be forked at all.
A loop over ids whose rows for one id depend on that id alone (`infer`'s
person loop, the generator's) runs its upper ids in a forked child through
`halves`, which alone builds and reads the payload that brings the child's
rows back, and appends them to this process's in id order. Both share one
rule for a child that fails: the caller does the whole job again in one
process, the read through `columns`, the loop over every id.

Every command's output directory is made by `output_dir`, which takes back
the directories it made when the run fails.
"""

from __future__ import annotations

import csv
import logging
import marshal
import math
import os
import stat
import threading
from contextlib import contextmanager, suppress
from datetime import date
from functools import partial
from itertools import accumulate, islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TextIO, TypeVar

from .errors import ConfigError, DataFormatError, TedpcError

logger = logging.getLogger(__name__)


def iso_date(text: str) -> date:
    """Parse a `YYYY-MM-DD` date field; raises ValueError on anything else.

    From Python 3.11 on, `date.fromisoformat` also takes `20200503` and
    `2020-W19-7`. Given ten characters with dashes at 4 and 7, it accepts only
    ASCII `YYYY-MM-DD`, on 3.10 as on 3.11, so the shape is checked first.
    """
    if len(text) != 10 or text[4] != "-" or text[7] != "-":
        raise ValueError(f"bad date {text!r}, expected YYYY-MM-DD")
    return date.fromisoformat(text)


# The text of a true/false field, read and written.
BOOL_TOKENS = {"true": True, "false": False}
BOOL_TEXT = {flag: text for text, flag in BOOL_TOKENS.items()}


def iso_text(day: int) -> str:
    """The `YYYY-MM-DD` text of a day ordinal."""
    return date.fromordinal(day).isoformat()


class Memo(dict):
    """key -> fn(key), each distinct key computed once: `memo[key]`.

    `fn` parses and checks the key. When it raises, nothing is stored, so a
    bad value that repeats fails at its first row and at every later one.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


@contextmanager
def open_text(path: Path | str, error: type[TedpcError] = DataFormatError) -> Iterator[TextIO]:
    """Open an input as UTF-8 behind an optional BOM; a byte that is not UTF-8 raises `error` naming the file.

    A path that names a directory, or that the OS refuses for another reason than a
    missing file (a name over 255 bytes, say), is a bad input path, like a missing file,
    so it raises DataFormatError whatever `error` is.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except IsADirectoryError:
        raise DataFormatError(f"{path}: is a directory, expected a file") from None
    except (FileNotFoundError, NotADirectoryError):
        raise  # the CLI reports these as a file not found
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot open: {exc.strerror}") from None
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text ({exc.reason})") from None


@contextmanager
def csv_rows(path: Path | str, on_comment: Callable[[str], None] | None = None) -> Iterator[Iterator[list[str]]]:
    """Open an input (`open_text`) as CSV rows; a row csv cannot split raises DataFormatError naming `path:line`.

    With `on_comment`, lines starting with '#' are handed to it and read as
    blank rows; without it they are ordinary rows.
    """
    with open_text(path) as fh:
        reader = csv.reader(fh if on_comment is None else _blank_comments(fh, on_comment))
        try:
            yield reader
        except csv.Error as exc:
            # A field over csv.field_size_limit(), or a NUL byte before Python 3.11.
            raise DataFormatError(f"{path}:{reader.line_num}: {exc}") from None


def _blank_comments(lines: Iterable[str], on_comment: Callable[[str], None]) -> Iterator[str]:
    """Pass '#' lines to on_comment and read them, and whitespace-only lines, as blank."""
    for line in lines:
        if line.startswith("#"):
            on_comment(line)
            line = "\n"
        yield line if line.strip() else "\n"


@contextmanager
def table(
    path: Path | str, header: list[str], on_comment: Callable[[str], None] | None = None
) -> Iterator[Iterator[list[str]]]:
    """Open a header-first table and yield its data rows, each of the header's width.

    A ValueError or KeyError raised in the `with` body becomes a
    DataFormatError naming `path:line` of the row read last, so checks that
    span rows (duplicates) belong in the loop too, and work after the loop
    belongs after the `with`. `on_comment` is as in `csv_rows`.
    """
    with csv_rows(path, on_comment) as reader:
        for row in reader:
            if row:
                break
        else:
            raise DataFormatError(f"{path}: empty file, expected header {header}")
        if row != header:
            raise DataFormatError(f"{path}: bad header {row!r}, expected {header}")
        try:
            yield _data_rows(path, reader, len(header))
        except UnicodeDecodeError:
            raise  # a ValueError too, but open_text names it as a bad file, not a bad row
        except (ValueError, KeyError) as exc:
            raise DataFormatError(f"{path}:{reader.line_num}: {_describe(exc)}") from None


def _data_rows(path: Path | str, reader, width: int) -> Iterator[list[str]]:
    for row in reader:
        if len(row) == width:
            yield row
        elif row:
            raise DataFormatError(f"{path}:{reader.line_num}: expected {width} fields, got {len(row)}")


# Bytes of text, or about as many rows, that `columns` parses as one block.
BLOCK_CHARS = 8 * 1024
# A file is read in two processes (`split_point`) only when it is larger than this many blocks. On a
# 2-vCPU Xeon the fork and the payload cost about 1 ms in a 20 MB process and 2 ms in a 110 MB one,
# as much as half the parse of 20-50 blocks saves.
SPLIT_BLOCKS = 32


class _Reread(Exception):
    """A block the text split does not vouch for; `columns` reads the file again through `table`."""


def columns(
    path: Path | str, header: list[str], parsers: Sequence[Callable], check: Callable = lambda parsed, texts: None
) -> Iterator[list[list]]:
    """Yield a header-first table's data rows a block at a time, as one parsed list per column.

    Column `i` of a block is `list(map(parsers[i], texts))`, and `check(parsed,
    texts)` gets each parsed block and its columns of field texts before it is
    yielded. The rows are those `table` yields. A regular file is split as text
    (`_text_blocks`) until a block holds a quote, carriage return or NUL, and
    from the first row not yet yielded on by `table`, a block of rows at once.
    A bad table fails as a row loop over `table` that applies the parsers in
    field order, then `check`, would: on any other doubt, a bad header or
    width, an over-long line, a file that cannot be opened, or a ValueError or
    KeyError from a parser or the check, the file is read again one row at a
    time from the first row not yet yielded, and `table` names the first bad
    row. A check that keeps state across blocks therefore commits it only once
    a block passes, or is idempotent. A file that is not regular (a pipe, say)
    can be read only once, so it is read one row at a time from the start.
    """
    done = 0
    if _regular_size(path) is not None:
        blocks = _text_blocks(path, header)
        while True:
            try:
                block = next(blocks, None)
                if block is None:
                    return
                parsed = _parsed(parsers, block)
                check(parsed, block)
            except _Reread:
                blocks = _row_blocks(path, header, skip=done)
                continue
            except (DataFormatError, OSError, ValueError, KeyError):
                break
            yield parsed
            done += len(parsed[0])
        blocks.close()
    # Each row after the first `done`, parsed in field order and checked as a block of one row.
    with table(path, header) as rows:
        for _ in islice(rows, done):
            pass
        for row in rows:
            parsed = [[parse(text)] for parse, text in zip(parsers, row)]
            check(parsed, [[text] for text in row])
            yield parsed


def span_columns(
    path: Path | str, header: list[str], parsers: Sequence[Callable], start: int, stop: int | None = None
) -> Iterator[list[list]]:
    """Yield the lines of a plain-text table in bytes [start, stop) as `columns` parses them, a block at a time.

    The span starts at byte 0, with the header, or just after a line end, with
    data lines only. Nothing is read again: where `columns` would go back to
    the file (a quote, a carriage return, a NUL, text that is not UTF-8, a bad
    header or width, an over-long line, a parser's error) this raises instead.
    """
    for block in _text_blocks(path, header, start, stop):
        yield _parsed(parsers, block)


def _parsed(parsers: Sequence[Callable], block: list) -> list[list]:
    return [list(map(parse, texts)) for parse, texts in zip(parsers, block)]


def _regular_size(path: Path | str) -> int | None:
    """The size of a regular file; None for a pipe, say, or a path that cannot be read (`table` reports it)."""
    try:
        info = os.stat(path)
    except (OSError, ValueError):
        return None
    return info.st_size if stat.S_ISREG(info.st_mode) else None


def _text_blocks(
    path: Path | str, header: list[str], start: int = 0, stop: int | None = None
) -> Iterator[list[list[str]]]:
    """The data rows of a plain-text file's bytes [start, stop) as columns of field texts, a block of lines at a time.

    From byte 0 the span holds the header, behind an optional BOM; from any
    other byte, which must follow a line end, it holds data lines only. A
    block's lines are split into fields in one `split`, with each line end
    kept as a field of its own, so that one slice checks every line's width.
    Raises _Reread where csv might split or check differently: a quote,
    carriage return or NUL, a bad header, a line without the header's width,
    or a line over `csv.field_size_limit()`; text that is not UTF-8 raises
    UnicodeDecodeError.
    """
    width = len(header)
    limit = csv.field_size_limit()
    seen_header, at_start = start > 0, start == 0
    with open(path, "rb") as fh:
        fh.seek(start)
        left = math.inf if stop is None else stop - start
        rest = b""
        while True:
            data = fh.read(min(BLOCK_CHARS, left))
            left -= len(data)
            if data:
                if b'"' in data or b"\r" in data or b"\0" in data:
                    raise _Reread
                data = rest + data
                cut = data.rfind(b"\n")
                if cut < 0:
                    if len(data) > limit:
                        raise _Reread
                    rest = data
                    continue
                data, rest = data[:cut], data[cut + 1 :]
            elif rest:
                data, rest = rest, b""
            else:
                break
            text = data.decode("utf-8")
            if at_start:
                # Only the file's first character may be a BOM, as open_text reads it.
                text, at_start = text.removeprefix("\ufeff"), False
            if len(text) > limit and max(map(len, text.split("\n"))) > limit:
                raise _Reread
            if not seen_header:
                head, _, text = text.lstrip("\n").partition("\n")
                if not head:
                    continue
                if head.split(",") != header:
                    raise _Reread
                seen_header = True
            fields = _fields(text, width)
            if fields is None:
                # Blank lines, which csv skips, or a line of another width.
                text = "\n".join(filter(None, text.split("\n")))
                if not text:
                    continue
                fields = _fields(text, width)
                if fields is None:
                    raise _Reread
            yield [fields[i :: width + 1] for i in range(width)]
    if not seen_header:
        raise _Reread


def _fields(text: str, width: int) -> list[str] | None:
    """`text`'s lines split at every comma, each followed by a "\\n" field; None unless each has `width` fields."""
    fields = text.replace("\n", ",\n,").split(",")
    ends = text.count("\n")
    if len(fields) == (ends + 1) * (width + 1) - 1 and fields[width :: width + 1].count("\n") == ends:
        return fields
    return None


def forkable() -> bool:
    """True when this process can fork a child onto a second CPU.

    False without `os.fork` or `os.sched_getaffinity`, with one usable CPU,
    or with a thread besides this one, which a forked child would not have.
    """
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return False
    return len(os.sched_getaffinity(0)) >= 2 and threading.active_count() == 1


def split_point(path: Path | str) -> int | None:
    """Where a second process can start reading a large table: the byte after the first line end past its middle.

    None when the file is not regular or not over SPLIT_BLOCKS blocks, when no
    line end follows its middle, or when this process cannot fork onto a second
    CPU (`forkable`).
    """
    if not forkable():
        return None
    size = _regular_size(path)
    if size is None or size <= SPLIT_BLOCKS * BLOCK_CHARS:
        return None
    with open(path, "rb") as fh:
        fh.seek(size // 2)
        while data := fh.read(BLOCK_CHARS):
            end = data.find(b"\n")
            if end >= 0:
                cut = fh.tell() - len(data) + end + 1
                return cut if cut < size else None
    return None


T = TypeVar("T")


def forked(child: Callable[[], object], parent: Callable[[], T]) -> tuple[T, object]:
    """Run `parent()` here while a forked copy of this process runs `child()`; return both results.

    The child sends its result back through a pipe as one marshal payload, so
    it must be plain data: ints, texts, None, and lists, tuples and dicts of
    them. The child never returns from this call: it ends in `os._exit`, and
    flushes nothing of this process's. The child's result is None when it
    raises or dies before its whole payload is written, or when the pipe
    cannot be read or the payload does not load. An OSError from `os.pipe` or
    `os.fork` propagates before `parent` runs; an exception in `parent`
    propagates once the child is killed. Either way the child is reaped.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            payload = marshal.dumps(child())
            with open(write_end, "wb") as fh:
                fh.write(len(payload).to_bytes(8, "little"))
                fh.write(payload)
            code = 0
        finally:
            os._exit(code)
    # Imported here, as every process that never forks would pay for it at start.
    import mmap

    payload = None
    try:
        os.close(write_end)
        with open(read_end, "rb") as fh:
            mine = parent()
            # The payload's length, then the payload in one read into a buffer of that length, which is given
            # back to the OS once loaded: a buffer from the heap can stay in this process's RSS for good.
            # marshal.load on the pipe would read it in small pieces.
            try:
                size = int.from_bytes(fh.read(8), "little")
                buffer = mmap.mmap(-1, size)
                if fh.readinto(buffer) == size:
                    payload = buffer
                else:
                    buffer.close()
            except OSError:
                pass  # no length (a map of 0 bytes raises OSError), or the pipe cannot be read
    finally:
        if payload is None:
            # Imported here, as every run whose child writes its payload would pay for it (0.4 ms).
            import signal

            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    if payload is None:
        return mine, None
    with payload:
        try:
            return mine, marshal.loads(payload)
        except (EOFError, ValueError, TypeError):
            return mine, None


def halves(
    run: Callable[[Sequence], tuple], ids: Sequence, weight: Callable[[object], int], minimum: int, doing: str,
    rows: Sequence[type | None], release: Callable[[Sequence], object] = lambda ids: None,
) -> tuple | None:
    """`run(ids)`, the ids after the cut run by a forked child where the run qualifies; None on doubt about the child.

    It qualifies when this process can fork onto a second CPU (`forkable`)
    and the ids' summed `weight` is over `minimum`. The cut follows the id at
    which the running weight first reaches half the total, and both sides must
    keep an id. `run` returns a tuple of row lists and tallies (dicts of name
    -> number); an id's rows depend on that id alone. The child sends each
    part of its result as it is, but a list whose row class `rows` gives (not
    None) as one column per field, rebuilt with `tuple.__new__` as it is
    appended. Where `ids` is a list, such a list's first field (one of the
    child's ids) goes as that id's position among them, so that the rows hold
    this process's id objects; a range holds none, so its ids go as they are,
    and marshal sends each id object once. This process calls `release(the
    child's ids)`, runs its own, appends each of the child's lists to its own,
    freeing each once appended, and adds the tallies key by key. When the fork
    fails, this process runs every id. On any doubt about the child, what ran
    here is dropped and None returned, and the caller runs every id in one
    process, with what `release` freed made anew: `halves(...) or run(ids)`.
    Either way the result, or an exception, is that of one process.
    """
    if not forkable() or (total := sum(map(weight, ids))) <= minimum:
        return run(ids)
    cut = next((cut for cut, running in enumerate(accumulate(map(weight, ids)), 1) if 2 * running >= total), 0)
    if not 0 < cut < len(ids):
        return run(ids)
    mine, theirs = ids[:cut], ids[cut:]
    logger.info("%s in two processes: %d here, %d in a forked child", doing, len(mine), len(theirs))

    def lower_half() -> tuple:
        release(theirs)
        return run(mine)

    try:
        ours, payload = forked(lambda: _columns(theirs, run(theirs), rows), lower_half)
    except OSError:
        # No pipe or no fork: nothing has run, and nothing is released.
        logger.debug("%s in one process, as the fork failed", doing, exc_info=True)
        return run(ids)
    try:
        # A payload that did not load is None, and fails here like one of another shape. It is let go here,
        # so that only `parts` holds each loaded table, which the join frees once it is appended.
        parts, payload = list(payload), None
        _join(ours, parts, theirs, rows)
    except (TypeError, ValueError, LookupError):
        logger.debug("%s: every id runs again in one process, as the child failed", doing, exc_info=True)
        return None
    return ours


def _columns(ids: Sequence, result: tuple, rows: Sequence[type | None]) -> list:
    """A child's result as `halves` sends it."""
    position = dict(zip(ids, range(len(ids)))) if isinstance(ids, list) else None
    plain = []
    for part, cls in zip(result, rows, strict=True):
        if cls is not None:
            # An empty list goes as one empty column of ids, which rebuilds no row.
            part = list(zip(*part)) or [()]
            if position is not None:
                part[0] = list(map(position.__getitem__, part[0]))
        plain.append(part)
    return plain


def _join(ours: tuple, theirs: list, ids: Sequence, rows: Sequence[type | None]) -> None:
    """Extend each list of `ours` by the part at its place in `theirs`, rebuilt from its columns where `rows`
    gives a class, and freed once appended; then add each tally of `theirs` to the one at its place in `ours`."""
    for i, (own, cls) in enumerate(zip(ours, rows, strict=True)):
        if isinstance(own, list):
            part, theirs[i] = theirs[i], None
            if cls is not None:
                if isinstance(ids, list):
                    part[0] = map(ids.__getitem__, part[0])
                part = map(partial(tuple.__new__, cls), zip(*part, strict=True))
            own += part
            del part
    for own, their in zip(ours, theirs, strict=True):
        if isinstance(own, dict):
            for key in own:
                own[key] += their[key]


def _row_blocks(path: Path | str, header: list[str], skip: int) -> Iterator[list[tuple[str, ...]]]:
    """`table`'s rows after the first `skip`, about a text block's worth at a time, as columns of field texts."""
    size = max(1, BLOCK_CHARS // 32)
    with table(path, header) as rows:
        for _ in islice(rows, skip):
            pass
        while block := list(islice(rows, size)):
            yield list(zip(*block))


def _describe(exc: ValueError | KeyError) -> str:
    # str(KeyError('x')) is just "'x'", which says nothing about what was wrong.
    return f"unknown value {exc.args[0]!r}" if isinstance(exc, KeyError) else str(exc)


@contextmanager
def output_dir(path: Path | str) -> Iterator[Path]:
    """Make the output directory `path` and yield it; a value that is not a path (a `str` or an
    `os.PathLike`), or a path that cannot be a directory, is a config error.

    If the block, or the making, fails, each directory of `path` and its parents that did
    not exist before is removed again, deepest first and only while empty (`os.rmdir`): a
    directory that holds a file, or that was there before, stays. A forked child ends in
    `os._exit` (`forked`), so it never unwinds through here: only this process removes anything.
    """
    if not isinstance(path, (str, os.PathLike)):
        raise ConfigError(f"output directory must be a path, got {path!r}")
    out = Path(path)
    made = [part for part in (out, *out.parents) if not os.path.lexists(part)]
    try:
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out}: {exc.strerror}") from None
        yield out
    except BaseException:
        for part in made:
            with suppress(OSError):
                os.rmdir(part)
        raise


def write_rows(path: Path | str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header and rows as UTF-8 CSV with '\\n' line ends."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_lines(path: Path | str, header: Sequence[str], lines: Iterable[str]) -> None:
    """Write a header and rows already formatted as '\\n'-ended text lines, as UTF-8.

    For a table no field of which can need quoting (ints, ISO dates, fixed
    texts), these are the bytes `write_rows` would write, without a list per
    row through `csv.writer`.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)
