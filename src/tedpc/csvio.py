"""The one CSV dialect of every tedpc table.

A table is UTF-8 text, optionally behind a byte-order mark, whose first
non-blank row is a fixed header. Blank rows are skipped, every other row must
have the header's field count, and a row that does not parse is reported as
`path:line`. A date field is `YYYY-MM-DD` and nothing else (`iso_date`).
Tables are written as UTF-8 with `\\n` line ends, dates from day ordinals
through one `Memo(iso_text)` per run; a table no field of which can need
quoting goes out as preformatted text lines (`write_lines`). Every input, table or not, is opened by
`open_text`, so one encoding rule holds for all.

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
`map` and leaves the reader's Python code only the rows it keeps. A file with
no quote, carriage return or NUL is split as text, a block of lines at once;
any other file is split by `table`. Either way the rules are the ones above:
when a block breaks one, or a parser raises, `columns` reads the file again
one row at a time through `table`, which names the first bad row as it would
in a row loop. A reader's checks that span fields or rows (dates in order, no
repeated key) go in its `check`, which fails a block as a parser does, so a
reader that keeps every row runs no Python code per row.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from datetime import date
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TextIO

from .errors import DataFormatError, TedpcError


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


# Characters of text, or about as many rows, that `columns` parses as one block.
BLOCK_CHARS = 8 * 1024


class _Reread(Exception):
    """A block the text split does not vouch for; `columns` reads the file again through `table`."""


def columns(
    path: Path | str, header: list[str], parsers: Sequence[Callable], check: Callable = lambda parsed, texts: None
) -> Iterator[list[list]]:
    """Yield a header-first table's data rows a block at a time, as one parsed list per column.

    Column `i` of a block is `list(map(parsers[i], texts))`, and `check(parsed,
    texts)` gets each parsed block and its columns of field texts before it is
    yielded. The rows are those `table` yields, and a bad table fails as a row
    loop over `table` that applies the parsers in field order, then `check`,
    would: on any doubt, a bad header or width, an over-long line, or a
    ValueError or KeyError from a parser or the check, the file is read again
    one row at a time from the first row not yet yielded, and `table` names the
    first bad row. A check that keeps state across blocks therefore commits it
    only once a block passes, or is idempotent.
    """
    blocks = _text_blocks(path, header) if _plain_text(path) else _row_blocks(path, header)
    done = 0
    while True:
        try:
            block = next(blocks, None)
            if block is None:
                return
            parsed = [list(map(parse, texts)) for parse, texts in zip(parsers, block)]
            check(parsed, block)
        except (_Reread, DataFormatError, ValueError, KeyError):
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


def _plain_text(path: Path | str) -> bool:
    """True when the file holds no quote, carriage return or NUL, so that csv splits each line at every comma."""
    try:
        with open(path, "rb") as fh:
            while chunk := fh.read(64 * 1024):
                if b'"' in chunk or b"\r" in chunk or b"\0" in chunk:
                    return False
    except OSError:
        return False  # `table` reports it
    return True


def _text_blocks(path: Path | str, header: list[str]) -> Iterator[list[list[str]]]:
    """The data rows of a plain-text file (`_plain_text`) as columns of field texts, a block of lines at a time.

    A block's lines are split into fields in one `split`, with each line end
    kept as a field of its own, so that one slice checks every line's width.
    Raises _Reread where csv might split or check differently: a bad header, a
    line without the header's width, or a line over `csv.field_size_limit()`.
    """
    width = len(header)
    limit = csv.field_size_limit()
    seen_header = False
    with open_text(path) as fh:
        rest = ""
        while True:
            text = fh.read(BLOCK_CHARS)
            if text:
                text = rest + text
                cut = text.rfind("\n")
                if cut < 0:
                    if len(text) > limit:
                        raise _Reread
                    rest = text
                    continue
                text, rest = text[:cut], text[cut + 1 :]
            elif rest:
                text, rest = rest, ""
            else:
                break
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


def _row_blocks(path: Path | str, header: list[str]) -> Iterator[list[tuple[str, ...]]]:
    """`table`'s rows, about a text block's worth at a time, as columns of field texts."""
    size = max(1, BLOCK_CHARS // 32)
    with table(path, header) as rows:
        while block := list(islice(rows, size)):
            yield list(zip(*block))


def _describe(exc: ValueError | KeyError) -> str:
    # str(KeyError('x')) is just "'x'", which says nothing about what was wrong.
    return f"unknown value {exc.args[0]!r}" if isinstance(exc, KeyError) else str(exc)


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
