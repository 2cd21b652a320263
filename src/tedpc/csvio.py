"""The one CSV dialect of every tedpc table.

A table is UTF-8 text, optionally behind a byte-order mark, whose first
non-blank row is a fixed header. Blank rows are skipped, every other row must
have the header's field count, and a row that does not parse is reported as
`path:line`. A date field is `YYYY-MM-DD` and nothing else (`iso_date`).
Tables are written as UTF-8 with `\\n` line ends, dates from day ordinals
through one `Memo(iso_text)` per run. Every input, table or not, is opened by
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
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from datetime import date
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

    A path that names a directory is a bad input path, like a missing file, so it raises
    DataFormatError whatever `error` is.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except IsADirectoryError:
        raise DataFormatError(f"{path}: is a directory, expected a file") from None
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


def _describe(exc: ValueError | KeyError) -> str:
    # str(KeyError('x')) is just "'x'", which says nothing about what was wrong.
    return f"unknown value {exc.args[0]!r}" if isinstance(exc, KeyError) else str(exc)


def write_rows(path: Path | str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header and rows as UTF-8 CSV with '\\n' line ends."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
