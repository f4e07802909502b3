"""The file formats: market and series CSV files, and key=value config files.

This module reads and writes files and nothing else: what a run does
with the table it reads is ``pipeline``'s job, and what a config key
means is the CLI's.

Two CSV shapes exist.  Market files hold one validated MarketData, a
trading day per row, under the fixed header
``date,i_mrub,r_pct,u_big_vol,u_big_dep`` with an optional trailing
``mean_price_rub``, written in shortest round-trip decimal form so
load(write(x)) is bit-exact.  Series files are generic input: a ``date``
column plus one named column per series.  Both shapes go through one
reader.  An empty value cell reads as NaN and a NaN writes as an empty
cell; the text ``nan`` is never a value.  Whether a NaN may stand is the
data type's decision: MarketData allows it only as a missing price,
TimeSeries nowhere, and either names the date of a cell it rejects.  All
numbers use "." as the decimal separator regardless of locale;
normalization of locale-specific source data belongs outside, at this
boundary's callers.

The reader has two paths and one behaviour.  The header is read, its
text reader closed, and then checked; the body is first parsed in C by
one ``np.loadtxt`` call, a record of the date's 11 bytes and the value
floats per row.  That result stands only when the row-by-row reader
would return the same: the body is not blank and holds no empty cell, no
NUL, none of the separators U+001C..U+001F and no line over the ``csv``
field size limit, every row has the header's width (``loadtxt`` enforces
it), every date text has the shape YYYY-MM-DD in ASCII digits and is a
date from year 1 on, no date repeats, and no value is NaN.  numpy's date
parser reads the dates that have the shape; of the dates the row reader
rejects, it takes only those of year 0000.  numpy parses a number as
``float()`` does, but rejects underscores and non-ASCII digits.  Rows
out of date order are sorted on either path.  In every other case (numpy
raises, blank or quoted cells, a ``#`` line, a header-only file, any bad
input) the file is opened again and read row by row past the header, and
that reader alone decides every error message, naming the line each row
starts on.  Either path hands back the dates as one ``datetime64[D]``
array, checked and frozen, so the data types built on it do not walk the
dates again.  The writer formats them a block of rows at a time.  A
byte-order mark before the header is dropped, and a byte that is not
UTF-8 is a parse error naming its line.
"""

from __future__ import annotations

import array
import csv
import datetime
import math
import os
import re
from typing import BinaryIO, Callable

import numpy as np

from .errors import (
    CsvParseError,
    CsvSchemaError,
    CsvValidationError,
    InvalidArgumentError,
    InvalidDayError,
)
from .market import MarketData
from .series import _FIRST_DAY, TimeSeries, _Frozen

__all__ = [
    "load_market_csv",
    "write_market_csv",
    "load_series_csv",
    "parse_config_file",
]

MARKET_COLUMNS = ("date", "i_mrub", "r_pct", "u_big_vol", "u_big_dep")
MARKET_PRICE_COLUMN = "mean_price_rub"
# Rows per write call of write_market_csv.  The whole file in one string
# would hold every cell's text at once (a 17.9 MB peak at 25,500 days).
_WRITE_ROWS = 1024
# How the row-by-row reader opens a file, for the header and for the body.
_CSV_TEXT = {"newline": "", "encoding": "utf-8-sig", "errors": "surrogateescape"}


def _reject_undecodable(text: str, where: str, line_no: int) -> None:
    """Raise if ``text``, decoded with surrogateescape, holds a byte that is not UTF-8.

    That decoding turns each such byte into a surrogate U+DC80..U+DCFF,
    which neither ``float()`` nor the date parser accepts, so only the
    header and cells that already failed to parse need this check.
    """
    for ch in text:
        if "\udc80" <= ch <= "\udcff":
            raise CsvParseError(
                f"{where} holds the byte 0x{ord(ch) - 0xDC00:02x}, which is not UTF-8",
                line=line_no,
            )


def _parse_cell(text: str, column: str, line_no: int) -> float:
    """A value cell: a number, or NaN when empty; the text ``nan`` is neither."""
    try:
        value = float(text)
        if value == value:
            return value
    except ValueError:
        if not text.strip():
            return math.nan
    _reject_undecodable(text, f"column {column!r}", line_no)
    raise CsvParseError(
        f"column {column!r} has non-numeric value {text.strip()!r}", line=line_no
    )


def _parse_date(text: str) -> datetime.date:
    """A date written as YYYY-MM-DD, in files, flags and config keys alike.

    Only text equal to the date's own ``isoformat()`` is a date.  From
    Python 3.11 on ``date.fromisoformat`` also takes the basic and week
    forms (``20120103``, ``2012-W01-3``, ...); of all the forms it takes,
    only YYYY-MM-DD has ten characters with "-" at index 7.  Checking that
    shape costs far less per CSV row than formatting the date again.
    """
    try:
        day = datetime.date.fromisoformat(text)
    except ValueError:
        day = None
    if day is None or len(text) != 10 or text[7] != "-":
        raise ValueError(f"not an ISO date: {text!r}")
    return day


_NUMPY_ONLY_BYTES = (b"\x00", b"\x1c", b"\x1d", b"\x1e", b"\x1f")
_NOT_BLANK = re.compile(rb"\S")
# The bounds of each byte of YYYY-MM-DD read as 11 bytes: an ASCII
# digit, "-" at 4 and 7, and the NUL that pads a ten-character cell.
_DATE_LO = np.array([48] * 4 + [45] + [48] * 2 + [45] + [48] * 2 + [0], np.uint8)
_DATE_HI = np.array([57] * 4 + [45] + [57] * 2 + [45] + [57] * 2 + [0], np.uint8)
# Bytes per block of the body scan in _loadtxt_may_differ.
_SCAN_BYTES = 1 << 18


def _loadtxt_may_differ(raw: BinaryIO) -> bool:
    """Whether the body of the file open in ``raw`` should be read row by row.

    ``loadtxt`` drops a string cell's trailing NULs, strips the separators
    U+001C..U+001F around a number (``float()`` rejects them), and has no
    field size limit (``csv`` raises past ``csv.field_size_limit()``).  An
    empty cell would fail the NaN check only after a full parse, so it
    declines here, and so does a blank body, on which ``loadtxt`` warns
    that the input contained no data.

    The body is everything after the header's first line break.  It is
    read a block at a time, never whole: the last byte and the length of
    the open line carry across block edges.
    """
    limit = csv.field_size_limit()
    in_header, blank = True, True
    last = -1  # the body's last byte so far
    line = 0  # bytes since the body's last line break
    # A read allocates all it asks for, so none asks past the file's end.
    unread = os.fstat(raw.fileno()).st_size
    while unread > 0 and (block := raw.read(min(_SCAN_BYTES, unread))):
        unread -= len(block)
        start = 0
        if in_header:
            ends = [i for i in (block.find(b"\n"), block.find(b"\r")) if i >= 0]
            if not ends:
                continue
            in_header, start = False, min(ends) + 1
            if start == len(block):
                continue
        if any(block.find(byte, start) >= 0 for byte in _NUMPY_ONLY_BYTES):
            return True
        if blank:
            blank = _NOT_BLANK.search(block, start) is None
        # An empty cell is a comma followed by a comma or a line break, in
        # this block or across the edge from the last one.  One numpy pass
        # over the bytes beats searching for ",," and the like, since every
        # row holds several commas.
        if last == ord(",") and block[start] in b",\n\r":
            return True
        body = np.frombuffer(block, np.uint8, offset=start)
        after_comma = body[np.flatnonzero(body[:-1] == ord(",")) + 1]
        if any((after_comma == ord(end)).any() for end in ",\n\r"):
            return True
        # From the open line's start, jump past the last line break within
        # the limit; a line, and so a field, can pass the limit only where
        # there is none.
        begin = start - line
        while len(block) - begin > limit:
            lo, reach = max(begin, start), begin + limit + 1
            brk = max(block.rfind(b"\n", lo, reach), block.rfind(b"\r", lo, reach))
            if brk < 0:
                return True
            begin = brk + 1
        brk = max(block.rfind(b"\n", start), block.rfind(b"\r", start))
        line = len(block) - (begin if brk < 0 else brk + 1)
        last = block[-1]
    return blank or last == ord(",")


def _read_body_fast(
    path: str, width: int
) -> tuple[_Frozen, np.ndarray] | None:
    """Date-sorted dates and value table of a file's body parsed in C, or None.

    None means "read it row by row": numpy raised, or its result might
    differ from the streaming reader's.  The date column is read as 11
    bytes, one more than an ISO date, so a longer cell fails the shape
    check; a character past Latin-1 makes numpy raise, and any other one
    fails that check too.  Only then does numpy's date parser see the
    cells: the check keeps out ``NaT``, ``today``, times and signed
    years, which it also takes, so a date's own text is the cell.
    """
    with open(path, "rb") as raw:
        if _loadtxt_may_differ(raw):
            return None
    row = np.dtype([("date", "S11"), ("values", np.float64, (width - 1,))])
    try:
        body = np.loadtxt(path, dtype=row, delimiter=",", comments=None,
                          skiprows=1, ndmin=1, encoding="utf-8")
    except ValueError:
        return None
    # The records' first 11 bytes are the date text, NUL-padded.
    text = body.view(np.uint8).reshape(len(body), -1)[:, :11]
    if ((text < _DATE_LO) | (text > _DATE_HI)).any():
        return None
    try:
        days = body["date"].astype("datetime64[D]")
    except ValueError:  # a month or a day out of range
        return None
    # A view of the records: the loaders copy each column out of it, so
    # no whole table of values is made while the date texts are held.
    values = body["values"]
    stamps = days.view(np.int64)
    increasing = (np.diff(stamps) > 0).all()
    if not increasing:
        # The streaming reader's order: a repeated date declines below, and
        # with none any sort agrees.
        order = np.argsort(stamps, kind="stable")
        days, values = days[order], values[order]
        stamps = days.view(np.int64)
        increasing = (np.diff(stamps) > 0).all()
    # Year 0000 has the shape and numpy takes it; Python's dates start at 1.
    if not (stamps.size and _FIRST_DAY <= days[0] and increasing
            and not np.isnan(values).any()):
        return None
    return _Frozen(days), values


def _read_table(
    path: str, header_problem: Callable[[list[str]], str | None]
) -> tuple[list[str], _Frozen, np.ndarray]:
    """Header, increasing dates and a float64 (rows, columns) table of a file.

    ``header_problem`` sees the stripped header before any row is read and
    returns what is wrong with it, if anything.  The first column holds
    ISO dates; every other cell parses alike, an empty one as NaN.  A
    one-line header lets :func:`_read_body_fast` try the body first, once
    the header's reader is closed.  Otherwise, or when it declines, the
    file is opened again and each row's numbers go straight into one flat
    float64 buffer as the row is read, so no cell text outlives its row.
    """
    # A byte that is not UTF-8 reads as a surrogate, so that the row that
    # holds it fails with its own line number; a strict decoder would fail
    # in the read-ahead, on no particular line.  A byte-order mark at the
    # start is dropped; it sits in the header line, which the fast path skips.
    with open(path, **_CSV_TEXT) as handle:
        reader = csv.reader(handle)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise CsvSchemaError(f"{path}: file is empty, header row required") from None
        header_lines = reader.line_num
    del handle, reader  # with their decoded text, before the body is parsed
    for name in header:
        _reject_undecodable(name, "the header", 1)
    problem = header_problem(header)
    if problem is not None:
        raise CsvSchemaError(f"{path}: {problem}")
    if header_lines == 1:
        fast = _read_body_fast(path, len(header))
        if fast is not None:
            return header, *fast
    names = header[1:]
    dates: list[datetime.date] = []
    lines = array.array("q")
    values = array.array("d")
    with open(path, **_CSV_TEXT) as handle:
        reader = csv.reader(handle)
        next(reader, None)  # the header, checked above
        end = reader.line_num
        try:
            for row in reader:
                # A row starts on the line after the last one read; a quoted
                # line break makes that differ from its count of rows.
                line_no, end = end + 1, reader.line_num
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != len(header):
                    raise CsvParseError(
                        f"expected {len(header)} fields, got {len(row)}", line=line_no
                    )
                try:
                    dates.append(_parse_date(row[0].strip()))
                except ValueError:
                    _reject_undecodable(row[0], "column 'date'", line_no)
                    raise CsvParseError(f"column 'date' has invalid ISO date "
                                        f"{row[0].strip()!r}", line=line_no) from None
                lines.append(line_no)
                values.extend([_parse_cell(cell, name, line_no)
                               for name, cell in zip(names, row[1:])])
        except csv.Error as exc:  # a field over the size limit; a NUL before 3.11
            raise CsvParseError(f"unreadable row: {exc}", line=reader.line_num) from None
    # A stable sort keeps repeated dates in file order, so the first of
    # two equal neighbours is the date's first occurrence.
    order = sorted(range(len(dates)), key=dates.__getitem__)
    for first, again in zip(order, order[1:]):
        if dates[first] == dates[again]:
            raise CsvValidationError(
                f"duplicate date {dates[again]} on line {lines[again]} "
                f"(first seen on line {lines[first]})",
                date=dates[again],
            )
    table = np.frombuffer(values, dtype=np.float64).reshape(len(dates), len(names))
    calendar = np.array(dates, dtype="datetime64[D]")[order]
    return header, _Frozen(calendar), table[order]


def _market_header_problem(header: list[str]) -> str | None:
    expected = list(MARKET_COLUMNS)
    if len(header) == len(MARKET_COLUMNS) + 1:
        expected.append(MARKET_PRICE_COLUMN)
    for i, name in enumerate(expected):
        if i >= len(header) or header[i] != name:
            got = header[i] if i < len(header) else "nothing"
            return f"expected column {name!r} at position {i + 1}, got {got!r}"
    if len(header) > len(expected):
        return f"unexpected extra column {header[len(expected)]!r}"
    return None


def load_market_csv(path: str) -> MarketData:
    """Read and validate a market data file; rows come back date-sorted."""
    _, dates, table = _read_table(path, _market_header_problem)
    try:
        # The file's value columns are MarketData's fields, in order.
        return MarketData(dates, *table.T)
    except InvalidDayError as exc:
        raise CsvValidationError(str(exc), date=exc.date) from None


def write_market_csv(days: MarketData, path: str) -> None:
    """Write market data in the market schema (price column if any).

    NaN, a missing price, becomes an empty cell.  The body goes out in
    blocks of ``_WRITE_ROWS`` rows, one ``write`` each, in the bytes
    ``csv.writer`` gives: an ISO date, a float's ``repr`` or an empty cell
    never needs quoting, and every row has at least two cells.
    """
    if not days:
        raise InvalidArgumentError("no days to write")
    columns = [days.invest_i, days.rate_r, days.u_big_vol, days.u_big_dep]
    header = list(MARKET_COLUMNS)
    if days.mean_price is not None:
        columns.append(days.mean_price)
        header.append(MARKET_PRICE_COLUMN)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\r\n")
        for start in range(0, len(days), _WRITE_ROWS):
            block = slice(start, start + _WRITE_ROWS)
            cells = [days.dates[block].astype(str).tolist()]  # each day's isoformat()
            # tolist() yields Python floats, whose repr is the shortest
            # round-trip form (a numpy scalar would repr as np.float64(...)).
            cells += [["" if v != v else repr(v) for v in c[block].tolist()]
                      for c in columns]
            handle.write("".join([",".join(row) + "\r\n" for row in zip(*cells)]))


def _series_header_problem(header: list[str]) -> str | None:
    if not header or header[0] != "date":
        return "first column must be 'date'"
    if len(header) < 2:
        return "no series columns after 'date'"
    if len(set(header[1:])) != len(header) - 1:
        return "duplicate series column names"
    return None


def load_series_csv(path: str) -> list[TimeSeries]:
    """Read a series file back; any date-headed numeric CSV qualifies."""
    header, dates, table = _read_table(path, _series_header_problem)
    out = []
    for name, column in zip(header[1:], table.T):
        try:
            out.append(TimeSeries(dates, column, name=name))
        except InvalidDayError as exc:
            raise CsvValidationError(f"column {name!r}: {exc}", date=exc.date) from None
    return out


def parse_config_file(path: str) -> dict[str, str]:
    """Read key=value lines; '#' starts a comment, blank lines ignored.

    Keys use the CLI's long-flag spelling (e.g. ``maxlag``,
    ``break-date``); values stay strings for the CLI layer to interpret.
    A byte-order mark at the start of the file is dropped.
    """
    out: dict[str, str] = {}
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as handle:
        for line_no, raw in enumerate(handle, start=1):
            _reject_undecodable(raw, "config line", line_no)
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CsvParseError(
                    f"config line is not key=value: {raw.strip()!r}", line=line_no
                )
            key, value = line.split("=", 1)
            key = key.strip()
            value = value.strip()
            if not key:
                raise CsvParseError("config line has empty key", line=line_no)
            if key in out:
                raise CsvParseError(f"duplicate config key {key!r}", line=line_no)
            out[key] = value
    return out
