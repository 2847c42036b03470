"""Common Log Format parsing and formatting.

The NASA-KSC and UCB-CS traces the paper evaluates on are plain Common Log
Format (CLF)::

    host - - [01/Jul/1995:00:00:01 -0400] "GET /history/apollo/ HTTP/1.0" 200 6245

This module parses that format two ways over one grammar:

* :func:`parse_clf_line` / :func:`iter_clf_file` yield one
  :class:`~repro.trace.record.LogRecord` per line — the lazy record API;
* :func:`read_clf_columns` parses a whole file in chunks straight into a
  :class:`~repro.trace.columnar.TraceColumns`, building no record objects —
  the ingest path of :meth:`~repro.trace.dataset.Trace.from_clf_file` and
  ``repro convert``.  Its columns, string tables, :class:`ParseStats` and
  strict-mode errors are exactly those of
  ``TraceColumns.from_records(iter_clf_file(path))``.

It can also write records back out, which the synthetic generator uses so
a generated trace is byte-compatible with tools expecting real logs.
Malformed lines — the 1995 NASA log famously contains some — are skipped or
raised depending on ``strict``.
"""

from __future__ import annotations

import calendar
import re
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from repro.errors import ParseError
from repro.trace.columnar import TraceColumns, _ColumnAccumulator
from repro.trace.record import LogRecord


@dataclass
class ParseStats:
    """Counters accumulated while parsing a CLF stream.

    Pass an instance as ``stats=`` to :func:`parse_clf_lines`,
    :func:`iter_clf_file`, :func:`parse_clf_file` or
    :func:`read_clf_columns`; the counters fill in as the stream is
    consumed (so with the lazy iterators they are only final once
    iteration completes).
    """

    total_lines: int = 0
    parsed: int = 0
    blank: int = 0
    malformed: int = 0

    @property
    def malformed_fraction(self) -> float:
        """Malformed lines as a share of non-blank lines."""
        considered = self.total_lines - self.blank
        return self.malformed / considered if considered else 0.0

_CLF_RE = re.compile(
    r"""
    ^(?P<host>\S+)\s+
    \S+\s+  # ident
    \S+\s+  # user
    \[(?P<time>[^\]]+)\]\s+
    "(?P<request>[^"]*)"\s+
    (?P<status>\d{3})\s+
    (?P<size>\d+|-)
    \s*$
    """,
    re.VERBOSE,
)

_MONTHS = {
    "Jan": 1, "Feb": 2, "Mar": 3, "Apr": 4, "May": 5, "Jun": 6,
    "Jul": 7, "Aug": 8, "Sep": 9, "Oct": 10, "Nov": 11, "Dec": 12,
}
_MONTH_NAMES = {v: k for k, v in _MONTHS.items()}

_TIME_RE = re.compile(
    r"^(?P<day>\d{2})/(?P<mon>[A-Z][a-z]{2})/(?P<year>\d{4})"
    r":(?P<h>\d{2}):(?P<m>\d{2}):(?P<s>\d{2})\s*(?P<tz>[+-]\d{4})?$"
)


def _parse_clf_time(text: str) -> float:
    """Convert a CLF timestamp to epoch seconds (UTC)."""
    match = _TIME_RE.match(text.strip())
    if match is None:
        raise ValueError(f"bad CLF time: {text!r}")
    month = _MONTHS.get(match.group("mon"))
    if month is None:
        raise ValueError(f"bad CLF month: {text!r}")
    day = int(match.group("day"))
    if not 1 <= day <= 31:
        raise ValueError(f"bad CLF day of month: {text!r}")
    hour, minute, second = (
        int(match.group("h")),
        int(match.group("m")),
        int(match.group("s")),
    )
    if hour > 23 or minute > 59 or second > 60:  # 60 allows leap seconds
        raise ValueError(f"bad CLF time of day: {text!r}")
    epoch = calendar.timegm(
        (
            int(match.group("year")),
            month,
            int(match.group("day")),
            int(match.group("h")),
            int(match.group("m")),
            int(match.group("s")),
            0,
            0,
            0,
        )
    )
    tz = match.group("tz")
    if tz:
        offset = int(tz[1:3]) * 3600 + int(tz[3:5]) * 60
        if tz[0] == "+":
            epoch -= offset
        else:
            epoch += offset
    if epoch < 0:
        raise ValueError(f"CLF time before 1970-01-01T00:00:00Z: {text!r}")
    return float(epoch)


def _format_clf_time(timestamp: float) -> str:
    """Render epoch seconds as a CLF timestamp in UTC."""
    import time as _time

    tm = _time.gmtime(timestamp)
    return (
        f"{tm.tm_mday:02d}/{_MONTH_NAMES[tm.tm_mon]}/{tm.tm_year:04d}"
        f":{tm.tm_hour:02d}:{tm.tm_min:02d}:{tm.tm_sec:02d} +0000"
    )


def _split_request(request: str) -> tuple[str, str]:
    """Split the quoted request field into (method, url).

    Tolerates the HTTP-version field being absent (HTTP/0.9 requests in the
    NASA log) and strips query strings from the URL, as the paper's models
    key on document paths.
    """
    parts = request.split()
    if not parts:
        raise ValueError("empty request field")
    if len(parts) == 1:
        # Bare URL, implicit GET (HTTP/0.9 style).
        return "GET", parts[0].split("?", 1)[0]
    method = parts[0].upper()
    url = parts[1].split("?", 1)[0]
    return method, url


#: Largest response size a trace column holds (``int64``).
_MAX_SIZE = 2**63 - 1


def _parse_size(field: str) -> int:
    """The size field as bytes: ``-`` means 0; it must fit ``int64``."""
    size = 0 if field == "-" else int(field)
    if size > _MAX_SIZE:
        raise ValueError(f"response size does not fit in 64 bits: {field}")
    return size


def parse_clf_line(line: str) -> LogRecord:
    """Parse one CLF line into a :class:`LogRecord`.

    Raises
    ------
    ParseError
        If the line does not match the Common Log Format, or a field is
        out of range: a bad date or time of day, a time before the Unix
        epoch, an empty request or a size beyond ``int64``.
    """
    match = _CLF_RE.match(line)
    if match is None:
        raise ParseError(line, "does not match CLF grammar")
    host, time_field, request, status, size_field = match.groups()
    try:
        timestamp = _parse_clf_time(time_field)
        method, url = _split_request(request)
        size = _parse_size(size_field)
    except ValueError as exc:
        raise ParseError(line, str(exc)) from exc
    return LogRecord(
        client=host,
        timestamp=timestamp,
        url=url,
        size=size,
        status=int(status),
        method=method,
    )


def parse_clf_lines(
    lines: Iterable[str], *, strict: bool = False, stats: ParseStats | None = None
) -> Iterator[LogRecord]:
    """Parse many CLF lines lazily, skipping blanks.

    Parameters
    ----------
    lines:
        Any iterable of text lines (a file object works).  Lines are
        consumed one at a time; no intermediate list is built.
    strict:
        When true, malformed lines raise :class:`ParseError`; when false
        (the default, matching how the paper's traces must be handled) they
        are skipped and counted.
    stats:
        Optional :class:`ParseStats` whose counters are incremented as the
        stream is consumed.
    """
    if stats is None:
        stats = ParseStats()
    for line in lines:
        stats.total_lines += 1
        stripped = line.strip()
        if not stripped:
            stats.blank += 1
            continue
        try:
            record = parse_clf_line(stripped)
        except ParseError:
            stats.malformed += 1
            if strict:
                raise
            continue
        stats.parsed += 1
        yield record


def iter_clf_file(
    path: str, *, strict: bool = False, stats: ParseStats | None = None
) -> Iterator[LogRecord]:
    """Stream records from a CLF log file on disk.

    The file is read line by line and closed when the generator is
    exhausted or discarded; nothing is buffered, so arbitrarily large logs
    parse in constant memory.
    """
    with open(path, "r", encoding="latin-1") as handle:
        yield from parse_clf_lines(handle, strict=strict, stats=stats)


def parse_clf_file(
    path: str, *, strict: bool = False, stats: ParseStats | None = None
) -> list[LogRecord]:
    """Parse a CLF log file from disk into a record list.

    Convenience wrapper over :func:`iter_clf_file` for callers that want
    the whole log in memory anyway.
    """
    return list(iter_clf_file(path, strict=strict, stats=stats))


# ---------------------------------------------------------------------------
# Batched ingest: CLF file -> TraceColumns
# ---------------------------------------------------------------------------

#: ``readlines`` size hint (characters) of one chunk of the batched reader.
#: The chunk's temporary strings leave the allocator holding memory after
#: they are freed, so bigger chunks raise peak RSS.  Building a Trace from
#: a 126k-line NASA-style log, the peak at this hint is within ~0.5 MB of
#: the per-line parser's (49.1-49.7 MB against 49.0-49.3 MB, above it in
#: most runs); 64 KB chunks add ~0.5 MB more and 256 KB chunks ~3 MB.
#: About 375 lines a chunk still amortise numpy's per-call cost: 64 KB
#: chunks parse only ~9% faster.
_CHUNK_HINT = 32 * 1024

#: ``DD/Mon/YYYY:HH:MM:SS ±ZZZZ`` — the time field every CLF writer emits.
_CANONICAL_TIME = "01/Jul/1995:00:00:00 -0400"
_DIGIT_AT = np.array(
    [i for i, char in enumerate(_CANONICAL_TIME) if char.isdigit()]
)
_SEPARATOR_AT = np.array([2, 6, 11, 14, 17, 20])
_SEPARATORS = np.frombuffer(b"//::: ", dtype=np.uint8)
#: Month names as 24-bit big-endian integers, January first.
_MONTH_KEYS = np.array(
    [int.from_bytes(name.encode("ascii"), "big") for name in _MONTHS]
)


def _days_from_civil(
    year: np.ndarray, month: np.ndarray, day: np.ndarray
) -> np.ndarray:
    """Days from 1970-01-01 to a proleptic Gregorian date, for ``year >= 1``.

    The vectorised twin of ``calendar.timegm``'s day count, linear in
    ``day`` like it (31 February is 3 March).
    """
    year = year - (month <= 2)
    era = year // 400
    year_of_era = year - era * 400
    day_of_year = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    day_of_era = (
        year_of_era * 365 + year_of_era // 4 - year_of_era // 100 + day_of_year
    )
    return era * 146_097 + day_of_era - 719_468


def _clf_timestamps(fields: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Epoch seconds of CLF time fields and a mask of the valid ones.

    Canonical ``DD/Mon/YYYY:HH:MM:SS ±ZZZZ`` fields convert in one numpy
    pass with :func:`_parse_clf_time`'s range checks.  Every other field,
    and every canonical one a check rejects, goes through
    :func:`_parse_clf_time` itself, so the accepted language is exactly
    the per-line parser's.
    """
    count = len(fields)
    width = len(_CANONICAL_TIME)
    lengths = np.fromiter(map(len, fields), dtype=np.int64, count=count)
    starts = np.cumsum(lengths) - lengths
    rows = np.flatnonzero(lengths == width)
    # Latin-1 text encodes one byte per character, so offsets carry over.
    text = np.frombuffer("".join(fields).encode("latin-1"), dtype=np.uint8)
    chars = text[starts[rows, None] + np.arange(width)]
    digits = chars - np.uint8(ord("0"))  # non-digits wrap above 9
    valid = (digits[:, _DIGIT_AT] <= 9).all(axis=1)
    valid &= (chars[:, _SEPARATOR_AT] == _SEPARATORS).all(axis=1)
    valid &= (chars[:, 21] == ord("+")) | (chars[:, 21] == ord("-"))
    month_key = (
        chars[:, 3].astype(np.int64) << 16
        | chars[:, 4].astype(np.int64) << 8
        | chars[:, 5]
    )
    is_month = month_key[:, None] == _MONTH_KEYS
    valid &= is_month.any(axis=1)
    month = is_month.argmax(axis=1) + 1

    digits = digits.astype(np.int64)

    def number(*columns: int) -> np.ndarray:
        value = np.zeros(len(rows), dtype=np.int64)
        for column in columns:
            value = value * 10 + digits[:, column]
        return value

    day, year = number(0, 1), number(7, 8, 9, 10)
    hour, minute, second = number(12, 13), number(15, 16), number(18, 19)
    zone = number(22, 23) * 3600 + number(24, 25) * 60
    # year 0 is out of calendar.timegm's range; 60 s allows leap seconds.
    valid &= (day >= 1) & (day <= 31) & (year >= 1)
    valid &= (hour <= 23) & (minute <= 59) & (second <= 60)
    epoch = _days_from_civil(year, month, day) * 86_400
    epoch += hour * 3600 + minute * 60 + second
    epoch += np.where(chars[:, 21] == ord("-"), zone, -zone)
    valid &= epoch >= 0

    stamps = np.zeros(count, dtype=np.float64)
    ok = np.zeros(count, dtype=bool)
    stamps[rows[valid]] = epoch[valid]
    ok[rows[valid]] = True
    for row in np.flatnonzero(~ok).tolist():
        try:
            stamps[row] = _parse_clf_time(fields[row])
        except ValueError:
            continue
        ok[row] = True
    return stamps, ok


def _split_or_none(request: str) -> tuple[str, str] | None:
    try:
        return _split_request(request)
    except ValueError:
        return None


def _size_or_none(field: str) -> int | None:
    try:
        return _parse_size(field)
    except ValueError:
        return None


class _ClfColumnReader:
    """Chunk-at-a-time state of :func:`read_clf_columns`."""

    def __init__(self, strict: bool, stats: ParseStats) -> None:
        self.strict = strict
        self.stats = stats
        self.acc = _ColumnAccumulator()

    def add(self, stripped: list[str]) -> None:
        """Parse one chunk of stripped lines into the columns."""
        matches = filter(None, map(_CLF_RE.match, stripped))
        fields = list(zip(*map(re.Match.groups, matches)))
        hosts, times, requests, statuses, sizes = fields or ((),) * 5
        # The per-line checks in parse_clf_line's order: time, request, size.
        stamps, ok = _clf_timestamps(times)
        splits = {request: _split_or_none(request) for request in dict.fromkeys(requests)}
        if None in splits.values():
            ok &= np.array([splits[request] is not None for request in requests])
        size_values = list(map(_size_or_none, sizes))
        if None in size_values:
            ok &= np.array([size is not None for size in size_values])
            size_values = [size or 0 for size in size_values]

        stats = self.stats
        blank = stripped.count("")
        parsed = int(ok.sum())
        malformed = len(stripped) - blank - parsed
        if malformed and self.strict:
            self._raise_first_malformed(stripped, ok)
        stats.total_lines += len(stripped)
        stats.blank += blank
        stats.parsed += parsed
        stats.malformed += malformed
        if not parsed:
            return

        statuses = np.fromiter(map(int, statuses), dtype=np.int32, count=len(statuses))
        sizes = np.array(size_values, dtype=np.int64)
        if parsed < len(ok):
            keep = ok.tolist()
            hosts = list(compress(hosts, keep))
            requests = list(compress(requests, keep))
            stamps, statuses, sizes = stamps[ok], statuses[ok], sizes[ok]
        # Unseen strings get the next id in first-seen order, as
        # from_records interns them.  URLs and methods intern request by
        # request, in the order the requests first appear, which is the
        # order their URLs and methods first appear.
        acc = self.acc
        unique_hosts = list(dict.fromkeys(hosts))
        client_of = dict(zip(unique_hosts, acc.client_symbols.intern_sequence(unique_hosts)))
        unique_requests = list(dict.fromkeys(requests))
        methods, urls = zip(*map(splits.__getitem__, unique_requests))
        method_of = dict(zip(unique_requests, acc.method_symbols.intern_sequence(methods)))
        url_of = dict(zip(unique_requests, acc.url_symbols.intern_sequence(urls)))
        acc.extend_columns(
            timestamps=stamps,
            clients=list(map(client_of.__getitem__, hosts)),
            urls=list(map(url_of.__getitem__, requests)),
            sizes=sizes,
            statuses=statuses,
            methods=list(map(method_of.__getitem__, requests)),
        )

    def _raise_first_malformed(self, stripped: list[str], ok: np.ndarray) -> None:
        """Count up to the chunk's first malformed line, then raise its
        :class:`ParseError` — the one :func:`parse_clf_lines` raises."""
        row = 0
        for index, line in enumerate(stripped):
            if not line:
                continue
            if _CLF_RE.match(line) is not None:
                row += 1
                if ok[row - 1]:
                    continue
            blank = stripped[:index].count("")
            self.stats.total_lines += index + 1
            self.stats.blank += blank
            self.stats.parsed += index - blank
            self.stats.malformed += 1
            parse_clf_line(line)  # raises the per-line parser's ParseError
            raise AssertionError(f"parse_clf_line accepts a rejected line: {line!r}")


def read_clf_columns(
    path: str, *, strict: bool = False, stats: ParseStats | None = None
) -> TraceColumns:
    """Parse a CLF log file straight into columns, building no records.

    The batched twin of ``TraceColumns.from_records(iter_clf_file(path,
    stats=stats), parse_stats=stats)``: the same columns, string tables
    (first-seen order), :class:`ParseStats` and, with ``strict``, the same
    :class:`ParseError` for the first malformed line, raised with the
    counters where the per-line parser leaves them.  The file is read in
    chunks of about 32 KB; per line only ``strip`` and the grammar
    regex run, while timestamps, requests, sizes and interning go a chunk
    at a time.  The counters land in ``stats`` (a fresh
    :class:`ParseStats` when omitted), which the columns carry as
    ``parse_stats``.
    """
    if stats is None:
        stats = ParseStats()
    reader = _ClfColumnReader(strict, stats)
    with open(path, "r", encoding="latin-1") as handle:
        while stripped := list(map(str.strip, handle.readlines(_CHUNK_HINT))):
            reader.add(stripped)
    columns = reader.acc.to_columns(parse_stats=stats)
    # A log has no latencies.  One NaN broadcast instead of an 8-byte
    # column keeps 1 MB per 126k lines off the ingest peak.
    columns.latencies = np.broadcast_to(np.nan, len(columns))
    return columns


def format_clf_line(record: LogRecord) -> str:
    """Render a record as one CLF line (inverse of :func:`parse_clf_line`)."""
    return (
        f"{record.client} - - [{_format_clf_time(record.timestamp)}] "
        f'"{record.method} {record.url} HTTP/1.0" {record.status} {record.size}'
    )


def write_clf_file(records: Iterable[LogRecord], handle: TextIO) -> int:
    """Write records in CLF to an open text handle; returns the line count."""
    count = 0
    for record in records:
        handle.write(format_clf_line(record))
        handle.write("\n")
        count += 1
    return count
