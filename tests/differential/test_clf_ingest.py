"""Differential testing: batched CLF ingest against the per-line parser.

:func:`~repro.trace.clf_parser.read_clf_columns` parses a Common Log
Format file a chunk at a time straight into columns; the reference is the
lazy record API interned record by record,
``TraceColumns.from_records(iter_clf_file(path))``.  The contract is
byte identity of the framed columns (string tables in first-seen order
included) and equal :class:`~repro.trace.clf_parser.ParseStats`, for any
chunk size; in strict mode both raise the same
:class:`~repro.errors.ParseError` (line and reason) with the same
counters.

The corpus is seeded files that mix canonical lines with every shape the
grammar treats specially: missing and extra-spaced zones, out-of-range
dates and times, bad months, lowercase methods, HTTP/0.9 requests, query
strings, ``-`` and out-of-range sizes, exotic whitespace, blank and
garbage lines, and ``\\r\\n`` / lone ``\\r`` endings with and without a
final newline.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import ParseError
from repro.trace import clf_parser
from repro.trace.clf_parser import (
    ParseStats,
    iter_clf_file,
    parse_clf_lines,
    read_clf_columns,
)
from repro.trace.columnar import TraceColumns

SEED = 20261017
FILES = 48
#: Chunk hints in characters: 1 reads one line per chunk.
HINTS = (1, 97, 4096, clf_parser._CHUNK_HINT)

MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
          "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")

#: Whitespace the file reader does not split lines on but ``str.strip``
#: and the grammar's ``\\s`` both treat as blank.
ODD_SPACES = ("\t", "\x0c", "\xa0", "\x0b", "\x1f", "\x85")


def _time_field(rng: random.Random) -> str:
    day, month = rng.randint(1, 28), rng.choice(MONTHS)
    year = rng.choice((1970, 1995, 1995, 1995, 2001, 2038))
    hour, minute, second = rng.randint(0, 23), rng.randint(0, 59), rng.randint(0, 59)
    zone = f"{rng.choice('+-')}{rng.randint(0, 12):02d}{rng.choice(('00', '30'))}"
    roll = rng.random()
    if roll < 0.75:
        return f"{day:02d}/{month}/{year:04d}:{hour:02d}:{minute:02d}:{second:02d} {zone}"
    variants = (
        # missing or extra-spaced zone
        lambda: f"{day:02d}/{month}/{year}:{hour:02d}:{minute:02d}:{second:02d}",
        lambda: f"{day:02d}/{month}/{year}:{hour:02d}:{minute:02d}:{second:02d}   {zone}",
        lambda: f"{day:02d}/{month}/{year}:{hour:02d}:{minute:02d}:{second:02d}\t{zone}",
        lambda: f" {day:02d}/{month}/{year}:{hour:02d}:{minute:02d}:{second:02d} {zone} ",
        # out-of-range day, hour, minute, second and year
        lambda: f"{rng.choice(('00', '32', '99'))}/{month}/{year}:00:00:00 {zone}",
        lambda: f"{day:02d}/{month}/{year}:24:00:00 {zone}",
        lambda: f"{day:02d}/{month}/{year}:{hour:02d}:60:00 {zone}",
        lambda: f"{day:02d}/{month}/{year}:{hour:02d}:{minute:02d}:60 {zone}",
        lambda: f"{day:02d}/{month}/{year}:{hour:02d}:{minute:02d}:61 {zone}",
        lambda: f"{day:02d}/{month}/0000:{hour:02d}:{minute:02d}:{second:02d} {zone}",
        # 31 February and friends roll over, as calendar.timegm does
        lambda: f"31/Feb/{year}:{hour:02d}:{minute:02d}:{second:02d} {zone}",
        # before the Unix epoch, by zone or by date
        lambda: f"01/Jan/1970:00:00:{second:02d} +0{rng.randint(1, 9)}00",
        lambda: f"{day:02d}/Dec/1969:{hour:02d}:{minute:02d}:{second:02d} {zone}",
        # bad months and garbled fields
        lambda: f"{day:02d}/{rng.choice(('Foo', 'jul', 'JUL', 'Ju1'))}/{year}:00:00:00 {zone}",
        lambda: f"{day:02d}-{month}-{year}:00:00:00 {zone}",
        lambda: f"{day:02d}/{month}/{year}:{hour:02d}:{minute:02d}:{second:02d} {zone[0]}12",
        lambda: f"{day:02d}/{month}/{year}:{hour:02d}:{minute:02d}:{second:02d} {rng.choice('*,')}0000",
        lambda: f"{day:02d}/{month}/{year}:{hour:02d}:{minute:02d}:{second:02d} +0000\x00",
        lambda: "bad time",
    )
    return rng.choice(variants)()


def _request(rng: random.Random, urls: list[str]) -> str:
    url = rng.choice(urls)
    roll = rng.random()
    if roll < 0.7:
        return f"GET {url} HTTP/1.0"
    return rng.choice((
        f"{rng.choice(('get', 'Post', 'HEAD', 'put'))} {url} HTTP/1.0",
        url,  # HTTP/0.9: bare URL, implicit GET
        f"GET {url}?q={rng.randint(0, 9)}&x=y HTTP/1.0",
        f"GET {url}",
        f"GET  {url}\tHTTP/1.1",
        "",
        "   ",
    ))


def _size(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.85:
        return str(rng.randint(0, 80_000))
    return rng.choice((
        "-",
        "0",
        "9223372036854775807",  # the largest int64
        "9223372036854775808",
        "99999999999999999999",
        "0000000000000000000000042",  # long, but fits
        "7" * 5000,  # beyond Python's int-parsing digit limit
    ))


def _line(rng: random.Random, hosts: list[str], urls: list[str]) -> str:
    roll = rng.random()
    if roll < 0.04:
        return rng.choice(("", "   ", "\t", "\xa0"))
    if roll < 0.07:
        return rng.choice((
            "complete garbage",
            "host - - [01/Jul/1995:00:00:00 +0000]",
            'h - - [01/Jul/1995:00:00:00 +0000] "GET /x HTTP/1.0" abc 5',
            'h - - [01/Jul/1995:00:00:00 +0000] "GET /x HTTP/1.0" 200 5 extra',
            "\x00\x01binary",
        ))
    space = rng.choice(ODD_SPACES) if rng.random() < 0.1 else " "
    line = space.join((
        rng.choice(hosts), "-", "-",
        f"[{_time_field(rng)}]",
        f'"{_request(rng, urls)}"',
        str(rng.choice((200, 200, 200, 304, 404, 500))),
        _size(rng),
    ))
    if rng.random() < 0.05:
        line = rng.choice(ODD_SPACES) + line + rng.choice(ODD_SPACES)
    return line


def _parses(line: str) -> bool:
    try:
        list(parse_clf_lines([line], strict=True))
    except ParseError:
        return False
    return True


def _write_corpus_file(path, seed: int) -> None:
    rng = random.Random(seed)
    hosts = [f"host{i}.example.com" for i in range(rng.randint(3, 30))]
    hosts += ["caf\xe9.example.fr", "192.168.0.1"]
    urls = [f"/d{i % 5}/page{i}.html" for i in range(rng.randint(5, 60))]
    urls += ["/img/logo.gif", "/", "/\xfcber.html"]
    lines = [_line(rng, hosts, urls) for _ in range(rng.randint(0, 600))]
    if rng.random() < 0.3:
        # A clean file: strict mode reads it to the end.
        lines = [line for line in lines if _parses(line)]
    ending = rng.choice(("\n", "\r\n", "\r", "mixed"))
    parts = []
    for line in lines:
        parts.append(line)
        parts.append(rng.choice(("\n", "\r\n", "\r")) if ending == "mixed" else ending)
    if parts and rng.random() < 0.5:
        parts.pop()  # no final newline
    path.write_bytes("".join(parts).encode("latin-1"))


def _reference(path, *, strict: bool = False):
    """(framed columns, stats) or (ParseError, stats) of the per-line path."""
    stats = ParseStats()
    try:
        columns = TraceColumns.from_records(
            iter_clf_file(str(path), strict=strict, stats=stats), parse_stats=stats
        )
    except ParseError as exc:
        return exc, stats
    return columns.to_bytes(), stats


def _batched(path, *, strict: bool = False):
    stats = ParseStats()
    try:
        columns = read_clf_columns(str(path), strict=strict, stats=stats)
    except ParseError as exc:
        return exc, stats
    assert columns.parse_stats is stats
    return columns.to_bytes(), stats


def _assert_same(got, want, name: str) -> None:
    """Equal outcomes: equal bytes, or a ParseError on the same line for
    the same reason, with equal counters."""
    (got, got_stats), (want, want_stats) = got, want
    assert got_stats == want_stats, name
    if isinstance(want, ParseError):
        assert isinstance(got, ParseError), name
        assert (got.line, got.reason) == (want.line, want.reason), name
    else:
        assert got == want, name


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> list:
    """``(path, plain reference, strict reference)`` per corpus file."""
    root = tmp_path_factory.mktemp("clf-corpus")
    files = []
    for index in range(FILES):
        path = root / f"access-{index:02d}.log"
        _write_corpus_file(path, SEED + index)
        files.append((path, _reference(path), _reference(path, strict=True)))
    return files


def test_corpus_exercises_every_outcome(corpus):
    totals = ParseStats()
    for _path, (_, stats), _strict in corpus:
        for field in ("total_lines", "parsed", "blank", "malformed"):
            setattr(totals, field, getattr(totals, field) + getattr(stats, field))
    strict_errors = sum(isinstance(strict[0], ParseError) for *_, strict in corpus)
    assert totals.parsed > 5_000
    assert totals.malformed > 500
    assert totals.blank > 100
    assert 0 < strict_errors < len(corpus)


@pytest.mark.parametrize("hint", HINTS)
def test_columns_and_stats_match_the_per_line_parser(corpus, monkeypatch, hint):
    monkeypatch.setattr(clf_parser, "_CHUNK_HINT", hint)
    for path, plain, _strict in corpus:
        _assert_same(_batched(path), plain, path.name)


@pytest.mark.parametrize("hint", HINTS)
def test_strict_mode_raises_the_same_error(corpus, monkeypatch, hint):
    monkeypatch.setattr(clf_parser, "_CHUNK_HINT", hint)
    for path, _plain, strict in corpus:
        _assert_same(_batched(path, strict=True), strict, path.name)


def test_first_malformed_line_deep_in_a_later_chunk(tmp_path, monkeypatch):
    monkeypatch.setattr(clf_parser, "_CHUNK_HINT", 1024)
    good = 'h{0} - - [01/Jul/1995:00:00:{1:02d} -0400] "GET /p{0}.html HTTP/1.0" 200 {0}'
    lines = [good.format(i % 7, i % 60) for i in range(400)]
    lines[150] = ""
    lines[333] = lines[333].replace("-0400", "-04")  # malformed time field
    path = tmp_path / "deep.log"
    path.write_text("\n".join(lines) + "\n", encoding="latin-1")
    got = _batched(path, strict=True)
    _assert_same(got, _reference(path, strict=True), path.name)
    assert got[1] == ParseStats(total_lines=334, parsed=332, blank=1, malformed=1)


def test_empty_file(tmp_path):
    path = tmp_path / "empty.log"
    path.write_bytes(b"")
    got = _batched(path)
    _assert_same(got, _reference(path), path.name)
    assert got[1] == ParseStats()
