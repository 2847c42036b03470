"""Property-based tests on the CLF parser (hypothesis)."""

import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.clf_parser import (
    format_clf_line,
    parse_clf_line,
    read_clf_columns,
    write_clf_file,
)
from repro.trace.record import LogRecord

hostnames = st.from_regex(r"[a-z][a-z0-9.-]{0,20}[a-z0-9]", fullmatch=True)
paths = st.from_regex(r"/[A-Za-z0-9_/.-]{0,40}", fullmatch=True)

records = st.builds(
    LogRecord,
    client=hostnames,
    # Integral seconds, like real logs, up to the last four-digit year.
    timestamp=st.integers(min_value=0, max_value=253_402_300_799).map(float),
    url=paths,
    size=st.integers(min_value=0, max_value=2**63 - 1),
    status=st.integers(min_value=100, max_value=599),
    method=st.sampled_from(["GET", "POST", "HEAD"]),
)


@given(records)
@settings(max_examples=200, deadline=None)
def test_format_parse_round_trip(record):
    parsed = parse_clf_line(format_clf_line(record))
    assert parsed.client == record.client
    assert parsed.timestamp == record.timestamp
    assert parsed.url == record.url
    assert parsed.size == record.size
    assert parsed.status == record.status
    assert parsed.method == record.method


@given(records)
@settings(max_examples=100, deadline=None)
def test_formatted_line_is_single_line(record):
    line = format_clf_line(record)
    assert "\n" not in line
    assert line.count('"') == 2


@given(st.lists(records, min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_batched_reader_reads_back_what_parse_clf_line_reads(batch):
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "access.log")
        with open(path, "w", encoding="latin-1") as handle:
            write_clf_file(batch, handle)
        columns = read_clf_columns(path)
    assert list(columns.iter_records()) == [
        parse_clf_line(format_clf_line(record)) for record in batch
    ]
