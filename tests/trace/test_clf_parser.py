"""Unit tests for the Common Log Format parser."""

import io

import pytest

from repro.errors import ParseError
from repro.trace import clf_parser
from repro.trace.clf_parser import (
    ParseStats,
    format_clf_line,
    iter_clf_file,
    parse_clf_file,
    parse_clf_line,
    parse_clf_lines,
    write_clf_file,
)
from repro.trace.columnar import convert_clf_to_columnar
from repro.trace.dataset import Trace
from repro.trace.record import LogRecord

NASA_LINE = (
    'ppp-mia-30.shadow.net - - [01/Jul/1995:00:00:27 -0400] '
    '"GET /ksc.html HTTP/1.0" 200 7074'
)


class TestParseClfLine:
    def test_nasa_style_line(self):
        record = parse_clf_line(NASA_LINE)
        assert record.client == "ppp-mia-30.shadow.net"
        assert record.url == "/ksc.html"
        assert record.status == 200
        assert record.size == 7074
        assert record.method == "GET"

    def test_timezone_applied(self):
        east = parse_clf_line(
            'h - - [01/Jul/1995:00:00:00 -0400] "GET / HTTP/1.0" 200 1'
        )
        utc = parse_clf_line(
            'h - - [01/Jul/1995:04:00:00 +0000] "GET / HTTP/1.0" 200 1'
        )
        assert east.timestamp == utc.timestamp

    def test_dash_size_means_zero(self):
        record = parse_clf_line(
            'h - - [01/Jul/1995:00:00:00 +0000] "GET /x HTTP/1.0" 304 -'
        )
        assert record.size == 0
        assert record.status == 304

    def test_query_string_stripped(self):
        record = parse_clf_line(
            'h - - [01/Jul/1995:00:00:00 +0000] "GET /cgi?q=1 HTTP/1.0" 200 5'
        )
        assert record.url == "/cgi"

    def test_http09_request_without_version(self):
        record = parse_clf_line(
            'h - - [01/Jul/1995:00:00:00 +0000] "/old.html" 200 5'
        )
        assert record.method == "GET"
        assert record.url == "/old.html"

    def test_lowercase_method_normalised(self):
        record = parse_clf_line(
            'h - - [01/Jul/1995:00:00:00 +0000] "get /x HTTP/1.0" 200 5'
        )
        assert record.method == "GET"

    @pytest.mark.parametrize(
        "line",
        [
            "",
            "complete garbage",
            'h - - [bad time] "GET /x HTTP/1.0" 200 5',
            'h - - [01/Xxx/1995:00:00:00 +0000] "GET /x HTTP/1.0" 200 5',
            'h - - [01/Jul/1995:00:00:00 +0000] "" 200 5',
            'h - - [01/Jul/1995:00:00:00 +0000] "GET /x HTTP/1.0" abc 5',
        ],
    )
    def test_malformed_lines_raise(self, line):
        with pytest.raises(ParseError):
            parse_clf_line(line)

    def test_parse_error_carries_line(self):
        try:
            parse_clf_line("garbage line")
        except ParseError as exc:
            assert exc.line == "garbage line"
        else:  # pragma: no cover
            pytest.fail("expected ParseError")


#: Lines whose fields match the grammar but fall outside what a trace
#: holds: a time before 1970-01-01T00:00:00Z, a size beyond int64.
OUT_OF_RANGE = {
    "pre-epoch": 'h - - [01/Jan/1970:00:00:00 +0100] "GET /x HTTP/1.0" 200 5',
    "oversize": 'h - - [01/Jul/1995:00:00:00 +0000] "GET /x HTTP/1.0" 200 99999999999999999999',
}


@pytest.mark.parametrize("line", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE.keys())
class TestOutOfRangeFields:
    """Out-of-range fields are malformed lines, never an aborted ingest."""

    def _log(self, tmp_path, line):
        path = tmp_path / "access.log"
        path.write_text(f"{NASA_LINE}\n{line}\n{NASA_LINE}\n", encoding="latin-1")
        return str(path)

    def test_parse_clf_line_raises_parse_error(self, line):
        with pytest.raises(ParseError) as info:
            parse_clf_line(line)
        assert info.value.line == line

    def test_parse_clf_lines_skips_and_counts(self, line):
        stats = ParseStats()
        records = list(parse_clf_lines([NASA_LINE, line, NASA_LINE], stats=stats))
        assert len(records) == 2
        assert (stats.parsed, stats.malformed) == (2, 1)

    def test_parse_clf_lines_strict_raises(self, line):
        with pytest.raises(ParseError) as info:
            list(parse_clf_lines([NASA_LINE, line], strict=True))
        assert info.value.line == line

    def test_read_clf_columns_skips_and_counts(self, line, tmp_path):
        stats = ParseStats()
        columns = clf_parser.read_clf_columns(self._log(tmp_path, line), stats=stats)
        assert len(columns) == 2
        assert (stats.parsed, stats.malformed) == (2, 1)

    def test_read_clf_columns_strict_raises(self, line, tmp_path):
        stats = ParseStats()
        with pytest.raises(ParseError) as info:
            clf_parser.read_clf_columns(
                self._log(tmp_path, line), strict=True, stats=stats
            )
        assert info.value.line == line
        assert stats == ParseStats(total_lines=2, parsed=1, blank=0, malformed=1)

    def test_trace_and_convert_skip_the_line(self, line, tmp_path):
        log = self._log(tmp_path, line)
        assert Trace.from_clf_file(log).parse_stats.malformed == 1
        stats = convert_clf_to_columnar(log, str(tmp_path / "access.rpt"))
        assert (stats.parsed, stats.malformed) == (2, 1)


class TestParseClfLines:
    def test_skips_malformed_by_default(self):
        lines = [NASA_LINE, "garbage", "", NASA_LINE]
        records = list(parse_clf_lines(lines))
        assert len(records) == 2

    def test_strict_raises(self):
        with pytest.raises(ParseError):
            list(parse_clf_lines([NASA_LINE, "garbage"], strict=True))

    def test_blank_lines_skipped_even_strict(self):
        records = list(parse_clf_lines([NASA_LINE, "  ", ""], strict=True))
        assert len(records) == 1

    def test_is_lazy(self):
        def lines():
            yield NASA_LINE
            pytest.fail("second line pulled before first record consumed")

        iterator = parse_clf_lines(lines())
        assert next(iterator).url == "/ksc.html"


class TestParseStats:
    def test_counters(self):
        stats = ParseStats()
        lines = [NASA_LINE, "garbage", "", "  ", NASA_LINE, "more garbage"]
        records = list(parse_clf_lines(lines, stats=stats))
        assert len(records) == 2
        assert stats.total_lines == 6
        assert stats.parsed == 2
        assert stats.blank == 2
        assert stats.malformed == 2
        assert stats.malformed_fraction == pytest.approx(0.5)

    def test_strict_still_counts_the_failure(self):
        stats = ParseStats()
        with pytest.raises(ParseError):
            list(parse_clf_lines([NASA_LINE, "garbage"], strict=True, stats=stats))
        assert stats.parsed == 1
        assert stats.malformed == 1

    def test_empty_stream_fraction_is_zero(self):
        assert ParseStats().malformed_fraction == 0.0


class TestFileHelpers:
    def _write_log(self, tmp_path):
        path = tmp_path / "access.log"
        path.write_text(
            NASA_LINE + "\n" + "garbage\n" + "\n" + NASA_LINE + "\n",
            encoding="latin-1",
        )
        return str(path)

    def test_iter_clf_file_streams_and_counts(self, tmp_path):
        stats = ParseStats()
        records = list(iter_clf_file(self._write_log(tmp_path), stats=stats))
        assert len(records) == 2
        assert stats.malformed == 1
        assert stats.blank == 1

    def test_parse_clf_file_matches_iter(self, tmp_path):
        path = self._write_log(tmp_path)
        assert parse_clf_file(path) == list(iter_clf_file(path))


class TestRoundTrip:
    def test_format_then_parse_preserves_fields(self):
        original = LogRecord(
            client="host.example.com",
            timestamp=804556800.0,  # integral seconds, like real logs
            url="/a/b.html",
            size=4321,
            status=200,
            method="GET",
        )
        parsed = parse_clf_line(format_clf_line(original))
        assert parsed.client == original.client
        assert parsed.timestamp == original.timestamp
        assert parsed.url == original.url
        assert parsed.size == original.size
        assert parsed.status == original.status

    def test_write_clf_file_counts_lines(self):
        records = [
            LogRecord(client="h", timestamp=float(t), url="/x", size=1)
            for t in range(5)
        ]
        buffer = io.StringIO()
        assert write_clf_file(records, buffer) == 5
        assert len(buffer.getvalue().splitlines()) == 5

    def test_written_lines_reparse(self):
        records = [
            LogRecord(client="h", timestamp=1000.0, url="/x", size=1),
            LogRecord(client="i", timestamp=2000.0, url="/y", size=2, status=304),
        ]
        buffer = io.StringIO()
        write_clf_file(records, buffer)
        reparsed = list(parse_clf_lines(buffer.getvalue().splitlines(), strict=True))
        assert [(r.client, r.url, r.size) for r in reparsed] == [
            ("h", "/x", 1),
            ("i", "/y", 2),
        ]
