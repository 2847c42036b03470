"""Access-log substrate: records, parsing, embedding folding, sessions.

This package implements everything the paper's Section 2 ("Evaluation
Methodology") needs from the raw server logs:

* :mod:`repro.trace.record` — the :class:`LogRecord` and :class:`Request`
  value types that every other subsystem consumes;
* :mod:`repro.trace.filetypes` — the HTML / embedded-image content
  classification lists the paper enumerates;
* :mod:`repro.trace.clf_parser` — a Common Log Format parser able to read
  the real NASA-KSC and UCB-CS logs if a user supplies them;
* :mod:`repro.trace.embedding` — folding of embedded image fetches into
  their parent HTML request;
* :mod:`repro.trace.sessions` — 30-minute-idle sessionisation;
* :mod:`repro.trace.dataset` — the :class:`Trace` container with per-day
  splits and the train-on-days-1..d / test-on-day-d+1 protocol.
"""

from repro.trace.record import EmbeddedObject, LogRecord, Request
from repro.trace.filetypes import (
    EMBEDDED_IMAGE_EXTENSIONS,
    HTML_EXTENSIONS,
    classify_url,
    is_embedded_image,
    is_html,
)
from repro.trace.clf_parser import (
    ParseStats,
    format_clf_line,
    iter_clf_file,
    parse_clf_file,
    parse_clf_line,
    parse_clf_lines,
    read_clf_columns,
)
from repro.trace.embedding import fold_embedded_objects
from repro.trace.sessions import Session, sessionize
from repro.trace.dataset import Trace, TrainTestSplit
from repro.trace.columnar import (
    COLUMNAR_SUFFIX,
    ColumnarWriter,
    RequestBatch,
    TraceColumns,
    convert_clf_to_columnar,
    convert_columnar_to_clf,
)
from repro.trace.filters import (
    apply_filters,
    by_clients,
    by_method,
    by_status,
    by_time_window,
    exclude_bots,
    exclude_url_prefixes,
    successful,
)

__all__ = [
    "EmbeddedObject",
    "LogRecord",
    "Request",
    "EMBEDDED_IMAGE_EXTENSIONS",
    "HTML_EXTENSIONS",
    "classify_url",
    "is_embedded_image",
    "is_html",
    "ParseStats",
    "format_clf_line",
    "iter_clf_file",
    "parse_clf_file",
    "parse_clf_line",
    "parse_clf_lines",
    "read_clf_columns",
    "fold_embedded_objects",
    "Session",
    "sessionize",
    "Trace",
    "TrainTestSplit",
    "COLUMNAR_SUFFIX",
    "ColumnarWriter",
    "RequestBatch",
    "TraceColumns",
    "convert_clf_to_columnar",
    "convert_columnar_to_clf",
    "apply_filters",
    "by_clients",
    "by_method",
    "by_status",
    "by_time_window",
    "exclude_bots",
    "exclude_url_prefixes",
    "successful",
]
