"""Relative popularity and the paper's log10 grade ladder (Section 3.1).

For a URL *u* the **relative popularity** is::

    RP(u) = accesses(u) / accesses(most popular URL)

and the **popularity grade** ranks RP on a log10 ladder:

=====  =====================
grade  relative popularity
=====  =====================
3      RP >= 0.1
2      0.01  <= RP < 0.1
1      0.001 <= RP < 0.01
0      RP < 0.001
=====  =====================

The server computes the table from *historical* accesses only (the training
days); URLs never seen in training have relative popularity 0 and grade 0.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro import params
from repro.trace.columnar import (
    first_seen_counts,
    request_url_ids,
    session_url_ids,
)
from repro.trace.record import Request
from repro.trace.sessions import Session


def grade_of_relative_popularity(
    rp: float,
    *,
    boundaries: Sequence[float] = params.GRADE_BOUNDARIES,
) -> int:
    """Map a relative popularity in [0, 1] to a grade.

    ``boundaries`` must be strictly decreasing; the default is the paper's
    (0.1, 0.01, 0.001) ladder, giving grades ``len(boundaries)`` (most
    popular) down to 0.
    """
    if not 0.0 <= rp <= 1.0:
        raise ValueError(f"relative popularity out of [0, 1]: {rp}")
    for offset, boundary in enumerate(boundaries):
        if rp >= boundary:
            return len(boundaries) - offset
    return 0


class PopularityTable:
    """Access counts, relative popularities and grades for a URL universe.

    Parameters
    ----------
    counts:
        Access count per URL, typically
        :attr:`repro.trace.dataset.TrainTestSplit.train_url_counts`.
    boundaries:
        Grade boundaries, strictly decreasing (paper default).
    """

    def __init__(
        self,
        counts: Mapping[str, int],
        *,
        boundaries: Sequence[float] = params.GRADE_BOUNDARIES,
    ) -> None:
        if any(c < 0 for c in counts.values()):
            raise ValueError("negative access count")
        if list(boundaries) != sorted(boundaries, reverse=True) or len(
            set(boundaries)
        ) != len(tuple(boundaries)):
            raise ValueError(f"boundaries must be strictly decreasing: {boundaries}")
        self._counts: dict[str, int] = dict(counts)
        self._boundaries = tuple(boundaries)
        self._max_count = max(self._counts.values(), default=0)
        self._grades: dict[str, int] = {
            url: grade_of_relative_popularity(
                (count / self._max_count) if self._max_count else 0.0,
                boundaries=self._boundaries,
            )
            for url, count in self._counts.items()
        }

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_requests(cls, requests: Iterable[Request], **kwargs) -> "PopularityTable":
        """Build a table by counting page-view accesses.

        Counts come from the views' URL ids (see
        :func:`~repro.trace.columnar.request_url_ids`), in first-seen
        order.
        """
        return cls(first_seen_counts(*request_url_ids(requests)), **kwargs)

    @classmethod
    def from_sessions(cls, sessions: Iterable[Session], **kwargs) -> "PopularityTable":
        """Build a table by counting accesses across session URL sequences.

        Counts come from the sessions' URL ids (see
        :func:`~repro.trace.columnar.session_url_ids`), in first-seen
        order.
        """
        ids, _lengths, table = session_url_ids(sessions)
        return cls(first_seen_counts(ids, table), **kwargs)

    # -- queries ---------------------------------------------------------------

    @property
    def max_grade(self) -> int:
        """The top grade on this table's ladder (3 with paper defaults)."""
        return len(self._boundaries)

    @property
    def most_popular_count(self) -> int:
        """Access count of the most popular URL (0 for an empty table)."""
        return self._max_count

    def count(self, url: str) -> int:
        """Historical access count of a URL (0 if never seen)."""
        return self._counts.get(url, 0)

    def relative_popularity(self, url: str) -> float:
        """RP(url) in [0, 1]; 0 for URLs never seen in training."""
        if self._max_count == 0:
            return 0.0
        return self._counts.get(url, 0) / self._max_count

    def grade(self, url: str) -> int:
        """Popularity grade of a URL; unseen URLs grade 0."""
        return self._grades.get(url, 0)

    def urls_of_grade(self, grade: int) -> frozenset[str]:
        """All URLs carrying the given grade."""
        return frozenset(u for u, g in self._grades.items() if g == grade)

    def grade_histogram(self) -> dict[int, int]:
        """Number of URLs per grade, for every grade 0..max_grade."""
        histogram = {g: 0 for g in range(self.max_grade + 1)}
        for grade in self._grades.values():
            histogram[grade] += 1
        return histogram

    def ranked_urls(self) -> list[str]:
        """URLs from most to least popular (count desc, then name)."""
        return sorted(self._counts, key=lambda u: (-self._counts[u], u))

    def top(self, n: int) -> list[str]:
        """The ``n`` most popular URLs (Markatos' Top-N push set)."""
        return self.ranked_urls()[:n]

    def is_popular(self, url: str, *, min_grade: int = 2) -> bool:
        """Convenience predicate: grade at or above ``min_grade``.

        The paper's Figure 2 counts "popular documents" among prefetched
        files; grades 2-3 (top two decades of relative popularity) is the
        reading we adopt for that population.
        """
        return self.grade(url) >= min_grade

    def __contains__(self, url: str) -> bool:
        return url in self._counts

    def __len__(self) -> int:
        return len(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"PopularityTable(urls={len(self)}, "
            f"max_count={self._max_count}, histogram={self.grade_histogram()})"
        )
