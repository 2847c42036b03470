"""The standard PPM baseline (paper Section 3.2, Figure 1 left).

The standard model *"widely create[s] branches from the historical URL
files"*: for every position of every training session it inserts the
subsequence starting there, truncated to a fixed height.  For the access
sequence ``A B C`` and height 3 this yields exactly Figure 1 left::

    A/1 ── B/1 ── C/1
    B/1 ── C/1
    C/1

With ``max_height=None`` branches grow to the end of each session, which is
the unlimited-height configuration the paper uses in Section 4 to give the
standard model its accuracy upper bound (at enormous space cost — the point
of Tables 1 and 2).
"""

from __future__ import annotations

from typing import Iterable

from repro import params
from repro.core.base import PPMModel
from repro.kernel.bulk import SessionCorpus, build_ngram_trie
from repro.trace.columnar import session_url_ids
from repro.trace.sessions import Session


class StandardPPM(PPMModel):
    """Fixed- or unlimited-height standard PPM prediction tree.

    Parameters
    ----------
    max_height:
        Maximum nodes per branch.  ``None`` (the paper's Section-4
        configuration) lets branches run to the session end;
        ``3`` gives the "3-PPM" used for the Section 3.3 observations.
    """

    name = "standard"

    def __init__(self, max_height: int | None = None) -> None:
        super().__init__()
        if max_height is not None and max_height < 1:
            raise ValueError(f"max_height must be >= 1, got {max_height}")
        self.max_height = max_height

    def _build(self, corpus: SessionCorpus) -> None:
        # The standard tree is exactly the n-gram count trie of the corpus
        # (one window per start position, capped at max_height) — built in
        # bulk by the vectorised kernel over deduplicated sessions.
        self._store = build_ngram_trie(
            corpus.sequences, max_height=self.max_height, weights=corpus.weights
        )

    def fold_sessions(self, sessions: Iterable[Session]) -> None:
        """Fold new sessions in — the standard tree is strictly additive.

        Reads the sessions' columns (:func:`session_url_ids`), so a
        session view folds without building objects.
        """
        ids, lengths, table = session_url_ids(sessions)
        ids = self._symbols.intern_ids(ids, table).tolist()
        insert = self._store.insert_suffix
        max_height = self.max_height
        end = 0
        for length in lengths.tolist():
            first, end = end, end + length
            if max_height is None:
                for start in range(first, end):
                    insert(ids, start, end)
            else:
                for start in range(first, end):
                    stop = start + max_height
                    insert(ids, start, end if stop > end else stop)
        self._mutations += 1

    @classmethod
    def order_3(cls) -> "StandardPPM":
        """The fixed-height "3-PPM" of the paper's Section 3.3."""
        return cls(max_height=params.STANDARD_FIXED_HEIGHT)
