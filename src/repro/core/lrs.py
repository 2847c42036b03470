"""The LRS-PPM baseline: longest repeating subsequences (Section 3.2).

After Pitkow & Pirolli (USENIX '99), the model keeps only subsequences that
*repeat* — occur at least twice across the training sessions — and, among
those, the *longest* ones (a repeating subsequence no extension of which
still repeats).  Because the model must answer longest-*suffix* matches, a
kept pattern is stored together with all of its suffixes, each "cut and
paste into multiple sub-branches starting from different URLs" — the node
duplication the paper identifies as the reason LRS space grows with the
number of training days.

Implementation: the trie of every subsequence occurring at least
``min_repeats`` times.  Occurrence counts only fall under extension, so
this is the n-gram count trie of the corpus with a count filter, built in
bulk by :func:`repro.kernel.bulk.build_ngram_trie`.  Because every start
position of every session is counted, the trie already contains every
suffix of every LRS as a root path — it *is* the prediction tree, and its
root-to-leaf paths are the LRS patterns.
"""

from __future__ import annotations

from repro import params
from repro.core.base import PPMModel
from repro.kernel.bulk import SessionCorpus, build_ngram_trie
from repro.kernel.compact import CompactTrie
from repro.kernel.symbols import intern_paths


def _frequent_subsequence_store(
    corpus: SessionCorpus, *, min_repeats: int, max_length: int | None
) -> CompactTrie:
    """The trie of subsequences occurring at least ``min_repeats`` times."""
    return build_ngram_trie(
        corpus.sequences,
        max_height=max_length,
        min_count=min_repeats,
        weights=corpus.weights,
    )


def mine_longest_repeating_subsequences(
    sequences: list[tuple[str, ...]],
    *,
    min_repeats: int = params.LRS_MIN_REPEATS,
    max_length: int | None = None,
) -> list[tuple[str, ...]]:
    """Return the LRS patterns of a sequence corpus.

    A pattern is returned when it repeats (``>= min_repeats`` occurrences)
    and no single-URL extension of it still repeats — i.e. it is a
    root-to-leaf path of the frequent-subsequence trie.
    """
    corpus = SessionCorpus.from_url_ids(*intern_paths(sequences))
    store = _frequent_subsequence_store(
        corpus, min_repeats=min_repeats, max_length=max_length
    )
    return store.leaf_paths(corpus.symbols)


class LRSPPM(PPMModel):
    """Longest-repeating-subsequence PPM prediction tree.

    Parameters
    ----------
    min_repeats:
        Occurrence threshold for a subsequence to be kept (paper: 2).
    max_length:
        Optional cap on pattern length; ``None`` reproduces the paper's
        configuration (patterns bounded only by session length).
    """

    name = "lrs"

    def __init__(
        self,
        *,
        min_repeats: int = params.LRS_MIN_REPEATS,
        max_length: int | None = None,
    ) -> None:
        super().__init__()
        if min_repeats < 2:
            raise ValueError(f"min_repeats must be >= 2, got {min_repeats}")
        self.min_repeats = min_repeats
        self.max_length = max_length

    def _build(self, corpus: SessionCorpus) -> None:
        self._store = _frequent_subsequence_store(
            corpus, min_repeats=self.min_repeats, max_length=self.max_length
        )

    def patterns(self) -> list[tuple[str, ...]]:
        """The fitted model's LRS patterns (root-to-leaf paths)."""
        self._require_fitted()
        return self._store.leaf_paths(self._symbols)
