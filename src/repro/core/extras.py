"""Related-work predictors used as ablation baselines (paper Section 6).

Neither of these appears in the paper's own evaluation; they implement two
approaches the related-work section discusses, so the benchmark harness can
position PB-PPM against them:

* :class:`FirstOrderMarkov` — the order-1 Markov predictor underlying
  Padmanabhan & Mogul's predictive prefetching (equivalent to a standard
  PPM of height 2);
* :class:`TopNPush` — Markatos & Chronaki's "Top-10" approach: the server
  always pushes its currently most popular documents, regardless of
  context.
"""

from __future__ import annotations

from typing import Sequence

from repro import params
from repro.core.base import PPMModel
from repro.core.popularity import PopularityTable
from repro.core.prediction import Prediction, PredictionCursor, clears_threshold
from repro.kernel.bulk import SessionCorpus, build_ngram_trie
from repro.kernel.symbols import SymbolTable
from repro.trace.columnar import first_seen_counts


class FirstOrderMarkov(PPMModel):
    """Order-1 Markov predictor: P(next | current) only.

    Structurally a standard PPM of branch height 2; kept as its own class
    so experiment reports name it distinctly.
    """

    name = "markov1"

    def _build(self, corpus: SessionCorpus) -> None:
        self._store = build_ngram_trie(
            corpus.sequences, max_height=2, weights=corpus.weights
        )


class TopNPush(PPMModel):
    """Markatos & Chronaki's Top-N push: always predict the N most popular.

    The "tree" degenerates to the top-N list; predictions ignore context
    entirely.  Probability is each URL's relative popularity, so the usual
    0.25 threshold would suppress almost everything — callers should pass
    ``threshold=0.0`` (the push is unconditional in the original scheme).
    """

    name = "topn"

    def __init__(self, *, n: int = 10) -> None:
        super().__init__()
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.n = n
        self._push_set: list[tuple[str, float]] = []

    def _build(self, corpus: SessionCorpus) -> None:
        table = PopularityTable(
            first_seen_counts(corpus.ids, corpus.symbols.urls())
        )
        self._push_set = [
            (url, table.relative_popularity(url)) for url in table.top(self.n)
        ]
        # Store the push set as height-1 branches so node_count, usage
        # marking and the shared statistics helpers keep working; the
        # symbol table holds the push set alone.
        self._symbols = SymbolTable()
        for url, _ in self._push_set:
            self.insert_path((url,), weight=table.count(url))

    def predict(
        self,
        context: Sequence[str],
        *,
        threshold: float = params.PREDICTION_PROBABILITY_THRESHOLD,
        mark_used: bool = True,
        escape: bool = False,
    ) -> list[Prediction]:
        self._require_fitted()
        predictions = [
            Prediction(url=url, probability=rp, order=0, source="top_n")
            for url, rp in self._push_set
            if clears_threshold(rp, threshold)
            and (not context or url != context[-1])
        ]
        if mark_used:
            self.mark_used_paths([(prediction.url,) for prediction in predictions])
        predictions.sort(key=lambda p: (-p.probability, p.url))
        return predictions

    def predict_cursor(
        self,
        cursor: PredictionCursor,
        *,
        threshold: float = params.PREDICTION_PROBABILITY_THRESHOLD,
        mark_used: bool = True,
        escape: bool = False,
    ) -> list[Prediction]:
        """:meth:`predict` on the cursor's last click, all the push needs."""
        self._require_fitted()
        if cursor.model is not self:
            raise ValueError("cursor belongs to a different model")
        last_url = cursor.last_url
        return self.predict(
            () if last_url is None else (last_url,),
            threshold=threshold,
            mark_used=mark_used,
        )
