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

from repro.core.base import PPMModel
from repro.core.popularity import PopularityTable
from repro.core.prediction import clears_threshold
from repro.kernel.bulk import SessionCorpus, build_ngram_trie
from repro.kernel.predict_table import NO_NODE, NodeCut
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

    def node_predictor(self, *, escape: bool = False):
        """The push set, cut at the threshold, minus the current click.

        The store holds the push set as roots, so a context's longest
        match is the current click's root when that click is in the set
        (and is then left out of the push), and -1 otherwise.
        """
        del escape
        return self._compiled_table().predictor("top_n", self._push_cut)

    def _push_cut(self, node: int, threshold: float) -> NodeCut:
        store = self._store
        symbol_of = self._symbols.get
        current = store.syms[node] if node != NO_NODE else None
        entries = sorted(
            (-rp, url, symbol_of(url), rp)
            for url, rp in self._push_set
            if clears_threshold(rp, threshold) and symbol_of(url) != current
        )
        count = len(entries)
        return NodeCut(
            threshold,
            tuple(entry[2] for entry in entries),
            tuple(entry[3] for entry in entries),
            (0,) * count,
            ("top_n",) * count,
            nodes=tuple(store.roots[entry[2]] for entry in entries),
        )
