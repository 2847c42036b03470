"""The compact model kernel: interned URL ids and array-backed tries.

The paper's selling point is high accuracy at *low storage*, yet a naive
reproduction spends most of its build time and memory on Python string
keys and one ``dict``-of-children object per trie node.  This package is
the storage/latency substrate every model builds on:

* :mod:`repro.kernel.symbols` — :class:`SymbolTable` interns every URL
  into a dense integer id once, so the hot trie loops hash machine
  integers instead of URL strings;
* :mod:`repro.kernel.compact` — :class:`CompactTrie` stores a whole
  prediction forest in parallel integer arrays (counts / parents /
  first-child / next-sibling) plus one packed ``(parent, symbol) -> child``
  int map, with lossless conversion to and from the
  :class:`~repro.core.node.TrieNode` export type;
* :mod:`repro.kernel.bulk` — vectorised level-by-level trie
  construction: the PPM builds are n-gram counting, so the whole forest
  is discovered with ``np.unique`` over packed (parent, symbol) keys and
  loaded into the arrays in bulk;
* :mod:`repro.kernel.prune` — the paper's two space-optimisation passes,
  fused into one vectorised rebuild of the array store;
* :mod:`repro.kernel.predict_table` — the compiled prediction table:
  per-node candidate rows and PB-PPM's per-root special rows, cut at any
  threshold, with the lazily memoised suffix links, transitions and
  per-node cuts of the one-node prediction step.

Equivalence guarantee: every model predicts, serialises and renders
**identically** to the literal Fig. 1 node-forest builders of
``tests/oracle.py``; ``tests/kernel/`` and ``tests/differential/`` pin
this contract model by model.
"""

from repro.kernel.bulk import build_branch_trie, build_ngram_trie, dedup_sequences
from repro.kernel.compact import CompactTrie
from repro.kernel.prune import prune_dense
from repro.kernel.symbols import SymbolTable

__all__ = [
    "CompactTrie",
    "SymbolTable",
    "build_branch_trie",
    "build_ngram_trie",
    "dedup_sequences",
    "prune_dense",
]
