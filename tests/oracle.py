"""The paper-literal reference every differential suite compares against.

The library keeps one implementation per layer: models build straight
into the array-backed :class:`~repro.kernel.compact.CompactTrie` (in bulk,
through :mod:`repro.kernel.bulk`), prune it with :mod:`repro.kernel.prune`
and predict by cutting the rows of one compiled table.  This module
keeps the other side of every equivalence claim, written as literally as
the paper states it, over one :class:`~repro.core.node.TrieNode` object
per URL:

* the Fig. 1 builders — standard PPM (left; Markov-1 is its height-2
  case), the Apriori level build of LRS-PPM and PB-PPM's four
  construction rules (right);
* the two space-optimisation passes of Section 3.4;
* longest-match prediction (Section 4.1) and PB-PPM's merged multi-level
  prediction plus special links;
* the predict-table compile with one Python ``sorted`` per context row,
  filtered at a threshold, and the Figure 2 path count as a stack walk
  from every root, both over the compact store — the references for the
  vectorised :func:`~repro.kernel.predict_table.compile_predict_table`
  (and its row cuts) and :meth:`~repro.kernel.compact.CompactTrie.path_stats`;
* :func:`predict_pb_store_walk`, PB-PPM's per-request walk over the
  compact store, the reference arm of ``benchmarks/bench_predict.py``;
* :class:`ReferenceSimulator`, trace-driven replay in both topologies
  keyed by URL strings, with one ``predict_cursor`` call and one list of
  ``Prediction`` objects per click — the reference for
  :class:`~repro.sim.engine.PrefetchSimulator`'s replay over one
  integer key space per run;
* :class:`ReferenceTrace`, the trace derivations of
  :class:`~repro.trace.dataset.Trace` (filter, sort, embedded-object fold,
  sessionisation, day split, per-URL and per-client tables) computed one
  record at a time through the public reference functions
  :func:`~repro.trace.record.sort_records`,
  :func:`~repro.trace.embedding.fold_embedded_objects` and
  :func:`~repro.trace.sessions.sessionize`, plus :func:`fraction_split`,
  the workload grid's time-quantile split as tuple filters.

:class:`OracleModel` packages a forest and its predictor behind the slice
of the model interface the suites call, so ``OracleModel(model,
sessions)`` is the reference twin of any configured model.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro import params
from repro.core.extras import FirstOrderMarkov
from repro.core.lrs import LRSPPM
from repro.core.node import TrieNode
from repro.core.pb import PopularityBasedPPM
from repro.core.popularity import PopularityTable
from repro.core.prediction import Prediction, PredictionCursor, clears_threshold
from repro.core.standard import StandardPPM
from repro.core.stats import node_count, path_utilization, reset_usage
from repro.errors import TraceError, WorkloadError
from repro.sim.engine import PrefetchSimulator, replay_rows
from repro.sim.events import EventKind, SimulationEvent
from repro.sim.metrics import SimulationResult
from repro.sim.replacement import make_cache
from repro.kernel.compact import CompactTrie
from repro.kernel.predict_table import PredictTable, _as_int64
from repro.kernel.symbols import SymbolTable
from repro.trace.columnar import TraceColumns
from repro.trace.dataset import SECONDS_PER_DAY, TrainTestSplit
from repro.trace.embedding import fold_embedded_objects
from repro.trace.record import LogRecord, Request, sort_records
from repro.trace.sessions import Session, sessionize

Forest = dict[str, TrieNode]


def _sort_key(prediction: Prediction) -> tuple[float, str]:
    return (-prediction.probability, prediction.url)


# ---------------------------------------------------------------------------
# Fig. 1 builders
# ---------------------------------------------------------------------------


def insert_path(roots: Forest, urls: Sequence[str], weight: int = 1) -> None:
    """Insert a URL path from the root level, bumping counts by weight."""
    if not urls:
        return
    root = roots.get(urls[0])
    if root is None:
        root = TrieNode(urls[0])
        roots[urls[0]] = root
    root.count += weight
    node = root
    for url in urls[1:]:
        node = node.ensure_child(url)
        node.count += weight


def standard_forest(sessions, max_height: int | None = None) -> Forest:
    """Fig. 1 left: a branch from every position, capped at ``max_height``."""
    roots: Forest = {}
    for session in sessions:
        urls = session.urls
        for start in range(len(urls)):
            stop = len(urls) if max_height is None else start + max_height
            insert_path(roots, urls[start:stop])
    return roots


def _prune_level(roots: Forest, level: int, min_repeats: int) -> bool:
    """Drop infrequent children of every depth-``level`` node.

    Returns True when at least one depth-``level+1`` node survives.
    """
    survivors = False

    def visit(node: TrieNode, depth: int) -> None:
        nonlocal survivors
        if depth == level:
            for url in list(node.children):
                if node.children[url].count < min_repeats:
                    del node.children[url]
            if node.children:
                survivors = True
        else:
            for child in node.children.values():
                visit(child, depth + 1)

    for root in roots.values():
        visit(root, 1)
    return survivors


def lrs_forest(
    sequences: Sequence[Sequence[str]],
    *,
    min_repeats: int = params.LRS_MIN_REPEATS,
    max_length: int | None = None,
) -> Forest:
    """The Apriori level build of the frequent-subsequence trie.

    Level 1 counts single URLs; level *k+1* counts the one-URL extensions
    of frequent depth-*k* paths only.  Nodes that fail the repeat
    threshold at their level are pruned before the next pass.
    """
    roots: Forest = {}
    for seq in sequences:
        for url in seq:
            node = roots.get(url)
            if node is None:
                node = TrieNode(url)
                roots[url] = node
            node.count += 1
    roots = {u: n for u, n in roots.items() if n.count >= min_repeats}

    level = 1
    while roots and (max_length is None or level < max_length):
        extended = False
        for seq in sequences:
            for start in range(len(seq) - level):
                node = roots.get(seq[start])
                if node is None:
                    continue
                for offset in range(1, level):
                    node = node.child(seq[start + offset])
                    if node is None:
                        break
                if node is None:
                    continue
                child = node.ensure_child(seq[start + level])
                child.count += 1
                extended = True
        if not extended:
            break
        if not _prune_level(roots, level, min_repeats):
            break
        level += 1
    return roots


def pb_root_positions(popularity: PopularityTable, urls: Sequence[str]) -> list[int]:
    """Rule 4: positions opening a new root (start, or grade rises)."""
    grade = popularity.grade
    return [
        i
        for i in range(len(urls))
        if i == 0 or grade(urls[i]) > grade(urls[i - 1])
    ]


def pb_insert_branch(
    roots: Forest,
    urls: Sequence[str],
    popularity: PopularityTable,
    grade_heights: Sequence[int],
    absolute_max_height: int,
) -> None:
    """Insert one branch and wire its special links (rules 1-3)."""
    head = urls[0]
    height = min(grade_heights[popularity.grade(head)], absolute_max_height)
    path = urls[:height]
    root = roots.get(head)
    if root is None:
        root = TrieNode(head)
        roots[head] = root
    root.count += 1
    node = root
    head_grade = popularity.grade(head)
    for depth, url in enumerate(path[1:], start=2):
        node = node.ensure_child(url)
        node.count += 1
        if depth >= 3:  # not immediately following the head (rule 3)
            grade = popularity.grade(url)
            if grade > head_grade or grade == popularity.max_grade:
                if node not in root.special_links:
                    root.special_links.append(node)


def pb_forest(
    sessions,
    popularity: PopularityTable,
    *,
    grade_heights: Sequence[int] = params.GRADE_HEIGHTS,
    absolute_max_height: int = params.ABSOLUTE_MAX_HEIGHT,
    prune_relative_probability: float | None = params.PRUNE_RELATIVE_PROBABILITY,
    prune_absolute_count: int | None = None,
) -> Forest:
    """Fig. 1 right: PB-PPM's four rules, then the space optimisations."""
    roots: Forest = {}
    for session in sessions:
        urls = session.urls
        for position in pb_root_positions(popularity, urls):
            pb_insert_branch(
                roots, urls[position:], popularity, grade_heights, absolute_max_height
            )
    if prune_relative_probability is not None:
        prune_by_relative_probability(roots, cutoff=prune_relative_probability)
    if prune_absolute_count is not None:
        prune_by_absolute_count(roots, max_count=prune_absolute_count)
    return roots


def forest_for(model, sessions) -> Forest:
    """The literal forest a (possibly unfitted) model's configuration builds."""
    sessions = list(sessions)
    if isinstance(model, PopularityBasedPPM):
        return pb_forest(
            sessions,
            model.popularity,
            grade_heights=model.grade_heights,
            absolute_max_height=model.absolute_max_height,
            prune_relative_probability=model.prune_relative_probability,
            prune_absolute_count=model.prune_absolute_count,
        )
    if isinstance(model, LRSPPM):
        return lrs_forest(
            [session.urls for session in sessions],
            min_repeats=model.min_repeats,
            max_length=model.max_length,
        )
    if isinstance(model, FirstOrderMarkov):
        return standard_forest(sessions, max_height=2)
    if isinstance(model, StandardPPM):
        return standard_forest(sessions, model.max_height)
    raise TypeError(f"no reference builder for {type(model).__name__}")


# ---------------------------------------------------------------------------
# Section 3.4 space optimisations
# ---------------------------------------------------------------------------


def _collect_ids(node: TrieNode, into: set[int]) -> None:
    for descendant in node.walk():
        into.add(id(descendant))


def _drop_dangling_special_links(roots: Forest, removed_ids: set[int]) -> None:
    if not removed_ids:
        return
    for root in roots.values():
        if root.special_links:
            root.special_links = [
                node for node in root.special_links if id(node) not in removed_ids
            ]


def prune_by_relative_probability(
    roots: Forest, *, cutoff: float = params.PRUNE_RELATIVE_PROBABILITY
) -> int:
    """Remove non-root nodes with relative access probability below ``cutoff``.

    Returns the number of nodes removed (subtrees count in full).  Roots
    have no parent and are never touched by this pass.
    """
    if not 0.0 <= cutoff <= 1.0:
        raise ValueError(f"cutoff must be within [0, 1]: {cutoff}")
    removed_ids: set[int] = set()

    def visit(node: TrieNode) -> None:
        for url in list(node.children):
            child = node.children[url]
            probability = child.count / node.count if node.count else 0.0
            if probability < cutoff:
                _collect_ids(child, removed_ids)
                del node.children[url]
            else:
                visit(child)

    for root in roots.values():
        visit(root)
    _drop_dangling_special_links(roots, removed_ids)
    return len(removed_ids)


def prune_by_absolute_count(
    roots: Forest, *, max_count: int = params.PRUNE_ABSOLUTE_COUNT
) -> int:
    """Remove every node accessed at most ``max_count`` times.

    A root failing the test is removed with its whole branch set; interior
    failures drop their subtree.
    """
    if max_count < 0:
        raise ValueError(f"max_count must be >= 0: {max_count}")
    removed_ids: set[int] = set()

    def visit(node: TrieNode) -> None:
        for url in list(node.children):
            child = node.children[url]
            if child.count <= max_count:
                _collect_ids(child, removed_ids)
                del node.children[url]
            else:
                visit(child)

    for url in list(roots):
        root = roots[url]
        if root.count <= max_count:
            _collect_ids(root, removed_ids)
            del roots[url]
        else:
            visit(root)
    _drop_dangling_special_links(roots, removed_ids)
    return len(removed_ids)


# ---------------------------------------------------------------------------
# Section 4.1 longest-match prediction
# ---------------------------------------------------------------------------


def iter_suffix_matches(
    roots: Mapping[str, TrieNode], context: Sequence[str]
) -> list[tuple[TrieNode, int, list[TrieNode]]]:
    """All full-suffix matches of ``context`` in the tree, longest first.

    Each element is ``(matched_node, suffix_length, nodes_on_match_path)``.
    """
    matches: list[tuple[TrieNode, int, list[TrieNode]]] = []
    for start in range(len(context)):
        suffix = context[start:]
        node = roots.get(suffix[0])
        if node is None:
            continue
        path = [node]
        matched = True
        for url in suffix[1:]:
            nxt = node.child(url)
            if nxt is None:
                matched = False
                break
            node = nxt
            path.append(node)
        if matched:
            matches.append((node, len(suffix), path))
    return matches


def match_longest_suffix(
    roots: Mapping[str, TrieNode], context: Sequence[str]
) -> tuple[TrieNode | None, int, list[TrieNode]]:
    """The deepest node reachable by a suffix of ``context`` (None if none)."""
    matches = iter_suffix_matches(roots, context)
    if not matches:
        return None, 0, []
    return matches[0]


def predict_from_matches(
    matches: Sequence[tuple[TrieNode, int, list[TrieNode]]],
    *,
    threshold: float = params.PREDICTION_PROBABILITY_THRESHOLD,
    mark_used: bool = True,
    escape: bool = False,
) -> list[Prediction]:
    """The longest match's qualifying children (escape: next shorter)."""
    for node, order, path in matches:
        if node.count == 0:
            if escape:
                continue
            return []
        predictions: list[Prediction] = []
        marked: list[TrieNode] = []
        for url in node.children:
            child = node.children[url]
            probability = child.count / node.count
            if clears_threshold(probability, threshold):
                predictions.append(
                    Prediction(url=url, probability=probability, order=order)
                )
                marked.append(child)
        if not predictions and escape:
            continue
        if mark_used and predictions:
            for visited in path:
                visited.used = True
            for child in marked:
                child.used = True
        predictions.sort(key=_sort_key)
        return predictions
    return []


def predict_from_context(
    roots: Mapping[str, TrieNode],
    context: Sequence[str],
    *,
    threshold: float = params.PREDICTION_PROBABILITY_THRESHOLD,
    mark_used: bool = True,
    escape: bool = False,
) -> list[Prediction]:
    """Longest-match prediction shared by the standard, LRS and Markov models."""
    if not context:
        return []
    return predict_from_matches(
        iter_suffix_matches(roots, context),
        threshold=threshold,
        mark_used=mark_used,
        escape=escape,
    )


def predict_pb(
    roots: Mapping[str, TrieNode],
    context: Sequence[str],
    *,
    threshold: float = params.PREDICTION_PROBABILITY_THRESHOLD,
    special_link_threshold: float = params.SPECIAL_LINK_THRESHOLD,
    mark_used: bool = True,
) -> list[Prediction]:
    """PB-PPM: every matching level merged, plus the root's special links."""
    if not context:
        return []
    predictions: dict[str, Prediction] = {}
    for node, order, path in iter_suffix_matches(roots, context):
        if node.count == 0:
            continue
        for url in sorted(node.children):
            child = node.children[url]
            probability = child.count / node.count
            if clears_threshold(probability, threshold) and url not in predictions:
                predictions[url] = Prediction(
                    url=url, probability=probability, order=order
                )
                if mark_used:
                    for visited in path:
                        visited.used = True
                    child.used = True
    root = roots.get(context[-1])
    if root is not None and root.count > 0 and root.special_links:
        aggregated: dict[str, int] = {}
        for linked in root.special_links:
            aggregated[linked.url] = aggregated.get(linked.url, 0) + linked.count
        fired: set[str] = set()
        for url in sorted(aggregated):
            probability = min(1.0, aggregated[url] / root.count)
            if (
                clears_threshold(probability, special_link_threshold)
                and url not in predictions
            ):
                predictions[url] = Prediction(
                    url=url, probability=probability, order=0, source="special_link"
                )
                fired.add(url)
        if mark_used and fired:
            root.used = True
            for linked in root.special_links:
                if linked.url in fired:
                    linked.used = True
    return sorted(predictions.values(), key=_sort_key)


# ---------------------------------------------------------------------------
# The reference table compile and path walk over the compact store
# ---------------------------------------------------------------------------


def compile_predict_table(
    store: CompactTrie,
    symbols: SymbolTable,
    *,
    threshold: float = params.PREDICTION_PROBABILITY_THRESHOLD,
    special_threshold: float = params.SPECIAL_LINK_THRESHOLD,
) -> PredictTable:
    """The compile with one Python ``sorted`` per context row.

    Each row holds the children (special entries) that clear
    ``threshold`` (``special_threshold``), ordered by
    ``(-probability, url_of(sym))``.  Compiled at 0.0 and 0.0 it keeps
    every entry, and the production compile's lexsort must reproduce its
    arrays value for value and dtype for dtype; compiled at ``t`` and
    ``t``, each row is what the production row cut at ``t`` must return.
    """
    n = len(store.syms)
    url_of = symbols.url
    syms = _as_int64(store.syms)
    counts = _as_int64(store.counts)
    parents = _as_int64(store.parents)

    # Context rows: qualifying children grouped per parent.  The
    # division below is the same int64 / int64 -> float64 the node-forest
    # predictors perform per request, so probabilities are bit-identical.
    non_root = parents >= 0
    parent_idx = np.where(non_root, parents, 0)
    parent_counts = counts[parent_idx]
    probs = np.zeros(n, dtype=np.float64)
    np.divide(counts, parent_counts, out=probs, where=parent_counts > 0)
    qualify = (
        non_root
        & (parent_counts > 0)
        & (probs + params.PROBABILITY_EPSILON >= threshold)
    )
    cand = np.nonzero(qualify)[0]
    grouped = cand[np.argsort(parents[cand], kind="stable")]
    row_counts = np.bincount(parents[cand], minlength=n) if len(cand) else (
        np.zeros(n, dtype=np.int64)
    )
    ctx_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(row_counts, out=ctx_offsets[1:])
    ctx_child = np.empty(len(grouped), dtype=np.int64)
    ctx_sym = np.empty(len(grouped), dtype=np.int64)
    ctx_prob = np.empty(len(grouped), dtype=np.float64)
    grouped_list = grouped.tolist()
    grouped_probs = probs[grouped].tolist()
    grouped_syms = syms[grouped].tolist()
    offsets_list = ctx_offsets.tolist()
    for parent in np.nonzero(row_counts)[0].tolist():
        lo, hi = offsets_list[parent], offsets_list[parent + 1]
        entries = sorted(
            range(lo, hi),
            key=lambda i: (-grouped_probs[i], url_of(grouped_syms[i])),
        )
        for out_pos, i in enumerate(entries, start=lo):
            ctx_child[out_pos] = grouped_list[i]
            ctx_sym[out_pos] = grouped_syms[i]
            ctx_prob[out_pos] = grouped_probs[i]

    # Special rows: PB-PPM's per-root linked predictions, aggregated by
    # URL, gated by the special-link threshold, with the contributing
    # node indices kept per row for usage marking.
    counts_list = counts.tolist()
    syms_list = syms.tolist()
    spc_row_counts = np.zeros(n, dtype=np.int64)
    spc_sym_list: list[int] = []
    spc_prob_list: list[float] = []
    spl_offsets_list: list[int] = [0]
    spl_nodes_list: list[int] = []
    for root in sorted(store.special_links):
        total = counts_list[root]
        if total <= 0:
            continue
        aggregated: dict[int, int] = {}
        groups: dict[int, list[int]] = {}
        for linked in store.special_links[root]:
            sym = syms_list[linked]
            aggregated[sym] = aggregated.get(sym, 0) + counts_list[linked]
            groups.setdefault(sym, []).append(linked)
        entries = []
        for sym, aggregate in aggregated.items():
            probability = min(1.0, aggregate / total)
            if clears_threshold(probability, special_threshold):
                entries.append((probability, sym))
        if not entries:
            continue
        entries.sort(key=lambda e: (-e[0], url_of(e[1])))
        spc_row_counts[root] = len(entries)
        for probability, sym in entries:
            spc_sym_list.append(sym)
            spc_prob_list.append(probability)
            spl_nodes_list.extend(groups[sym])
            spl_offsets_list.append(len(spl_nodes_list))
    spc_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(spc_row_counts, out=spc_offsets[1:])

    return PredictTable(
        store=store,
        symbols=symbols,
        ctx_offsets=ctx_offsets,
        ctx_sym=ctx_sym,
        ctx_prob=ctx_prob,
        ctx_child=ctx_child,
        spc_offsets=spc_offsets,
        spc_sym=np.asarray(spc_sym_list, dtype=np.int64),
        spc_prob=np.asarray(spc_prob_list, dtype=np.float64),
        spl_offsets=np.asarray(spl_offsets_list, dtype=np.int64),
        spl_nodes=np.asarray(spl_nodes_list, dtype=np.int64),
    )


def predict_pb_store_walk(
    model: PopularityBasedPPM,
    matches: Sequence[tuple[int, int, list[int]]],
    last_url: str,
    threshold: float,
    mark_used: bool,
) -> list[Prediction]:
    """PB-PPM's prediction as a per-request walk over a fitted model's store.

    Each matched level, longest first, contributes its children that
    clear ``threshold``; a URL keeps the prediction of the longest level
    that produced it.  Then the special links of the current click's root
    add their per-URL aggregated predictions.  Every count is divided and
    every candidate sorted per call: the work the compiled table moves to
    build time, which ``benchmarks/bench_predict.py`` times it against.
    """
    store = model._store
    symbols = model._symbols
    counts = store.counts
    used = store.used
    url_of = symbols.url
    predictions: dict[str, Prediction] = {}
    for idx, order, path in matches:
        total = counts[idx]
        if total == 0:
            continue
        for sym, child in store.iter_children(idx):
            probability = counts[child] / total
            url = url_of(sym)
            if clears_threshold(probability, threshold) and url not in predictions:
                predictions[url] = Prediction(
                    url=url, probability=probability, order=order
                )
                if mark_used:
                    for visited in path:
                        used[visited] = 1
                    used[child] = 1
    last_sym = symbols.get(last_url)
    root = store.roots.get(last_sym) if last_sym is not None else None
    if root is not None and counts[root] > 0:
        links = store.special_links.get(root)
        if links:
            syms = store.syms
            aggregated: dict[str, int] = {}
            for linked in links:
                url = url_of(syms[linked])
                aggregated[url] = aggregated.get(url, 0) + counts[linked]
            fired: set[str] = set()
            for url in aggregated:
                probability = min(1.0, aggregated[url] / counts[root])
                if (
                    clears_threshold(probability, model.special_link_threshold)
                    and url not in predictions
                ):
                    predictions[url] = Prediction(
                        url=url,
                        probability=probability,
                        order=0,
                        source="special_link",
                    )
                    fired.add(url)
            if mark_used and fired:
                used[root] = 1
                for linked in links:
                    if url_of(syms[linked]) in fired:
                        used[linked] = 1
    result = list(predictions.values())
    result.sort(key=lambda p: (-p.probability, p.url))
    return result


#: Every array a :class:`~repro.kernel.predict_table.PredictTable` holds.
TABLE_ARRAYS = (
    "ctx_offsets",
    "ctx_sym",
    "ctx_prob",
    "ctx_child",
    "spc_offsets",
    "spc_sym",
    "spc_prob",
    "spl_offsets",
    "spl_nodes",
)


def assert_same_tables(got: PredictTable, want: PredictTable) -> None:
    """All nine arrays equal in dtype and bit for bit."""
    for name in TABLE_ARRAYS:
        mine, theirs = getattr(got, name), getattr(want, name)
        assert mine.dtype == theirs.dtype, name
        assert mine.tobytes() == theirs.tobytes(), name


def path_stats(store: CompactTrie) -> tuple[int, int]:
    """``(leaf paths, used leaf paths)`` by a stack walk from every root."""
    total = 0
    used_total = 0
    first = store.first_child
    sibling = store.next_sibling
    used = store.used
    for root in store.roots.values():
        stack = [root]
        while stack:
            idx = stack.pop()
            child = first[idx]
            if child == -1:
                total += 1
                if used[idx]:
                    used_total += 1
            else:
                while child != -1:
                    stack.append(child)
                    child = sibling[child]
    return total, used_total


# ---------------------------------------------------------------------------
# The reference model
# ---------------------------------------------------------------------------


def collect_used_paths(roots: Mapping[str, TrieNode]) -> list[tuple[str, ...]]:
    """Root paths of every used node, roots and children in URL order."""
    paths: list[tuple[str, ...]] = []
    for url in sorted(roots):
        stack: list[tuple[TrieNode, tuple[str, ...]]] = [(roots[url], (url,))]
        while stack:
            node, path = stack.pop()
            if node.used:
                paths.append(path)
            for child_url in sorted(node.children, reverse=True):
                stack.append((node.children[child_url], path + (child_url,)))
    return paths


def mark_used_paths(
    roots: Mapping[str, TrieNode], paths: Sequence[tuple[str, ...]]
) -> None:
    """Set the used flag on the nodes named by root paths (missing: skip)."""
    for path in paths:
        node = roots.get(path[0]) if path else None
        for url in path[1:]:
            if node is None:
                break
            node = node.child(url)
        if node is not None:
            node.used = True


class OracleModel:
    """A literal node forest plus its predictor, shaped like a model.

    ``model`` only supplies the configuration (class, heights, pruning,
    thresholds); it need not be fitted.
    """

    def __init__(self, model, sessions) -> None:
        self.roots = forest_for(model, sessions)
        self.special_link_threshold = (
            model.special_link_threshold
            if isinstance(model, PopularityBasedPPM)
            else None
        )

    def predict(
        self,
        context: Sequence[str],
        *,
        threshold: float = params.PREDICTION_PROBABILITY_THRESHOLD,
        mark_used: bool = True,
        escape: bool = False,
    ) -> list[Prediction]:
        if self.special_link_threshold is not None:
            return predict_pb(
                self.roots,
                context,
                threshold=threshold,
                special_link_threshold=self.special_link_threshold,
                mark_used=mark_used,
            )
        return predict_from_context(
            self.roots, context, threshold=threshold, mark_used=mark_used, escape=escape
        )

    @property
    def node_count(self) -> int:
        return node_count(self.roots)

    def reset_usage(self) -> None:
        reset_usage(self.roots)

    def path_utilization(self) -> float:
        return path_utilization(self.roots)

    def collect_used_paths(self) -> list[tuple[str, ...]]:
        return collect_used_paths(self.roots)

    def mark_used_paths(self, paths: Sequence[tuple[str, ...]]) -> None:
        mark_used_paths(self.roots, paths)


# ---------------------------------------------------------------------------
# The reference replay
# ---------------------------------------------------------------------------


class _ReferenceEndpoint:
    """A URL-keyed cache plus which residents arrived by prefetch."""

    def __init__(self, cache) -> None:
        self.cache = cache
        self.prefetched: dict[str, int] = {}

    def sync_evictions(self, evicted: Sequence[str]) -> None:
        for url in evicted:
            self.prefetched.pop(url, None)

    def demand_fill(self, url: str, size: int) -> None:
        self.sync_evictions(self.cache.store(url, size))
        self.prefetched.pop(url, None)

    def prefetch_fill(self, url: str, size: int) -> bool:
        self.sync_evictions(self.cache.store(url, size))
        if url in self.cache:
            self.prefetched[url] = size
            return True
        return False


class _ReferenceClient:
    """Per-client caches and prediction cursor."""

    def __init__(self, endpoint, shadow, cursor: PredictionCursor | None) -> None:
        self.endpoint = endpoint
        self.shadow = shadow
        self.cursor = cursor
        self.last_time = float("-inf")


class ReferenceSimulator(PrefetchSimulator):
    """Replay keyed by URL strings, one ``predict_cursor`` per click.

    The reference for :class:`~repro.sim.engine.PrefetchSimulator`'s
    integer-keyed replay: every cache, shadow cache and prefetched map is
    keyed by URL, each client follows a
    :class:`~repro.core.prediction.PredictionCursor`, and each click asks
    ``model.predict_cursor`` for a list of ``Prediction`` objects.
    Constructor, threshold hook (so
    :class:`~repro.sim.adaptive.AdaptivePrefetchSimulator`'s controller
    mixes in) and result fields are the engine's.
    """

    def _new_result(self) -> SimulationResult:
        result = SimulationResult(
            model_name=self.model.name if self.model is not None else "none"
        )
        if self.model is not None:
            self.model.reset_usage()
        return result

    def _finish_result(self, result: SimulationResult) -> SimulationResult:
        if self.model is not None:
            result.node_count = self.model.node_count
            result.path_utilization = self.model.path_utilization()
        return result

    def _new_client(self, capacity: int) -> _ReferenceClient:
        cfg = self.config
        cursor = (
            None
            if self.model is None
            else self.model.prediction_cursor(cfg.max_context_length)
        )
        return _ReferenceClient(
            _ReferenceEndpoint(make_cache(cfg.cache_policy, capacity)),
            make_cache(cfg.cache_policy, capacity),
            cursor,
        )

    def _log_event(self, timestamp, client, url, kind, detail=0.0) -> None:
        if self.event_log is not None:
            self.event_log.record(
                SimulationEvent(timestamp, client, url, kind, detail)
            )

    def _update_context(self, state, url: str, timestamp: float) -> None:
        cfg = self.config
        cursor = state.cursor
        if cursor is not None:
            if (
                cfg.reset_context_on_session_gap
                and timestamp - state.last_time > cfg.idle_timeout_seconds
            ):
                cursor.reset()
            cursor.advance(url)
        state.last_time = timestamp

    def _account_prefetch_hit(self, result, endpoint, url: str) -> None:
        size = endpoint.prefetched.pop(url, None)
        if size is None:
            return
        result.prefetch_hits += 1
        result.prefetch_used_bytes += size
        if self.popularity is not None and self.popularity.is_popular(url):
            result.popular_prefetch_hits += 1

    def _issue_prefetches(self, result, target, cursor, origin) -> None:
        if self.model is None:
            return
        cfg = self.config
        predictions = self.model.predict_cursor(
            cursor, threshold=self._next_threshold(result), mark_used=True
        )
        result.predictions_made += len(predictions)
        issued = 0
        for prediction in predictions:
            if issued >= cfg.max_prefetch_per_request:
                break
            size = self.url_sizes.get(prediction.url)
            if size is None or size > cfg.prefetch_size_limit_bytes:
                continue
            if prediction.url in target.cache:
                continue
            if target.prefetch_fill(prediction.url, size):
                result.prefetch_bytes += size
                result.prefetches_issued += 1
                issued += 1
                self._log_event(
                    origin[0],
                    origin[1],
                    prediction.url,
                    EventKind.PREFETCH,
                    prediction.probability,
                )

    def run(self, requests, *, client_kinds=None) -> SimulationResult:
        cfg = self.config
        kinds = client_kinds or {}
        result = self._new_result()
        states: dict[str, _ReferenceClient] = {}

        for client, url, timestamp, size in replay_rows(requests):
            state = states.get(client)
            if state is None:
                capacity = (
                    cfg.proxy_cache_bytes
                    if kinds.get(client) == "proxy"
                    else cfg.browser_cache_bytes
                )
                state = states[client] = self._new_client(capacity)

            self._update_context(state, url, timestamp)
            result.requests += 1

            if state.shadow.access(url):
                result.shadow_hits += 1
                shadow_latency = 0.0
            else:
                shadow_latency = self.latency_model.estimate(size)
                result.shadow_latency_seconds += shadow_latency
                state.shadow.store(url, size)
            if cfg.collect_latencies:
                result.shadow_latencies.append(shadow_latency)

            if state.endpoint.cache.access(url):
                was_prefetched = url in state.endpoint.prefetched
                result.hits += 1
                result.browser_hits += 1
                self._account_prefetch_hit(result, state.endpoint, url)
                self._log_event(
                    timestamp,
                    client,
                    url,
                    EventKind.HIT_PREFETCHED
                    if was_prefetched
                    else EventKind.HIT_BROWSER,
                )
                if cfg.collect_latencies:
                    result.latencies.append(0.0)
            else:
                latency = self.latency_model.estimate(size)
                result.demand_miss_bytes += size
                result.latency_seconds += latency
                state.endpoint.demand_fill(url, size)
                if cfg.collect_latencies:
                    result.latencies.append(latency)
                self._log_event(timestamp, client, url, EventKind.MISS, float(size))

            self._issue_prefetches(
                result, state.endpoint, state.cursor, (timestamp, client)
            )

        return self._finish_result(result)

    def run_proxy(self, requests, *, clients=None) -> SimulationResult:
        cfg = self.config
        result = self._new_result()
        wanted = frozenset(clients) if clients is not None else None

        proxy = _ReferenceEndpoint(make_cache(cfg.cache_policy, cfg.proxy_cache_bytes))
        proxy_shadow = make_cache(cfg.cache_policy, cfg.proxy_cache_bytes)
        states: dict[str, _ReferenceClient] = {}

        for client, url, timestamp, size in replay_rows(requests):
            if wanted is not None and client not in wanted:
                continue
            state = states.get(client)
            if state is None:
                state = states[client] = self._new_client(cfg.browser_cache_bytes)

            self._update_context(state, url, timestamp)
            result.requests += 1

            if state.shadow.access(url):
                result.shadow_hits += 1
                shadow_latency = 0.0
            elif proxy_shadow.access(url):
                result.shadow_hits += 1
                state.shadow.store(url, size)
                shadow_latency = 0.0
            else:
                shadow_latency = self.latency_model.estimate(size)
                result.shadow_latency_seconds += shadow_latency
                proxy_shadow.store(url, size)
                state.shadow.store(url, size)
            if cfg.collect_latencies:
                result.shadow_latencies.append(shadow_latency)

            if state.endpoint.cache.access(url):
                result.hits += 1
                result.browser_hits += 1
                self._log_event(timestamp, client, url, EventKind.HIT_BROWSER)
                if cfg.collect_latencies:
                    result.latencies.append(0.0)
            elif proxy.cache.access(url):
                was_prefetched = url in proxy.prefetched
                result.hits += 1
                result.proxy_hits += 1
                self._account_prefetch_hit(result, proxy, url)
                state.endpoint.demand_fill(url, size)
                self._log_event(
                    timestamp,
                    client,
                    url,
                    EventKind.HIT_PREFETCHED
                    if was_prefetched
                    else EventKind.HIT_PROXY,
                )
                if cfg.collect_latencies:
                    result.latencies.append(0.0)
            else:
                latency = self.latency_model.estimate(size)
                result.demand_miss_bytes += size
                result.latency_seconds += latency
                proxy.demand_fill(url, size)
                state.endpoint.demand_fill(url, size)
                if cfg.collect_latencies:
                    result.latencies.append(latency)
                self._log_event(timestamp, client, url, EventKind.MISS, float(size))

            self._issue_prefetches(result, proxy, state.cursor, (timestamp, client))

        return self._finish_result(result)


# ---------------------------------------------------------------------------
# The reference trace
# ---------------------------------------------------------------------------


class ReferenceTrace:
    """:class:`~repro.trace.dataset.Trace`'s derivations, record by record.

    Accepts what ``Trace`` accepts (record iterables or
    :class:`~repro.trace.columnar.TraceColumns`) and exposes the same
    derived views, each computed eagerly by the paper-literal reference
    functions instead of the columnar plane.
    """

    def __init__(
        self,
        records: "Iterable[LogRecord] | TraceColumns",
        *,
        idle_timeout_seconds: float = params.SESSION_IDLE_TIMEOUT_S,
        embed_window_seconds: float = params.EMBEDDED_OBJECT_WINDOW_S,
    ) -> None:
        if isinstance(records, TraceColumns):
            records = records.iter_records()
        self.records: tuple[LogRecord, ...] = tuple(
            r for r in sort_records(records) if r.is_successful_get
        )
        if not self.records:
            raise TraceError("trace contains no successful GET records")
        self.idle_timeout_seconds = idle_timeout_seconds
        self.embed_window_seconds = embed_window_seconds
        self.requests: tuple[Request, ...] = tuple(
            fold_embedded_objects(self.records, window_seconds=embed_window_seconds)
        )
        self.sessions: tuple[Session, ...] = tuple(
            sessionize(self.requests, idle_timeout_seconds=idle_timeout_seconds)
        )
        first = self.records[0].timestamp
        self.epoch = math.floor(first / SECONDS_PER_DAY) * SECONDS_PER_DAY

    def day_of(self, timestamp: float) -> int:
        return int((timestamp - self.epoch) // SECONDS_PER_DAY)

    @property
    def num_days(self) -> int:
        return self.day_of(self.records[-1].timestamp) + 1

    @property
    def clients(self) -> frozenset[str]:
        return frozenset(r.client for r in self.records)

    def requests_for_days(self, days: Iterable[int]) -> tuple[Request, ...]:
        wanted = frozenset(days)
        return tuple(r for r in self.requests if self.day_of(r.timestamp) in wanted)

    def sessions_for_days(self, days: Iterable[int]) -> tuple[Session, ...]:
        """Sessions *starting* on any of the given days."""
        wanted = frozenset(days)
        return tuple(s for s in self.sessions if self.day_of(s.start_time) in wanted)

    def split(self, train_days: int, *, test_days: int = 1) -> TrainTestSplit:
        train = tuple(range(train_days))
        test = tuple(range(train_days, train_days + test_days))
        return TrainTestSplit(
            train_days=train,
            test_days=test,
            train_sessions=self.sessions_for_days(train),
            test_sessions=self.sessions_for_days(test),
            train_requests=self.requests_for_days(train),
            test_requests=self.requests_for_days(test),
        )

    def url_access_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for request in self.requests:
            counts[request.url] = counts.get(request.url, 0) + 1
        return counts

    def url_size_table(self) -> dict[str, int]:
        """Largest observed page + embedded-object bytes per URL."""
        sizes: dict[str, int] = {}
        for request in self.requests:
            total = request.total_bytes
            if total > sizes.get(request.url, -1):
                sizes[request.url] = total
        return sizes

    def requests_per_client_per_day(self) -> dict[str, float]:
        per_client_days: dict[str, set[int]] = {}
        per_client_count: dict[str, int] = {}
        for record in self.records:
            per_client_days.setdefault(record.client, set()).add(
                self.day_of(record.timestamp)
            )
            per_client_count[record.client] = per_client_count.get(record.client, 0) + 1
        return {
            client: per_client_count[client] / len(per_client_days[client])
            for client in per_client_count
        }

    def classify_clients(
        self, *, proxy_requests_per_day: float = params.PROXY_REQUESTS_PER_DAY
    ) -> dict[str, str]:
        return {
            client: "proxy" if rate > proxy_requests_per_day else "browser"
            for client, rate in self.requests_per_client_per_day().items()
        }

    def sampled(self, sampler) -> "ReferenceTrace":
        """The records of the clients ``sampler.keeps``, re-derived."""
        kept = [r for r in self.records if sampler.keeps(r.client)]
        return ReferenceTrace(
            kept,
            idle_timeout_seconds=self.idle_timeout_seconds,
            embed_window_seconds=self.embed_window_seconds,
        )


def fraction_split(trace: ReferenceTrace, train_fraction: float) -> TrainTestSplit:
    """The workload grid's time-quantile split, one object at a time.

    The reference for :func:`repro.workloads.grid.fraction_split`, which
    cuts with row masks over the trace's columns: page views at or before
    the cut (the timestamp below which ``train_fraction`` of them fall)
    train, later ones test, and each session follows its first click.
    """
    requests = trace.requests
    cut_index = min(len(requests) - 1, max(0, int(len(requests) * train_fraction)))
    cut = requests[cut_index].timestamp
    train_requests = tuple(r for r in requests if r.timestamp <= cut)
    test_requests = tuple(r for r in requests if r.timestamp > cut)
    if not train_requests or not test_requests:
        raise WorkloadError(
            "degenerate train/test split; increase events or adjust "
            "train_fraction"
        )
    return TrainTestSplit(
        train_days=(),
        test_days=(),
        train_sessions=tuple(
            s for s in trace.sessions if s.requests[0].timestamp <= cut
        ),
        test_sessions=tuple(
            s for s in trace.sessions if s.requests[0].timestamp > cut
        ),
        train_requests=train_requests,
        test_requests=test_requests,
    )
