"""Popularity-based PPM — the paper's contribution (Sections 3.4, 4.1).

The Markov prediction tree grows with a *variable* height per branch, set
by the popularity grade of the URL heading the branch.  The four
construction rules of Section 3.4:

1. **Grade-scaled heights.**  A branch headed by a grade-*g* URL may grow to
   at most ``grade_heights[g]`` nodes (paper defaults 7/5/3/1 for grades
   3/2/1/0), never beyond the absolute maximum motivated by session-length
   statistics (95 % of sessions have <= 9 clicks).
2. **Moderate absolute maximum height** — ``absolute_max_height``.
3. **Special links.**  If a URL *not immediately following* the heading URL
   in a branch carries a grade higher than the head's, or carries the top
   grade, the root is linked directly to that duplicated node, giving
   popular URLs extra prediction opportunities.
4. **Rise-only roots.**  A URL of a training sequence opens a new root only
   at the sequence start or where its grade exceeds the grade of the URL
   before it.  This caps the number of roots — the main space saving over
   the standard model, which opens a root at every position.

For the access sequence ``A B C A' B' C'`` with grades A,A' = 3, B,B' = 2,
C,C' = 1 and maximum height 4, the rules yield Figure 1 right: roots A and
A' only, branch ``A -> B -> C -> A'`` with a special link from root A to the
duplicated popular node A', and branch ``A' -> B' -> C'``.

Prediction adds the special-link step of Section 4.1: when the client's
current click is a root, the popular nodes linked from that root are
predicted in addition to the ordinary longest-match children.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro import params
from repro.core.base import PPMModel
from repro.core.popularity import PopularityTable
from repro.core.prediction import Prediction, PredictionCursor
from repro.kernel.bulk import SessionCorpus, build_branch_trie, symbol_grades
from repro.kernel.prune import prune_dense
from repro.trace.columnar import session_url_ids
from repro.trace.sessions import Session


class PopularityBasedPPM(PPMModel):
    """Popularity-based PPM prediction tree.

    Parameters
    ----------
    popularity:
        The popularity table computed from the *training* days' accesses.
    grade_heights:
        Maximum branch height per grade, indexed by grade (paper defaults
        ``(1, 3, 5, 7)`` for grades 0..3).
    absolute_max_height:
        Hard height cap regardless of grade (paper: a moderate number,
        default 9 after the session-length statistics).
    prune_relative_probability:
        First space optimisation: cut each non-root node whose relative
        access probability (count / parent count) is below this value.
        ``None`` disables the pass.  Paper experiments: 5-10 %.
    prune_absolute_count:
        Second space optimisation: remove nodes accessed at most this many
        times (paper: 1, applied for some traces, e.g. UCB-CS).  ``None``
        disables the pass.
    special_link_threshold:
        Minimum aggregate probability (linked duplicates' counts over the
        root's count) for a special-link prediction.  The paper's 0.25
        threshold governs "the possibility of next accesses", i.e. the
        context predictions; the special links exist to give popular URLs
        *more* consideration than that, so they carry their own, lower
        cut-off (popularity grade already gates which nodes get linked).
    """

    name = "pb"

    def __init__(
        self,
        popularity: PopularityTable,
        *,
        grade_heights: Sequence[int] = params.GRADE_HEIGHTS,
        absolute_max_height: int = params.ABSOLUTE_MAX_HEIGHT,
        prune_relative_probability: float | None = params.PRUNE_RELATIVE_PROBABILITY,
        prune_absolute_count: int | None = None,
        special_link_threshold: float = params.SPECIAL_LINK_THRESHOLD,
    ) -> None:
        super().__init__()
        if len(grade_heights) != popularity.max_grade + 1:
            raise ValueError(
                f"grade_heights needs {popularity.max_grade + 1} entries "
                f"(one per grade), got {len(grade_heights)}"
            )
        if any(h < 1 for h in grade_heights):
            raise ValueError(f"every grade height must be >= 1: {grade_heights}")
        if list(grade_heights) != sorted(grade_heights):
            raise ValueError(
                f"grade heights must be non-decreasing in grade: {grade_heights}"
            )
        if absolute_max_height < 1:
            raise ValueError(f"absolute_max_height must be >= 1: {absolute_max_height}")
        self.popularity = popularity
        self.grade_heights = tuple(grade_heights)
        self.absolute_max_height = absolute_max_height
        if not 0.0 <= special_link_threshold <= 1.0:
            raise ValueError(
                f"special_link_threshold out of [0, 1]: {special_link_threshold}"
            )
        self.prune_relative_probability = prune_relative_probability
        self.prune_absolute_count = prune_absolute_count
        self.special_link_threshold = special_link_threshold

    # -- construction -----------------------------------------------------

    def branch_height_for(self, url: str) -> int:
        """Maximum branch height for a branch headed by ``url`` (rule 1+2)."""
        return min(
            self.grade_heights[self.popularity.grade(url)], self.absolute_max_height
        )

    def _insert_branch(
        self, ids: Sequence[int], start: int, grades: Sequence[int]
    ) -> None:
        """Insert the branch at ``start`` and wire its special links (rules 1-3).

        ``grades`` carries the popularity grade of each position of
        ``ids``; ``position - start >= 2`` below is the node path's
        ``depth >= 3`` (one past the URL immediately following the head).
        """
        store = self._store
        head_grade = grades[start]
        height = min(self.grade_heights[head_grade], self.absolute_max_height)
        stop = min(len(ids), start + height)
        max_grade = self.popularity.max_grade
        counts = store.counts
        root = store.ensure_root(ids[start])
        counts[root] += 1
        idx = root
        for position in range(start + 1, stop):
            idx = store.ensure_child(idx, ids[position])
            counts[idx] += 1
            if position - start >= 2:  # not immediately following the head
                grade = grades[position]
                if grade > head_grade or grade == max_grade:
                    links = store.special_links.get(root)
                    if links is None:
                        store.special_links[root] = [idx]
                    elif idx not in links:
                        links.append(idx)

    def _build(self, corpus: SessionCorpus) -> None:
        # Bulk-build rules 1-4 over deduplicated sessions; duplicate
        # sessions repeat no branch and create no new special link, so
        # first-seen order plus weights reproduces the per-click build,
        # link-creation order included.
        self._store = build_branch_trie(
            corpus.sequences,
            grades=symbol_grades(self._symbols, self.popularity.grade),
            grade_heights=self.grade_heights,
            absolute_max_height=self.absolute_max_height,
            max_grade=self.popularity.max_grade,
            weights=corpus.weights,
        )
        # Space optimisations, fused and vectorised.
        self._store, _ = prune_dense(
            self._store,
            cutoff=self.prune_relative_probability,
            max_count=self.prune_absolute_count,
        )

    def fold_sessions(self, sessions: Iterable[Session]) -> None:
        """Fold new sessions in under the existing grading (no re-pruning).

        The cheap between-rebuilds update :func:`repro.core.online.update_model`
        applies: each session's branches go in by rules 1-4.  Reads the
        sessions' columns (:func:`session_url_ids`), so a session view
        folds without building objects.
        """
        ids, lengths, table = session_url_ids(sessions)
        ids = self._symbols.intern_ids(ids, table)
        grades = symbol_grades(self._symbols, self.popularity.grade)[ids].tolist()
        ids = ids.tolist()
        end = 0
        for length in lengths.tolist():
            first, end = end, end + length
            path, path_grades = ids[first:end], grades[first:end]
            for position in range(length):
                if position == 0 or path_grades[position] > path_grades[position - 1]:
                    self._insert_branch(path, position, path_grades)
        self._mutations += 1

    # -- prediction ----------------------------------------------------------

    def node_predictor(self, *, escape: bool = False):
        """Context predictions merged across suffix levels, plus special links.

        Section 4.1: the baselines use the plain longest matching method;
        *"in contrast, when the current clicked URL is a root in the tree,
        the popularity-based model will make additional predictions"*.
        PB-PPM therefore merges the qualifying predictions of **every**
        matching context suffix, from the longest down to the current click
        alone (the current click is a root whenever it ever headed a
        branch), and adds the special-link predictions for the duplicated
        popular nodes reachable from that root.  Every level is a suffix
        of the longest match's path, so the step is still a function of
        that one node (:meth:`~repro.kernel.predict_table.PredictTable.merged_cut`).

        A popular URL may be duplicated in several sub-branches of the
        root, each duplicate linked separately; the prediction for that URL
        aggregates the duplicates' traversal counts and is gated by
        :attr:`special_link_threshold` rather than the next-access
        ``threshold`` (see the constructor notes).

        ``escape`` is accepted for interface compatibility and ignored:
        the merged multi-level strategy already subsumes PPM escape.
        """
        del escape
        table = self._compiled_table()
        special = self.special_link_threshold
        return table.predictor(
            ("merged", special),
            lambda node, threshold: table.merged_cut(node, threshold, special),
        )

    def predict_cursor(
        self,
        cursor: PredictionCursor,
        *,
        threshold: float = params.PREDICTION_PROBABILITY_THRESHOLD,
        mark_used: bool = True,
        escape: bool = False,
    ) -> list[Prediction]:
        """The merged prediction (:meth:`node_predictor`) at a cursor's
        longest match; ``escape`` is ignored.  Kept on the class so
        tracing tools that wrap ``PopularityBasedPPM.predict_cursor`` by
        name find it."""
        return super().predict_cursor(
            cursor, threshold=threshold, mark_used=mark_used, escape=escape
        )
