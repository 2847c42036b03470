"""Unit tests for the two space-optimisation passes."""

import pytest

from repro.core.node import TrieNode

from tests.oracle import (
    prune_by_absolute_count,
    prune_by_relative_probability,
)


def build_forest():
    """root(10) -> b(5) -> c(1); root -> d(1); lone(1)."""
    root = TrieNode("root", count=10)
    b = root.ensure_child("b")
    b.count = 5
    c = b.ensure_child("c")
    c.count = 1
    d = root.ensure_child("d")
    d.count = 1
    lone = TrieNode("lone", count=1)
    return {"root": root, "lone": lone}


class TestRelativeProbability:
    def test_cut_below_threshold(self):
        roots = build_forest()
        removed = prune_by_relative_probability(roots, cutoff=0.25)
        # b: 5/10 = 0.5 stays; c: 1/5 = 0.2 cut; d: 1/10 cut.
        assert removed == 2
        assert roots["root"].child("b") is not None
        assert roots["root"].child("b").child("c") is None
        assert roots["root"].child("d") is None

    def test_roots_never_touched(self):
        roots = build_forest()
        prune_by_relative_probability(roots, cutoff=1.0)
        assert set(roots) == {"root", "lone"}

    def test_subtree_removed_whole(self):
        root = TrieNode("r", count=100)
        weak = root.ensure_child("weak")
        weak.count = 1
        deep = weak.ensure_child("deep")
        deep.count = 1
        deeper = deep.ensure_child("deeper")
        deeper.count = 1
        removed = prune_by_relative_probability({"r": root}, cutoff=0.1)
        assert removed == 3

    def test_zero_cutoff_removes_nothing(self):
        roots = build_forest()
        assert prune_by_relative_probability(roots, cutoff=0.0) == 0

    def test_invalid_cutoff(self):
        with pytest.raises(ValueError):
            prune_by_relative_probability({}, cutoff=1.5)

    def test_zero_count_parent_children_cut(self):
        root = TrieNode("r", count=0)
        child = root.ensure_child("c")
        child.count = 0
        assert prune_by_relative_probability({"r": root}, cutoff=0.1) == 1

    def test_dangling_special_links_dropped(self):
        root = TrieNode("r", count=100)
        strong = root.ensure_child("strong")
        strong.count = 90
        weak = strong.ensure_child("weak")
        weak.count = 1
        root.special_links.append(weak)
        root.special_links.append(strong)
        prune_by_relative_probability({"r": root}, cutoff=0.1)
        assert root.special_links == [strong]


class TestAbsoluteCount:
    def test_count_one_nodes_removed(self):
        roots = build_forest()
        removed = prune_by_absolute_count(roots, max_count=1)
        assert removed == 3  # c, d and the lone root
        assert "lone" not in roots
        assert roots["root"].child("b") is not None

    def test_roots_can_be_removed(self):
        roots = {"only": TrieNode("only", count=1)}
        prune_by_absolute_count(roots, max_count=1)
        assert roots == {}

    def test_zero_max_count_keeps_everything_counted(self):
        roots = build_forest()
        assert prune_by_absolute_count(roots, max_count=0) == 0

    def test_invalid_max_count(self):
        with pytest.raises(ValueError):
            prune_by_absolute_count({}, max_count=-1)

    def test_dangling_special_links_dropped(self):
        root = TrieNode("r", count=10)
        strong = root.ensure_child("s")
        strong.count = 5
        rare = strong.ensure_child("rare")
        rare.count = 1
        root.special_links.append(rare)
        prune_by_absolute_count({"r": root}, max_count=1)
        assert root.special_links == []


class TestIdempotence:
    def test_second_relative_pass_is_noop(self):
        roots = build_forest()
        prune_by_relative_probability(roots, cutoff=0.25)
        assert prune_by_relative_probability(roots, cutoff=0.25) == 0

    def test_second_absolute_pass_is_noop(self):
        roots = build_forest()
        prune_by_absolute_count(roots, max_count=1)
        assert prune_by_absolute_count(roots, max_count=1) == 0
