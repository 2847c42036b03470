"""Kernel equivalence: every model answers exactly like the paper oracle.

Every model builds into the compact store; for any context it must
produce the same predictions (URL, probability, order, source), the same
statistics and the same serialised document as the literal Fig. 1 node
forest of ``tests/oracle.py`` built from the same sessions — the kernel
is an optimisation, never a behaviour change.
"""

import pytest

from repro.core.extras import FirstOrderMarkov, TopNPush
from repro.core.lrs import LRSPPM
from repro.core.node import TrieNode
from repro.core.pb import PopularityBasedPPM
from repro.core.popularity import PopularityTable
from repro.core.serialize import _collect_link_paths, _node_to_dict, dump_model
from repro.core.standard import StandardPPM
from repro.kernel.compact import CompactTrie

from tests.helpers import FIGURE1_COUNTS, FIGURE1_SEQUENCE, make_sessions
from tests.oracle import OracleModel

SEQUENCES = [
    ("A", "B", "C"),
    ("A", "B", "D"),
    ("A", "B", "C"),
    ("B", "C", "A", "B"),
    ("E",),
    ("C", "A", "B", "C", "D"),
]

CONTEXTS = [
    [],
    ["A"],
    ["A", "B"],
    ["C", "A", "B"],
    ["B", "C"],
    ["Z"],
    ["A", "Z"],
    ["E"],
]


def model_pairs():
    sessions = make_sessions(SEQUENCES)
    popularity = PopularityTable(FIGURE1_COUNTS)
    fig1 = make_sessions([FIGURE1_SEQUENCE])
    configured = [
        (StandardPPM(), sessions),
        (StandardPPM(max_height=2), sessions),
        (LRSPPM(), sessions),
        (FirstOrderMarkov(), sessions),
        (
            PopularityBasedPPM(
                popularity,
                grade_heights=(1, 2, 3, 4),
                absolute_max_height=4,
                prune_relative_probability=None,
            ),
            fig1,
        ),
        (PopularityBasedPPM(popularity), fig1),
    ]
    return [
        (model.fit(train), OracleModel(model, train)) for model, train in configured
    ]


PAIRS = model_pairs()
PAIR_IDS = [
    "standard",
    "standard-h2",
    "lrs",
    "markov1",
    "pb-fig1",
    "pb-pruned",
]


@pytest.mark.parametrize("model,oracle", PAIRS, ids=PAIR_IDS)
class TestRepresentationEquivalence:
    def test_modes(self, model, oracle):
        assert isinstance(model._store, CompactTrie)
        assert all(isinstance(root, TrieNode) for root in oracle.roots.values())

    def test_node_counts_match(self, model, oracle):
        assert model.node_count == oracle.node_count

    @pytest.mark.parametrize("threshold", [0.0, 0.25, 0.5])
    def test_predictions_identical(self, model, oracle, threshold):
        contexts = CONTEXTS + [[FIGURE1_SEQUENCE[0]], list(FIGURE1_SEQUENCE[:3])]
        for context in contexts:
            assert model.predict(
                context, threshold=threshold, mark_used=False
            ) == oracle.predict(context, threshold=threshold, mark_used=False)

    def test_usage_marking_identical(self, model, oracle):
        model.reset_usage()
        oracle.reset_usage()
        for context in CONTEXTS:
            model.predict(context, threshold=0.0)
            oracle.predict(context, threshold=0.0)
        assert model.collect_used_paths() == oracle.collect_used_paths()
        assert model.path_utilization() == oracle.path_utilization()

    def test_serialised_documents_identical(self, model, oracle):
        model.reset_usage()
        oracle.reset_usage()
        document = dump_model(model)
        forest = oracle.roots
        assert document["roots"] == [
            _node_to_dict(forest[url], {}) for url in sorted(forest)
        ]
        assert document["special_links"] == _collect_link_paths(forest)

    def test_used_path_merge_round_trip(self, model, oracle):
        model.reset_usage()
        oracle.reset_usage()
        model.predict(CONTEXTS[1], threshold=0.0)
        oracle.mark_used_paths(model.collect_used_paths())
        assert oracle.collect_used_paths() == model.collect_used_paths()


class TestMaterialisation:
    def test_roots_are_a_read_only_view(self):
        model = StandardPPM().fit(make_sessions(SEQUENCES))
        before = model.predict(["A"], threshold=0.0, mark_used=False)
        model.roots["A"].children["B"].count += 100
        model.lookup(("A", "B")).count += 100
        for node in model.iter_nodes():
            node.used = True
        assert model.predict(["A"], threshold=0.0, mark_used=False) == before
        assert model.collect_used_paths() == []

    def test_to_node_forest_does_not_switch(self):
        model = StandardPPM().fit(make_sessions(SEQUENCES))
        forest = model.to_node_forest()
        assert set(forest) == {"A", "B", "C", "D", "E"}
        assert forest is not model.to_node_forest()
        assert isinstance(model._store, CompactTrie)


class TestTopNStore:
    def test_topn_builds_and_marks_through_the_store(self):
        model = TopNPush(n=2).fit(make_sessions(SEQUENCES))
        assert model.is_fitted
        assert model.node_count == 2
        predictions = model.predict([], threshold=0.0)
        assert sorted(p.url for p in predictions) == sorted(model.roots)
        assert model.collect_used_paths() == [(url,) for url in sorted(model.roots)]
