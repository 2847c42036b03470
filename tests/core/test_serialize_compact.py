"""Serialisation round-trips between the compact store and the node document.

The compact kernel must be invisible to persistence: a fitted model
serialises to the same document as the literal Fig. 1 forest of
``tests/oracle.py``, and a model restored from that document (its store
rebuilt node by node) predicts identically — PB-PPM's special links
included, in creation order, re-wired to the duplicated in-branch nodes.
"""

import pytest

from repro.core.pb import PopularityBasedPPM
from repro.core.popularity import PopularityTable
from repro.core.serialize import (
    _collect_link_paths,
    _node_to_dict,
    dump_model,
    dumps_model,
    load_model,
    loads_model,
)
from repro.core.standard import StandardPPM

from tests.helpers import (
    FIGURE1_COUNTS,
    FIGURE1_SEQUENCE,
    make_popularity,
    make_sessions,
)
from tests.oracle import forest_for


def _restored(model, compact: bool):
    """``model`` itself, or (``compact`` False) its node-document reload."""
    return model if compact else load_model(dump_model(model))


def _oracle_document(model, sessions) -> dict:
    """Roots and special links of the oracle forest, as dump_model writes them."""
    forest = forest_for(model, sessions)
    return {
        "roots": [_node_to_dict(forest[url], {}) for url in sorted(forest)],
        "special_links": _collect_link_paths(forest),
    }


FIGURE1_SESSIONS = make_sessions([FIGURE1_SEQUENCE])
MULTI_LINK_SESSIONS = make_sessions(
    [
        ("A", "B", "C", "A2", "D"),
        ("A", "B", "A2", "E"),
        ("A2", "C", "A", "B"),
    ]
)


def figure1_model(compact: bool) -> PopularityBasedPPM:
    popularity = PopularityTable(FIGURE1_COUNTS)
    model = PopularityBasedPPM(
        popularity,
        grade_heights=(1, 2, 3, 4),
        absolute_max_height=4,
        prune_relative_probability=None,
        prune_absolute_count=None,
    )
    return _restored(model.fit(FIGURE1_SESSIONS), compact)


def multi_link_model(compact: bool) -> PopularityBasedPPM:
    """Several branches carrying special links, some to equal-graded URLs."""
    popularity = make_popularity(
        {"A": 1000, "A2": 900, "B": 50, "C": 5, "D": 4, "E": 3}
    )
    model = PopularityBasedPPM(
        popularity,
        grade_heights=(1, 3, 5, 7),
        absolute_max_height=7,
        prune_relative_probability=None,
        prune_absolute_count=None,
    )
    return _restored(model.fit(MULTI_LINK_SESSIONS), compact)


SESSIONS_OF = {figure1_model: FIGURE1_SESSIONS, multi_link_model: MULTI_LINK_SESSIONS}


class TestPBSpecialLinkRoundTrip:
    @pytest.mark.parametrize("compact", [True, False], ids=["compact", "node"])
    def test_figure1_links_survive(self, compact):
        model = figure1_model(compact)
        clone = loads_model(dumps_model(model))
        forest = clone.to_node_forest()
        assert [n.url for n in forest["A"].special_links] == ["A2"]
        deep = forest["A"].child("B").child("C").child("A2")
        assert forest["A"].special_links[0] is deep

    @pytest.mark.parametrize("compact", [True, False], ids=["compact", "node"])
    def test_multi_link_predictions_survive(self, compact):
        model = multi_link_model(compact)
        clone = loads_model(dumps_model(model))
        for context in ([], ["A"], ["A", "B"], ["A2"], ["A2", "C"], ["Z"]):
            assert clone.predict(
                context, threshold=0.0, mark_used=False
            ) == model.predict(context, threshold=0.0, mark_used=False)

    @pytest.mark.parametrize("factory", [figure1_model, multi_link_model])
    def test_documents_identical_across_representations(self, factory):
        document = dump_model(factory(True))
        assert document == dump_model(factory(False))
        oracle = _oracle_document(factory(True), SESSIONS_OF[factory])
        assert document["roots"] == oracle["roots"]

    @pytest.mark.parametrize("factory", [figure1_model, multi_link_model])
    def test_link_order_preserved(self, factory):
        compact_doc = dump_model(factory(True))
        oracle = _oracle_document(factory(True), SESSIONS_OF[factory])
        assert compact_doc["special_links"] == oracle["special_links"]
        clone = loads_model(dumps_model(factory(True)))
        reload_doc = dump_model(clone)
        assert reload_doc["special_links"] == compact_doc["special_links"]

    def test_dumping_leaves_model_compact(self):
        model = figure1_model(True)
        table = model._compiled_table()
        mutations = model._mutations
        dumps_model(model)
        assert model._mutations == mutations
        assert model._compiled_table() is table

    def test_reloaded_compact_conversion_round_trip(self):
        # load (node document -> compact store) -> dump: same document.
        model = multi_link_model(True)
        doc = dump_model(model)
        clone = loads_model(dumps_model(model))
        assert clone._compiled_table() is not None
        assert dump_model(clone) == doc


class TestStandardRoundTripAcrossRepresentations:
    SEQS = [("A", "B", "C"), ("A", "B", "D"), ("B", "C")]

    def test_documents_identical(self):
        sessions = make_sessions(self.SEQS)
        model = StandardPPM().fit(sessions)
        document = dump_model(model)
        assert {
            "roots": document["roots"],
            "special_links": document["special_links"],
        } == _oracle_document(model, sessions)

    def test_used_flags_survive_from_compact(self):
        model = StandardPPM().fit(make_sessions(self.SEQS))
        model.predict(["A"], threshold=0.0)
        clone = loads_model(dumps_model(model))
        used = sorted(n.url for n in clone.iter_nodes() if n.used)
        assert used  # something was marked and survived
        assert used == sorted(
            path[-1] for path in model.collect_used_paths()
        )
