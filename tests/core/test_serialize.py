"""Unit tests for model persistence."""

import io
import json

import pytest

from repro.core.extras import FirstOrderMarkov, TopNPush
from repro.core.lrs import LRSPPM
from repro.core.pb import PopularityBasedPPM
from repro.core.popularity import PopularityTable
from repro.core.serialize import (
    dump_model,
    dumps_model,
    load_model,
    loads_model,
    read_model,
    save_model,
)
from repro.core.standard import StandardPPM
from repro.core.stats import leaf_paths
from repro.errors import ModelError

from tests.helpers import FIGURE1_COUNTS, FIGURE1_SEQUENCE, make_sessions

SESSIONS = make_sessions([("A", "B", "C"), ("A", "B", "D"), ("A", "B", "C")])


def forest_signature(model):
    return sorted(
        (path, model.lookup(path).count) for path in leaf_paths(model.roots)
    )


class TestRoundTrip:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: StandardPPM(),
            lambda: StandardPPM(max_height=2),
            lambda: LRSPPM(),
            lambda: FirstOrderMarkov(),
        ],
    )
    def test_structure_and_counts_preserved(self, factory):
        model = factory().fit(SESSIONS)
        clone = loads_model(dumps_model(model))
        assert type(clone) is type(model)
        assert forest_signature(clone) == forest_signature(model)
        assert clone.node_count == model.node_count

    def test_predictions_identical_after_reload(self):
        model = StandardPPM().fit(SESSIONS)
        clone = loads_model(dumps_model(model))
        for context in (["A"], ["A", "B"], ["Z"]):
            assert clone.predict(context, mark_used=False) == model.predict(
                context, mark_used=False
            )

    def test_pb_round_trip_with_popularity_and_links(self):
        popularity = PopularityTable(FIGURE1_COUNTS)
        model = PopularityBasedPPM(
            popularity,
            grade_heights=(1, 2, 3, 4),
            absolute_max_height=4,
            prune_relative_probability=None,
        ).fit(make_sessions([FIGURE1_SEQUENCE]))
        clone = loads_model(dumps_model(model))
        assert isinstance(clone, PopularityBasedPPM)
        # Special links re-wired to the duplicated node, not a copy.
        root = clone.roots["A"]
        assert [n.url for n in root.special_links] == ["A2"]
        assert root.special_links[0] is root.child("B").child("C").child("A2")
        # Popularity grading reconstructed.
        assert clone.popularity.grade("A") == 3
        assert clone.predict(["A"], mark_used=False) == model.predict(
            ["A"], mark_used=False
        )

    def test_topn_round_trip(self):
        model = TopNPush(n=2).fit(make_sessions([("A",)] * 3 + [("B",)]))
        clone = loads_model(dumps_model(model))
        assert clone.predict(["x"], threshold=0.0) == model.predict(
            ["x"], threshold=0.0
        )

    def test_used_flags_preserved(self):
        model = StandardPPM().fit(SESSIONS)
        model.predict(["A"])  # marks usage
        clone = loads_model(dumps_model(model))
        used = sorted(n.url for n in model.iter_nodes() if n.used)
        cloned_used = sorted(n.url for n in clone.iter_nodes() if n.used)
        assert used == cloned_used


class TestFileHandles:
    def test_save_and_read(self):
        model = StandardPPM().fit(SESSIONS)
        buffer = io.StringIO()
        save_model(model, buffer)
        buffer.seek(0)
        clone = read_model(buffer)
        assert clone.node_count == model.node_count


class TestErrors:
    def test_unfitted_model_rejected(self):
        with pytest.raises(ModelError):
            dump_model(StandardPPM())

    def test_wrong_format_version(self):
        payload = dump_model(StandardPPM().fit(SESSIONS))
        payload["format"] = 99
        with pytest.raises(ModelError):
            load_model(payload)

    def test_unknown_class(self):
        payload = dump_model(StandardPPM().fit(SESSIONS))
        payload["class"] = "MysteryModel"
        with pytest.raises(ModelError):
            load_model(payload)

    def test_document_is_valid_json(self):
        text = dumps_model(StandardPPM().fit(SESSIONS))
        assert json.loads(text)["class"] == "StandardPPM"

    @pytest.mark.parametrize("payload", [None, 42, "text", ["list"]])
    def test_non_dict_document(self, payload):
        with pytest.raises(ModelError, match="JSON object"):
            load_model(payload)

    def test_missing_class_entry(self):
        payload = dump_model(StandardPPM().fit(SESSIONS))
        del payload["class"]
        with pytest.raises(ModelError, match="class"):
            load_model(payload)

    def test_broken_node_payload_wrapped(self):
        payload = dump_model(StandardPPM().fit(SESSIONS))
        payload["roots"] = [{"not-a-node": True}]
        with pytest.raises(ModelError, match="malformed model document"):
            load_model(payload)

    def test_invalid_json_text(self):
        with pytest.raises(ModelError, match="not valid JSON"):
            loads_model("{broken")

    def test_invalid_json_stream(self):
        with pytest.raises(ModelError, match="not valid JSON"):
            read_model(io.StringIO("not json at all"))

    def test_no_raw_exceptions_escape(self):
        # The serving boot path catches ModelError alone; every
        # malformation must surface as exactly that type.
        documents = [
            "[]",
            '{"format": 1}',
            '{"format": 1, "class": "StandardPPM", "roots": [[1, 2]]}',
            '{"format": "1", "class": "StandardPPM"}',
        ]
        for text in documents:
            with pytest.raises(ModelError):
                loads_model(text)
