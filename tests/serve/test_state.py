"""Unit tests for the model reference and client session tracker."""

import pytest

from repro import params
from repro.core.standard import StandardPPM
from repro.serve.state import ClientSessionTracker, ModelRef, trim_context

from tests.helpers import make_sessions
from tests.serve.conftest import SWAPPED, TRAIN, fitted_model


class TestTrimContext:
    def test_short_context_unchanged(self):
        assert trim_context(["A", "B"], 5) == ("A", "B")

    def test_long_context_keeps_newest(self):
        assert trim_context(list("ABCDE"), 3) == ("C", "D", "E")

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            trim_context(["A"], 0)


class TestModelRef:
    def test_requires_fitted_model(self):
        with pytest.raises(ValueError):
            ModelRef(StandardPPM())

    def test_get_returns_snapshot_pair(self):
        model = fitted_model()
        ref = ModelRef(model)
        assert ref.get() == (model, 1)

    def test_publish_bumps_version(self):
        ref = ModelRef(fitted_model())
        replacement = fitted_model(SWAPPED)
        assert ref.publish(replacement) == 2
        assert ref.get() == (replacement, 2)

    def test_publish_rejects_unfitted(self):
        ref = ModelRef(fitted_model())
        with pytest.raises(ValueError):
            ref.publish(StandardPPM())
        assert ref.version == 1


def make_tracker(**kwargs):
    return ClientSessionTracker(ModelRef(fitted_model()), **kwargs)


class TestObserveAndPredict:
    def test_predictions_match_direct_model_call(self):
        model = fitted_model()
        tracker = ClientSessionTracker(ModelRef(model))
        tracker.observe("c1", "A", 0.0)
        predictions, version = tracker.predict("c1", threshold=0.0)
        direct = model.predict(["A"], threshold=0.0, mark_used=False)
        assert version == 1
        assert [(p.url, p.probability) for p in predictions] == [
            (p.url, p.probability) for p in direct
        ]

    def test_context_tracks_clicks(self):
        tracker = make_tracker()
        tracker.observe("c1", "A", 0.0)
        tracker.observe("c1", "B", 10.0)
        assert tracker.context("c1") == ("A", "B")
        assert tracker.context("stranger") == ()

    def test_context_trimmed_to_max_length(self):
        tracker = make_tracker(max_context_length=2)
        for index, url in enumerate("ABCAB"):
            tracker.observe("c1", url, float(index))
        assert tracker.context("c1") == ("A", "B")

    def test_unknown_client_predicts_empty(self):
        tracker = make_tracker()
        predictions, version = tracker.predict("nobody")
        assert predictions == []
        assert version == 1

    def test_clients_are_independent(self):
        tracker = make_tracker()
        tracker.observe("c1", "A", 0.0)
        tracker.observe("c2", "B", 0.0)
        assert tracker.context("c1") == ("A",)
        assert tracker.context("c2") == ("B",)
        assert tracker.active_clients == 2

    def test_validation(self):
        tracker = make_tracker()
        with pytest.raises(ValueError):
            tracker.observe("", "A", 0.0)
        with pytest.raises(ValueError):
            tracker.observe("c1", "", 0.0)
        with pytest.raises(ValueError):
            make_tracker(idle_timeout_s=0)
        with pytest.raises(ValueError):
            make_tracker(max_context_length=0)
        with pytest.raises(ValueError):
            make_tracker(max_session_clicks=0)

    def test_predict_rejects_bad_threshold_and_limit(self):
        """A negative limit would slice from the end (``[:-1]`` drops the
        last prediction) and a NaN threshold never equals a memoised one:
        both, and thresholds outside [0, 1], are caller errors."""
        model = StandardPPM().fit(make_sessions([("A", "B"), ("A", "C"), ("A", "D")]))
        tracker = ClientSessionTracker(ModelRef(model))
        tracker.observe("c1", "A", 0.0)
        predictions, _version = tracker.predict("c1", threshold=0.0)
        assert [p.url for p in predictions] == ["B", "C", "D"]
        for threshold in (float("nan"), float("inf"), -float("inf"), -0.1, 1.01):
            with pytest.raises(ValueError, match="threshold"):
                tracker.predict("c1", threshold=threshold)
        with pytest.raises(ValueError, match="limit"):
            tracker.predict("c1", threshold=0.0, limit=-1)
        assert tracker.predict("c1", threshold=0.0, limit=0)[0] == []
        assert [p.url for p in tracker.predict("c1", threshold=0.0, limit=2)[0]] == [
            "B",
            "C",
        ]


class TestSessionBoundaries:
    def test_idle_gap_starts_new_session(self):
        tracker = make_tracker()
        tracker.observe("c1", "A", 0.0)
        # Exactly the 30-minute boundary: still the same session.
        tracker.observe("c1", "B", params.SESSION_IDLE_TIMEOUT_S)
        assert tracker.context("c1") == ("A", "B")
        # One second past the boundary: new session.
        later = params.SESSION_IDLE_TIMEOUT_S * 2 + 1
        tracker.observe("c1", "C", later)
        assert tracker.context("c1") == ("C",)
        completed = tracker.drain_completed()
        assert [session.urls for session in completed] == [("A", "B")]

    def test_expire_idle_uses_trace_clock(self):
        tracker = make_tracker()
        tracker.observe("c1", "A", 0.0)
        tracker.observe("c2", "B", 5000.0)  # pushes the clock past c1's timeout
        assert tracker.expire_idle() == 1
        assert tracker.active_clients == 1
        assert [s.client for s in tracker.drain_completed()] == ["c1"]

    def test_expire_idle_with_explicit_now(self):
        tracker = make_tracker()
        tracker.observe("c1", "A", 0.0)
        assert tracker.expire_idle(now=10.0) == 0
        assert tracker.expire_idle(now=params.SESSION_IDLE_TIMEOUT_S + 1) == 1

    def test_completed_sessions_carry_timestamps(self):
        tracker = make_tracker()
        tracker.observe("c1", "A", 100.0)
        tracker.observe("c1", "B", 160.0)
        tracker.expire_all()
        (session,) = tracker.drain_completed()
        assert [r.timestamp for r in session.requests] == [100.0, 160.0]
        assert tracker.drain_completed() == []

    def test_click_cap_completes_session(self):
        tracker = make_tracker(max_session_clicks=3)
        for index in range(7):
            tracker.observe("c1", f"/u{index}", float(index))
        # Two capped sessions completed; one click still open.
        assert tracker.completed_sessions == 2
        assert tracker.context("c1") == ("/u6",)

    def test_expire_all_skips_empty_sessions(self):
        tracker = make_tracker(max_session_clicks=2)
        tracker.observe("c1", "A", 0.0)
        tracker.observe("c1", "B", 1.0)  # capped: clicks emptied, client kept
        assert tracker.expire_all() == 0
        assert len(tracker.drain_completed()) == 1


class TestCursorResync:
    def test_cursor_rebuilt_after_publish(self):
        ref = ModelRef(fitted_model())
        tracker = ClientSessionTracker(ref)
        tracker.observe("c1", "A", 0.0)
        before, version_before = tracker.predict("c1", threshold=0.0)
        assert any(p.url == "B" for p in before)
        resyncs = tracker.resyncs

        ref.publish(fitted_model(SWAPPED))
        after, version_after = tracker.predict("c1", threshold=0.0)
        assert version_after == version_before + 1
        assert [p.url for p in after] == ["D"]
        assert tracker.resyncs == resyncs + 1

    def test_observe_resyncs_against_new_model(self):
        ref = ModelRef(fitted_model())
        tracker = ClientSessionTracker(ref)
        tracker.observe("c1", "A", 0.0)
        ref.publish(fitted_model([("A", "B", "Z"), ("A", "B", "Z")]))
        # The next click replays the trimmed context against the new model.
        tracker.observe("c1", "B", 10.0)
        predictions, _ = tracker.predict("c1", threshold=0.0)
        assert [p.url for p in predictions] == ["Z"]

    def test_in_place_fold_visible_without_publish(self):
        model = fitted_model()
        tracker = ClientSessionTracker(ModelRef(model))
        tracker.observe("c1", "A", 0.0)
        tracker.predict("c1", threshold=0.0)
        # Fold a new continuation into the *same* model object; the
        # cursor's own mutation-counter resync must pick it up.
        model.fold_sessions(make_sessions([("A", "E"), ("A", "E"), ("A", "E")]))
        predictions, version = tracker.predict("c1", threshold=0.0)
        assert version == 1
        assert any(p.url == "E" for p in predictions)


class TestPredictMemoCache:
    """A repeated /predict between clicks must be a memo hit, and every
    event that can change the answer must invalidate the memo."""

    def test_repeat_predict_hits_the_cache(self):
        tracker = make_tracker()
        tracker.observe("c1", "A", 0.0)
        first, _ = tracker.predict("c1", threshold=0.0)
        assert tracker.predict_cache_misses == 1
        again, _ = tracker.predict("c1", threshold=0.0)
        assert again is first
        assert tracker.predict_cache_hits == 1
        assert tracker.predict_cache_misses == 1

    def test_observe_invalidates(self):
        tracker = make_tracker()
        tracker.observe("c1", "A", 0.0)
        tracker.predict("c1", threshold=0.0)
        tracker.observe("c1", "B", 1.0)
        tracker.predict("c1", threshold=0.0)
        assert tracker.predict_cache_hits == 0
        assert tracker.predict_cache_misses == 2

    def test_different_threshold_or_limit_misses(self):
        tracker = make_tracker()
        tracker.observe("c1", "A", 0.0)
        tracker.predict("c1", threshold=0.0)
        tracker.predict("c1", threshold=0.25)
        tracker.predict("c1", threshold=0.25, limit=1)
        assert tracker.predict_cache_hits == 0
        assert tracker.predict_cache_misses == 3
        # Repeating the last query is a hit again.
        tracker.predict("c1", threshold=0.25, limit=1)
        assert tracker.predict_cache_hits == 1

    def test_publish_invalidates(self):
        ref = ModelRef(fitted_model())
        tracker = ClientSessionTracker(ref)
        tracker.observe("c1", "A", 0.0)
        stale, _ = tracker.predict("c1", threshold=0.0)
        ref.publish(fitted_model(SWAPPED))
        fresh, version = tracker.predict("c1", threshold=0.0)
        assert version == 2
        assert [p.url for p in fresh] == ["D"]
        assert tracker.predict_cache_hits == 0

    def test_in_place_fold_invalidates(self):
        model = fitted_model()
        tracker = ClientSessionTracker(ModelRef(model))
        tracker.observe("c1", "A", 0.0)
        tracker.predict("c1", threshold=0.0)
        model.fold_sessions(
            make_sessions([("A", "E"), ("A", "E"), ("A", "E")])
        )
        predictions, _ = tracker.predict("c1", threshold=0.0)
        assert any(p.url == "E" for p in predictions)
        assert tracker.predict_cache_hits == 0
        assert tracker.predict_cache_misses == 2

    def test_session_expiry_invalidates(self):
        tracker = make_tracker(idle_timeout_s=5.0)
        tracker.observe("c1", "A", 0.0)
        populated, _ = tracker.predict("c1", threshold=0.0)
        assert populated
        # The idle gap completes the session on the next observe; the
        # memo from the old session must not survive into the new one.
        tracker.observe("c1", "ZZZ-unknown", 100.0)
        predictions, _ = tracker.predict("c1", threshold=0.0)
        assert predictions == []
