"""Unit tests for online model maintenance."""

import pytest

from repro.core.lrs import LRSPPM
from repro.core.online import RollingModelManager, update_model
from repro.core.pb import PopularityBasedPPM
from repro.core.popularity import PopularityTable
from repro.core.standard import StandardPPM
from repro.errors import ModelError

from tests.helpers import make_popularity, make_sessions


class TestUpdateModel:
    def test_standard_update_equals_batch_fit(self):
        first = make_sessions([("A", "B"), ("A", "C")])
        second = make_sessions([("A", "B"), ("B", "C")])
        incremental = StandardPPM().fit(first)
        update_model(incremental, second)
        batch = StandardPPM().fit(first + second)
        assert incremental.node_count == batch.node_count
        for context in (["A"], ["B"], ["A", "B"]):
            assert incremental.predict(
                context, mark_used=False
            ) == batch.predict(context, mark_used=False)

    def test_fixed_height_respected_on_update(self):
        from repro.core.stats import max_depth

        model = StandardPPM(max_height=2).fit(make_sessions([("A", "B")]))
        update_model(model, make_sessions([("C", "D", "E", "F")]))
        assert max_depth(model.roots) <= 2

    def test_pb_update_keeps_grading_fixed(self):
        popularity = make_popularity({"A": 1000, "B": 50, "C": 5})
        model = PopularityBasedPPM(
            popularity, prune_relative_probability=None
        ).fit(make_sessions([("A", "B")]))
        before_roots = set(model.roots)
        update_model(model, make_sessions([("A", "B", "C")]))
        # Counts accumulated; no regrade happened (B still not a root).
        assert model.roots["A"].count == 2
        assert set(model.roots) == before_roots

    def test_pb_update_equals_batch_without_pruning(self):
        popularity = make_popularity({"A": 1000, "B": 50, "C": 5})
        first = make_sessions([("A", "B", "C")])
        second = make_sessions([("C", "A", "B")])
        incremental = PopularityBasedPPM(
            popularity, prune_relative_probability=None
        ).fit(first)
        update_model(incremental, second)
        batch = PopularityBasedPPM(
            popularity, prune_relative_probability=None
        ).fit(first + second)
        assert incremental.node_count == batch.node_count

    def test_lrs_refuses_incremental(self):
        model = LRSPPM().fit(make_sessions([("A", "B")] * 2))
        with pytest.raises(ModelError):
            update_model(model, make_sessions([("A", "B")]))

    def test_unfitted_model_rejected(self):
        with pytest.raises(ModelError):
            update_model(StandardPPM(), make_sessions([("A",)]))


class TestRollingManager:
    def make_manager(self, **kwargs):
        return RollingModelManager(
            lambda pop: PopularityBasedPPM(pop, prune_relative_probability=None),
            **kwargs,
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make_manager(window_days=0)
        with pytest.raises(ValueError):
            self.make_manager(refit_every=0)

    def test_model_before_first_day_raises(self):
        manager = self.make_manager()
        with pytest.raises(ModelError):
            _ = manager.model
        with pytest.raises(ModelError):
            _ = manager.popularity

    def test_first_day_fits(self):
        manager = self.make_manager(window_days=3)
        manager.advance_day(make_sessions([("A", "B")]))
        assert manager.model.is_fitted
        assert manager.days_retained == 1
        assert manager.refit_count == 1

    def test_window_rolls_old_days_out(self):
        manager = self.make_manager(window_days=2)
        manager.advance_day(make_sessions([("OLD", "X")]))
        manager.advance_day(make_sessions([("A", "B")]))
        manager.advance_day(make_sessions([("A", "C")]))  # OLD drops out
        assert manager.days_retained == 2
        assert "OLD" not in manager.model.roots
        assert all(s.urls[0] != "OLD" for s in manager.window_sessions)

    def test_incremental_between_scheduled_refits(self):
        manager = RollingModelManager(
            lambda pop: StandardPPM(), window_days=10, refit_every=3
        )
        manager.advance_day(make_sessions([("A", "B")]))  # refit (first day)
        manager.advance_day(make_sessions([("A", "C")]))  # incremental
        manager.advance_day(make_sessions([("A", "D")]))  # incremental
        assert manager.incremental_count == 2
        # Counts reflect all three days despite only one refit.
        assert manager.model.roots["A"].count == 3

    def test_incremental_day_reads_its_sessions_once(self):
        """The window and the incremental fold share one pass over the
        day, so a one-shot iterator folds every session too."""
        manager = RollingModelManager(
            lambda pop: StandardPPM(), window_days=10, refit_every=3
        )
        manager.advance_day(iter(make_sessions([("A", "B")])))
        manager.advance_day(iter(make_sessions([("A", "C")])))
        assert manager.incremental_count == 1
        assert manager.model.roots["A"].count == 2
        assert len(manager.window_sessions) == 2

    def test_refit_schedule_triggers(self):
        manager = RollingModelManager(
            lambda pop: StandardPPM(), window_days=10, refit_every=2
        )
        for _ in range(5):
            manager.advance_day(make_sessions([("A", "B")]))
        assert manager.refit_count >= 2

    def test_lrs_factory_always_refits(self):
        manager = RollingModelManager(
            lambda pop: LRSPPM(), window_days=5, refit_every=100
        )
        manager.advance_day(make_sessions([("A", "B")] * 2))
        manager.advance_day(make_sessions([("A", "B")] * 2))
        # The incremental path raises ModelError internally and falls back
        # to refitting, so the model stays usable.
        assert manager.model.is_fitted
        assert manager.refit_count == 2
        assert manager.incremental_count == 0

    def test_popularity_tracks_window(self):
        manager = self.make_manager(window_days=1, refit_every=1)
        manager.advance_day(make_sessions([("A", "A", "A")]))
        assert manager.popularity.count("A") == 3
        manager.advance_day(make_sessions([("B",)]))
        assert manager.popularity.count("A") == 0
        assert manager.popularity.count("B") == 1


class TestRollingManagerQuietDays:
    """Empty days — quiet server intervals — must not refit or corrupt."""

    def make_manager(self, **kwargs):
        return RollingModelManager(
            lambda pop: PopularityBasedPPM(pop, prune_relative_probability=None),
            **kwargs,
        )

    def test_empty_day_does_not_refit(self):
        manager = self.make_manager(window_days=5, refit_every=1)
        manager.advance_day(make_sessions([("A", "B"), ("A", "C")]))
        model = manager.model
        popularity = manager.popularity
        refits = manager.refit_count
        manager.advance_day([])
        # Same objects: no refit, no popularity re-rank, no grade change.
        assert manager.model is model
        assert manager.popularity is popularity
        assert manager.refit_count == refits

    def test_empty_day_occupies_window_slot(self):
        manager = self.make_manager(window_days=3)
        manager.advance_day(make_sessions([("A", "B")]))
        manager.advance_day([])
        assert manager.days_retained == 2
        assert len(manager.window_sessions) == 1

    def test_first_day_empty_still_fits(self):
        manager = self.make_manager(window_days=3)
        model = manager.advance_day([])
        assert model.is_fitted
        assert manager.refit_count == 1
        assert model.node_count == 0

    def test_empty_day_rolling_out_nonempty_day_refits(self):
        manager = self.make_manager(window_days=2, refit_every=100)
        manager.advance_day(make_sessions([("OLD", "X")]))
        manager.advance_day(make_sessions([("A", "B")]))
        refits = manager.refit_count
        # Appending the quiet day drops OLD out of the window: the grades
        # genuinely changed, so this one empty day must trigger a refit.
        manager.advance_day([])
        assert manager.refit_count == refits + 1
        assert "OLD" not in manager.model.roots
        assert manager.popularity.count("OLD") == 0

    def test_quiet_days_leave_grades_uncorrupted(self):
        manager = self.make_manager(window_days=10, refit_every=1)
        manager.advance_day(
            make_sessions([("A", "B")] * 20 + [("C", "D")] * 2)
        )
        grade_a = manager.popularity.grade("A")
        grade_c = manager.popularity.grade("C")
        for _ in range(4):
            manager.advance_day([])
        assert manager.popularity.grade("A") == grade_a
        assert manager.popularity.grade("C") == grade_c
        predictions = manager.model.predict(["A"], mark_used=False)
        assert [p.url for p in predictions] == ["B"]

    def test_expiry_only_day_uses_incremental_path(self):
        # A day holding only sessions that expired mid-window (no new
        # clicks beyond what the model saw) folds in incrementally and
        # keeps predictions sane.
        manager = RollingModelManager(
            lambda pop: StandardPPM(), window_days=10, refit_every=5
        )
        manager.advance_day(make_sessions([("A", "B"), ("A", "B")]))
        refits = manager.refit_count
        manager.advance_day(make_sessions([("A", "B")]))
        assert manager.refit_count == refits
        assert manager.incremental_count == 1
        assert manager.model.roots["A"].count == 3
