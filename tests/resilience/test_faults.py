"""The fault-injection framework itself: determinism, windows, plumbing."""

from __future__ import annotations

import pickle

import pytest

from repro import params
from repro.errors import ResilienceError
from repro.resilience import (
    INJECTION_SITES,
    FaultPlan,
    active_plan,
    clear,
    fire,
    injected,
    install,
)

SITE = "snapshot.io_error"


class TestFaultPlan:
    def test_fires_inside_window_only(self):
        plan = FaultPlan(seed=7).arm(SITE, after=2, times=2)
        decisions = [plan.should_fire(SITE) is not None for _ in range(6)]
        assert decisions == [False, False, True, True, False, False]

    def test_times_none_fires_forever(self):
        plan = FaultPlan(seed=7).arm(SITE, times=None, after=1)
        decisions = [plan.should_fire(SITE) is not None for _ in range(4)]
        assert decisions == [False, True, True, True]

    def test_unarmed_site_never_fires(self):
        plan = FaultPlan(seed=7).arm(SITE)
        assert plan.should_fire("rebuild.exception") is None

    def test_spec_carries_delay(self):
        plan = FaultPlan(seed=7).arm("rebuild.stall", delay_s=1.5)
        spec = plan.should_fire("rebuild.stall")
        assert spec is not None and spec.delay_s == 1.5

    def test_probability_is_seed_deterministic(self):
        def draws(seed: int) -> list[bool]:
            plan = FaultPlan(seed).arm(SITE, times=None, probability=0.5)
            return [plan.should_fire(SITE) is not None for _ in range(64)]

        assert draws(7) == draws(7)
        assert draws(7) != draws(8)
        assert any(draws(7)) and not all(draws(7))

    def test_pickle_roundtrip_preserves_counters(self):
        plan = FaultPlan(seed=7).arm(SITE, times=2)
        plan.should_fire(SITE)
        clone = pickle.loads(pickle.dumps(plan))
        # The clone resumes where the original left off: one fire spent.
        assert clone.should_fire(SITE) is not None
        assert clone.should_fire(SITE) is None
        assert clone.fires == {SITE: 2}

    def test_fires_accounting(self):
        plan = FaultPlan(seed=7).arm(SITE, times=2)
        for _ in range(5):
            plan.should_fire(SITE)
        assert plan.fires == {SITE: 2}
        assert plan.armed_sites == [SITE]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"times": 0},
            {"after": -1},
            {"probability": 0.0},
            {"probability": 1.5},
            {"delay_s": -0.1},
        ],
    )
    def test_invalid_arm_arguments_raise(self, kwargs):
        with pytest.raises(ResilienceError):
            FaultPlan(seed=7).arm(SITE, **kwargs)

    def test_unknown_site_is_a_loud_error(self):
        with pytest.raises(ResilienceError, match="unknown injection site"):
            FaultPlan(seed=7).arm("snapshot.io_eror")


class TestGlobalHook:
    def test_fire_without_plan_is_none(self):
        clear()
        assert fire(SITE) is None

    def test_install_and_clear(self):
        plan = FaultPlan(seed=7).arm(SITE)
        install(plan)
        try:
            assert active_plan() is plan
            assert fire(SITE) is not None
        finally:
            clear()
        assert active_plan() is None
        assert fire(SITE) is None

    def test_injected_restores_previous_plan(self):
        outer = FaultPlan(seed=1).arm(SITE)
        install(outer)
        try:
            with injected(FaultPlan(seed=2).arm(SITE)) as inner:
                assert active_plan() is inner
            assert active_plan() is outer
        finally:
            clear()

    def test_injected_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with injected(FaultPlan(seed=7).arm(SITE)):
                raise RuntimeError("boom")
        assert params.FAULT_PLAN is None

    def test_every_registered_site_arms(self):
        plan = FaultPlan(seed=7)
        for site in INJECTION_SITES:
            plan.arm(site)
        assert plan.armed_sites == sorted(INJECTION_SITES)
