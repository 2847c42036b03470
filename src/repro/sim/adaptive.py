"""Adaptive prefetch throttling under a traffic budget.

Section 5 of the paper closes on the observation that *"there is a
tradeoff between increasing hit ratios and lowering traffic increment ...
By adjusting the threshold size of prefetched documents, we are able to
address the tradeoff."*  This module automates that adjustment: a
feedback controller watches the running traffic increment and scales the
prediction-probability threshold so the run converges to a configured
traffic budget — aggressive prefetching while under budget, throttled
when over.

:class:`AdaptivePrefetchSimulator` is a drop-in replacement for
:class:`~repro.sim.engine.PrefetchSimulator`; the ablation bench sweeps
budgets and verifies the achieved traffic lands near the target.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.sim.engine import PrefetchSimulator
from repro.sim.metrics import SimulationResult


@dataclass(frozen=True)
class AdaptivePolicy:
    """Controller parameters.

    Attributes
    ----------
    traffic_budget:
        Target traffic increment (e.g. 0.10 for "at most ~10 % wasted
        push bytes").
    adjust_every:
        Requests between controller updates.
    step:
        Multiplicative threshold step per adjustment.
    min_threshold / max_threshold:
        Clamp on the effective prediction threshold.
    """

    traffic_budget: float = 0.10
    adjust_every: int = 50
    step: float = 1.25
    min_threshold: float = 0.05
    max_threshold: float = 0.95

    def __post_init__(self) -> None:
        if self.traffic_budget < 0:
            raise SimulationError(f"negative traffic budget: {self.traffic_budget}")
        if self.adjust_every < 1:
            raise SimulationError(f"adjust_every must be >= 1: {self.adjust_every}")
        if self.step <= 1.0:
            raise SimulationError(f"step must exceed 1.0: {self.step}")
        if not 0.0 < self.min_threshold <= self.max_threshold <= 1.0:
            raise SimulationError(
                f"bad threshold clamp: [{self.min_threshold}, {self.max_threshold}]"
            )


class AdaptivePrefetchSimulator(PrefetchSimulator):
    """A prefetch simulator whose threshold tracks a traffic budget.

    The effective prediction threshold starts at the configured value and
    is re-evaluated every ``policy.adjust_every`` requests: raised by
    ``policy.step`` while the running traffic increment exceeds the
    budget, lowered while it is comfortably below (under 80 % of budget).
    """

    def __init__(self, *args, policy: AdaptivePolicy | None = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.policy = policy or AdaptivePolicy()
        self._effective_threshold = self.config.prediction_threshold
        self._since_adjust = 0
        self.threshold_trajectory: list[float] = []

    # -- controller ---------------------------------------------------------

    def _current_increment(self, result: SimulationResult) -> float:
        useful = result.demand_miss_bytes + result.prefetch_used_bytes
        if useful <= 0:
            return 0.0
        return (result.demand_miss_bytes + result.prefetch_bytes) / useful - 1.0

    def _maybe_adjust(self, result: SimulationResult) -> None:
        self._since_adjust += 1
        if self._since_adjust < self.policy.adjust_every:
            return
        self._since_adjust = 0
        increment = self._current_increment(result)
        if increment > self.policy.traffic_budget:
            self._effective_threshold = min(
                self.policy.max_threshold,
                self._effective_threshold * self.policy.step,
            )
        elif increment < 0.8 * self.policy.traffic_budget:
            self._effective_threshold = max(
                self.policy.min_threshold,
                self._effective_threshold / self.policy.step,
            )
        self.threshold_trajectory.append(self._effective_threshold)

    # -- engine hook -----------------------------------------------------------

    def _next_threshold(self, result: SimulationResult) -> float:
        self._maybe_adjust(result)
        return self._effective_threshold

    @property
    def effective_threshold(self) -> float:
        """The controller's current threshold."""
        return self._effective_threshold
