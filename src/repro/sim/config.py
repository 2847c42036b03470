"""Simulation parameters (paper Sections 2.2 and 4.1)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import params
from repro.errors import SimulationError


@dataclass(frozen=True)
class SimulationConfig:
    """All knobs of one simulator run.

    Attributes
    ----------
    prediction_threshold:
        Minimum conditional probability for a prediction to trigger a
        prefetch (0.25 in every experiment of the paper).
    prefetch_size_limit_bytes:
        Maximum size of a document the server will prefetch.  The paper
        limits PB-PPM to 30 KB and allows 100 KB for the baselines in
        Section 4; Section 5 sweeps 4 KB and 10 KB.
    browser_cache_bytes / proxy_cache_bytes:
        Cache capacities (10 MB browsers, 16 GB proxy disk).
    proxy_requests_per_day:
        Client-classification cut-off: clients above it are proxies and
        receive a proxy-sized cache even in per-client mode.
    max_context_length:
        Longest session suffix handed to the model as context.  Bounded so
        an unlimited-height standard PPM cannot make prediction cost
        quadratic in session length; 20 comfortably exceeds every branch
        height the paper uses.
    max_prefetch_per_request:
        Safety cap on prefetches issued per demand request (the 0.25
        probability threshold already bounds the fan-out to at most 4
        context predictions; special links can add a few more).
    reset_context_on_session_gap:
        When true (paper behaviour), an idle gap longer than the session
        timeout clears the prediction context.
    idle_timeout_seconds:
        The session timeout used for the context reset.
    cache_policy:
        Replacement policy for every cache in the run: ``"lru"`` (the
        paper's), or the ablation policies ``"fifo"``, ``"lfu"``,
        ``"gdsf"`` from :mod:`repro.sim.replacement`.
    collect_latencies:
        When true, the per-request latencies of both the prefetching run
        and the caching-only shadow are retained on the result, enabling
        percentile reporting (p50/p95) in addition to the paper's mean
        latency reduction.
    """

    prediction_threshold: float = params.PREDICTION_PROBABILITY_THRESHOLD
    prefetch_size_limit_bytes: int = params.DEFAULT_PREFETCH_SIZE_LIMIT
    browser_cache_bytes: int = params.BROWSER_CACHE_BYTES
    proxy_cache_bytes: int = params.PROXY_CACHE_BYTES
    proxy_requests_per_day: float = params.PROXY_REQUESTS_PER_DAY
    max_context_length: int = params.DEFAULT_MAX_CONTEXT_LENGTH
    max_prefetch_per_request: int = 16
    reset_context_on_session_gap: bool = True
    idle_timeout_seconds: float = params.SESSION_IDLE_TIMEOUT_S
    cache_policy: str = "lru"
    collect_latencies: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.prediction_threshold <= 1.0:
            raise SimulationError(
                f"prediction_threshold out of [0, 1]: {self.prediction_threshold}"
            )
        if self.prefetch_size_limit_bytes < 0:
            raise SimulationError(
                f"negative prefetch size limit: {self.prefetch_size_limit_bytes}"
            )
        if self.browser_cache_bytes < 0 or self.proxy_cache_bytes < 0:
            raise SimulationError("cache capacities must be >= 0")
        if self.max_context_length < 1:
            raise SimulationError(
                f"max_context_length must be >= 1: {self.max_context_length}"
            )
        if self.max_prefetch_per_request < 0:
            raise SimulationError(
                f"max_prefetch_per_request must be >= 0: {self.max_prefetch_per_request}"
            )
        from repro.sim.replacement import POLICIES

        if self.cache_policy not in POLICIES:
            raise SimulationError(
                f"unknown cache policy {self.cache_policy!r}; "
                f"available: {POLICIES}"
            )

    @classmethod
    def for_model(cls, model_name: str, **overrides) -> "SimulationConfig":
        """The paper's Section-4 configuration for a given model name.

        PB-PPM runs with its limited 30 KB prefetch threshold; the standard
        and LRS models with 100 KB.
        """
        if "prefetch_size_limit_bytes" not in overrides:
            if model_name == "pb":
                overrides["prefetch_size_limit_bytes"] = params.PB_PREFETCH_SIZE_LIMIT
            else:
                overrides["prefetch_size_limit_bytes"] = (
                    params.DEFAULT_PREFETCH_SIZE_LIMIT
                )
        return cls(**overrides)
