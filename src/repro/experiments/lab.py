"""The workload lab: one generated trace, many cached evaluations.

Several experiments sweep the same (profile, training-days) grid; the lab
generates each trace once, fits each (model, train-days) pair once, and
caches every simulator run, so a full benchmark session does not repeat
work.  ``REPRO_BENCH_SCALE`` (environment variable) scales the client
population of every lab — set it below 1.0 for quick smoke runs.
"""

from __future__ import annotations

import os
from typing import Callable, Mapping, Sequence

from repro import params
from repro.core.base import PPMModel
from repro.core.extras import FirstOrderMarkov, TopNPush
from repro.core.lrs import LRSPPM
from repro.core.pb import PopularityBasedPPM
from repro.core.popularity import PopularityTable
from repro.core.standard import StandardPPM
from repro.errors import ExperimentError
from repro.sim.config import SimulationConfig
from repro.sim.engine import PrefetchSimulator
from repro.sim.latency import LatencyModel
from repro.sim.metrics import SimulationResult
from repro.synth.generator import generate_trace
from repro.trace.dataset import Trace, TrainTestSplit

#: Default seed of every registered experiment (fixed for reproducibility).
DEFAULT_SEED = 7


def bench_scale() -> float:
    """Workload scale factor from the REPRO_BENCH_SCALE environment variable."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


_default_sampling_override: "tuple[float, int] | None" = None


def default_sampling() -> "tuple[float, int] | None":
    """The (rate, salt) new labs subsample their trace with, or None.

    Resolution order: :func:`set_default_sampling` override, then the
    ``REPRO_SAMPLE_RATE`` / ``REPRO_SAMPLE_SALT`` environment
    variables, then no sampling.  A rate of 1.0 means full trace.
    """
    if _default_sampling_override is not None:
        return _default_sampling_override
    rate = os.environ.get("REPRO_SAMPLE_RATE")
    if rate is None:
        return None
    return (float(rate), int(os.environ.get("REPRO_SAMPLE_SALT", "0")))


def set_default_sampling(rate: float | None, salt: int = 0) -> None:
    """Set (or with ``None`` clear) process-wide client-hash sampling.

    The CLI's ``--sample-rate`` flag lands here.  Sampling *changes
    results* (a sampled lab replays a client subset), so existing labs
    are left untouched — the sampling spec is part of the
    :func:`get_lab` cache key, and only labs built after this call see
    the new default.
    """
    global _default_sampling_override
    if rate is None:
        _default_sampling_override = None
        return
    from repro.sampling.sampler import ClientSampler

    sampler = ClientSampler(rate, salt=salt)  # validates rate and salt
    _default_sampling_override = (sampler.rate, sampler.salt)


class WorkloadLab:
    """Caches trace, splits, popularity tables, models and simulator runs.

    Parameters
    ----------
    profile:
        Built-in profile name (``nasa-like`` or ``ucb-like``).
    total_days:
        Days to generate; training sweeps may use up to ``total_days - 1``.
    seed / scale:
        Generator seed and client-population scale.
    sample_rate / sample_salt:
        Client-hash sampling applied to the generated trace before any
        derivation (default: the process-wide :func:`default_sampling`).
        Sampling changes results, so it *is* part of the lab cache key.
    """

    def __init__(
        self,
        profile: str,
        total_days: int,
        *,
        seed: int = DEFAULT_SEED,
        scale: float | None = None,
        sample_rate: float | None = None,
        sample_salt: int | None = None,
    ) -> None:
        self.profile = profile
        self.total_days = total_days
        self.seed = seed
        self.scale = scale if scale is not None else bench_scale()
        if sample_rate is None:
            default = default_sampling()
            if default is not None:
                sample_rate, sample_salt = default
        self.sample_rate = sample_rate
        self.sample_salt = int(sample_salt or 0)
        self.trace: Trace = generate_trace(
            profile, days=total_days, seed=seed, scale=self.scale
        )
        if self.sample_rate is not None and self.sample_rate < 1.0:
            from repro.sampling.sampler import ClientSampler

            self.trace = self.trace.sampled(
                ClientSampler(self.sample_rate, salt=self.sample_salt)
            )
        self.url_sizes = self.trace.url_size_table()
        self.client_kinds = self.trace.classify_clients()
        self._splits: dict[int, TrainTestSplit] = {}
        self._popularity: dict[int, PopularityTable] = {}
        self._latency: dict[int, LatencyModel] = {}
        self._models: dict[tuple[str, int], PPMModel] = {}
        self._runs: dict[tuple, SimulationResult] = {}

    # -- cached building blocks ------------------------------------------------

    def split(self, train_days: int) -> TrainTestSplit:
        if train_days not in self._splits:
            self._splits[train_days] = self.trace.split(train_days)
        return self._splits[train_days]

    def popularity(self, train_days: int) -> PopularityTable:
        if train_days not in self._popularity:
            self._popularity[train_days] = PopularityTable.from_requests(
                self.split(train_days).train_requests
            )
        return self._popularity[train_days]

    def latency(self, train_days: int) -> LatencyModel:
        if train_days not in self._latency:
            self._latency[train_days] = LatencyModel.fit_requests(
                self.split(train_days).train_requests
            )
        return self._latency[train_days]

    # -- model construction --------------------------------------------------------

    def _model_factories(
        self, train_days: int
    ) -> Mapping[str, Callable[[], PPMModel]]:
        """Model builders for one training window, keyed by model key."""
        # The paper applies PB-PPM's absolute-count pruning pass on the
        # UCB-CS trace only.
        absolute = 1 if self.profile.startswith("ucb") else None
        popularity = self.popularity(train_days)
        return {
            "standard": StandardPPM,
            "standard3": StandardPPM.order_3,
            "lrs": LRSPPM,
            "pb": lambda: PopularityBasedPPM(
                popularity, prune_absolute_count=absolute
            ),
            "pb-unpruned": lambda: PopularityBasedPPM(
                popularity,
                prune_relative_probability=None,
                prune_absolute_count=None,
            ),
            "markov1": FirstOrderMarkov,
            "top10": lambda: TopNPush(n=10),
        }

    def model(self, key: str, train_days: int) -> PPMModel:
        """A fitted model for the given training window (cached)."""
        cache_key = (key, train_days)
        if cache_key not in self._models:
            factories = self._model_factories(train_days)
            if key not in factories:
                raise ExperimentError(
                    f"unknown model key {key!r}; available: {sorted(factories)}"
                )
            model = factories[key]()
            model.fit(self.split(train_days).train_sessions)
            self._models[cache_key] = model
        return self._models[cache_key]

    # -- simulator runs -------------------------------------------------------------

    def config_for(self, model_key: str, **overrides) -> SimulationConfig:
        """The paper's Section-4 configuration for a model key."""
        base_name = "pb" if model_key.startswith("pb") else model_key
        return SimulationConfig.for_model(base_name, **overrides)

    def run(
        self,
        model_key: str,
        train_days: int,
        *,
        topology: str = "client",
        clients: tuple[str, ...] | None = None,
        threshold: float | None = None,
        prefetch_limit: int | None = None,
        escape: bool | None = None,
        cache_policy: str | None = None,
    ) -> SimulationResult:
        """Replay the test day against a model; results are cached.

        Parameters
        ----------
        topology:
            ``"client"`` for the Section-4 per-client experiments,
            ``"proxy"`` for the Section-5 shared-proxy experiments.
        clients:
            Proxy topology only: the client subset connected to the proxy.
        threshold / prefetch_limit:
            Optional overrides of the prediction-probability threshold and
            the prefetch-size limit (bytes) for ablations and Section 5.
        escape:
            Optional override enabling compression-style PPM escape (an
            ablation; the registered experiments leave it unset).
        cache_policy:
            Optional cache-replacement policy override ("lru", "fifo",
            "lfu", "gdsf") for the replacement-policy ablation.
        """
        run_key = (
            model_key,
            train_days,
            topology,
            clients,
            threshold,
            prefetch_limit,
            escape,
            cache_policy,
        )
        if run_key in self._runs:
            return self._runs[run_key]
        overrides: dict = {}
        if threshold is not None:
            overrides["prediction_threshold"] = threshold
        if prefetch_limit is not None:
            overrides["prefetch_size_limit_bytes"] = prefetch_limit
        if cache_policy is not None:
            overrides["cache_policy"] = cache_policy
        config = self.config_for(model_key, **overrides)
        model = self.model(model_key, train_days)
        if escape is not None:
            model = _EscapeWrapper(model, escape)
        simulator = PrefetchSimulator(
            model,
            self.url_sizes,
            self.latency(train_days),
            config,
            popularity=self.popularity(train_days),
        )
        split = self.split(train_days)
        if topology == "client":
            result = simulator.run(
                split.test_requests, client_kinds=self.client_kinds
            )
        elif topology == "proxy":
            result = simulator.run_proxy(split.test_requests, clients=clients)
        else:
            raise ExperimentError(f"unknown topology {topology!r}")
        result.labels.update(
            {
                "profile": self.profile,
                "train_days": train_days,
                "model_key": model_key,
                "topology": topology,
            }
        )
        if self.sample_rate is not None and self.sample_rate < 1.0:
            result.labels["sample_rate"] = self.sample_rate
        self._runs[run_key] = result
        return result

    def run_grid(
        self, cells: "Sequence[Mapping[str, object]]"
    ) -> list[SimulationResult]:
        """Evaluate a list of grid cells, one :meth:`run` call per cell.

        Each cell is a keyword mapping for :meth:`run` (``model_key`` and
        ``train_days`` required).  Cells are evaluated in order and cached
        under the same keys a direct :meth:`run` call would use, so a
        grid sweep (Figure 3/4 style) shares runs with single cells.
        """
        return [self.run(**dict(cell)) for cell in cells]

    def browser_clients(self) -> list[str]:
        """Browser-classified client ids active on the trace, sorted."""
        return sorted(
            client
            for client, kind in self.client_kinds.items()
            if kind == "browser"
        )


class _EscapeWrapper:
    """Delegate that forces the ``escape`` flag on every prediction,
    through every entry point: the batch ``predict``, the cursor's
    ``predict_cursor`` and the per-node step the replay engine calls."""

    def __init__(self, model: PPMModel, escape: bool) -> None:
        self._model = model
        self._escape = escape

    def __getattr__(self, name: str):
        return getattr(self._model, name)

    def predict(
        self,
        context,
        *,
        threshold=params.PREDICTION_PROBABILITY_THRESHOLD,
        mark_used=True,
        escape=False,
    ):
        del escape
        return self._model.predict(
            context, threshold=threshold, mark_used=mark_used, escape=self._escape
        )

    def predict_cursor(
        self,
        cursor,
        *,
        threshold=params.PREDICTION_PROBABILITY_THRESHOLD,
        mark_used=True,
        escape=False,
    ):
        del escape
        return self._model.predict_cursor(
            cursor, threshold=threshold, mark_used=mark_used, escape=self._escape
        )

    def node_predictor(self, *, escape=False):
        del escape
        return self._model.node_predictor(escape=self._escape)


_LABS: dict[tuple, WorkloadLab] = {}


def get_lab(
    profile: str,
    total_days: int,
    *,
    seed: int = DEFAULT_SEED,
    scale: float | None = None,
    sample_rate: float | None = None,
    sample_salt: int | None = None,
) -> WorkloadLab:
    """Process-wide lab cache so experiments share traces and models.

    The sampling spec is part of the cache key: a sampled lab replays a
    client subset, so its results must never be confused with a full
    lab's.
    """
    resolved_scale = scale if scale is not None else bench_scale()
    if sample_rate is None:
        default = default_sampling()
        if default is not None:
            sample_rate, sample_salt = default
    resolved_salt = int(sample_salt or 0)
    key = (profile, total_days, seed, resolved_scale, sample_rate, resolved_salt)
    if key not in _LABS:
        _LABS[key] = WorkloadLab(
            profile,
            total_days,
            seed=seed,
            scale=resolved_scale,
            sample_rate=sample_rate,
            sample_salt=resolved_salt,
        )
    return _LABS[key]


def clear_labs() -> None:
    """Drop every cached lab (tests use this to bound memory)."""
    _LABS.clear()
