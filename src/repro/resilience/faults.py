"""Deterministic fault injection: named sites armed by a seeded plan.

Production subsystems earn their recovery story only when failures can be
*reproduced*: a crash that happens on the third snapshot write of seed 7
must happen on the third snapshot write of seed 7 every time.  This module
provides that determinism:

* :data:`INJECTION_SITES` names every point in the library where a fault
  can be injected (the table in DESIGN.md Section "Failure model &
  recovery" mirrors it).
* :class:`FaultPlan` arms a subset of those sites with deterministic
  firing windows (``after`` / ``times``) and optionally a seeded
  probability.
* :func:`fire` is the zero-overhead hook the instrumented code calls.
  When no plan is installed (``params.FAULT_PLAN is None`` — the default,
  and the only state production code ever sees) it is a single attribute
  load and ``None`` check; tests and the ``repro chaos`` harness install a
  plan with :func:`install` or the :func:`injected` context manager.

The *site* decides what firing means — raising ``OSError``, sleeping
``delay_s``, truncating a payload — so this module stays free of any
knowledge about the subsystems it breaks.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro import params
from repro.errors import ResilienceError

#: Every named injection point, with what firing does there.  ``arm``
#: validates against this registry so a typo in a chaos schedule is a
#: loud error instead of a silently-never-firing fault.
INJECTION_SITES: dict[str, str] = {
    "snapshot.io_error": (
        "snapshot write raises OSError before the temp file is renamed"
    ),
    "snapshot.torn_write": (
        "snapshot temp file is truncated mid-write (torn write); the "
        "verify-before-rename step must catch it"
    ),
    "rebuild.exception": (
        "model rebuild raises ModelError before touching the rolling "
        "window (the refresh requeues the day and trips the breaker)"
    ),
    "rebuild.stall": (
        "model rebuild sleeps delay_s, exceeding the rebuild deadline"
    ),
    "serve.slow_request": (
        "request dispatch sleeps delay_s, exceeding the request timeout "
        "and holding an in-flight slot (drives load shedding)"
    ),
    "client.slow_report": (
        "load-generator connection sleeps delay_s before sending a report"
    ),
    "client.corrupt_report": (
        "load generator sends a malformed report; the server must answer "
        "400 and keep the connection usable"
    ),
    "wal.write_error": (
        "journal append raises WalError before any byte is written; the "
        "report is refused (503) against an intact journal"
    ),
    "wal.torn_tail": (
        "journal append writes half a frame then fails — a real torn "
        "tail on disk; the journal seals the damaged segment and rotates, "
        "and recovery must truncate at the tear"
    ),
    "wal.fsync_stall": (
        "journal fsync sleeps delay_s before syncing (slow disk)"
    ),
}


@dataclass(frozen=True)
class FaultSpec:
    """One armed injection site (what :func:`fire` returns when it fires)."""

    site: str
    #: Fire on this many checks (None = every check once past ``after``).
    times: int | None = 1
    #: Skip the first ``after`` checks of the site.
    after: int = 0
    #: Chance a check inside the firing window actually fires (seeded).
    probability: float = 1.0
    #: Sleep length for hang / stall / slow sites.
    delay_s: float = 0.0


@dataclass
class _SiteState:
    spec: FaultSpec
    checks: int = 0
    fires: int = 0
    rng: random.Random = field(default_factory=random.Random)


class FaultPlan:
    """A seeded, deterministic schedule of faults over named sites.

    Decisions depend only on the seed, the site name and the order of
    checks at that site — never on wall-clock time or global RNG state —
    so a failing chaos run replays exactly.

    >>> plan = FaultPlan(seed=7).arm("snapshot.io_error", times=2)
    >>> [bool(plan.should_fire("snapshot.io_error")) for _ in range(3)]
    [True, True, False]
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._sites: dict[str, _SiteState] = {}

    def arm(
        self,
        site: str,
        *,
        times: int | None = 1,
        after: int = 0,
        probability: float = 1.0,
        delay_s: float = 0.0,
    ) -> "FaultPlan":
        """Arm ``site``; returns self so plans read as chained arms."""
        if site not in INJECTION_SITES:
            known = ", ".join(sorted(INJECTION_SITES))
            raise ResilienceError(
                f"unknown injection site {site!r}; known sites: {known}"
            )
        if times is not None and times < 1:
            raise ResilienceError(f"times must be >= 1 or None, got {times}")
        if after < 0:
            raise ResilienceError(f"after must be >= 0, got {after}")
        if not 0.0 < probability <= 1.0:
            raise ResilienceError(
                f"probability must be in (0, 1], got {probability}"
            )
        if delay_s < 0:
            raise ResilienceError(f"delay_s must be >= 0, got {delay_s}")
        spec = FaultSpec(
            site=site,
            times=times,
            after=after,
            probability=probability,
            delay_s=delay_s,
        )
        # Seeding with a string hashes via SHA-512, so the stream is
        # deterministic across processes regardless of PYTHONHASHSEED.
        rng = random.Random(f"{self.seed}:{site}")
        self._sites[site] = _SiteState(spec=spec, rng=rng)
        return self

    @property
    def armed_sites(self) -> list[str]:
        return sorted(self._sites)

    @property
    def fires(self) -> dict[str, int]:
        """Fires observed per site *in this process*."""
        return {
            site: state.fires
            for site, state in sorted(self._sites.items())
            if state.fires
        }

    def should_fire(self, site: str) -> FaultSpec | None:
        """One deterministic check of ``site``."""
        state = self._sites.get(site)
        if state is None:
            return None
        index = state.checks
        state.checks += 1
        spec = state.spec
        if index < spec.after:
            return None
        if spec.times is not None and index >= spec.after + spec.times:
            return None
        if spec.probability < 1.0 and state.rng.random() >= spec.probability:
            return None
        state.fires += 1
        return spec

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan(seed={self.seed}, armed={self.armed_sites})"


def install(plan: FaultPlan | None) -> None:
    """Install ``plan`` as the process-wide fault plan (None disarms)."""
    params.FAULT_PLAN = plan


def clear() -> None:
    """Disarm fault injection for this process."""
    params.FAULT_PLAN = None


def active_plan() -> FaultPlan | None:
    return params.FAULT_PLAN


def fire(site: str) -> FaultSpec | None:
    """The hook instrumented code calls at an injection site.

    With no plan installed this is one global read and a ``None`` check —
    the zero-overhead-when-disabled contract that lets the hooks live
    permanently on production paths.
    """
    plan = params.FAULT_PLAN
    if plan is None:
        return None
    return plan.should_fire(site)


@contextmanager
def injected(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install ``plan`` for the duration of a with-block (test helper)."""
    previous = params.FAULT_PLAN
    params.FAULT_PLAN = plan
    try:
        yield plan
    finally:
        params.FAULT_PLAN = previous
