"""Deterministic fault injection and supervised recovery.

Three pieces:

* :mod:`repro.resilience.faults` — the seeded :class:`FaultPlan` and the
  zero-overhead :func:`fire` hook that arms named injection points across
  the snapshot, rebuild, serving, journal and loadgen paths.
* :mod:`repro.resilience.breaker` — the :class:`CircuitBreaker` the
  serving layer wraps around model rebuilds.
* :mod:`repro.resilience.chaos` — the seeded chaos harness behind
  ``repro chaos``: a live server under loadgen traffic with every fault
  type armed, plus a SIGKILL crash drill of a journalled server.
"""

from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import (
    INJECTION_SITES,
    FaultPlan,
    FaultSpec,
    active_plan,
    clear,
    fire,
    injected,
    install,
)

__all__ = [
    "CircuitBreaker",
    "FaultPlan",
    "FaultSpec",
    "INJECTION_SITES",
    "active_plan",
    "clear",
    "fire",
    "injected",
    "install",
]
