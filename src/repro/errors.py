"""Exception hierarchy for the repro library.

A single root exception (:class:`ReproError`) lets callers distinguish
library failures from programming errors, while the concrete subclasses map
onto the major subsystems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class TraceError(ReproError):
    """A trace file or trace record could not be handled."""


class ParseError(TraceError):
    """A log line did not match the expected Common Log Format."""

    def __init__(self, line: str, reason: str) -> None:
        self.line = line
        self.reason = reason
        super().__init__(f"cannot parse log line ({reason}): {line!r}")


class ModelError(ReproError):
    """A prediction model was used incorrectly (e.g. predict before fit)."""


class NotFittedError(ModelError):
    """The model has not been fitted with training sessions yet."""


class SimulationError(ReproError):
    """The trace-driven simulator was configured inconsistently."""


class ResilienceError(ReproError):
    """The fault-injection harness was configured incorrectly."""


class ExperimentError(ReproError):
    """An experiment was requested that the registry does not know."""


class ServeError(ReproError):
    """The prediction server was configured or driven inconsistently."""


class WalError(ServeError):
    """A report-journal append or sync failed; the report must not be
    acknowledged (the client retries against an intact journal)."""


class WorkloadError(ReproError):
    """A streaming workload was configured or requested incorrectly."""


class SamplingError(ReproError):
    """A client-hash sampler or fidelity harness was misconfigured."""


def unknown_name_message(
    kind: str, name: str, available: "list[str] | tuple[str, ...]"
) -> str:
    """The one error-message convention for every by-name registry.

    Lists what *is* registered and, when the unknown name is a near miss
    of a registered one, suggests it — ``repro.synth.profiles`` and
    ``repro.workloads`` both phrase their lookup failures through this
    helper so the CLI surfaces the same shape everywhere.
    """
    import difflib

    choices = sorted(available)
    message = f"unknown {kind} {name!r}; available: {choices}"
    close = difflib.get_close_matches(name, choices, n=1, cutoff=0.6)
    if close:
        message += f" (did you mean {close[0]!r}?)"
    return message
