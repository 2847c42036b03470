"""The least-squares latency model of paper Section 4.2.

*"We estimated connection times and data transferring times by using the
method presented in [Jin & Bestavros], where the connection time and the
data transferring time are obtained by applying a least squares fit to
measured latency in traces versus the size variations of documents."*

The model is ``latency(size) = connection_time + size / transfer_rate``;
fitting solves the ordinary least squares problem for the intercept
(connection time) and slope (seconds per byte).  Synthetic traces carry
per-request latencies, so the simulator fits the model from the training
days exactly as the paper does, never reading the generator's ground-truth
coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro import params
from repro.errors import SimulationError
from repro.trace.columnar import RequestView
from repro.trace.record import Request


@dataclass(frozen=True)
class LatencyModel:
    """Fitted access-latency model.

    Attributes
    ----------
    connection_time_s:
        Fixed per-request cost (TCP/connection setup), seconds.
    seconds_per_byte:
        Marginal transfer cost; the reciprocal is the transfer rate.
    """

    connection_time_s: float
    seconds_per_byte: float

    def __post_init__(self) -> None:
        if self.connection_time_s < 0 or self.seconds_per_byte < 0:
            raise SimulationError(
                "latency model coefficients must be non-negative: "
                f"a={self.connection_time_s}, b={self.seconds_per_byte}"
            )

    @property
    def transfer_rate_bps(self) -> float:
        """Estimated transfer rate, bytes per second (inf for zero slope)."""
        return float("inf") if self.seconds_per_byte == 0 else 1.0 / self.seconds_per_byte

    def estimate(self, size_bytes: int | float) -> float:
        """Predicted access latency for a document of the given size."""
        if size_bytes < 0:
            raise ValueError(f"negative size: {size_bytes}")
        return self.connection_time_s + self.seconds_per_byte * float(size_bytes)

    # -- fitting ------------------------------------------------------------

    @classmethod
    def fit(
        cls, sizes: Sequence[float], latencies: Sequence[float]
    ) -> "LatencyModel":
        """Ordinary least squares of latency against document size.

        Negative fitted coefficients (possible on pathological samples) are
        clamped to zero, keeping estimates physical.
        """
        if len(sizes) != len(latencies):
            raise ValueError("sizes and latencies must have equal length")
        if len(sizes) < 2:
            raise ValueError("need at least two observations to fit")
        x = np.asarray(sizes, dtype=np.float64)
        y = np.asarray(latencies, dtype=np.float64)
        design = np.column_stack([np.ones_like(x), x])
        coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
        intercept = float(max(0.0, coeffs[0]))
        slope = float(max(0.0, coeffs[1]))
        return cls(connection_time_s=intercept, seconds_per_byte=slope)

    @classmethod
    def fit_requests(cls, requests: Iterable[Request]) -> "LatencyModel":
        """Fit from page views that carry observed latencies.

        Reads a request view's total-bytes and latency columns (NaN:
        none), in row order; other :class:`Request` iterables are turned
        into the same two columns first.  Falls back to the documented
        default coefficients when the trace has no latency column (the
        public NASA/UCB logs do not).
        """
        if isinstance(requests, RequestView):
            sizes = requests.column("total_bytes").astype(np.float64)
            latencies = requests.column("latencies")
        else:
            pairs = [
                (r.total_bytes, np.nan if r.latency is None else r.latency)
                for r in requests
            ]
            sizes, latencies = np.array(pairs, dtype=np.float64).reshape(-1, 2).T
        observed = ~np.isnan(latencies)
        if np.count_nonzero(observed) < 2:
            return cls.default()
        return cls.fit(sizes[observed], latencies[observed])

    @classmethod
    def default(cls) -> "LatencyModel":
        """The documented default coefficients (see :mod:`repro.params`)."""
        return cls(
            connection_time_s=params.TRUE_CONNECTION_TIME_S,
            seconds_per_byte=1.0 / params.TRUE_TRANSFER_RATE_BPS,
        )

    def residuals(
        self, sizes: Sequence[float], latencies: Sequence[float]
    ) -> np.ndarray:
        """Fit residuals, for goodness-of-fit diagnostics in reports."""
        x = np.asarray(sizes, dtype=np.float64)
        y = np.asarray(latencies, dtype=np.float64)
        return y - (self.connection_time_s + self.seconds_per_byte * x)
