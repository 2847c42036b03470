"""Deterministic client-hash sampling.

The sampler keeps client *c* iff ``hash64(c) < rate * 2**64`` — the
Cydonia ``Sampler.py`` recipe.  Because membership depends only on the
client id, the chosen rate and an explicit salt, the same clients are
kept across runs, machines, chunkings and trace representations; and
because the keep-threshold is monotone in the rate, the client set at
rate *r* is a strict subset of the set at any *r' > r* for the same
salt (no re-draw between rates).

Sampling whole clients keeps whole sessions — a PPM model trained on
sessions sees no truncated access pattern, only fewer clients — and
count-type metrics (trie nodes, requests) scale back by ``1/rate``.
Per-client metrics are *not* unbiased: the model, the popularity grades
and the latency fit are built from the sampled clients alone, so every
kept client is replayed against a model trained on less traffic than
the full trace gives it.  The fidelity report
(``benchmarks/results/BENCH_sampling.json``) measures the bias: the
hit-ratio mean error is -2.19 points at r=10% and -4.10 points at r=5%,
and the rate picker needs r=50% to stay within a 1-point budget.
ROADMAP's exact-sampled-evaluation item (fit on the full window, replay
only the sampled clients) would remove it in client mode.

The hash is BLAKE2b with an 8-byte digest and the salt folded into the
keyed-hash salt parameter.  Python's builtin ``hash`` is *per-process*
salted and must never be used for this.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import SamplingError
from repro.trace.columnar import TraceColumns
from repro.trace.record import LogRecord

#: Hash values live in ``[0, 2**64)``; the keep-threshold is a fraction
#: of this span.
HASH_SPAN: int = 1 << 64

#: The canonical rates the evaluation pipeline is characterised at
#: (the fidelity harness and CLIs default to subsets of these); any
#: rate in ``(0, 1]`` is accepted.
SUPPORTED_RATES: tuple[float, ...] = (0.01, 0.02, 0.05, 0.10, 0.20, 0.50)


def client_hash(client: str, *, salt: int = 0) -> int:
    """Stable 64-bit hash of a client id under the given salt."""
    digest = hashlib.blake2b(
        client.encode("utf-8", errors="surrogatepass"),
        digest_size=8,
        salt=int(salt).to_bytes(8, "little"),
    ).digest()
    return int.from_bytes(digest, "little")


class ClientSampler:
    """Keep a deterministic ``rate``-fraction of clients, whole-session.

    Parameters
    ----------
    rate:
        Fraction of clients to keep, in ``(0, 1]``.  ``1.0`` keeps
        everything (useful as the no-op arm of a sweep).
    salt:
        Decorrelates independent samples at the same rate.  Two salts
        give (statistically) independent client sets; one salt gives
        nested sets across rates.
    """

    def __init__(self, rate: float, *, salt: int = 0) -> None:
        try:
            rate = float(rate)
        except (TypeError, ValueError) as exc:
            raise SamplingError(f"sample rate must be a number, got {rate!r}") from exc
        if not 0.0 < rate <= 1.0:
            raise SamplingError(f"sample rate out of (0, 1]: {rate}")
        try:
            salt = int(salt)
        except (TypeError, ValueError) as exc:
            raise SamplingError(f"sample salt must be an integer, got {salt!r}") from exc
        if not 0 <= salt < HASH_SPAN:
            raise SamplingError(f"sample salt out of [0, 2**64): {salt}")
        self.rate = rate
        self.salt = salt
        # Monotone in rate, so subset-across-rates holds by construction.
        self._threshold = HASH_SPAN if rate >= 1.0 else int(rate * HASH_SPAN)

    @property
    def scale(self) -> float:
        """Multiplier that maps sampled counts back to full-trace scale."""
        return 1.0 / self.rate

    def keeps(self, client: str) -> bool:
        """Whether this client id survives the sample."""
        return client_hash(client, salt=self.salt) < self._threshold

    def sampled_clients(self, clients: Iterable[str]) -> frozenset[str]:
        """The subset of the given client ids this sampler keeps."""
        return frozenset(c for c in clients if self.keeps(c))

    # -- columnar path ------------------------------------------------------

    def table_mask(self, client_table: Sequence[str]) -> np.ndarray:
        """Boolean keep-mask over an interned client string table."""
        mask = np.empty(len(client_table), dtype=bool)
        for index, client in enumerate(client_table):
            mask[index] = self.keeps(client)
        return mask

    def row_mask(self, columns: TraceColumns) -> np.ndarray:
        """Boolean keep-mask over the rows of a columnar trace.

        One hash per *distinct* client (the interned table), then a
        vectorised gather over the per-row client codes — the whole
        plane is masked without touching a single record object.
        """
        if not len(columns):
            return np.zeros(0, dtype=bool)
        return self.table_mask(columns.client_table)[columns.clients]

    def sample_columns(self, columns: TraceColumns) -> TraceColumns:
        """Order-preserving columnar subsample (string tables shared)."""
        return columns.select(np.flatnonzero(self.row_mask(columns)))

    # -- object path --------------------------------------------------------

    def sample_records(self, records: Iterable[LogRecord]) -> Iterator[LogRecord]:
        """Filter an object-path record stream, preserving order.

        Works on any iterable — including an unbounded workload stream —
        and is chunk-agnostic: filtering a concatenation of chunks
        yields the same records as filtering the whole stream.
        """
        keeps = self.keeps
        return (record for record in records if keeps(record.client))

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"ClientSampler(rate={self.rate}, salt={self.salt})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClientSampler):
            return NotImplemented
        return self.rate == other.rate and self.salt == other.salt

    def __hash__(self) -> int:
        return hash((self.rate, self.salt))
