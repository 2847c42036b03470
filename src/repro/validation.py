"""Shared validation for every persisted format.

The model document (:mod:`repro.core.serialize`, and the snapshot file
built on it) checks its format version here; the columnar ``.rpt`` trace
(:mod:`repro.trace.columnar`) takes its header checks and CRC-32 from
here, and the report journal (:mod:`repro.serve.wal`) its CRC-32.  A
malformed model or trace fails with one typed
:class:`~repro.errors.ModelError`, so the checks live here once instead
of being re-implemented per format.

This module imports only :mod:`repro.errors`, so every layer can use it
without an import cycle.
"""

from __future__ import annotations

import zlib

from repro.errors import ModelError


def checksum(payload: bytes | bytearray | memoryview) -> int:
    """The 32-bit payload checksum every binary header stores (CRC-32)."""
    return zlib.crc32(payload) & 0xFFFFFFFF


def require_magic(found: bytes, expected: bytes, what: str) -> None:
    """Reject a buffer that is not the format it is claimed to be."""
    if found != expected:
        raise ModelError(
            f"not a {what}: bad magic {bytes(found)!r} (expected {expected!r})"
        )


def require_version(found: object, expected: object, what: str) -> None:
    """Reject a version this code does not read (older or newer)."""
    if found != expected:
        raise ModelError(f"unsupported {what} {found!r} (expected {expected})")


def require_checksum(stored: int, computed: int, what: str) -> None:
    """Reject a payload whose stored checksum does not match its bytes."""
    if stored != computed:
        raise ModelError(
            f"{what} checksum mismatch: stored 0x{stored:08x}, computed "
            f"0x{computed:08x} (truncated or corrupted payload)"
        )


def require_length(available: int, needed: int, what: str) -> None:
    """Reject a buffer too short to hold what its header promises."""
    if available < needed:
        raise ModelError(
            f"truncated {what}: {available} bytes, header promises {needed}"
        )
