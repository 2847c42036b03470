"""Regression tests: one validation helper guards every persisted format.

The model document and the snapshot file built on it check their format
version, and the two binary formats — the columnar ``.rpt`` trace and the
report journal — frame their payloads with a CRC-32.  A past bug class had
each format re-implementing version/checksum checks with drifting wording
and drifting behaviour; these tests pin every format to the single
:mod:`repro.validation` helper, and the ``load_model`` document path and
the snapshot restore path the serving boot uses to its exact failure
wording.
"""

from __future__ import annotations

import json

import pytest

import repro.core.serialize as serialize
import repro.serve.wal as wal
import repro.trace.columnar as columnar
import repro.validation as validation
from repro.core.serialize import dump_model, load_model
from repro.core.standard import StandardPPM
from repro.errors import ModelError
from repro.serve.snapshot import load_snapshot, write_snapshot

from tests.helpers import make_sessions


def _model():
    return StandardPPM().fit(make_sessions([("A", "B", "C"), ("A", "C")]))


class TestOneSharedHelper:
    def test_every_format_binds_the_same_validators(self):
        """The document loader, the columnar trace format and the journal
        must not fork their own copies of the validation helpers."""
        assert serialize.require_version is validation.require_version
        assert columnar.require_version is validation.require_version
        assert columnar.require_magic is validation.require_magic
        assert columnar.require_checksum is validation.require_checksum
        assert columnar.require_length is validation.require_length
        assert columnar.checksum is validation.checksum
        assert wal.checksum is validation.checksum


class TestLoadModelEntryPoint:
    def test_round_trip(self):
        model = _model()
        assert dump_model(load_model(dump_model(model))) == dump_model(model)

    def test_version_mismatch_uses_shared_wording(self):
        payload = dump_model(_model())
        payload["format"] = serialize.FORMAT_VERSION + 1
        with pytest.raises(ModelError, match="unsupported model format"):
            load_model(payload)

    def test_missing_format_is_a_version_mismatch(self):
        payload = dump_model(_model())
        del payload["format"]
        with pytest.raises(ModelError, match="unsupported model format"):
            load_model(payload)


class TestSnapshotRestoreEntryPoint:
    def test_round_trip(self, tmp_path):
        model = _model()
        path = str(tmp_path / "model.json")
        write_snapshot(model, path)
        assert dump_model(load_snapshot(path)) == dump_model(model)

    def test_version_mismatch_uses_shared_wording(self, tmp_path):
        """A snapshot written by a future format version must be refused
        with the same error the document loader raises — both go through
        ``require_version``."""
        model = _model()
        path = str(tmp_path / "model.json")
        write_snapshot(model, path)
        document = json.loads(open(path, encoding="utf-8").read())
        document["format"] = serialize.FORMAT_VERSION + 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        with pytest.raises(ModelError, match="unsupported model format"):
            load_snapshot(path)

    def test_document_and_snapshot_fail_identically(self, tmp_path):
        """Same malformation, same message, both entry points."""
        payload = dump_model(_model())
        payload["format"] = 999
        with pytest.raises(ModelError) as document_error:
            load_model(payload)
        path = str(tmp_path / "model.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        with pytest.raises(ModelError) as snapshot_error:
            load_snapshot(path)
        assert str(document_error.value) == str(snapshot_error.value)

