"""The benchmark's traced run must find every entry point it wraps.

``perfbench`` attributes time to layers by wrapping entry points by name
(looked up in each owner's own ``__dict__``).  A renamed or removed entry
point would make the traced benchmark fail with ``KeyError`` — or, for the
optional serving handler, silently lose its ``serve.http`` span.  This
guard installs both programs' wrappers on one :class:`Tracer`, checks the
spans the attribution relies on, and restores everything afterwards.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import batch_child
    import serve_child
    import tracer

    yield batch_child, serve_child, tracer
    for name in ("batch_child", "serve_child", "tracer"):
        sys.modules.pop(name, None)


def test_traced_run_wraps_every_layer(perfbench_modules):
    from repro.core.base import PPMModel
    from repro.core.pb import PopularityBasedPPM
    from repro.kernel import predict_table
    from repro.serve.server import PrefetchServer

    batch_child, serve_child, tracer_module = perfbench_modules
    originals = {
        (PPMModel, "fit"): PPMModel.__dict__["fit"],
        (PrefetchServer, "_dispatch_fast"): PrefetchServer.__dict__["_dispatch_fast"],
        (predict_table, "compile_predict_table"): predict_table.compile_predict_table,
    }
    tracer = tracer_module.Tracer()
    try:
        batch_child.install(tracer)
        serve_child.install(tracer)
        wrapped = {(owner, attr) for owner, attr, _ in tracer._patches}
        assert {
            (PPMModel, "fit"),
            (PPMModel, "predict_cursor"),
            (PopularityBasedPPM, "predict_cursor"),
            (predict_table, "compile_predict_table"),
            (PrefetchServer, "_dispatch_fast"),
        } <= wrapped
        # The request handler reports under the serve.http span.
        status, _type, _body = PrefetchServer._dispatch_fast(
            SimpleNamespace(requests_total={}), "GET", "/unknown", b""
        )
        assert status == 404
        assert tracer.calls["serve.http"] == 1
    finally:
        tracer.uninstall()
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original


def test_traced_model_compile_goes_through_the_wrapper(perfbench_modules):
    """A model resolves the compiler through the module attribute the
    tracer patches, so ``kernel.compile_s`` sees every compile.

    A module-level ``from ... import compile_predict_table`` in the model
    layer would bypass the wrapper and move the compile time silently into
    ``core.predict_s``.
    """
    from repro.core.standard import StandardPPM

    from tests.helpers import make_sessions

    batch_child, _serve_child, tracer_module = perfbench_modules
    tracer = tracer_module.Tracer()
    try:
        batch_child.install(tracer)
        model = StandardPPM().fit(make_sessions([["a", "b", "c"], ["a", "b", "d"]]))
        model.predict(["a"])
        assert tracer.calls["kernel.compile"] == 1
        assert tracer.values["kernel.table_bytes"] > 0
    finally:
        tracer.uninstall()
