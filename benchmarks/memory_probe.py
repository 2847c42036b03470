"""Child-process memory probe for the compact-kernel benchmarks.

Run as ``python benchmarks/memory_probe.py <model> <node|compact>`` with
``src`` and the repository root on ``PYTHONPATH``; the process builds the
requested representation on the lab's training sessions — the fitted
model's compact store, or the literal Fig. 1 node forest of
``tests/oracle.py`` — and prints one JSON line of memory readings:

* ``retained_kb`` — VmRSS growth across the build (model storage as the
  OS bills it), measured without tracemalloc so the tracer's own
  bookkeeping cannot distort it;
* ``hwm_delta_kb`` — VmHWM (peak RSS) growth across the build (the
  benchmark records these two RSS readings only at full scale, where
  the model dwarfs page granularity);
* ``traced_peak_kb`` / ``traced_retained_kb`` — tracemalloc readings of
  a second, instrumented build: deterministic allocator-level numbers
  that stay meaningful at smoke scales where RSS granularity drowns the
  signal.

A child process per representation keeps the measurements independent:
nothing of the node build's heap can be recycled into the compact
build's, or vice versa.
"""

from __future__ import annotations

import gc
import json
import sys
import tracemalloc

from harness import rss_kb, trim_heap


def build(model_name: str, compact: bool, sessions, popularity):
    """The fitted model, or (``compact`` False) its oracle node forest."""
    if model_name == "standard":
        from repro.core.standard import StandardPPM

        model = StandardPPM()
    elif model_name == "pb":
        from repro.core.pb import PopularityBasedPPM

        model = PopularityBasedPPM(popularity)
    else:
        raise SystemExit(f"unknown model: {model_name}")
    if compact:
        return model.fit(sessions)
    from tests.oracle import forest_for

    return forest_for(model, sessions)


def count_nodes(built) -> int:
    if isinstance(built, dict):
        from repro.core.stats import node_count

        return node_count(built)
    return built.node_count


def main(model_name: str, mode: str) -> None:
    from repro.experiments.lab import get_lab

    compact = mode == "compact"
    lab = get_lab("nasa-like", 6)
    sessions = lab.split(5).train_sessions
    for session in sessions:  # warm the url cache outside the measurement
        _ = session.urls
    popularity = lab.popularity(5) if model_name == "pb" else None
    if not compact:
        import tests.oracle  # noqa: F401 - imported outside the measurement

    trim_heap()
    before = rss_kb()
    hwm_before = rss_kb("VmHWM")
    model = build(model_name, compact, sessions, popularity)
    trim_heap()
    retained = rss_kb() - before
    hwm_delta = rss_kb("VmHWM") - hwm_before
    node_count = count_nodes(model)
    del model
    trim_heap()

    tracemalloc.start()
    model = build(model_name, compact, sessions, popularity)
    gc.collect()
    traced_retained, traced_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del model

    print(
        json.dumps(
            {
                "model": model_name,
                "mode": mode,
                "node_count": node_count,
                "retained_kb": retained,
                "hwm_delta_kb": hwm_delta,
                "traced_peak_kb": traced_peak // 1024,
                "traced_retained_kb": traced_retained // 1024,
            }
        )
    )


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
