"""Micro-benchmarks of the library's hot kernels.

Not a paper artefact: these time the computational building blocks so
performance regressions in the substrate are caught — trace generation,
session extraction, the three model fits, prediction, and the LRU cache.
The compact-kernel tests merge their ratios into
``benchmarks/results/BENCH_kernels.json``;
``python benchmarks/harness.py check kernels`` gates them against
``benchmarks/baselines/BENCH_kernels.json``.
"""

import time

import numpy as np

from harness import run_probe, update_results
from repro.experiments import get_lab
from repro.experiments.lab import bench_scale
from repro.sim.cache import LRUCache
from repro.synth.generator import TraceGenerator
from repro.synth.zipf import ZipfSampler
from repro.trace.sessions import sessionize


def _best_of(fn, rounds: int = 3):
    """(best wall-clock seconds, last result) over ``rounds`` runs."""
    best = None
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None or elapsed < best else best
    return best, result


def test_kernel_trace_generation(benchmark):
    def generate():
        return len(TraceGenerator("nasa-like", seed=1, scale=0.25).generate_records(1))

    benchmark.pedantic(generate, rounds=3, iterations=1)


def test_kernel_sessionize(benchmark):
    lab = get_lab("nasa-like", 6)
    requests = lab.trace.requests
    benchmark.pedantic(lambda: len(sessionize(requests)), rounds=3, iterations=1)


def test_kernel_standard_fit(benchmark):
    lab = get_lab("nasa-like", 6)
    sessions = lab.split(5).train_sessions

    def fit():
        from repro.core.standard import StandardPPM

        return StandardPPM().fit(sessions).node_count

    benchmark.pedantic(fit, rounds=3, iterations=1)


def test_kernel_lrs_fit(benchmark):
    lab = get_lab("nasa-like", 6)
    sessions = lab.split(5).train_sessions

    def fit():
        from repro.core.lrs import LRSPPM

        return LRSPPM().fit(sessions).node_count

    benchmark.pedantic(fit, rounds=3, iterations=1)


def test_kernel_pb_fit(benchmark):
    lab = get_lab("nasa-like", 6)
    sessions = lab.split(5).train_sessions
    popularity = lab.popularity(5)

    def fit():
        from repro.core.pb import PopularityBasedPPM

        return PopularityBasedPPM(popularity).fit(sessions).node_count

    benchmark.pedantic(fit, rounds=3, iterations=1)


def test_kernel_prediction(benchmark):
    lab = get_lab("nasa-like", 6)
    model = lab.model("pb", 5)
    contexts = [
        s.urls[: min(len(s.urls), 5)] for s in lab.split(5).test_sessions
    ]
    benchmark(
        lambda: sum(
            len(model.predict(c, mark_used=False)) for c in contexts
        )
    )


def test_kernel_lru_cache(benchmark):
    rng = np.random.default_rng(0)
    urls = [f"/u{i}" for i in range(500)]
    picks = rng.integers(0, 500, size=5000)
    sizes = rng.integers(100, 50_000, size=5000)

    def churn():
        cache = LRUCache(1_000_000)
        hits = 0
        for pick, size in zip(picks, sizes):
            url = urls[pick]
            if cache.access(url):
                hits += 1
            else:
                cache.store(url, int(size))
        return hits

    benchmark(churn)


def test_kernel_zipf_sampling(benchmark):
    sampler = ZipfSampler(10_000, 1.2, np.random.default_rng(0))
    benchmark(lambda: int(sampler.sample_many(100_000).sum()))


def _model_factory(name: str, popularity):
    if name == "standard":
        from repro.core.standard import StandardPPM

        return StandardPPM
    if name == "lrs":
        from repro.core.lrs import LRSPPM

        return LRSPPM
    if name == "pb":
        from repro.core.pb import PopularityBasedPPM

        return lambda: PopularityBasedPPM(popularity)
    from repro.core.extras import FirstOrderMarkov

    return FirstOrderMarkov


def test_kernel_compact_build_speedup():
    """Compact-kernel model builds vs the TrieNode builds, per model.

    The node arm is the literal Fig. 1 builder of ``tests/oracle.py``,
    configured like the model it is timed against.

    The acceptance bar for the kernel is >= 2x aggregate build throughput
    at NASA scale; reduced scales (REPRO_BENCH_SCALE < 1) shrink the
    corpus until fixed per-build overhead dominates, so CI smoke runs
    only assert a looser floor.
    """
    from repro.core.stats import node_count

    from tests.oracle import forest_for

    lab = get_lab("nasa-like", 6)
    sessions = lab.split(5).train_sessions
    popularity = lab.popularity(5)
    payload = {}
    node_total = compact_total = 0.0
    for name in ("standard", "lrs", "pb", "markov1"):
        factory = _model_factory(name, popularity)
        builds = {
            "node": lambda: node_count(forest_for(factory(), sessions)),
            "compact": lambda: factory().fit(sessions).node_count,
        }
        times = {}
        for mode in ("node", "compact"):
            times[mode], nodes = _best_of(builds[mode])
            entry = payload.setdefault(name, {})
            entry[f"{mode}_seconds"] = round(times[mode], 4)
            entry[f"{mode}_nodes"] = nodes
        node_total += times["node"]
        compact_total += times["compact"]
        payload[name]["speedup"] = round(times["node"] / times["compact"], 2)
        print(
            f"{name}: node {times['node']:.4f}s compact "
            f"{times['compact']:.4f}s speedup {payload[name]['speedup']}x"
        )
    aggregate = node_total / compact_total
    payload["aggregate_speedup"] = round(aggregate, 2)
    update_results("kernels", "build", payload, scale=bench_scale())
    print(f"aggregate speedup {aggregate:.2f}x")
    if bench_scale() >= 1.0:
        assert aggregate >= 2.0
        assert payload["standard"]["speedup"] >= 2.0
        assert payload["lrs"]["speedup"] >= 2.0
    else:
        assert aggregate >= 1.2
    for name in ("standard", "lrs", "pb", "markov1"):
        assert payload[name]["node_nodes"] == payload[name]["compact_nodes"]


def test_kernel_incremental_prediction():
    """PredictionCursor vs per-click batch predict on the PB model."""
    lab = get_lab("nasa-like", 6)
    model = lab.model("pb", 5)
    streams = [s.urls for s in lab.split(5).test_sessions]
    max_context = 5

    def batch():
        total = 0
        for urls in streams:
            context: list[str] = []
            for url in urls:
                context.append(url)
                del context[:-max_context]
                total += len(model.predict(context, mark_used=False))
        return total

    def incremental():
        total = 0
        cursor = model.prediction_cursor(max_context)
        for urls in streams:
            cursor.reset()
            for url in urls:
                cursor.advance(url)
                total += len(model.predict_cursor(cursor, mark_used=False))
        return total

    batch_seconds, batch_total = _best_of(batch)
    incr_seconds, incr_total = _best_of(incremental)
    assert incr_total == batch_total
    speedup = batch_seconds / incr_seconds
    update_results(
        "kernels",
        "incremental_prediction",
        {
            "batch_seconds": round(batch_seconds, 4),
            "incremental_seconds": round(incr_seconds, 4),
            "predictions": batch_total,
            "speedup": round(speedup, 2),
        },
    )
    print(
        f"batch {batch_seconds:.4f}s incremental {incr_seconds:.4f}s "
        f"speedup {speedup:.2f}x over {batch_total} predictions"
    )
    # The cursor must never regress the batch path; the win grows with
    # context length, so at bench scales it is a modest margin.
    assert speedup >= 0.85


def test_kernel_memory_footprint():
    """Retained model memory, compact vs TrieNode, via child processes.

    tracemalloc numbers are the assertion basis everywhere (deterministic
    allocator-level accounting).  RSS deltas are only trustworthy at full
    scale, where the model dwarfs page-granularity noise, so they are
    recorded only there: at smoke scale they can even invert the ordering
    tracemalloc measures.

    The >=40% floor applies to standard PPM, the storage-heavy model the
    paper measures space against.  PB-PPM's pruned trie is small by
    design, so the kernel's fixed overheads (symbol table, child map)
    weigh proportionally more — it gets a looser floor.
    """
    payload = {}
    floors = {"standard": 0.40, "pb": 0.20}
    full_scale = bench_scale() >= 1.0
    for name in ("standard", "pb"):
        readings = {
            mode: run_probe("memory_probe.py", name, mode)
            for mode in ("node", "compact")
        }
        assert readings["node"]["node_count"] == readings["compact"]["node_count"]
        traced_node = readings["node"]["traced_retained_kb"]
        traced_compact = readings["compact"]["traced_retained_kb"]
        traced_reduction = 1.0 - traced_compact / traced_node
        payload[name] = {
            "traced_retained_reduction": round(traced_reduction, 3)
        }
        print(
            f"{name}: traced retained {traced_node}KB -> {traced_compact}KB "
            f"({traced_reduction:.1%} less)"
        )
        assert traced_reduction >= floors[name]
        if full_scale:
            rss_node = readings["node"]["retained_kb"]
            rss_compact = readings["compact"]["retained_kb"]
            rss_reduction = 1.0 - rss_compact / rss_node
            payload[name]["rss_retained_reduction"] = round(rss_reduction, 3)
            print(f"{name}: RSS retained {rss_node}KB -> {rss_compact}KB")
            assert rss_reduction >= floors[name]
        else:
            for reading in readings.values():
                del reading["retained_kb"], reading["hwm_delta_kb"]
        payload[name].update(readings)
    update_results("kernels", "memory", payload, scale=bench_scale())
