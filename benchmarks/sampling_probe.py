"""Child-process probe for the sampling benchmarks.

Run as::

    python benchmarks/sampling_probe.py <events> <rate-or-"full"> [seed]

Streams a stationary workload to a temporary columnar ``.rpt`` —
client-hash sampled at ``rate`` unless the second argument is the
literal ``full`` — then times one complete evaluation of it: load,
time-quantile split, popularity/latency derivation, PB-PPM fit and a
single-worker replay.  Prints one JSON line with the generation and
evaluation timings, the replayed metrics and the process peak RSS
(VmHWM).

The evaluation is timed separately from generation because generation
cost is rate-independent (the sampler filters a stream it still has to
read); the speedup the benchmark gates is the *evaluation* speedup, the
part that scales with the kept trace.  One fresh process per
measurement keeps both the timing and the high-water mark honest.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time

from harness import rss_kb


def main(argv: "list[str]") -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    events = int(argv[0])
    rate = None if argv[1] == "full" else float(argv[1])
    seed = int(argv[2]) if len(argv) > 2 else 11

    from repro.sampling import ClientSampler
    from repro.sampling.fidelity import _evaluate
    from repro.trace.dataset import Trace
    from repro.workloads import create_workload, stream_to_columnar

    sampler = None if rate is None else ClientSampler(rate)
    workload = create_workload("stationary", seed=seed)
    handle, path = tempfile.mkstemp(suffix=".rpt")
    os.close(handle)
    try:
        start = time.perf_counter()
        kept = stream_to_columnar(workload, path, events=events, sample=sampler)
        generate_seconds = time.perf_counter() - start

        start = time.perf_counter()
        trace = Trace.from_columnar_file(path)
        result, info = _evaluate(trace, model="pb", train_fraction=0.7)
        eval_seconds = time.perf_counter() - start
    finally:
        os.unlink(path)

    print(
        json.dumps(
            {
                "events": events,
                "rate": rate,
                "kept_events": kept,
                "clients": info["clients"],
                "generate_seconds": round(generate_seconds, 4),
                "eval_seconds": round(eval_seconds, 4),
                "hit_ratio": result.hit_ratio,
                "latency_reduction": result.latency_reduction,
                "node_count": result.node_count,
                "hwm_kb": rss_kb("VmHWM"),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
