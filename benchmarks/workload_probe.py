"""Child-process probe for the streaming-workload benchmarks.

Run as::

    python benchmarks/workload_probe.py generate <workload> <events>
    python benchmarks/workload_probe.py write    <workload> <events> <path>

``generate`` consumes the stream and discards it (pure generator
throughput); ``write`` streams it into a columnar ``.rpt`` through the
chunked bridge (the ``repro generate --workload`` path).  Either way the
process prints one JSON line with ``seconds``, ``events_per_s`` and
``hwm_kb`` (VmHWM — peak RSS).

One child process per measurement is what makes the flat-RAM comparison
honest: the 10⁷-event and 10⁵-event runs each get a fresh heap, so the
parent's ratio compares real high-water marks, not allocator reuse.
"""

from __future__ import annotations

import json
import sys
import time

from harness import rss_kb, trim_heap


def main(argv: "list[str]") -> int:
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    mode, name, events = argv[0], argv[1], int(argv[2])

    from repro.workloads import create_workload, stream_to_columnar

    workload = create_workload(name, seed=11)
    start = time.perf_counter()
    if mode == "generate":
        emitted = sum(1 for _ in workload.events(events))
    elif mode == "write":
        emitted = stream_to_columnar(workload, argv[3], events=events)
    else:
        print(f"unknown probe mode {mode!r}", file=sys.stderr)
        return 2
    seconds = time.perf_counter() - start
    trim_heap()
    print(
        json.dumps(
            {
                "mode": mode,
                "workload": name,
                "events": emitted,
                "seconds": round(seconds, 4),
                "events_per_s": round(emitted / max(seconds, 1e-9), 1),
                "hwm_kb": rss_kb("VmHWM"),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
