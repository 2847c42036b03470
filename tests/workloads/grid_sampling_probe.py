"""Child-process probe for the grid sampling RSS test.

Run as::

    python tests/workloads/grid_sampling_probe.py <events> <rate-or-"full">

Evaluates one stationary/pb grid cell at the given event count —
client-hash sampled at ``rate`` unless the second argument is the
literal ``full`` — and prints one JSON line with the cell's metrics and
the process peak RSS (VmHWM).  One fresh process per measurement keeps
the high-water-mark comparison honest: the sampled big cell and the full
small cell each get their own heap.
"""

from __future__ import annotations

import json
import sys


def rss_kb(field: str = "VmHWM") -> int:
    with open("/proc/self/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    return -1


def main(argv: "list[str]") -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    events = int(argv[0])
    rate = None if argv[1] == "full" else float(argv[1])

    from repro.workloads import run_grid

    tree = run_grid(
        {"scenarios": [{"workload": "stationary"}], "models": ["pb"]},
        events=events,
        sample_rate=rate,
    )
    node = tree["scenarios"]["stationary"]
    print(
        json.dumps(
            {
                "events": events,
                "rate": rate,
                "kept_events": node["generation"]["events"],
                "hit_ratio": node["models"]["pb"]["hit_ratio"],
                "sampling": node.get("sampling"),
                "hwm_kb": rss_kb(),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
