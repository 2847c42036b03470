"""What the six gated benchmarks share, once: results writer, probe runner,
RSS readers and the regression checker.

Gate one bench's results against its committed baseline::

    python benchmarks/harness.py check <name>

``<name>`` is a key of :data:`GATES` (``kernels``, ``predict``, ``trace``,
``wal``, ``workloads``, ``sampling``).  The checker compares
``benchmarks/results/BENCH_<name>.json`` with
``benchmarks/baselines/BENCH_<name>.json``: every numeric leaf of the
baseline whose key a gate row matches must be present in the results
and inside that row's bound, or the command exits 1 and lists the
offenders.  Leaves only the results have are printed as informational;
a differing run-size header (:data:`SIZE_KEYS`) only warns.  The checker
judges whatever the results file holds, so CI deletes it before the
bench runs: a section the run stops writing then fails as missing
instead of passing on numbers committed long ago.

Stdlib only at import: the child-process probes import :func:`rss_kb`
and :func:`trim_heap` from here before they read VmHWM, and the trace
``rss_ratio`` and workloads ``rss_flatness`` gates compare those
readings, so nothing heavier may load with them.
"""

from __future__ import annotations

import ctypes
import gc
import json
import os
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = REPO_ROOT / "benchmarks"
RESULTS_DIR = BENCH_DIR / "results"
BASELINES_DIR = BENCH_DIR / "baselines"

#: Per bench, ordered ``(leaf-key substring, rule, tolerance)`` rows.  The
#: first row whose substring occurs in a numeric leaf's key gates that
#: leaf; a leaf no row matches is informational.  Rules:
#:
#: * ``min`` — ``current >= base * (1 - tol)``: ratios and rates where
#:   higher is better;
#: * ``max`` — ``current <= base * (1 + tol)``: RSS ratios, lower is better;
#: * ``slack`` — ``|current| <= |base| + tol``: error statistics, which are
#:   deterministic for a fixed (seed, events) and sit near zero, where a
#:   multiplicative bound would mean nothing;
#: * ``exact`` — ``current == base``: the sampling rate the auto-picker
#:   selects for a ±1pp budget is part of the published contract.
#:
#: A/B ratios and model quality get 0.2.  Absolute rates move with the
#: host and get 0.5, which catches only collapses; so does the sampled
#: evaluation's speedup, which only has to stay cheap.  ``overhead_ratio``
#: compares two runs of one replay on one host, so host speed cancels and
#: 0.05 catches a real cost increase.
GATES: dict[str, list[tuple[str, str, float]]] = {
    "kernels": [("speedup", "min", 0.2), ("reduction", "min", 0.2)],
    "predict": [("speedup", "min", 0.2)],
    "trace": [("speedup", "min", 0.2), ("rss_ratio", "max", 0.2)],
    "wal": [
        ("overhead_ratio", "min", 0.05),
        ("records_per_s", "min", 0.5),
        ("requests_per_s", "min", 0.5),
    ],
    "workloads": [
        ("rss_flatness", "max", 0.2),
        ("events_per_s", "min", 0.5),
        ("hit_ratio", "min", 0.2),
    ],
    "sampling": [
        ("picked_rate", "exact", 0.0),
        ("speedup", "min", 0.5),
        ("bound", "slack", 0.01),
        ("error", "slack", 0.01),
    ],
}

#: Run-size header keys: results and baseline taken at different sizes
#: are still checked, with a warning that fixed overheads differ.
SIZE_KEYS = ("scale", "target_events", "grid_events", "fidelity_events")


def rss_kb(field: str = "VmRSS") -> int:
    """One ``/proc/self/status`` memory field (``VmRSS``, ``VmHWM``) in kB."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    return 0


def trim_heap() -> None:
    """Hand freed arena pages back to the OS so VmRSS reflects live data."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except OSError:  # pragma: no cover - non-glibc platforms
        pass


def run_probe(script: str, *args) -> dict:
    """Run ``benchmarks/<script>`` in a fresh interpreter; return the last
    JSON line it prints.

    One child per measurement gives each reading its own heap and VmHWM.
    ``src`` and the repository root go on ``PYTHONPATH`` so a probe can
    import ``repro`` and the test oracle.
    """
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT)]),
    )
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / script), *map(str, args)],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def update_results(name: str, section: str, payload: dict, **header) -> None:
    """Merge one section, and the run-size header, into
    ``results/BENCH_<name>.json``.

    Each bench test writes only its own section, so tests stay
    independent; the sorted, indented layout keeps committed results
    diffing cleanly.
    """
    path = RESULTS_DIR / f"BENCH_{name}.json"
    path.parent.mkdir(exist_ok=True)
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc.update(header)
    doc[section] = payload
    path.write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def gated_metrics(doc: dict, rows, prefix: str = "") -> dict:
    """Flatten ``doc`` to ``path -> (value, rule, tolerance)`` for every
    numeric leaf a row matches, keyed by the dotted section path."""
    found = {}
    for key, value in doc.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            found.update(gated_metrics(value, rows, path))
        elif isinstance(value, (int, float)):
            for substring, rule, tolerance in rows:
                if substring in key:
                    found[path] = (float(value), rule, tolerance)
                    break
    return found


def judge(rule: str, tolerance: float, base: float, current: float):
    """``(passes, bound)`` for one metric under ``rule``."""
    if rule == "min":
        bound = base * (1.0 - tolerance)
        return current >= bound, bound
    if rule == "max":
        bound = base * (1.0 + tolerance)
        return current <= bound, bound
    if rule == "slack":
        bound = abs(base) + tolerance
        return abs(current) <= bound, bound
    return current == base, base


def check(
    name: str, current_path: pathlib.Path, baseline_path: pathlib.Path
) -> int:
    """Gate one results file against its baseline under ``GATES[name]``;
    print every gated metric and return the exit status (0 or 1)."""
    for label, path in (("current", current_path), ("baseline", baseline_path)):
        if not path.exists():
            print(f"error: {label} results not found: {path}")
            return 1
    current = json.loads(current_path.read_text())
    baseline = json.loads(baseline_path.read_text())

    for key in SIZE_KEYS:
        if current.get(key) != baseline.get(key):
            print(
                f"warning: size mismatch ({key}: current {current.get(key)}, "
                f"baseline {baseline.get(key)}) — ratios are still checked "
                "but fixed overheads differ"
            )

    rows = GATES[name]
    base_metrics = gated_metrics(baseline, rows)
    cur_metrics = gated_metrics(current, rows)
    violations = []
    for path in sorted(base_metrics):
        base, rule, tolerance = base_metrics[path]
        if path not in cur_metrics:
            violations.append(f"{path}: missing from current results")
            continue
        cur = cur_metrics[path][0]
        ok, bound = judge(rule, tolerance, base, cur)
        if not ok:
            violations.append(
                f"{path}: {cur:.4g} fails {rule} bound {bound:.4g} "
                f"(baseline {base:.4g})"
            )
        print(
            f"{path}: current {cur:.4g} baseline {base:.4g} "
            f"{rule} {bound:.4g} [{'ok' if ok else 'REGRESSED'}]"
        )
    for path in sorted(set(cur_metrics) - set(base_metrics)):
        print(
            f"{path}: current {cur_metrics[path][0]:.4g} "
            "(no baseline — informational)"
        )

    if violations:
        print(f"\n{len(violations)} {name} metric(s) regressed:")
        for line in violations:
            print(f"  - {line}")
        return 1
    print(f"\nall {len(base_metrics)} {name} metrics within their bounds")
    return 0


def main(argv: "list[str]") -> int:
    if len(argv) != 2 or argv[0] != "check" or argv[1] not in GATES:
        print(
            f"usage: python benchmarks/harness.py check {{{','.join(GATES)}}}",
            file=sys.stderr,
        )
        return 2
    name = argv[1]
    return check(
        name,
        RESULTS_DIR / f"BENCH_{name}.json",
        BASELINES_DIR / f"BENCH_{name}.json",
    )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
