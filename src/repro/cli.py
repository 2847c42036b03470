"""Command-line interface: ``python -m repro`` or the ``repro`` script.

Subcommands
-----------
``generate``    Generate a synthetic trace (profile or streaming workload)
                and write it as Common Log Format text or a columnar .rpt.
``workloads``   List the registered streaming workloads and their
                declared parameters.
``grid``        Run the declarative scenario x model x pruning grid and
                emit one comparable results tree.
``convert``     Convert a trace between CLF and the columnar binary format.
``summarize``   Print headline statistics of a trace (CLF file, columnar
                .rpt file, or profile).
``experiment``  Run a registered experiment and print its table.
``fidelity``    Sampled-vs-full error bars across seeds and rates, with
                an auto-picked cheapest rate meeting an error budget.
``list``        List the registered experiments.
``predict``     Fit a model on a trace prefix and show predictions for a
                context, for interactive exploration.
``serve``       Run the online prefetch prediction server (repro.serve).
``loadgen``     Replay a synthetic trace against a running (or spawned)
                server and report throughput / latency percentiles.
``chaos``       Seeded fault-injection run: every injection site armed
                against a live server plus a SIGKILL crash drill; passes
                only with zero failed predictions and zero lost
                acknowledged reports.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro import params
from repro.analysis.surfing import summarize_trace
from repro.core.lrs import LRSPPM
from repro.core.pb import PopularityBasedPPM
from repro.core.popularity import PopularityTable
from repro.core.standard import StandardPPM
from repro.errors import ReproError
from repro.experiments.registry import list_experiments, run_experiment
from repro.synth.generator import TraceGenerator
from repro.synth.profiles import profile_by_name
from repro.trace.clf_parser import write_clf_file
from repro.trace.dataset import Trace


def _package_version() -> str:
    """The installed package version, falling back to pyproject.toml.

    ``repro`` is usually run straight off ``PYTHONPATH=src`` without being
    installed, so when importlib metadata has nothing we parse the
    adjacent ``pyproject.toml``; the in-package ``__version__`` is the
    last resort.
    """
    from importlib import metadata

    try:
        return metadata.version("repro")
    except metadata.PackageNotFoundError:
        pass
    import os

    pyproject = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "..", "pyproject.toml"
    )
    try:
        import tomllib

        with open(pyproject, "rb") as handle:
            return tomllib.load(handle)["project"]["version"]
    except (ImportError, OSError, KeyError, ValueError):
        from repro import __version__

        return __version__


def _seed_value(text: str) -> int:
    """argparse type for ``--seed``: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seed must be an integer, got {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def _scale_value(text: str) -> float:
    """argparse type for ``--scale``: a positive finite number."""
    import math

    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"scale must be a number, got {text!r}"
        ) from None
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(f"scale must be > 0, got {text}")
    return value


def _rate_value(text: str) -> float:
    """argparse type for ``--sample-rate``: a fraction in (0, 1]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"sample rate must be a number, got {text!r}"
        ) from None
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"sample rate out of (0, 1]: {text}"
        )
    return value


def _add_sampling_flags(command: argparse.ArgumentParser) -> None:
    """The ``--sample-rate`` / ``--sample-salt`` pair (repro.sampling)."""
    command.add_argument(
        "--sample-rate",
        type=_rate_value,
        default=None,
        help=(
            "deterministic client-hash sampling rate in (0, 1]; "
            "canonical rates: 0.01 0.02 0.05 0.1 0.2 0.5"
        ),
    )
    command.add_argument(
        "--sample-salt",
        type=_seed_value,
        default=0,
        help="salt decorrelating independent samples at one rate",
    )


def _sampler_from_args(args: argparse.Namespace):
    """A ClientSampler when ``--sample-rate`` was given (and < 1), else None."""
    rate = getattr(args, "sample_rate", None)
    if rate is None or rate >= 1.0:
        return None
    from repro.sampling import ClientSampler

    return ClientSampler(rate, salt=getattr(args, "sample_salt", 0))


def _count_value(text: str) -> int:
    """argparse type for event counts: a positive integer (underscores ok)."""
    try:
        value = int(text.replace("_", ""))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parse_workload_params(pairs: "Sequence[str] | None") -> dict:
    """``--param key=value`` pairs into a kwargs dict (values literal-eval'd)."""
    import ast

    result: dict = {}
    for pair in pairs or ():
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ReproError(f"--param needs KEY=VALUE, got {pair!r}")
        try:
            result[key] = ast.literal_eval(value)
        except (ValueError, SyntaxError):
            result[key] = value
    return result


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Popularity-based PPM web prefetching (Chen & Zhang, ICPP 2002)"
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro {_package_version()}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser(
        "generate",
        help="generate a synthetic trace (profile or streaming workload)",
        description=(
            "Generate traffic from a trace profile (positional name, whole "
            "trace in memory) or a streaming workload (--workload NAME "
            "--events N, flat memory at any event count).  An output path "
            "ending in .rpt is written in the columnar binary format, "
            "anything else as Common Log Format text."
        ),
    )
    generate.add_argument(
        "profile", nargs="?", default=None, help="nasa-like or ucb-like"
    )
    generate.add_argument("output", help="output file path ('-' for stdout)")
    generate.add_argument("--days", type=int, default=7)
    generate.add_argument("--seed", type=_seed_value, default=7)
    generate.add_argument("--scale", type=_scale_value, default=1.0)
    generate.add_argument(
        "--workload",
        default=None,
        help="registered streaming workload (see 'repro workloads')",
    )
    generate.add_argument(
        "--events",
        type=_count_value,
        default=None,
        help="events to stream (workload mode; underscores allowed)",
    )
    generate.add_argument(
        "--param",
        action="append",
        default=None,
        metavar="KEY=VALUE",
        help="workload parameter override (repeatable)",
    )
    generate.add_argument(
        "--flush-events",
        type=_count_value,
        default=65_536,
        help="streaming writer chunk size (.rpt workload output)",
    )
    _add_sampling_flags(generate)

    workloads = sub.add_parser(
        "workloads",
        help="list registered streaming workloads and their parameters",
    )
    workloads.add_argument(
        "--name", default=None, help="show one workload's parameters only"
    )

    grid = sub.add_parser(
        "grid",
        help="run the scenario x model x pruning grid (repro.workloads.grid)",
    )
    grid.add_argument(
        "spec",
        nargs="?",
        default=None,
        help="JSON grid spec file (omitted: the built-in default grid)",
    )
    grid.add_argument(
        "--events",
        type=_count_value,
        default=None,
        help="override the per-scenario event count",
    )
    grid.add_argument("--out", default=None, help="write the results tree JSON")
    _add_sampling_flags(grid)

    summarize = sub.add_parser("summarize", help="print trace statistics")
    summarize.add_argument(
        "source",
        help=(
            "a CLF file path, a columnar .rpt file, or a profile name "
            "prefixed with 'synth:'"
        ),
    )
    summarize.add_argument("--days", type=int, default=7)
    summarize.add_argument("--seed", type=_seed_value, default=7)
    summarize.add_argument("--scale", type=_scale_value, default=1.0)

    convert = sub.add_parser(
        "convert",
        help="convert a trace between CLF and the columnar binary format",
        description=(
            "Convert CLF -> columnar (.rpt) or columnar -> CLF.  The "
            "direction follows the source: a .rpt source converts back to "
            "CLF, anything else is parsed as CLF (exactly once) and "
            "written columnar, with the parse statistics persisted in the "
            "output header."
        ),
    )
    convert.add_argument("source", help="input trace file")
    convert.add_argument("output", help="output trace file")
    convert.add_argument(
        "--strict",
        action="store_true",
        help="fail on malformed CLF lines instead of skipping them",
    )

    experiment = sub.add_parser("experiment", help="run a registered experiment")
    experiment.add_argument("id", help="experiment id (see 'repro list')")
    experiment.add_argument("--seed", type=_seed_value, default=None)
    experiment.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=None,
        help="run once per seed and report mean ± std",
    )
    experiment.add_argument("--scale", type=_scale_value, default=None)
    experiment.add_argument(
        "--csv", action="store_true", help="emit CSV instead of a table"
    )
    _add_sampling_flags(experiment)

    sub.add_parser("list", help="list registered experiments")

    fidelity = sub.add_parser(
        "fidelity",
        help="sampled-vs-full error bars and rate auto-pick (repro.sampling)",
        description=(
            "Replay seeded workloads in full and client-hash sampled at "
            "each rate; report per-metric error bars with bootstrap "
            "confidence intervals, and (with --budget) pick the cheapest "
            "rate meeting the error budget."
        ),
    )
    fidelity.add_argument(
        "--workload", default="stationary", help="streaming workload name"
    )
    fidelity.add_argument(
        "--param",
        action="append",
        default=None,
        metavar="KEY=VALUE",
        help="workload parameter override (repeatable)",
    )
    fidelity.add_argument(
        "--events",
        type=_count_value,
        default=40_000,
        help="events per seed (underscores allowed)",
    )
    fidelity.add_argument(
        "--seeds",
        type=_seed_value,
        nargs="+",
        default=None,
        help="workload seeds (default: 0..4)",
    )
    fidelity.add_argument(
        "--rates",
        type=_rate_value,
        nargs="+",
        default=None,
        help="sampling rates to sweep (default: 0.05 0.1 0.2 0.5)",
    )
    fidelity.add_argument("--train-fraction", type=float, default=0.7)
    fidelity.add_argument(
        "--salt", type=_seed_value, default=0, help="sampler salt"
    )
    fidelity.add_argument(
        "--model",
        choices=("pb", "pb-unpruned", "standard", "standard3", "lrs"),
        default="pb",
    )
    fidelity.add_argument(
        "--budget",
        default=None,
        help="error budget for the auto-picker, e.g. '1pp' or 0.01",
    )
    fidelity.add_argument(
        "--metric",
        default="hit_ratio",
        help="metric the budget applies to (default: hit_ratio)",
    )
    fidelity.add_argument(
        "--out", default=None, help="write the fidelity report JSON"
    )

    report = sub.add_parser(
        "report", help="run a set of experiments and write a markdown report"
    )
    report.add_argument("--out", default="-", help="output path ('-' for stdout)")
    report.add_argument(
        "--ids",
        nargs="*",
        default=None,
        help="experiment ids (default: every paper table/figure)",
    )
    report.add_argument(
        "--all", action="store_true", help="include every registered experiment"
    )
    report.add_argument("--seed", type=_seed_value, default=None)
    report.add_argument("--scale", type=_scale_value, default=None)

    verify = sub.add_parser(
        "verify", help="re-validate every paper result shape (PASS/FAIL list)"
    )
    verify.add_argument("--seed", type=_seed_value, default=None)
    verify.add_argument("--scale", type=_scale_value, default=None)

    render = sub.add_parser(
        "render", help="fit a model on a synthetic profile and print its tree"
    )
    render.add_argument("profile", help="nasa-like, ucb-like or uniform-like")
    render.add_argument(
        "--model", choices=("pb", "standard", "standard3", "lrs"), default="pb"
    )
    render.add_argument("--days", type=int, default=2)
    render.add_argument("--seed", type=_seed_value, default=7)
    render.add_argument("--scale", type=_scale_value, default=0.2)
    render.add_argument("--max-depth", type=int, default=4)
    render.add_argument("--max-roots", type=int, default=12)

    predict = sub.add_parser(
        "predict", help="fit a model and predict continuations of a context"
    )
    predict.add_argument("profile", help="nasa-like or ucb-like")
    predict.add_argument("context", nargs="+", help="URLs clicked so far")
    predict.add_argument(
        "--model", choices=("pb", "standard", "lrs"), default="pb"
    )
    predict.add_argument("--days", type=int, default=5)
    predict.add_argument("--seed", type=_seed_value, default=7)
    predict.add_argument("--scale", type=_scale_value, default=1.0)
    predict.add_argument("--threshold", type=float, default=0.25)

    serve = sub.add_parser(
        "serve", help="run the online prefetch prediction server"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument(
        "--profile",
        default="nasa-like",
        help="synthetic profile the bootstrap model is trained on",
    )
    serve.add_argument("--train-days", type=int, default=2)
    serve.add_argument("--seed", type=_seed_value, default=7)
    serve.add_argument("--scale", type=_scale_value, default=1.0)
    serve.add_argument(
        "--snapshot",
        default=None,
        help=(
            "snapshot file path; restored on boot when present, enables "
            "/admin/snapshot + /admin/reload and a final snapshot on shutdown"
        ),
    )
    serve.add_argument(
        "--snapshot-interval",
        type=float,
        default=None,
        help="seconds between periodic snapshots (needs --snapshot)",
    )
    serve.add_argument(
        "--refresh-interval",
        type=float,
        default=None,
        help="seconds between scheduled model rebuilds (default: admin-only)",
    )
    serve.add_argument("--fold-interval", type=float, default=None)
    serve.add_argument("--idle-timeout", type=float, default=None)
    serve.add_argument(
        "--wal-dir",
        default=None,
        help=(
            "directory for the write-ahead report journal; enables "
            "journalling before ack and crash recovery on boot"
        ),
    )
    serve.add_argument(
        "--wal-fsync",
        choices=("off", "interval", "batch"),
        default=params.SERVE_WAL_FSYNC,
        help="journal fsync policy (needs --wal-dir)",
    )
    serve.add_argument(
        "--wal-segment-bytes",
        type=int,
        default=params.SERVE_WAL_SEGMENT_MAX_BYTES,
        help="rotate journal segments at this size (needs --wal-dir)",
    )
    serve.add_argument(
        "--wal-segment-age",
        type=float,
        default=params.SERVE_WAL_SEGMENT_MAX_AGE_S,
        help="rotate journal segments at this age in seconds",
    )

    loadgen = sub.add_parser(
        "loadgen",
        help="replay a synthetic trace against a prediction server",
    )
    target = loadgen.add_mutually_exclusive_group(required=True)
    target.add_argument(
        "--url", default=None, help="running server, e.g. http://127.0.0.1:8080"
    )
    target.add_argument(
        "--spawn",
        action="store_true",
        help="boot an in-process server trained on the trace head",
    )
    loadgen.add_argument("--profile", default="nasa-like")
    loadgen.add_argument(
        "--workload",
        default=None,
        help="drive the server from a live streaming workload instead",
    )
    loadgen.add_argument(
        "--events",
        type=_count_value,
        default=None,
        help="page views to generate and serve (workload mode)",
    )
    loadgen.add_argument(
        "--train-events",
        type=_count_value,
        default=2_000,
        help="stream head used to bootstrap a --spawn server (workload mode)",
    )
    loadgen.add_argument(
        "--param",
        action="append",
        default=None,
        metavar="KEY=VALUE",
        help="workload parameter override (repeatable)",
    )
    loadgen.add_argument("--days", type=int, default=1)
    loadgen.add_argument("--train-days", type=int, default=2)
    loadgen.add_argument("--seed", type=_seed_value, default=7)
    loadgen.add_argument("--scale", type=_scale_value, default=1.0)
    loadgen.add_argument("--connections", type=int, default=8)
    loadgen.add_argument("--mode", choices=("combined", "paired"), default="combined")
    loadgen.add_argument("--max-events", type=int, default=None)
    loadgen.add_argument("--threshold", type=float, default=0.25)
    loadgen.add_argument(
        "--refresh-mid-run",
        action="store_true",
        help="fire POST /admin/refresh halfway through (hot-swap under load)",
    )
    loadgen.add_argument(
        "--wal-dir",
        default=None,
        help="write-ahead journal directory for the spawned server",
    )
    loadgen.add_argument(
        "--wal-fsync",
        choices=("off", "interval", "batch"),
        default=params.SERVE_WAL_FSYNC,
        help="journal fsync policy for the spawned server",
    )
    loadgen.add_argument(
        "--out", default=None, help="write the JSON report (BENCH_serve.json)"
    )
    loadgen.add_argument(
        "--min-prediction-urls",
        type=int,
        default=0,
        help="fail (exit 1) when fewer prediction URLs come back",
    )

    chaos = sub.add_parser(
        "chaos",
        help="seeded fault-injection run against a live server + crash drill",
    )
    chaos.add_argument("--seed", type=_seed_value, default=7)
    chaos.add_argument("--profile", default="nasa-like")
    chaos.add_argument("--scale", type=_scale_value, default=0.3)
    chaos.add_argument("--days", type=int, default=1)
    chaos.add_argument("--train-days", type=int, default=1)
    chaos.add_argument("--connections", type=int, default=6)
    chaos.add_argument("--max-events", type=int, default=400)
    chaos.add_argument(
        "--out", default=None, help="write the JSON report (BENCH_chaos.json)"
    )

    return parser


def _load_trace(source: str, days: int, seed: int, scale: float) -> Trace:
    from repro.trace.columnar import COLUMNAR_SUFFIX

    if source.startswith("synth:"):
        return TraceGenerator(
            profile_by_name(source[len("synth:"):]), seed=seed, scale=scale
        ).generate(days)
    if source.endswith(COLUMNAR_SUFFIX):
        return Trace.from_columnar_file(source)
    return Trace.from_clf_file(source)


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.trace.columnar import COLUMNAR_SUFFIX

    if (args.profile is None) == (args.workload is None):
        raise ReproError(
            "pass exactly one traffic source: a profile name or --workload"
        )
    columnar = args.output != "-" and args.output.endswith(COLUMNAR_SUFFIX)
    sampler = _sampler_from_args(args)
    if args.workload is not None:
        from repro.workloads import (
            create_workload,
            stream_to_clf,
            stream_to_columnar,
        )

        if args.events is None:
            raise ReproError("--workload needs --events N")
        workload = create_workload(
            args.workload,
            seed=args.seed,
            scale=args.scale,
            **_parse_workload_params(args.param),
        )
        if columnar:
            count = stream_to_columnar(
                workload,
                args.output,
                events=args.events,
                flush_events=args.flush_events,
                sample=sampler,
            )
        elif args.output == "-":
            count = stream_to_clf(
                workload, sys.stdout, events=args.events, sample=sampler
            )
        else:
            with open(args.output, "w", encoding="ascii") as handle:
                count = stream_to_clf(
                    workload, handle, events=args.events, sample=sampler
                )
        print(f"wrote {count} records", file=sys.stderr)
        return 0
    if args.events is not None:
        raise ReproError("--events only applies to --workload runs")
    generator = TraceGenerator(
        profile_by_name(args.profile), seed=args.seed, scale=args.scale
    )
    if sampler is None and columnar:
        count = generator.generate_to_columnar(args.days, args.output)
    else:
        records = generator.generate_records(args.days)
        if sampler is not None:
            records = list(sampler.sample_records(records))
        if columnar:
            from repro.trace.columnar import StreamingColumnarWriter

            with StreamingColumnarWriter(args.output) as writer:
                for record in records:
                    writer.append(record)
            count = len(writer)
        elif args.output == "-":
            count = write_clf_file(records, sys.stdout)
        else:
            with open(args.output, "w", encoding="ascii") as handle:
                count = write_clf_file(records, handle)
    print(f"wrote {count} records", file=sys.stderr)
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    from repro.workloads import available_workloads, workload_parameters

    names = [args.name] if args.name else available_workloads()
    for name in names:
        parameters = workload_parameters(name)
        print(name)
        for key, default in sorted(parameters.items()):
            rendered = (
                default if isinstance(default, (int, float, str)) else "..."
            )
            print(f"  {key}={rendered}")
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    from repro.workloads import load_grid_spec, run_grid

    spec = load_grid_spec(args.spec) if args.spec else None
    tree = run_grid(
        spec,
        events=args.events,
        out=args.out,
        progress=lambda line: print(line, file=sys.stderr),
        sample_rate=args.sample_rate,
        sample_salt=args.sample_salt if args.sample_rate is not None else None,
    )
    if args.out:
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        import json

        print(json.dumps(tree, indent=2, sort_keys=True))
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    from repro.trace.columnar import (
        COLUMNAR_SUFFIX,
        convert_clf_to_columnar,
        convert_columnar_to_clf,
    )

    if args.source.endswith(COLUMNAR_SUFFIX):
        count = convert_columnar_to_clf(args.source, args.output)
        print(f"wrote {count} CLF lines to {args.output}", file=sys.stderr)
    else:
        stats = convert_clf_to_columnar(
            args.source, args.output, strict=args.strict
        )
        print(
            f"wrote {stats.parsed} records to {args.output} "
            f"({stats.malformed} malformed, {stats.blank} blank of "
            f"{stats.total_lines} lines)",
            file=sys.stderr,
        )
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    trace = _load_trace(args.source, args.days, args.seed, args.scale)
    for label, value in summarize_trace(trace).rows():
        print(f"{label:28s} {value}")
    return 0


def _apply_sampling(args: argparse.Namespace) -> None:
    """Honour ``--sample-rate`` for every lab the command touches."""
    rate = getattr(args, "sample_rate", None)
    if rate is not None:
        from repro.experiments.lab import set_default_sampling

        set_default_sampling(rate, getattr(args, "sample_salt", 0))


def _cmd_experiment(args: argparse.Namespace) -> int:
    _apply_sampling(args)
    overrides: dict = {}
    if args.scale is not None:
        overrides["scale"] = args.scale
    if args.seeds:
        from repro.experiments.multiseed import run_multiseed

        result = run_multiseed(args.id, seeds=tuple(args.seeds), **overrides)
    else:
        if args.seed is not None:
            overrides["seed"] = args.seed
        result = run_experiment(args.id, **overrides)
    print(result.to_csv() if args.csv else result.format_table())
    return 0


def _cmd_fidelity(args: argparse.Namespace) -> int:
    from repro.sampling import (
        DEFAULT_FIDELITY_RATES,
        format_fidelity_report,
        pick_rate,
        run_fidelity,
        write_fidelity_report,
    )

    report = run_fidelity(
        workload=args.workload,
        params=_parse_workload_params(args.param),
        events=args.events,
        seeds=tuple(args.seeds) if args.seeds else (0, 1, 2, 3, 4),
        rates=tuple(args.rates) if args.rates else DEFAULT_FIDELITY_RATES,
        train_fraction=args.train_fraction,
        salt=args.salt,
        model=args.model,
        progress=lambda line: print(line, file=sys.stderr),
    )
    picked = None
    if args.budget is not None:
        picked = pick_rate(report, metric=args.metric, budget=args.budget)
    print(format_fidelity_report(report, picked=picked))
    if args.out:
        write_fidelity_report(report, args.out)
        print(f"wrote {args.out}", file=sys.stderr)
    if picked is not None and picked["picked"] is None:
        return 1
    return 0


def _cmd_list(_: argparse.Namespace) -> int:
    for experiment_id in list_experiments():
        print(experiment_id)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import all_experiment_ids, build_report

    ids = all_experiment_ids() if args.all else args.ids
    document = build_report(ids, seed=args.seed, scale=args.scale)
    if args.out == "-":
        print(document)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(document)
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.experiments.shapes import format_outcomes, verify_shapes

    outcomes = verify_shapes(seed=args.seed, scale=args.scale)
    print(format_outcomes(outcomes))
    return 0 if all(outcome.passed for outcome in outcomes) else 1


def _cmd_render(args: argparse.Namespace) -> int:
    from repro.core.render import render_model

    trace = _load_trace(
        f"synth:{args.profile}", args.days + 1, args.seed, args.scale
    )
    split = trace.split(args.days)
    popularity = PopularityTable.from_requests(split.train_requests)
    model = {
        "pb": lambda: PopularityBasedPPM(popularity),
        "standard": StandardPPM,
        "standard3": StandardPPM.order_3,
        "lrs": LRSPPM,
    }[args.model]()
    model.fit(split.train_sessions)
    print(
        render_model(
            model, max_depth=args.max_depth, max_roots=args.max_roots
        )
    )
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from repro.serve.state import ClientSessionTracker, ModelRef

    trace = _load_trace(f"synth:{args.profile}", args.days + 1, args.seed, args.scale)
    split = trace.split(args.days)
    popularity = PopularityTable.from_requests(split.train_requests)
    if args.model == "pb":
        model = PopularityBasedPPM(popularity)
    elif args.model == "standard":
        model = StandardPPM()
    else:
        model = LRSPPM()
    model.fit(split.train_sessions)
    # Drive the same tracker the server uses, so context trimming and
    # cursor handling stay in one place instead of ad-hoc suffix logic.
    tracker = ClientSessionTracker(ModelRef(model))
    for offset, url in enumerate(args.context):
        tracker.observe("cli", url, float(offset))
    predictions, _version = tracker.predict("cli", threshold=args.threshold)
    if not predictions:
        print("(no predictions above threshold)")
        return 0
    for prediction in predictions:
        print(
            f"{prediction.probability:6.3f}  {prediction.url}  "
            f"[order={prediction.order}, {prediction.source}]"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.server import PrefetchServer
    from repro.serve.snapshot import restore_snapshot_state

    kwargs: dict = {
        "host": args.host,
        "port": args.port,
        "snapshot_path": args.snapshot,
        "snapshot_interval_s": args.snapshot_interval,
        "refresh_interval_s": args.refresh_interval,
    }
    if args.fold_interval is not None:
        kwargs["fold_interval_s"] = args.fold_interval
    if args.idle_timeout is not None:
        kwargs["idle_timeout_s"] = args.idle_timeout
    if args.wal_dir is not None:
        kwargs["wal_dir"] = args.wal_dir
        kwargs["wal_fsync"] = args.wal_fsync
        kwargs["wal_segment_max_bytes"] = args.wal_segment_bytes
        kwargs["wal_segment_max_age_s"] = args.wal_segment_age
    # Forgiving boot: a corrupt snapshot is quarantined (-> *.corrupt-NNNN,
    # see restore_snapshot_state's log line) and the server bootstraps
    # fresh instead of refusing to start.
    model, boundary = (
        restore_snapshot_state(args.snapshot)
        if args.snapshot
        else (None, None)
    )
    if model is not None:
        print(f"restoring model from {args.snapshot}", file=sys.stderr)
        server = PrefetchServer(model, **kwargs)
    else:
        trace = _load_trace(
            f"synth:{args.profile}", args.train_days, args.seed, args.scale
        )
        print(
            f"bootstrapping from {args.train_days} day(s) of {args.profile}",
            file=sys.stderr,
        )
        server = PrefetchServer(bootstrap_sessions=trace.sessions, **kwargs)
    if args.wal_dir is not None:
        # Replay everything journalled past the snapshot boundary before
        # accepting traffic: acknowledged reports survive a crash.
        recovered = server.recover_journal(boundary)
        if recovered and recovered.get("records_replayed"):
            print(
                "recovered {records_replayed} journalled record(s) from "
                "{segments_scanned} segment(s)".format(**recovered),
                file=sys.stderr,
            )
    server.run()
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.serve.loadgen import format_report, run_loadgen

    if args.workload is None and args.events is not None:
        raise ReproError("--events needs --workload (see repro workloads)")
    report = run_loadgen(
        args.url,
        profile=args.profile,
        workload=args.workload,
        workload_params=_parse_workload_params(args.param),
        events=args.events,
        train_events=args.train_events,
        days=args.days,
        train_days=args.train_days,
        seed=args.seed,
        scale=args.scale,
        connections=args.connections,
        mode=args.mode,
        max_events=args.max_events,
        threshold=args.threshold,
        refresh_mid_run=args.refresh_mid_run,
        spawn=args.spawn,
        wal_dir=args.wal_dir,
        wal_fsync=args.wal_fsync,
        out=args.out,
    )
    print(format_report(report))
    if args.out:
        print(f"wrote {args.out}", file=sys.stderr)
    if report["failed_requests"]:
        print(
            f"error: {report['failed_requests']} request(s) failed",
            file=sys.stderr,
        )
        return 1
    if report["prediction_urls_returned"] < args.min_prediction_urls:
        print(
            f"error: expected >= {args.min_prediction_urls} prediction URLs, "
            f"got {report['prediction_urls_returned']}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.resilience.chaos import format_chaos_report, run_chaos

    report = run_chaos(
        args.seed,
        profile=args.profile,
        scale=args.scale,
        days=args.days,
        train_days=args.train_days,
        connections=args.connections,
        max_events=args.max_events,
        out=args.out,
    )
    print(format_chaos_report(report))
    if args.out:
        print(f"wrote {args.out}", file=sys.stderr)
    return 0 if report["ok"] else 1


_COMMANDS = {
    "generate": _cmd_generate,
    "workloads": _cmd_workloads,
    "grid": _cmd_grid,
    "convert": _cmd_convert,
    "summarize": _cmd_summarize,
    "experiment": _cmd_experiment,
    "fidelity": _cmd_fidelity,
    "list": _cmd_list,
    "report": _cmd_report,
    "verify": _cmd_verify,
    "render": _cmd_render,
    "predict": _cmd_predict,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "chaos": _cmd_chaos,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
