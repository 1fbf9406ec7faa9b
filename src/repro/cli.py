"""Command-line interface: run experiments and inspect workloads.

Usage::

    python -m repro list
    python -m repro run E1 --scale small --seed 0
    python -m repro run E1 --scale small --backend batched
    python -m repro run all --scale tiny --json results.json
    python -m repro workload E3 --scale paper
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis.report import ExperimentReport
from repro.core.config import BACKENDS, CONNECTIVITY_MODES
from repro.experiments import available_experiments, experiment_description, run_experiment
from repro.util.serialization import dump_json, to_jsonable
from repro.workloads import SCALES, get_workload


def _positive_int(text: str) -> int:
    """argparse type: a strictly positive integer."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _experiment_span() -> str:
    """The registry's id range (e.g. ``"E1..E17"``), kept in sync with it."""
    ids = available_experiments()
    return f"{ids[0]}..{ids[-1]}"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction harness for 'Tight Bounds on Information Dissemination "
            "in Sparse Mobile Networks' (Pettarin et al., PODC 2011)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list", help="list the available experiments")
    list_parser.set_defaults(func=_cmd_list)

    run_parser = subparsers.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument("experiment", help=f"experiment id ({_experiment_span()}) or 'all'")
    run_parser.add_argument("--scale", choices=SCALES, default="small")
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help="worker processes for sharded replication execution; results are "
        "bit-for-bit identical to --jobs 1 (default: 1, in-process)",
    )
    run_parser.add_argument(
        "--resume",
        metavar="DIR",
        default=None,
        help="result-store directory: completed work units found there are "
        "skipped, fresh ones are recorded, so interrupted runs pick up "
        "where they stopped",
    )
    run_parser.add_argument(
        "--chunk-size",
        type=_positive_int,
        default=None,
        metavar="R",
        help="replications per work unit (default: derived from the "
        "replication count; never affects results)",
    )
    run_parser.add_argument(
        "--pool-chunk",
        type=_positive_int,
        default=None,
        metavar="N",
        help="work units dispatched to a pool worker per task: chunks of N "
        "units share one pickle/submit round-trip and one group-committed "
        "store write, amortising dispatch overhead for many-tiny-units "
        "sweeps; retries, timeouts and leases still apply per unit, and "
        "results stay bit-for-bit identical (default: 1)",
    )
    run_parser.add_argument(
        "--retries",
        type=_non_negative_int,
        default=0,
        metavar="N",
        help="re-executions granted to a failing work unit (crash, timeout, "
        "raised error, corrupt record) before the failure propagates; "
        "units are deterministic, so retried runs stay bit-for-bit "
        "identical (default: 0)",
    )
    run_parser.add_argument(
        "--unit-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per work unit: a unit running longer has its "
        "worker killed and is retried (pooled execution only; requires "
        "--jobs > 1 to preempt; default: unlimited)",
    )
    run_parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default=None,
        help="replication backend for every simulation in the run: 'serial', "
        "'batched', 'compiled' (native hot kernels from the bundled C "
        "provider; error if a config does not support it or no provider "
        "is available), or 'auto' (the fastest supported backend); results "
        "are bit-for-bit identical across backends (default: auto)",
    )
    run_parser.add_argument(
        "--metrics-file",
        metavar="PATH",
        default=None,
        help="after the run, write all collected metrics (executor, store, "
        "leases, simulation step loops) to PATH in the Prometheus text "
        "exposition format",
    )
    run_parser.add_argument(
        "--log-json",
        metavar="PATH",
        default=None,
        help="append structured JSON-line progress events (unit completions, "
        "retries, store hits, pool rebuilds) to PATH during the run",
    )
    run_parser.add_argument(
        "--connectivity",
        choices=CONNECTIVITY_MODES,
        default=None,
        help="connectivity engine for the per-step component labelling: "
        "'recompute' rebuilds the visibility graph each step, 'incremental' "
        "maintains it across steps, 'auto' picks the faster engine per "
        "config; results are bit-for-bit identical either way "
        "(default: auto)",
    )
    run_parser.add_argument("--json", metavar="PATH", help="also write the report(s) as JSON")
    run_parser.set_defaults(func=_cmd_run)

    workload_parser = subparsers.add_parser("workload", help="show an experiment's workload")
    workload_parser.add_argument("experiment", help=f"experiment id ({_experiment_span()})")
    workload_parser.add_argument("--scale", choices=SCALES, default="small")
    workload_parser.set_defaults(func=_cmd_workload)

    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    for experiment_id in available_experiments():
        print(f"{experiment_id:>4}  {experiment_description(experiment_id)}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from contextlib import nullcontext

    from repro.exec import SweepExecutor, execution_override
    from repro.obs import global_registry, progress_logging, render_registries

    if args.experiment.lower() == "all":
        experiment_ids = available_experiments()
    else:
        experiment_ids = [args.experiment.upper()]
    # One executor (and worker pool) for the whole run: `run all --jobs N`
    # must not pay a pool spin-up per experiment.  run_experiment's own
    # executor arguments stay at their defaults, which leave this ambient
    # override in charge.
    executor = SweepExecutor.from_options(
        jobs=args.jobs, chunk_size=args.chunk_size, store=args.resume,
        retries=args.retries, unit_timeout=args.unit_timeout,
        pool_chunk=args.pool_chunk,
    )
    logging_context = (
        progress_logging(args.log_json) if args.log_json else nullcontext()
    )
    reports: list[ExperimentReport] = []
    with logging_context, execution_override(executor):
        for experiment_id in experiment_ids:
            report = run_experiment(
                experiment_id, scale=args.scale, seed=args.seed,
                backend=args.backend, connectivity=args.connectivity,
            )
            reports.append(report)
            print(report.render())
            print()
    if executor is not None:
        # The per-run execution report goes to stderr so report output on
        # stdout stays byte-identical across --jobs/--retries settings.
        print(executor.execution_report().render(), file=sys.stderr)
    if args.metrics_file:
        registries = [executor.metrics] if executor is not None else []
        registries.append(global_registry())
        with open(args.metrics_file, "w", encoding="utf-8") as handle:
            handle.write(render_registries(*registries))
        print(f"wrote {args.metrics_file}", file=sys.stderr)
    if args.json:
        payload = [to_jsonable(report) for report in reports]
        dump_json(payload if len(payload) > 1 else payload[0], args.json)
        print(f"wrote {args.json}")
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    workload = get_workload(args.experiment, args.scale)
    print(f"{workload.experiment_id} @ {workload.scale}")
    for key, value in workload.params.items():
        print(f"  {key} = {value}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``repro`` command-line interface."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
