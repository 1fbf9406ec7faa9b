"""One fresh interpreter of the benchmark: set up a workload, run it, report.

Started by ``run.py``, never by hand::

    python3 perfbench/child.py MODE WORKLOAD SEED --out FILE [--seconds S] [--toy]

Modes: ``setup`` (time the start-up only), ``reference`` (digests on the
reference path), ``timed`` (passes with tracing off), ``traced`` (a discarded
warm-up pass, then untraced and traced passes in turn).  The result is one
JSON document written to ``--out``.

Every time is reported twice: as measured, and scaled to a reference host
speed.  The host's speed is read from a fixed pure-Python probe loop, run
just before and just after the start-up and after every operation; a
scaled time is the time multiplied by ``PROBE_REFERENCE_S`` over the mean
of the probes just before and just after it.
"""

import time

#: Iterations of the host-speed probe loop (3.5-6 ms on a 2.1 GHz Xeon vCPU).
PROBE_LOOPS = 50_000
#: The probe's time at the reference speed: scaled times are seconds at the
#: speed at which the probe takes this long.
PROBE_REFERENCE_S = 0.0035
#: The start-up (about 1 s, against tens of ms for most operations) is
#: bracketed by this many probe loops on each side.
SETUP_PROBES = 4


def probe(repeats: int = 1) -> float:
    """Seconds the host takes, right now, for one probe loop (mean of ``repeats``)."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS * repeats):
        total += i * i % 7
    return (time.perf_counter() - start) / repeats


# The start-up is bracketed by probes, so these run before any import.
PROBE_BEFORE_SETUP = probe(SETUP_PROBES)
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from typing import Any, Optional  # noqa: E402

import workloads  # noqa: E402


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, given the probes around them."""
    return seconds * PROBE_REFERENCE_S * 2.0 / (before + after)


def run_pass(
    workload: workloads.Workload, index: int, recorder: Optional[Any] = None
) -> dict[str, Any]:
    """Pass ``index``; each operation's exception is recorded as its failure.

    ``seconds`` is the sum of the operations' times (the probes between
    them excluded); ``scaled_s`` is the same at the reference speed.
    """
    ops = []
    before = probe()
    for name, call in workload.operations(index):
        if recorder is not None:
            recorder.start_op(name)
        began = time.perf_counter()
        try:
            info = call()
        except Exception as exc:  # a failed operation is reported, not fatal
            info = {"error": f"{type(exc).__name__}: {exc}"}
        info["seconds"] = time.perf_counter() - began
        after = probe()
        info["scaled_s"] = scaled(info["seconds"], before, after)
        info["name"] = name
        ops.append(info)
        before = after
    workload.finish_pass()
    return {
        "seconds": sum(op["seconds"] for op in ops),
        "scaled_s": sum(op["scaled_s"] for op in ops),
        "ops": ops,
    }


def run_passes(workload: workloads.Workload, seconds: float) -> list[dict[str, Any]]:
    """Passes until ``seconds`` have elapsed (at least one)."""
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(run_pass(workload, len(passes)))
    return passes


def run_traced(
    workload: workloads.Workload, seconds: float, spans: Optional[str]
) -> dict[str, Any]:
    """Untraced and traced passes in turn, after a discarded warm-up pass.

    The warm-up pass pays the first-call costs, so that both kinds of pass
    are measured alike; taking them in turn, each traced pass repeating the
    inputs of the untraced pass before it, keeps the host's drift and the
    inputs out of ``tracing_overhead_s``.  The wrappers are installed for
    each traced pass and removed after it.  The spans are written to
    ``spans``.
    """
    import tracing

    deadline = time.perf_counter() + seconds
    warm_up = run_pass(workload, 0)
    recorder = tracing.Recorder()
    untraced: list[dict[str, Any]] = []
    traced: list[dict[str, Any]] = []
    steps = 0.0
    while not traced or time.perf_counter() < deadline:
        index = len(traced) + 1
        untraced.append(run_pass(workload, index))
        patches = tracing.install(recorder)
        steps_before = tracing.step_counter_total()
        try:
            traced.append(run_pass(workload, index, recorder))
        finally:
            patches.remove()
        steps += tracing.step_counter_total() - steps_before
    if spans:
        recorder.dump(spans)
    return {
        "passes": [warm_up] + untraced + traced,
        "layers": tracing.layer_metrics(recorder, traced, untraced, steps),
        "missing_targets": patches.missing,
    }


def environment() -> dict[str, Any]:
    import numpy

    import repro
    import repro.compiled

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "repro": getattr(repro, "__version__", "?"),
        "repro_path": os.path.dirname(repro.__file__),
        "provider": repro.compiled.provider_name() or "none",
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpus": os.cpu_count(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "reference", "timed", "traced"))
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--spans", help="file the traced run writes its spans to")
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    workload.prepare(args.seed, args.toy, reference=args.mode == "reference")
    setup_s = time.perf_counter() - T0
    out: dict[str, Any] = {
        "setup_s": setup_s,
        "setup_scaled_s": scaled(setup_s, PROBE_BEFORE_SETUP, probe(SETUP_PROBES)),
    }
    try:
        out["env"] = environment()
        if args.mode == "reference":
            out["digests"] = workload.reference()
        elif args.mode == "timed":
            out["passes"] = run_passes(workload, args.seconds)
        elif args.mode == "traced":
            out.update(run_traced(workload, args.seconds, args.spans))
    finally:
        workload.close()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
