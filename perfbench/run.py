"""End-to-end benchmark of the reproduction, with a traced per-layer split.

Run from the repository root::

    python3 perfbench/run.py --workload headline-r0 --seed 1 --seconds 15 --trace 0

Every interpreter it starts is fresh.  With ``--trace 0`` it:

1. computes the operations' reference digests on the numpy path
   (``REPRO_COMPILED_PROVIDER=none``, ``connectivity="recompute"``, no
   executor) in one interpreter, cached per workload, seed and source-tree
   digest;
2. once per source tree and workload, runs a discarded warm-up start-up
   that fills the bytecode and compiled-kernel caches under the scratch
   directory;
3. times the start-up (``setup_s``) in several fresh interpreters;
4. runs passes of the workload for ``--seconds`` with tracing off;
5. checks every operation's digest against its reference, and prints each
   end-to-end metric by name with its unit, then one JSON line.

Times are gated at a reference host speed, read from a probe loop run next
to them (see ``child.py``); the times as measured are printed beside them.
With ``--trace 1`` step 4 becomes untraced and traced passes in turn in one
interpreter, and the JSON line holds the per-layer metrics.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

#: Extra fresh interpreters timed for ``setup_s`` (the timed run adds one).
SETUP_SAMPLES = 2
#: Every run ends within this many seconds or fails.
RUN_BUDGET_S = 170.0
#: Environment the program runs under: no thread pools beyond one thread.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMBA_NUM_THREADS",
)
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
#: Throughput printed beside the gated metrics, where a workload reports it.
THROUGHPUT = (("agent_steps_per_s", "agent_steps"), ("units_per_s", "units_executed"))


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def source_digest() -> str:
    """Digest of ``src/`` and of the workload definitions."""
    digest = hashlib.sha256()
    files = sorted(
        p for p in (ROOT / "src").rglob("*") if p.is_file() and "__pycache__" not in p.parts
    )
    files.append(HERE / "workloads.py")
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def child_env(work: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONPYCACHEPREFIX=str(work / "pycache"),
        PYTHONHASHSEED="0",
        REPRO_COMPILED_CACHE=str(work / "kernels"),
        TMPDIR=str(work / "tmp"),
    )
    env.update({name: "1" for name in THREAD_VARS})
    return env


class Runner:
    """Starts the benchmark's child interpreters within the run's time budget."""

    def __init__(self, args: argparse.Namespace, work: Path) -> None:
        self.args = args
        self.work = work
        self.env = child_env(work)
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.started = 0

    def child(self, mode: str, *, env: Optional[dict] = None, **extra: Any) -> dict:
        """Run one child interpreter to completion and return its result."""
        self.started += 1
        out = self.work / "tmp" / f"{mode}-{os.getpid()}-{self.started}.json"
        command = [
            sys.executable, str(HERE / "child.py"), mode, self.args.workload,
            str(self.args.seed), "--out", str(out), "--seconds", str(self.args.seconds),
        ]
        if self.args.toy:
            command.append("--toy")
        for key, value in extra.items():
            command += [f"--{key}", str(value)]
        process = subprocess.Popen(
            command,
            cwd=str(ROOT),
            env=env or self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            start_new_session=True,
        )
        try:
            output, _ = process.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            _kill_group(process)
            process.communicate()
            raise BenchmarkError(f"{mode} run exceeded the {RUN_BUDGET_S:.0f} s budget")
        finally:
            _kill_group(process)  # leftovers of the child's session, if any
        if process.returncode != 0 or not out.exists():
            raise BenchmarkError(
                f"{mode} run failed (exit {process.returncode}):\n{output[-4000:]}"
            )
        try:
            return json.loads(out.read_text(encoding="utf-8"))
        finally:
            out.unlink()


def _kill_group(process: subprocess.Popen) -> None:
    """Stop everything left in the child's session."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def reference_digests(runner: Runner, digest: str) -> dict[str, str]:
    args = runner.args
    size = "toy" if args.toy else "full"
    path = runner.work / "reference" / f"{args.workload}-{size}-{args.seed}-{digest}.json"
    if not path.exists():
        env = dict(runner.env, REPRO_COMPILED_PROVIDER="none")
        digests = runner.child("reference", env=env)["digests"]
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(digests), encoding="utf-8")
        os.replace(tmp, path)
    return json.loads(path.read_text(encoding="utf-8"))


def check_ops(passes: list[dict], reference: dict[str, str]) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages): an exception or a digest mismatch fails."""
    attempted = failed = 0
    messages = []
    for number, run in enumerate(passes):
        for op in run["ops"]:
            attempted += 1
            if "error" in op:
                failed += 1
                messages.append(f"pass {number} {op['name']}: {op['error']}")
            elif op.get("digest") != reference.get(op["name"]):
                failed += 1
                messages.append(f"pass {number} {op['name']}: digest differs from the reference")
    return attempted, failed, messages


def rate(passes: list[dict], key: str) -> float:
    """Median over passes of ``key`` per second of the operations reporting it.

    ``agent_steps`` come from the returned results; ``units_executed`` from
    the executor's report, so on ``sweep-dispatch`` both count the fresh
    dispatch only.  Seconds are at the reference speed, as for ``wall_s``.
    0 when no operation reports ``key``.
    """
    rates = []
    for run in passes:
        ops = [op for op in run["ops"] if op.get(key)]
        if ops:
            rates.append(sum(op[key] for op in ops) / sum(op["scaled_s"] for op in ops))
    return statistics.median(rates) if rates else 0.0


def describe_ops(passes: list[dict]) -> list[str]:
    """One line per distinct operation: median times and resolved choices."""
    by_name: dict[str, list[dict]] = {}
    for run in passes:
        for op in run["ops"]:
            by_name.setdefault(op["name"], []).append(op)
    lines = []
    for name, ops in by_name.items():
        seconds = statistics.median(op["scaled_s"] for op in ops)
        measured = statistics.median(op["seconds"] for op in ops)
        resolved = ops[0].get("resolved", {})
        choices = " ".join(
            f"{k}={resolved[k]}"
            for k in ("backend", "connectivity", "provider", "dispatch")
            if k in resolved
        )
        steps = ops[0].get("agent_steps", 0)
        rate = f" agent_steps_per_s={steps / seconds:.6g}" if steps else ""
        lines.append(f"  op {name}: {seconds:.6f} s (measured {measured:.6f} s){rate} {choices}")
    return lines


def run(args: argparse.Namespace) -> dict[str, Any]:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing")
    work = Path(args.work).resolve() if args.work else HERE / ".work"
    for sub in ("pycache", "kernels", "tmp", "reference", "warm", "results", "spans"):
        (work / sub).mkdir(parents=True, exist_ok=True)
    runner = Runner(args, work)
    digest = source_digest()

    caches = {
        "bytecode": "warm" if any((work / "pycache").iterdir()) else "cold",
        "kernel": "warm" if any((work / "kernels").glob("*.so")) else "cold",
    }
    began = time.monotonic()
    reference = reference_digests(runner, digest)
    reference_s = time.monotonic() - began
    marker = work / "warm" / f"{args.workload}-{digest}"
    caches["warm_up_run"] = "no" if marker.exists() or args.toy else "yes"
    if caches["warm_up_run"] == "yes":
        runner.child("setup")  # discarded: fills the bytecode and kernel caches
        marker.touch()

    report: dict[str, Any] = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace:
        result = runner.child("traced", spans=work / "spans" / f"{args.workload}-{args.seed}.json")
        metrics = {name: (result["layers"][name], unit) for name, unit in tracing.METRICS}
        report["missing_targets"] = result.get("missing_targets", [])
    else:
        extra = 0 if args.toy else SETUP_SAMPLES
        setups = [runner.child("setup") for _ in range(extra)]
        result = runner.child("timed")
        setups.append(result)
        values = {
            "wall_s": statistics.median(p["scaled_s"] for p in result["passes"]),
            "setup_s": statistics.median(s["setup_scaled_s"] for s in setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        report["measured"] = {
            "wall_s": statistics.median(p["seconds"] for p in result["passes"]),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
        }
        report["setup_samples"] = [(s["setup_s"], s["setup_scaled_s"]) for s in setups]
        report["throughput"] = {
            name: value
            for name, key in THROUGHPUT
            if (value := rate(result["passes"], key))
        }
    attempted, failed, messages = check_ops(result["passes"], reference)
    report.update(
        env=dict(result["env"], caches=caches, source_digest=digest),
        reference_s=reference_s,
        passes=[(p["seconds"], p["scaled_s"]) for p in result["passes"]],
        ops=describe_ops(result["passes"]),
        failures=messages,
        result={
            "correct": failed == 0 and attempted > 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
            },
        },
    )
    record = work / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(report, indent=1), encoding="utf-8")
    return report


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy sizes (the benchmark's own tests)")
    parser.add_argument("--work", help="scratch directory (default: perfbench/.work)")
    args = parser.parse_args(argv)
    try:
        report = run(args)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    env = report["env"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print(
        f"  env: python={env['python']} numpy={env['numpy']} provider={env['provider']} "
        f"affinity={env['affinity']} caches={env['caches']}"
    )
    measured = [seconds for seconds, _scaled in report["passes"]]
    print(
        f"  passes: {len(measured)} (measured min {min(measured):.6f} s, "
        f"max {max(measured):.6f} s)"
    )
    for line in report["ops"]:
        print(line)
    for message in report["failures"]:
        print(f"  FAILED {message}")
    if report.get("missing_targets"):
        print(f"  untraced (absent in this version): {', '.join(report['missing_targets'])}")
    result = report["result"]
    for name, metric in result["metrics"].items():
        measured = report.get("measured", {}).get(name)
        note = f" (measured {measured:.6g} s; gated at the reference speed)" if measured else ""
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}{note}")
    for name, value in report.get("throughput", {}).items():
        print(f"  {name} = {value:.6g} 1/s (at the reference speed; printed, not gated)")
    print(f"  operations: {result['failed']} failed / {result['attempted']} attempted")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
