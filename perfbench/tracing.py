"""Span tracing for the benchmark's traced runs, installed from outside ``repro``.

:func:`install` wraps the public calls of each ``repro`` layer.  Every call
records one span (name, start, end, parent span, operation id) in memory;
:func:`layer_metrics` turns the spans into per-layer counts, self-time
shares and ratios.  A span's self time is its duration minus the part of it
that its child spans cover.

Functions are patched wherever a loaded ``repro`` module holds them, since
``from x import y`` binds at import time (``repro.core.batched`` holds its
own ``flood_informed_batch``, ``repro.exec.executor`` its own ``wait``);
methods are patched on the class that defines them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import statistics
import sys
import threading
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Optional

#: Every per-layer metric a traced run reports, with its unit.  Shares are
#: self time as a percentage of the traced pass time (experiment shares are
#: inclusive); counts and shares are per pass.
EXPERIMENT_IDS = tuple(f"E{i}" for i in range(1, 18))
METRICS: tuple[tuple[str, str], ...] = (
    *((f"experiments.{eid}_share", "%") for eid in EXPERIMENT_IDS),
    ("walks.meeting_calls", "count"),
    ("walks.meeting_share", "%"),
    ("walks.trajectory_calls", "count"),
    ("walks.trajectory_share", "%"),
    ("dissemination.process_share", "%"),
    ("dissemination.trial_steps", "count"),
    ("baselines.dense_share", "%"),
    ("core.loop_self_share", "%"),
    ("core.flood_calls", "count"),
    ("core.flood_share", "%"),
    ("core.trial_steps", "count"),
    ("mobility.draw_calls", "count"),
    ("mobility.draw_share", "%"),
    ("mobility.step_calls", "count"),
    ("mobility.step_share", "%"),
    ("connectivity.engine_calls", "count"),
    ("connectivity.engine_share", "%"),
    ("connectivity.labels_calls", "count"),
    ("connectivity.labels_share", "%"),
    ("compiled.fused_calls", "count"),
    ("compiled.fused_share", "%"),
    ("compiled.fused_agent_steps", "count"),
    ("compiled.fused_rate", "1/s"),
    ("compiled.delta_calls", "count"),
    ("compiled.delta_share", "%"),
    ("compiled.kernel_calls", "count"),
    ("compiled.kernel_share", "%"),
    ("exec.dispatch_self_share", "%"),
    ("exec.wait_share", "%"),
    ("exec.store_puts", "count"),
    ("exec.store_put_share", "%"),
    ("exec.store_gets", "count"),
    ("exec.store_get_share", "%"),
    ("exec.store_hit_ratio", "ratio"),
    ("exec.lease_ops", "count"),
    ("exec.lease_share", "%"),
    ("exec.key_share", "%"),
    ("exec.units_executed", "count"),
    ("exec.retries", "count"),
    ("exec.requeues", "count"),
    ("exec.pool_rebuilds", "count"),
    ("exec.worker_busy_share", "%"),
    ("analysis.fit_share", "%"),
    ("analysis.summary_share", "%"),
    ("obs.step_counter_coverage", "ratio"),
    ("traced_pass_s", "s"),
    ("tracing_overhead_s", "s"),
)

#: Share metric -> span names whose self time it sums.
SHARES = {
    "walks.meeting_share": ("walks.meeting",),
    "walks.trajectory_share": ("walks.trajectory",),
    "dissemination.process_share": ("dissemination.process",),
    "baselines.dense_share": ("baselines.dense",),
    "core.loop_self_share": ("core.loop",),
    "core.flood_share": ("core.flood",),
    "mobility.draw_share": ("mobility.draw",),
    "mobility.step_share": ("mobility.step",),
    "connectivity.engine_share": ("connectivity.engine",),
    "connectivity.labels_share": ("connectivity.labels",),
    "compiled.fused_share": ("compiled.fused",),
    "compiled.delta_share": ("compiled.delta",),
    "compiled.kernel_share": ("compiled.kernel",),
    "exec.dispatch_self_share": ("exec.dispatch",),
    "exec.wait_share": ("exec.wait",),
    "exec.store_put_share": ("exec.store_put",),
    "exec.store_get_share": ("exec.store_get",),
    "exec.lease_share": ("exec.lease",),
    "exec.key_share": ("exec.key",),
    "analysis.fit_share": ("analysis.fit",),
    "analysis.summary_share": ("analysis.summary",),
}

#: Call-count metric -> span name.
CALLS = {
    "walks.meeting_calls": "walks.meeting",
    "walks.trajectory_calls": "walks.trajectory",
    "core.flood_calls": "core.flood",
    "mobility.draw_calls": "mobility.draw",
    "mobility.step_calls": "mobility.step",
    "connectivity.engine_calls": "connectivity.engine",
    "connectivity.labels_calls": "connectivity.labels",
    "compiled.fused_calls": "compiled.fused",
    "compiled.delta_calls": "compiled.delta",
    "compiled.kernel_calls": "compiled.kernel",
    "exec.store_puts": "exec.store_put",
    "exec.store_gets": "exec.store_get",
    "exec.lease_ops": "exec.lease",
}

#: Counts the workload reads from ``executor.execution_report()`` and
#: ``executor.metrics`` (per operation), summed per pass.
EXECUTOR_COUNTS = {
    "exec.units_executed": "units_executed",
    "exec.retries": "retries",
    "exec.requeues": "requeues",
    "exec.pool_rebuilds": "pool_rebuilds",
}


class Recorder:
    """In-memory spans: parallel lists indexed by span id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.counts: Counter[str] = Counter()
        #: Operation id stamped on new spans, an index into ``op_names``.
        self.op = -1
        self.op_names: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def start_op(self, name: str) -> None:
        """Spans from now on belong to a new operation called ``name``."""
        self.op = len(self.op_names)
        self.op_names.append(name)

    def begin(self, name: str) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            span = len(self.names)
            self.names.append(name)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self.parents.append(stack[-1] if stack else -1)
            self.ops.append(self.op)
        stack.append(span)
        self.starts[span] = perf_counter()
        return span

    def end(self, span: int) -> None:
        self.ends[span] = perf_counter()
        self._local.stack.pop()

    def add_span(self, name: str, start: float, end: float, parent: int = -1, op: int = -1) -> int:
        """Append a finished span (used to build synthetic trees)."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        self.ops.append(op)
        return len(self.names) - 1

    def dump(self, path: str) -> None:
        """Write the spans out as JSON rows ``[name, start, end, parent, op]``."""
        rows = list(zip(self.names, self.starts, self.ends, self.parents, self.ops))
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "columns": ["name", "start", "end", "parent", "op"],
                    "ops": self.op_names,
                    "spans": rows,
                },
                handle,
            )


def self_times(recorder: Recorder) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[int]] = {}
    for span, parent in enumerate(recorder.parents):
        if parent >= 0:
            children.setdefault(parent, []).append(span)
    out = []
    for span, (start, end) in enumerate(zip(recorder.starts, recorder.ends)):
        covered = 0.0
        cursor = start
        intervals = sorted(
            (max(recorder.starts[c], start), min(recorder.ends[c], end))
            for c in children.get(span, ())
        )
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def layer_metrics(
    recorder: Recorder,
    traced: list[dict[str, Any]],
    untraced: list[dict[str, Any]],
    step_counter: float,
) -> dict[str, float]:
    """Per-pass layer metrics from the spans recorded during the ``traced`` passes.

    A pass is ``{"seconds", "scaled_s", "ops"}`` as ``child.run_pass``
    returns it; ``untraced`` are the passes run in turn with them.
    """
    passes = len(traced)
    total = sum(p["seconds"] for p in traced)
    op_infos = [op for p in traced for op in p["ops"]]
    selfs = self_times(recorder)
    self_by_name: Counter[str] = Counter()
    incl_by_name: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    for name, start, end, own in zip(recorder.names, recorder.starts, recorder.ends, selfs):
        self_by_name[name] += own
        incl_by_name[name] += end - start
        calls[name] += 1
    share = lambda seconds: 100.0 * seconds / total if total > 0 else 0.0  # noqa: E731
    out: dict[str, float] = {}
    for eid in EXPERIMENT_IDS:
        out[f"experiments.{eid}_share"] = share(incl_by_name[f"experiments.{eid}"])
    for metric, names in SHARES.items():
        out[metric] = share(sum(self_by_name[name] for name in names))
    for metric, name in CALLS.items():
        out[metric] = calls[name] / passes
    counts = recorder.counts
    out["core.trial_steps"] = counts["core.trial_steps"] / passes
    out["dissemination.trial_steps"] = counts["dissemination.trial_steps"] / passes
    out["compiled.fused_agent_steps"] = counts["compiled.fused_agent_steps"] / passes
    fused_seconds = self_by_name["compiled.fused"]
    out["compiled.fused_rate"] = (
        counts["compiled.fused_agent_steps"] / fused_seconds if fused_seconds > 0 else 0.0
    )
    gets = calls["exec.store_get"]
    out["exec.store_hit_ratio"] = counts["exec.store_hits"] / gets if gets else 0.0
    for metric, key in EXECUTOR_COUNTS.items():
        out[metric] = sum(info.get(key, 0) for info in op_infos) / passes
    out["exec.worker_busy_share"] = share(sum(info.get("worker_busy_s", 0.0) for info in op_infos))
    trial_steps = counts["core.trial_steps"]
    out["obs.step_counter_coverage"] = step_counter / trial_steps if trial_steps else 0.0
    out["traced_pass_s"] = statistics.median(p["scaled_s"] for p in traced)
    out["tracing_overhead_s"] = out["traced_pass_s"] - statistics.median(
        p["scaled_s"] for p in untraced
    )
    return out


def step_counter_total() -> float:
    """Sum of ``repro_sim_steps_total`` over every loop label."""
    from repro.obs.metrics import global_registry

    return sum(
        metric.value
        for metric in global_registry().collect()
        if metric.name == "repro_sim_steps_total"
    )


# --------------------------------------------------------------------------- #
# Wrapping
# --------------------------------------------------------------------------- #
Hook = Callable[[Recorder, inspect.BoundArguments, Any], None]


def _wrap(fn: Callable, recorder: Recorder, name: Any, hook: Optional[Hook] = None) -> Callable:
    """``fn`` recording one span per call; ``name`` may be a function of the args."""
    signature = inspect.signature(fn) if hook is not None else None

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        span = recorder.begin(name(args, kwargs) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(span)
        if hook is not None:
            hook(recorder, signature.bind(*args, **kwargs), result)
        return result

    return traced


def _experiment_name(args: tuple, kwargs: dict) -> str:
    experiment_id = args[0] if args else kwargs["experiment_id"]
    return f"experiments.{str(experiment_id).upper()}"


def _count_trial_steps(key: str) -> Hook:
    def hook(recorder: Recorder, _bound: Any, result: Any) -> None:
        results = result[1] if isinstance(result, tuple) else [result]
        recorder.counts[key] += sum(int(getattr(r, "n_steps", 0)) for r in results)

    return hook


_trial_steps = _count_trial_steps("core.trial_steps")


def _count_fused(recorder: Recorder, bound: inspect.BoundArguments, steps: Any) -> None:
    trials = bound.arguments["counts_out"].shape[1]
    agents = bound.arguments["informed"].shape[1]
    recorder.counts["compiled.fused_agent_steps"] += int(steps) * trials * agents


def _count_hit(recorder: Recorder, _bound: Any, record: Any) -> None:
    if record is not None:
        recorder.counts["exec.store_hits"] += 1


#: Module-level functions: (module, attribute, span name, hook).
FUNCTIONS: tuple[tuple[str, str, Any, Optional[Hook]], ...] = (
    ("repro.experiments.registry", "run_experiment", _experiment_name, None),
    ("repro.walks.single", "walk_trajectory", "walks.trajectory", None),
    (
        "repro.dissemination.kernels",
        "run_process_replications",
        "dissemination.process",
        _count_trial_steps("dissemination.trial_steps"),
    ),
    ("repro.core.batched", "run_broadcast_replications_batched", "core.loop", _trial_steps),
    ("repro.core.batched", "run_gossip_replications_batched", "core.loop", _trial_steps),
    ("repro.core.batched", "run_process_replications_batched", "core.loop", _trial_steps),
    ("repro.core.protocol", "flood_informed_batch", "core.flood", None),
    ("repro.core.protocol", "flood_rumors_batch", "core.flood", None),
    ("repro.connectivity.batched", "batched_visibility_labels", "connectivity.labels", None),
    ("repro.exec.units", "unit_key", "exec.key", None),
    ("repro.exec.executor", "wait", "exec.wait", None),
    ("repro.analysis.fitting", "fit_power_law", "analysis.fit", None),
    ("repro.core.runner", "summarise_values", "analysis.summary", None),
    ("repro.analysis.statistics", "bootstrap_ci", "analysis.summary", None),
)

#: Methods: (module, class, method, span name, hook).
METHODS: tuple[tuple[str, str, str, str, Optional[Hook]], ...] = (
    ("repro.walks.meeting", "MeetingExperiment", "run_trial", "walks.meeting", None),
    ("repro.baselines.dense_model", "DenseModelSimulation", "run", "baselines.dense", None),
    ("repro.core.simulation", "BroadcastSimulation", "run", "core.loop", _trial_steps),
    ("repro.core.gossip", "GossipSimulation", "run", "core.loop", _trial_steps),
    ("repro.mobility.kernels", "BlockDrawStepper", "next_draws", "mobility.draw", None),
    ("repro.connectivity.incremental", "DeltaConnectivityEngine", "step", "connectivity.engine",
     None),
    ("repro.compiled.engine", "CompiledDeltaEngine", "step", "connectivity.engine", None),
    ("repro.exec.executor", "SweepExecutor", "run_units", "exec.dispatch", None),
    ("repro.exec.store", "ResultStore", "put", "exec.store_put", None),
    ("repro.exec.store", "ResultStore", "put_many", "exec.store_put", None),
    ("repro.exec.store", "ResultStore", "get", "exec.store_get", _count_hit),
    ("repro.exec.leases", "LeaseTable", "claim", "exec.lease", None),
    ("repro.exec.leases", "LeaseTable", "claim_many", "exec.lease", None),
    ("repro.exec.leases", "LeaseTable", "release", "exec.lease", None),
    ("repro.exec.leases", "LeaseTable", "heartbeat", "exec.lease", None),
)

#: Compiled-provider methods by category (``CcOps`` and the generic ``LoopOps``).
KERNEL_METHODS = ("apply_lazy", "apply_masked", "apply_brownian", "flood_r0", "labels_batch")
PROVIDER_CLASSES = (("repro.compiled._cc", "CcOps"), ("repro.compiled.api", "LoopOps"))


def _import_all() -> None:
    """Import every ``repro`` module, so every holder of a target is patched."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            try:
                importlib.import_module(info.name)
            except ImportError:
                pass  # an optional provider (numba) this host lacks


class Patches:
    """The attributes :func:`install` replaced, so that :meth:`remove` restores them."""

    def __init__(self) -> None:
        #: Targets this version of ``repro`` does not have.
        self.missing: list[str] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def set(self, holder: Any, attribute: str, value: Any) -> None:
        self._saved.append((holder, attribute, vars(holder)[attribute]))
        setattr(holder, attribute, value)

    def function(self, module_name: str, attribute: str, wrapper: Callable) -> None:
        """Replace a function in every loaded ``repro`` module that holds it."""
        original = getattr(importlib.import_module(module_name), attribute)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self.set(module, key, wrapper)

    def remove(self) -> None:
        for holder, attribute, original in reversed(self._saved):
            setattr(holder, attribute, original)
        self._saved.clear()


def _subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def install(recorder: Recorder) -> Patches:
    """Wrap every traced ``repro`` call so that it records into ``recorder``.

    Targets this version of ``repro`` does not have are skipped and listed
    in ``Patches.missing``, so a layer that a later change deletes reads as
    zero.
    """
    _import_all()
    patches = Patches()
    missing = patches.missing

    def lookup(module_name: str, *path: str) -> Any:
        try:
            target: Any = importlib.import_module(module_name)
            for part in path:
                # A method must be defined on the class itself, not inherited.
                target = vars(target)[part] if isinstance(target, type) else getattr(target, part)
            return target
        except (ImportError, AttributeError, KeyError):
            missing.append(".".join((module_name, *path)))
            return None

    for module_name, attribute, name, hook in FUNCTIONS:
        original = lookup(module_name, attribute)
        if original is not None:
            patches.function(module_name, attribute, _wrap(original, recorder, name, hook))
    for module_name, class_name, method, name, hook in METHODS:
        cls = lookup(module_name, class_name)
        if cls is not None and lookup(module_name, class_name, method) is not None:
            patches.set(cls, method, _wrap(cls.__dict__[method], recorder, name, hook))

    # The compiled labels function is a closure made per run: wrap its maker.
    make_labels_fn = lookup("repro.compiled.api", "make_labels_fn")
    if make_labels_fn is not None:

        def traced_make_labels_fn(*args: Any, **kwargs: Any) -> Callable:
            return _wrap(make_labels_fn(*args, **kwargs), recorder, "connectivity.labels")

        patches.function("repro.compiled.api", "make_labels_fn", traced_make_labels_fn)

    stepper = lookup("repro.mobility.kernels", "BatchStepper")
    for cls in _subclasses(stepper) if stepper is not None else ():
        step = cls.__dict__.get("step")
        if step is not None and not getattr(step, "__isabstractmethod__", False):
            patches.set(cls, "step", _wrap(step, recorder, "mobility.step"))

    for module_name, class_name in PROVIDER_CLASSES:
        cls = lookup(module_name, class_name)
        if cls is None:
            continue
        for method, name, hook in (
            *((m, "compiled.kernel", None) for m in KERNEL_METHODS),
            ("broadcast_r0_block", "compiled.fused", _count_fused),
            ("delta_step", "compiled.delta", None),
        ):
            if method in cls.__dict__:
                patches.set(cls, method, _wrap(cls.__dict__[method], recorder, name, hook))
    return patches
