"""Dependency-free metrics primitives with Prometheus text exposition.

Three metric types cover everything the harness needs to observe:

* :class:`Counter` — a monotonically growing tally (units completed,
  retries, simulation steps).  The harness additionally allows explicit
  ``set``/negative adjustment so registry-backed bookkeeping (e.g. a store
  hit later reclassified as a miss) stays exact; the exposition still
  declares the ``counter`` type.
* :class:`Gauge` — a value that goes up and down (active trials, in-flight
  work units).
* :class:`Histogram` — cumulative-bucket observations (work-unit wall
  clock), exposed as ``_bucket``/``_sum``/``_count`` samples exactly like a
  Prometheus client would.

A :class:`MetricsRegistry` is an ordered collection of metric instances.
Metric identity is ``(name, labels)``: asking the registry for the same
name and label set returns the same instance, so call sites can look their
metrics up cheaply at import time.  :func:`render_registries` merges several
registries (e.g. a per-executor registry plus the process-global one) into
a single exposition document with deterministic ordering — the property the
snapshot-stability test pins down.

Everything here is intentionally free of third-party dependencies: the
exposition format is plain text, and a scrape is just reading a file or an
HTTP handler calling :meth:`MetricsRegistry.render_text`.
"""

from __future__ import annotations

import math
import threading
from typing import Iterable, Mapping, Optional, Sequence

#: Default histogram bucket upper bounds (seconds-flavoured, Prometheus's).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

LabelPairs = tuple[tuple[str, str], ...]


def _normalise_labels(labels: Optional[Mapping[str, str]]) -> LabelPairs:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _sample_line(name: str, labels: LabelPairs, value: float) -> str:
    if labels:
        rendered = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in labels)
        return f"{name}{{{rendered}}} {_format_value(value)}"
    return f"{name} {_format_value(value)}"


class Metric:
    """Base class: a named instrument with a fixed label set."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labels: Optional[Mapping[str, str]] = None):
        if not name or not name.replace("_", "").replace(":", "").isalnum():
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self.labels: LabelPairs = _normalise_labels(labels)
        self._lock = threading.Lock()

    @property
    def key(self) -> tuple[str, LabelPairs]:
        """Registry identity of this metric instance."""
        return (self.name, self.labels)

    def samples(self) -> list[tuple[str, LabelPairs, float]]:
        """``(sample_name, labels, value)`` triples for exposition."""
        raise NotImplementedError


class Counter(Metric):
    """A tally that normally only grows."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labels: Optional[Mapping[str, str]] = None):
        super().__init__(name, help, labels)
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (negative adjustments allowed for bookkeeping)."""
        with self._lock:
            self._value += amount

    def set(self, value: float) -> None:
        """Set the tally outright (registry-backed stats attributes)."""
        with self._lock:
            self._value = float(value)

    def samples(self) -> list[tuple[str, LabelPairs, float]]:
        return [(self.name, self.labels, self._value)]


class Gauge(Metric):
    """A value that goes up and down."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labels: Optional[Mapping[str, str]] = None):
        super().__init__(name, help, labels)
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def samples(self) -> list[tuple[str, LabelPairs, float]]:
        return [(self.name, self.labels, self._value)]


class Histogram(Metric):
    """Cumulative-bucket observations (Prometheus ``_bucket``/``_sum``/``_count``)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help, labels)
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds: tuple[float, ...] = tuple(bounds)
        self._bucket_counts = [0] * (len(self.bounds) + 1)  # + the +Inf bucket
        self._sum = 0.0
        self._count = 0

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def observe(self, value: float) -> None:
        with self._lock:
            self._sum += value
            self._count += 1
            for index, bound in enumerate(self.bounds):
                if value <= bound:
                    self._bucket_counts[index] += 1
                    return
            self._bucket_counts[-1] += 1

    def samples(self) -> list[tuple[str, LabelPairs, float]]:
        out: list[tuple[str, LabelPairs, float]] = []
        cumulative = 0
        for bound, count in zip(self.bounds, self._bucket_counts):
            cumulative += count
            le = _format_value(bound)
            out.append((f"{self.name}_bucket", self.labels + (("le", le),), cumulative))
        cumulative += self._bucket_counts[-1]
        out.append((f"{self.name}_bucket", self.labels + (("le", "+Inf"),), cumulative))
        out.append((f"{self.name}_sum", self.labels, self._sum))
        out.append((f"{self.name}_count", self.labels, self._count))
        return out


class MetricsRegistry:
    """An ordered collection of metric instances keyed by ``(name, labels)``."""

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, LabelPairs], Metric] = {}
        self._lock = threading.Lock()

    # -- creation / registration -------------------------------------------- #
    def register(self, metric: Metric) -> Metric:
        """Adopt an existing metric instance (e.g. a store's counters).

        Registering the exact same instance twice is a no-op; a *different*
        instance under an already-taken ``(name, labels)`` key raises.
        """
        with self._lock:
            existing = self._metrics.get(metric.key)
            if existing is metric:
                return metric
            if existing is not None:
                raise ValueError(f"metric {metric.key!r} already registered")
            self._metrics[metric.key] = metric
        return metric

    def _get_or_create(self, cls, name, help, labels, **kwargs) -> Metric:
        key = (name, _normalise_labels(labels))
        with self._lock:
            existing = self._metrics.get(key)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            metric = cls(name, help=help, labels=labels, **kwargs)
            self._metrics[key] = metric
            return metric

    def counter(
        self, name: str, help: str = "", labels: Optional[Mapping[str, str]] = None
    ) -> Counter:
        """Get or create the counter ``(name, labels)``."""
        return self._get_or_create(Counter, name, help, labels)

    def gauge(
        self, name: str, help: str = "", labels: Optional[Mapping[str, str]] = None
    ) -> Gauge:
        """Get or create the gauge ``(name, labels)``."""
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get or create the histogram ``(name, labels)``."""
        return self._get_or_create(Histogram, name, help, labels, buckets=buckets)

    # -- introspection ------------------------------------------------------ #
    def collect(self) -> list[Metric]:
        """All metrics, sorted by name then label set (stable exposition)."""
        with self._lock:
            return sorted(self._metrics.values(), key=lambda m: m.key)

    def get(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Optional[Metric]:
        """The registered metric under ``(name, labels)``, or ``None``."""
        return self._metrics.get((name, _normalise_labels(labels)))

    def snapshot(self) -> dict[str, float]:
        """Flat ``{sample_name{labels}: value}`` mapping of every sample."""
        out: dict[str, float] = {}
        for metric in self.collect():
            for sample_name, labels, value in metric.samples():
                if labels:
                    rendered = ",".join(
                        f'{k}="{_escape_label_value(v)}"' for k, v in labels
                    )
                    out[f"{sample_name}{{{rendered}}}"] = value
                else:
                    out[sample_name] = value
        return out

    def render_text(self) -> str:
        """This registry in the Prometheus text exposition format."""
        return render_registries(self)


def render_registries(*registries: MetricsRegistry) -> str:
    """Merge registries into one deterministic Prometheus text document.

    Metrics are grouped by name (``# HELP``/``# TYPE`` emitted once per
    name), names sorted, label children sorted — so identical registry
    contents always render to identical bytes, which is what lets a test
    pin the exposition snapshot.
    """
    by_name: dict[str, list[Metric]] = {}
    for registry in registries:
        for metric in registry.collect():
            by_name.setdefault(metric.name, []).append(metric)
    lines: list[str] = []
    for name in sorted(by_name):
        group = sorted(by_name[name], key=lambda m: m.labels)
        help_text = next((m.help for m in group if m.help), "")
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {group[0].kind}")
        for metric in group:
            for sample_name, labels, value in metric.samples():
                lines.append(_sample_line(sample_name, labels, value))
    return "\n".join(lines) + ("\n" if lines else "")


#: The process-global registry (step-loop instrumentation publishes here).
_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-global :class:`MetricsRegistry`."""
    return _GLOBAL


def step_loop_instruments(loop: str) -> "tuple[Counter, Gauge]":
    """The global step counter and active-trials gauge for one hot loop.

    The simulation step loops call this once per run (get-or-create against
    the process-global registry, so every run of the same loop shares one
    instrument per ``loop`` label) and then pay two lock-guarded updates per
    step — observational only, never touching a random stream.
    """
    registry = global_registry()
    steps = registry.counter(
        "repro_sim_steps_total",
        help="Trial-steps advanced by the simulation step loops.",
        labels={"loop": loop},
    )
    active = registry.gauge(
        "repro_sim_active_trials",
        help="Trials still running in the loop's current replication batch.",
        labels={"loop": loop},
    )
    return steps, active


def phase_seconds(loop: str, phases: Sequence[str]) -> "dict[str, Counter]":
    """The global ``repro_sim_phase_seconds_total`` counter of each phase of one loop.

    A loop adds the seconds each of its phases took (a ``perf_counter``
    pair around each), so a run says where its time went even where the
    work runs on another thread.
    """
    registry = global_registry()
    return {
        phase: registry.counter(
            "repro_sim_phase_seconds_total",
            help="Seconds spent in each phase of the simulation step loops.",
            labels={"loop": loop, "phase": phase},
        )
        for phase in phases
    }


def registry_counters(
    registry: MetricsRegistry,
    prefix: str,
    names: Iterable[str],
    help_texts: Optional[Mapping[str, str]] = None,
) -> dict[str, Counter]:
    """Create one counter per name under ``prefix`` (stat-group helper)."""
    helps = dict(help_texts or {})
    return {
        name: registry.counter(f"{prefix}_{name}_total", help=helps.get(name, ""))
        for name in names
    }
