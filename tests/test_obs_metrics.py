"""The ``repro.obs`` observability layer: metrics and progress logging.

Covers the three instrument types, registry identity semantics, the
deterministic Prometheus text exposition (including the pinned snapshot
that guards the format against accidental drift), the step-loop
instrument helper, and the JSON-line progress logger with its
install/uninstall contract.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ProgressLogger,
    current_progress_logger,
    emit_progress,
    global_registry,
    progress_logging,
    render_registries,
    set_progress_logger,
)
from repro.obs.metrics import step_loop_instruments


# --------------------------------------------------------------------------- #
# Instruments
# --------------------------------------------------------------------------- #
class TestCounter:
    def test_inc_and_value(self):
        counter = Counter("repro_test_total")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_set_and_negative_adjustment(self):
        # Registry-backed stats attributes reclassify events (a store hit
        # later demoted to a miss), so explicit set/negative inc is allowed.
        counter = Counter("repro_test_total")
        counter.set(10)
        counter.inc(-1)
        assert counter.value == 9

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError):
            Counter("bad name")
        with pytest.raises(ValueError):
            Counter("")


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("repro_test_active")
        gauge.set(7)
        gauge.inc(2)
        gauge.dec(4)
        assert gauge.value == 5


class TestHistogram:
    def test_cumulative_buckets_sum_count(self):
        hist = Histogram("repro_test_seconds", buckets=[0.1, 1.0, 10.0])
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.observe(value)
        assert hist.count == 5
        assert hist.sum == pytest.approx(56.05)
        samples = dict(
            ((name, labels), value) for name, labels, value in hist.samples()
        )
        assert samples[("repro_test_seconds_bucket", (("le", "0.1"),))] == 1
        assert samples[("repro_test_seconds_bucket", (("le", "1"),))] == 3
        assert samples[("repro_test_seconds_bucket", (("le", "10"),))] == 4
        assert samples[("repro_test_seconds_bucket", (("le", "+Inf"),))] == 5
        assert samples[("repro_test_seconds_count", ())] == 5

    def test_empty_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("repro_test_seconds", buckets=[])


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
class TestMetricsRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_units_total", labels={"kind": "a"})
        second = registry.counter("repro_units_total", labels={"kind": "a"})
        other = registry.counter("repro_units_total", labels={"kind": "b"})
        assert first is second
        assert first is not other

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_thing")
        with pytest.raises(ValueError):
            registry.gauge("repro_thing")

    def test_register_same_instance_is_noop_different_raises(self):
        registry = MetricsRegistry()
        counter = Counter("repro_external_total")
        assert registry.register(counter) is counter
        assert registry.register(counter) is counter  # no-op
        with pytest.raises(ValueError):
            registry.register(Counter("repro_external_total"))

    def test_snapshot_flattens_samples(self):
        registry = MetricsRegistry()
        registry.counter("repro_b_total").inc(2)
        registry.gauge("repro_a", labels={"loop": "x"}).set(3)
        snap = registry.snapshot()
        assert snap == {"repro_b_total": 2, 'repro_a{loop="x"}': 3}

    def test_get_looks_up_by_name_and_labels(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_x_total", labels={"k": "v"})
        assert registry.get("repro_x_total", {"k": "v"}) is counter
        assert registry.get("repro_x_total") is None


# --------------------------------------------------------------------------- #
# Exposition
# --------------------------------------------------------------------------- #
def _build_registry(order: str) -> MetricsRegistry:
    registry = MetricsRegistry()
    if order == "forward":
        registry.counter("repro_units_total", help="Units.").inc(3)
        registry.gauge("repro_active", labels={"loop": "a"}).set(2)
        registry.gauge("repro_active", labels={"loop": "b"}).set(1)
    else:  # identical contents, reversed insertion order
        registry.gauge("repro_active", labels={"loop": "b"}).set(1)
        registry.gauge("repro_active", labels={"loop": "a"}).set(2)
        registry.counter("repro_units_total", help="Units.").inc(3)
    return registry


class TestExposition:
    def test_rendering_is_insertion_order_independent(self):
        forward = _build_registry("forward").render_text()
        reverse = _build_registry("reverse").render_text()
        assert forward == reverse

    def test_exposition_snapshot_is_stable(self):
        # Pins the exact exposition bytes: names sorted, HELP/TYPE once per
        # name, label children sorted, histogram expands to
        # _bucket/_sum/_count.  Any format drift must be a deliberate edit
        # of this snapshot.
        registry = MetricsRegistry()
        registry.counter("repro_units_total", help="Work units run.").inc(4)
        registry.gauge("repro_active", labels={"loop": "b"}).set(1)
        registry.gauge("repro_active", labels={"loop": "a"}).set(2)
        hist = registry.histogram("repro_unit_seconds", buckets=[0.5, 1.0])
        hist.observe(0.25)
        hist.observe(2.0)
        expected = "\n".join(
            [
                "# TYPE repro_active gauge",
                'repro_active{loop="a"} 2',
                'repro_active{loop="b"} 1',
                "# TYPE repro_unit_seconds histogram",
                'repro_unit_seconds_bucket{le="0.5"} 1',
                'repro_unit_seconds_bucket{le="1"} 1',
                'repro_unit_seconds_bucket{le="+Inf"} 2',
                "repro_unit_seconds_sum 2.25",
                "repro_unit_seconds_count 2",
                "# HELP repro_units_total Work units run.",
                "# TYPE repro_units_total counter",
                "repro_units_total 4",
            ]
        ) + "\n"
        assert registry.render_text() == expected

    def test_render_registries_merges_deterministically(self):
        first = MetricsRegistry()
        first.counter("repro_b_total").inc(1)
        second = MetricsRegistry()
        second.counter("repro_a_total").inc(2)
        merged = render_registries(first, second)
        assert merged.index("repro_a_total") < merged.index("repro_b_total")
        assert merged == render_registries(first, second)

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_text() == ""

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("repro_esc_total", labels={"k": 'a"b\\c\nd'}).inc()
        text = registry.render_text()
        assert 'k="a\\"b\\\\c\\nd"' in text


# --------------------------------------------------------------------------- #
# Step-loop instruments (process-global registry)
# --------------------------------------------------------------------------- #
class TestStepLoopInstruments:
    def test_get_or_create_against_global_registry(self):
        steps, active = step_loop_instruments("test_loop")
        steps_again, active_again = step_loop_instruments("test_loop")
        assert steps is steps_again and active is active_again
        assert global_registry().get(
            "repro_sim_steps_total", {"loop": "test_loop"}
        ) is steps
        assert isinstance(steps, Counter) and isinstance(active, Gauge)

    def test_simulation_run_populates_global_registry(self):
        from repro.core import BroadcastConfig, BroadcastSimulation

        steps, active = step_loop_instruments("serial_broadcast")
        before = steps.value
        config = BroadcastConfig(n_nodes=25, n_agents=4, radius=0.0, max_steps=30)
        result = BroadcastSimulation(config, rng=3).run()
        assert steps.value == before + result.n_steps
        assert active.value == 0  # cleared after the run

    @pytest.mark.parametrize(
        "backend, loop", [("serial", "serial_process"), ("batched", "batched_process")]
    )
    def test_process_loops_count_under_their_label(self, backend, loop):
        """The one serial and the one batched loop count each kernel's
        steps under ``<backend>_<kernel loop>``."""
        from repro.dissemination.kernels import FrogProcess, run_process_replications

        steps, active = step_loop_instruments(loop)
        before = steps.value
        _, results = run_process_replications(
            FrogProcess(49, 4, max_steps=60), 3, seed=5, backend=backend
        )
        assert steps.value == before + sum(result.n_steps for result in results)
        assert active.value == 0


# --------------------------------------------------------------------------- #
# Progress logging
# --------------------------------------------------------------------------- #
class TestProgressLogger:
    def test_emit_writes_one_json_line(self):
        stream = io.StringIO()
        ProgressLogger(stream).emit("unit_completed", label="E1", index=3)
        lines = stream.getvalue().splitlines()
        assert len(lines) == 1
        event = json.loads(lines[0])
        assert event["event"] == "unit_completed"
        assert event["label"] == "E1" and event["index"] == 3
        assert isinstance(event["ts"], float)

    def test_emit_survives_a_closed_stream(self):
        stream = io.StringIO()
        logger = ProgressLogger(stream)
        stream.close()
        logger.emit("unit_completed")  # must not raise

    def test_emit_progress_is_noop_without_logger(self):
        assert current_progress_logger() is None
        emit_progress("unit_completed", label="E1")  # must not raise

    def test_progress_logging_installs_and_restores(self, tmp_path):
        target = tmp_path / "progress.jsonl"
        with progress_logging(target) as logger:
            assert current_progress_logger() is logger
            emit_progress("unit_started", index=0)
            emit_progress("unit_completed", index=0)
        assert current_progress_logger() is None
        events = [json.loads(line) for line in target.read_text().splitlines()]
        assert [e["event"] for e in events] == ["unit_started", "unit_completed"]

    def test_progress_logging_appends_across_runs(self, tmp_path):
        target = tmp_path / "progress.jsonl"
        for _ in range(2):
            with progress_logging(target):
                emit_progress("run")
        assert len(target.read_text().splitlines()) == 2

    def test_set_progress_logger_returns_previous(self):
        stream = io.StringIO()
        logger = ProgressLogger(stream)
        assert set_progress_logger(logger) is None
        try:
            assert current_progress_logger() is logger
        finally:
            assert set_progress_logger(None) is logger
