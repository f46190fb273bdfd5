"""Instrumentation wiring: detector, pipeline, and simulators actually
record into injected registries/tracers, and cost nothing by default."""

import numpy as np
import pytest

from repro import obs
from repro.core.detector import DetectorConfig, VoiceprintDetector
from repro.core.pipeline import OnlineVoiceprint, OnlineVoiceprintConfig
from repro.core.thresholds import ConstantThreshold
from repro.core.timeseries import RSSITimeSeries
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import InMemorySpanExporter, Tracer
from repro.sim.engine import SimulationEngine
from repro.sim.fieldtest import FieldTestConfig, run_field_test


def _loaded_detector(
    registry=None, tracer=None, n_series=4, seed=0, **config_kwargs
):
    detector = VoiceprintDetector(
        threshold=ConstantThreshold(0.05),
        config=DetectorConfig(min_samples=20, **config_kwargs),
        registry=registry,
        tracer=tracer,
    )
    rng = np.random.default_rng(seed)
    for index in range(n_series):
        values = np.cumsum(rng.normal(0.0, 1.0, 120)) - 70.0
        detector.load_series(RSSITimeSeries.from_values(f"n{index}", values))
    return detector


class TestDetectorInstrumentation:
    def test_detect_records_pair_cell_and_latency_metrics(self):
        registry = MetricsRegistry()
        detector = _loaded_detector(registry=registry, n_series=4)
        detector.detect(density=10.0)
        assert registry.counter("detector.pairs_compared").value == 6  # C(4,2)
        assert registry.counter("detector.dtw_cells").value > 0
        assert registry.histogram("detector.detect_ms").count == 1

    def test_observe_counts_beacons_and_evictions(self):
        registry = MetricsRegistry()
        detector = VoiceprintDetector(
            config=DetectorConfig(observation_time=5.0), registry=registry
        )
        for i in range(200):
            detector.observe("a", i * 0.1, -70.0)
        assert registry.counter("detector.beacons_observed").value == 200
        # 20 s of beacons with a 5 s window must have trimmed the buffer.
        assert registry.counter("detector.series_evictions").value > 0

    def test_detection_root_span_has_phase_children(self):
        exporter = InMemorySpanExporter()
        detector = _loaded_detector(
            registry=MetricsRegistry(), tracer=Tracer(exporter=exporter)
        )
        detector.detect(density=10.0)
        [root] = exporter.roots()
        assert root["name"] == "detection"
        children = [c["name"] for c in exporter.children_of(root["span_id"])]
        assert children == ["normalise", "pairwise_dtw", "minmax", "threshold"]
        by_name = {r["name"]: r for r in exporter.records}
        assert by_name["pairwise_dtw"]["attributes"]["pairs"] == 6
        assert by_name["pairwise_dtw"]["attributes"]["cells"] > 0

    @pytest.mark.parametrize("incremental", [False, True])
    def test_span_work_counts_do_not_need_metrics(self, incremental):
        # Tracing on, metrics off: the span's pair and cell counts come
        # from the engine's own work accounting, not from registry
        # counters that a disabled registry leaves at zero.
        exporter = InMemorySpanExporter()
        detector = _loaded_detector(
            registry=MetricsRegistry(enabled=False),
            tracer=Tracer(exporter=exporter),
            pairwise_incremental=incremental,
        )
        detector.detect(density=10.0)
        [span] = [r for r in exporter.records if r["name"] == "pairwise_dtw"]
        assert span["attributes"]["pairs"] == 6
        cells = detector.pairwise_stats.cells
        assert cells > 0
        assert span["attributes"]["cells"] == cells

    def test_default_global_state_records_nothing(self):
        registry = obs.default_registry()
        before = registry.counter("detector.pairs_compared").value
        detector = _loaded_detector()  # defaults to the global registry
        detector.detect(density=10.0)
        assert registry.counter("detector.pairs_compared").value == before


class TestPipelineInstrumentation:
    def _run_pipeline(self, registry, tracer=None):
        pipeline = OnlineVoiceprint(
            max_range_m=500.0,
            threshold=ConstantThreshold(0.05),
            detector_config=DetectorConfig(observation_time=5.0, min_samples=10),
            config=OnlineVoiceprintConfig(
                detection_period_s=5.0, density_period_s=2.0
            ),
            registry=registry,
            tracer=tracer,
        )
        rng = np.random.default_rng(1)
        t = 0.0
        while t < 12.0:
            for identity in ("a", "b", "c"):
                pipeline.on_beacon(identity, t, -70.0 + rng.normal(0, 2))
            t += 0.1
        return pipeline

    def test_periods_density_and_confirmed_recorded(self):
        registry = MetricsRegistry()
        pipeline = self._run_pipeline(registry)
        assert len(pipeline.reports) >= 1
        assert registry.counter("pipeline.detection_periods").value == len(
            pipeline.reports
        )
        assert registry.gauge("pipeline.density_vhls_per_km").value is not None
        assert registry.gauge("pipeline.confirmed_sybils").value is not None

    def test_confirmation_span_emitted(self):
        exporter = InMemorySpanExporter()
        self._run_pipeline(MetricsRegistry(), tracer=Tracer(exporter=exporter))
        assert any(r["name"] == "confirmation" for r in exporter.records)


class TestSimInstrumentation:
    def test_engine_counts_dispatched_events(self):
        registry = MetricsRegistry()
        engine = SimulationEngine(registry=registry)
        fired = []
        engine.schedule_periodic(1.0, fired.append, first_at=0.0)
        cancelled = engine.schedule_at(2.5, fired.append)
        cancelled.cancel()
        engine.run_until(3.0)
        assert len(fired) == 4  # t = 0, 1, 2, 3
        assert registry.counter("sim.events_dispatched").value == 4

    def test_field_test_populates_global_metrics_when_enabled(self):
        registry = obs.default_registry()
        registry.reset()
        registry.enable()
        try:
            run_field_test(
                FieldTestConfig(environment="rural", duration_s=5.0, seed=3)
            )
            assert registry.counter("sim.events_dispatched").value > 0
            assert registry.counter("sim.beacons_delivered").value > 0
            assert registry.gauge("sim.time_ratio").value is not None
        finally:
            registry.disable()
            registry.reset()


class TestConfigureLifecycle:
    def test_configure_enables_and_shutdown_disables(self):
        exporter = InMemorySpanExporter()
        try:
            obs.configure(metrics=True, trace_exporter=exporter)
            assert obs.default_registry().enabled
            assert obs.default_tracer().enabled
        finally:
            obs.shutdown()
            obs.default_registry().reset()
        assert not obs.default_registry().enabled
        assert not obs.default_tracer().enabled
        assert obs.default_tracer().exporter is None


@pytest.mark.parametrize("n_series", [2, 5])
def test_dtw_cells_scale_with_pair_count(n_series):
    registry = MetricsRegistry()
    detector = _loaded_detector(registry=registry, n_series=n_series)
    detector.detect(density=10.0)
    expected_pairs = n_series * (n_series - 1) // 2
    assert registry.counter("detector.pairs_compared").value == expected_pairs
    assert (
        registry.counter("detector.dtw_cells").value
        >= expected_pairs * 120  # at least one full diagonal per pair
    )
