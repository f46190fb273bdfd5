"""Tests for repro.obs.drift — CUSUM/Page-Hinkley detectors, SLO burn
rates, and the end-to-end drift acceptance scenario.

The acceptance tests at the bottom encode the PR's headline criterion:
a mid-simulation TX-power step (two transmitters jump +20 dB halfway
through each observation window) must trip a CUSUM ``metric_drift``
alert AND an ``slo_burn`` alert, visible in the Prometheus exposition,
the live dashboard, and the HTML run report — while a steady-state run
of the same length trips neither.
"""

import itertools

import numpy as np
import pytest

from repro.core.detector import DetectorConfig, VoiceprintDetector
from repro.core.thresholds import ConstantThreshold
from repro.core.timeseries import RSSITimeSeries
from repro.obs.drift import (
    WATCHED_SIGNALS,
    CusumDetector,
    DriftMonitor,
    PageHinkleyDetector,
    SLOSpec,
    default_slos,
)
from repro.obs.health import HealthMonitor
from repro.obs.metrics import MetricsRegistry
from repro.obs.prometheus import render_prometheus
from repro.obs.report import build_report, render_html
from repro.obs.telemetry import Snapshotter
from repro.obs.tsdb import TimeSeriesDB
from repro.obs.watch import WatchFrame, render_dashboard


class TestCusumDetector:
    def test_bad_tuning_raises(self):
        with pytest.raises(ValueError):
            CusumDetector(warmup=1)
        with pytest.raises(ValueError):
            CusumDetector(k=-0.1)
        with pytest.raises(ValueError):
            CusumDetector(h=0.0)

    def test_warmup_never_trips(self):
        detector = CusumDetector(warmup=10)
        assert not any(detector.update(1000.0 * n) for n in range(10))
        assert detector.trips == 0

    def test_reference_freezes_after_warmup(self):
        detector = CusumDetector(warmup=4, h=1e9)
        for value in (1.0, 2.0, 3.0, 4.0):
            detector.update(value)
        mean, std = detector.mean, detector.std
        for _ in range(50):
            detector.update(100.0)
        assert detector.mean == mean
        assert detector.std == std

    def test_zero_mean_noise_stays_quiet(self):
        # 200 steady ticks after a 25-tick warmup: zero-mean noise
        # wanders but the slack term k drains the accumulators.
        detector = CusumDetector(k=0.5, h=6.0, warmup=25)
        rng = np.random.default_rng(1)
        values = rng.normal(5.0, 1.0, 225)
        assert not any(detector.update(v) for v in values)

    def test_persistent_shift_trips_and_rearms(self):
        detector = CusumDetector(k=0.5, h=6.0, warmup=8)
        rng = np.random.default_rng(11)
        for value in rng.normal(5.0, 1.0, 8):
            detector.update(value)
        # A 3-sigma shift accumulates ~2.5 evidence per tick: the
        # first trip lands within a few ticks, the re-armed detector
        # trips again on the persisting shift.
        trips = [detector.update(v) for v in rng.normal(8.0, 1.0, 12)]
        assert sum(trips) >= 2
        assert detector.trips == sum(trips)

    def test_trip_resets_score(self):
        detector = CusumDetector(k=0.5, h=6.0, warmup=4)
        for value in (0.0, 1.0, 0.0, 1.0):
            detector.update(value)
        while not detector.update(10.0):
            pass
        assert detector.score == 0.0

    def test_non_finite_samples_are_ignored(self):
        detector = CusumDetector(warmup=2)
        assert not detector.update(float("nan"))
        assert not detector.update(float("inf"))
        assert detector.n == 0

    def test_constant_warmup_floors_std(self):
        detector = CusumDetector(k=0.5, h=6.0, warmup=4, min_std=1e-9)
        for _ in range(4):
            detector.update(3.0)
        assert detector.std == 1e-9
        # Any later change is an enormous z-score and trips at once.
        assert detector.update(3.001)


class TestPageHinkleyDetector:
    def test_bad_tuning_raises(self):
        with pytest.raises(ValueError):
            PageHinkleyDetector(warmup=1)
        with pytest.raises(ValueError):
            PageHinkleyDetector(delta=-0.1)
        with pytest.raises(ValueError):
            PageHinkleyDetector(lambda_=0.0)

    def test_steady_noise_stays_quiet(self):
        # PH accumulates the range of a random walk, so unlike CUSUM
        # it has no slack draining noise; assert quiet over a
        # watch-length horizon (60 post-warmup ticks), not forever.
        detector = PageHinkleyDetector(delta=0.05, lambda_=12.0, warmup=25)
        rng = np.random.default_rng(3)
        assert not any(detector.update(v) for v in rng.normal(2.0, 0.5, 85))

    def test_slow_ramp_trips(self):
        detector = PageHinkleyDetector(delta=0.05, lambda_=12.0, warmup=8)
        rng = np.random.default_rng(5)
        for value in rng.normal(0.0, 1.0, 8):
            detector.update(value)
        # A ramp that never steps: +0.2 sigma per tick.
        ramp = [0.2 * n + float(v) for n, v in
                enumerate(rng.normal(0.0, 0.3, 60))]
        trips = [detector.update(v) for v in ramp]
        assert any(trips)
        assert detector.trips == sum(trips)

    def test_trip_resets_score(self):
        detector = PageHinkleyDetector(delta=0.05, lambda_=4.0, warmup=4)
        for value in (0.0, 1.0, 0.0, 1.0):
            detector.update(value)
        while not detector.update(5.0):
            pass
        assert detector.score == 0.0


class TestSLOSpec:
    def test_from_spec_full(self):
        spec = SLOSpec.from_spec(
            "near_miss:metric=rate.margin_near_miss_rate,max=0.2,"
            "budget=0.1,short=3,long=12,burn=2.0"
        )
        assert spec.name == "near_miss"
        assert spec.metric == "rate.margin_near_miss_rate"
        assert spec.max_value == 0.2
        assert spec.budget == 0.1
        assert spec.short_window == 3
        assert spec.long_window == 12
        assert spec.burn_threshold == 2.0

    def test_from_spec_long_field_names(self):
        spec = SLOSpec.from_spec(
            "floor:metric=health.flagged_pair_rate,min_value=0.0"
        )
        assert spec.min_value == 0.0

    @pytest.mark.parametrize(
        "bad",
        [
            "no-colon-or-pairs",
            ":metric=x,max=1",  # empty name
            "x:metric=y",  # no bound
            "x:max=1",  # no metric
            "x:metric=y,max=1,frobnicate=2",  # unknown key
            "x:metric=y,max=banana",  # unparseable value
            "x:metric=y,max",  # not key=value
            "x:metric=y,max=1,budget=0",  # budget out of range
            "x:metric=y,max=1,short=5,long=2",  # long < short
            "x:metric=y,max=1,burn=0",  # burn threshold <= 0
        ],
    )
    def test_from_spec_rejects(self, bad):
        with pytest.raises(ValueError):
            SLOSpec.from_spec(bad)

    def test_read_gauge_rate_and_hist(self):
        record = {
            "counters": {"c": {"value": 10.0, "delta": 2.0, "rate": 2.0}},
            "gauges": {"g": 0.5},
            "histograms": {
                "h": {
                    "count": 4,
                    "sum": 8.0,
                    "p99": 3.0,
                    "count_delta": 2,
                    "sum_delta": 5.0,
                }
            },
        }
        assert SLOSpec(name="a", metric="g", max_value=1.0).read(record) == 0.5
        assert (
            SLOSpec(name="b", metric="rate:c", max_value=1.0).read(record)
            == 2.0
        )
        assert (
            SLOSpec(name="c", metric="hist:h:p99", max_value=1.0).read(record)
            == 3.0
        )
        assert SLOSpec(
            name="d", metric="hist:h:tick_mean", max_value=1.0
        ).read(record) == pytest.approx(2.5)
        assert (
            SLOSpec(name="e", metric="missing", max_value=1.0).read(record)
            is None
        )
        with pytest.raises(ValueError, match="bad histogram metric"):
            SLOSpec(name="f", metric="hist:p99", max_value=1.0).read(record)

    def test_violated_bounds(self):
        ceiling = SLOSpec(name="a", metric="g", max_value=1.0)
        assert ceiling.violated(1.5) and not ceiling.violated(1.0)
        floor = SLOSpec(name="b", metric="g", min_value=0.5)
        assert floor.violated(0.4) and not floor.violated(0.5)

    def test_default_slos_construct(self):
        names = [spec.name for spec in default_slos()]
        assert names == [
            "detect_p99_ms",
            "near_miss_rate",
            "flagged_pair_rate",
            "serve_queue_wait_p99_ms",
        ]


class _NotifySpy:
    def __init__(self):
        self.calls = []

    def notify(self, kind, message, t, value, threshold):
        self.calls.append(
            {"kind": kind, "message": message, "t": t, "value": value}
        )


def _gauge_record(**gauges):
    return {"type": "snapshot", "counters": {}, "gauges": gauges,
            "histograms": {}}


class TestDriftMonitor:
    def _monitor(self, registry=None, health=None, slos=()):
        return DriftMonitor(
            registry=registry or MetricsRegistry(),
            health=health,
            signals={"sig": lambda record: record["gauges"].get("sig")},
            slos=slos,
            cusum=CusumDetector(k=0.5, h=6.0, warmup=4),
            page_hinkley=PageHinkleyDetector(delta=0.05, lambda_=8.0, warmup=4),
        )

    def test_shift_fires_metric_drift_and_routes_to_health(self):
        registry = MetricsRegistry()
        spy = _NotifySpy()
        monitor = self._monitor(registry=registry, health=spy)
        fired = []
        for tick, value in enumerate([1.0, 1.1, 0.9, 1.0] + [9.0] * 8):
            fired += monitor.observe(_gauge_record(sig=value), t=float(tick))
        assert any(alert["kind"] == "metric_drift" for alert in fired)
        assert monitor.alerts == fired
        assert spy.calls and spy.calls[0]["kind"] == "metric_drift"
        assert "sig" in fired[0]["message"]
        assert registry.counter("drift.trips").value >= 1
        # Score gauges are published every tick, even before any trip.
        assert registry.gauge("drift.sig.cusum").value is not None
        assert registry.gauge("drift.sig.page_hinkley").value is not None

    def test_observe_returns_only_new_alerts(self):
        monitor = self._monitor()
        for tick, value in enumerate([1.0, 1.1, 0.9, 1.0]):
            assert monitor.observe(_gauge_record(sig=value), t=float(tick)) == []
        all_fired = []
        for tick in range(4, 12):
            all_fired += monitor.observe(_gauge_record(sig=9.0), t=float(tick))
        assert all_fired == monitor.alerts

    def test_missing_signal_is_skipped(self):
        monitor = self._monitor()
        assert monitor.observe(_gauge_record(), t=0.0) == []
        assert monitor.ticks == 1

    def test_steady_signal_stays_quiet(self):
        monitor = self._monitor()
        rng = np.random.default_rng(13)
        for tick, value in enumerate(rng.normal(1.0, 0.1, 200)):
            monitor.observe(_gauge_record(sig=float(value)), t=float(tick))
        assert monitor.alerts == []

    def test_watched_signals_extract_from_snapshot_record(self):
        record = {
            "counters": {
                "detector.beacons_observed": {
                    "value": 50.0, "delta": 10.0, "rate": 10.0,
                }
            },
            "gauges": {
                "rate.margin_near_miss_rate": 0.1,
            },
            "histograms": {
                "pipeline.margin.signed": {
                    "count": 10, "sum": 20.0,
                    "count_delta": 5, "sum_delta": 10.0,
                }
            },
        }
        extracted = {
            name: extract(record)
            for name, extract in WATCHED_SIGNALS.items()
        }
        assert extracted == {
            "margin_mean": 2.0,
            "near_miss_rate": 0.1,
            "beacon_interarrival_s": 0.1,
            "serve_queue_wait_ms": None,
        }

    def test_slo_burn_needs_full_short_window_and_both_windows(self):
        registry = MetricsRegistry()
        slo = SLOSpec(
            name="band", metric="g", max_value=1.0, budget=0.5,
            short_window=2, long_window=4,
        )
        monitor = DriftMonitor(
            registry=registry, health=None, signals={}, slos=[slo]
        )
        # One bad tick: short window not full yet -> no alert.
        fired = monitor.observe(_gauge_record(g=2.0), t=0.0)
        assert fired == []
        assert registry.gauge("slo.band.burn_short").value == 2.0
        # Second bad tick: short full at 2x budget, long at 2x -> alert.
        fired = monitor.observe(_gauge_record(g=2.0), t=1.0)
        assert [alert["kind"] for alert in fired] == ["slo_burn"]
        assert "band" in fired[0]["message"]
        assert registry.counter("slo.burn_alerts").value == 1
        # One good tick still burns at exactly 1.0x (one bad of two at
        # a 0.5 budget) and keeps alerting; the second good tick ages
        # the breach out of the short window and the alert clears.
        fired = monitor.observe(_gauge_record(g=0.5), t=2.0)
        assert [alert["kind"] for alert in fired] == ["slo_burn"]
        for tick in range(3, 8):
            assert monitor.observe(_gauge_record(g=0.5), t=float(tick)) == []
        assert registry.gauge("slo.band.burn_short").value == 0.0

    def test_slo_with_missing_metric_is_skipped(self):
        slo = SLOSpec(name="x", metric="absent", max_value=1.0)
        monitor = DriftMonitor(
            registry=MetricsRegistry(), health=None, signals={}, slos=[slo]
        )
        assert monitor.observe(_gauge_record(), t=0.0) == []


# ----------------------------------------------------------------------
# Acceptance: TX-power step trips CUSUM + SLO burn; steady trips neither
# ----------------------------------------------------------------------
_OBS_TIME_S = 30.0
_SAMPLES = 80
_IDENTITIES = 5
_PERIODS = 20
_STEP_AT_PERIOD = 10
_STEP_DB = 20.0
_MARGIN_CEILING = 3.5


def _run_fleet(step: bool):
    """Replay _PERIODS detection periods over a stable vehicle fleet.

    Every period re-observes the same five base random-walk voiceprints
    (fresh small-jitter realisations, so the steady margin mean is flat
    but not constant).  With ``step=True``, two transmitters gain
    +20 dB halfway through each observation window from period 10 on —
    a TX-power step.  The step survives the detector's per-series
    z-normalisation as a dominant shared edge, and because distances
    are min-max normalised per report (paper Eq. 8), the two stepped
    outliers stretch the normalisation range and shift the whole
    signed-margin distribution: exactly the silent environment drift
    the watchtower exists to catch.
    """
    registry = MetricsRegistry()
    health = HealthMonitor(registry=registry)
    tsdb = TimeSeriesDB()
    drift = DriftMonitor(
        registry=registry,
        health=health,
        cusum=CusumDetector(k=0.5, h=6.0, warmup=8),
        page_hinkley=PageHinkleyDetector(delta=0.05, lambda_=12.0, warmup=8),
        slos=[
            SLOSpec(
                name="margin_band",
                metric="hist:pipeline.margin.signed:tick_mean",
                max_value=_MARGIN_CEILING,
                budget=0.2,
                short_window=3,
                long_window=6,
            )
        ],
    )
    snapshotter = Snapshotter(
        registry=registry,
        interval_s=1.0,
        tsdb=tsdb,
        drift=drift,
        health=health,
        clock=itertools.count(0.0, 1.0).__next__,
    )
    config = DetectorConfig(observation_time=_OBS_TIME_S)
    times = np.linspace(0.0, _OBS_TIME_S, _SAMPLES)
    base = {
        index: -70.0
        + np.cumsum(
            np.random.default_rng(100 + index).normal(0.0, 0.8, _SAMPLES)
        )
        for index in range(_IDENTITIES)
    }
    for period in range(_PERIODS):
        detector = VoiceprintDetector(
            threshold=ConstantThreshold(0.08),
            config=config,
            registry=registry,
            health=health,
        )
        for index in range(_IDENTITIES):
            jitter = np.random.default_rng(
                1000 * period + index
            ).normal(0.0, 0.2, _SAMPLES)
            rssi = base[index] + jitter
            if step and period >= _STEP_AT_PERIOD and index < 2:
                rssi = rssi + np.where(
                    times >= _OBS_TIME_S / 2.0, _STEP_DB, 0.0
                )
            series = RSSITimeSeries(f"v{index}")
            for t, value in zip(times, rssi):
                series.append(float(t), float(value))
            detector.load_series(series)
        detector.detect(density=40.0, now=_OBS_TIME_S)
        snapshotter.tick()
    return registry, health, tsdb, drift


def _watch_alert_kinds(drift):
    return {alert["kind"] for alert in drift.alerts}


class TestDriftAcceptance:
    def test_steady_run_trips_nothing(self):
        registry, health, _tsdb, drift = _run_fleet(step=False)
        assert _watch_alert_kinds(drift) == set()
        health_kinds = {
            alert["kind"] for alert in health.status()["alerts"]
        }
        assert not health_kinds & {"metric_drift", "slo_burn"}
        assert registry.counter("drift.trips").value == 0
        assert registry.counter("slo.burn_alerts").value == 0

    def test_tx_power_step_trips_cusum_and_slo_burn(self):
        registry, health, tsdb, drift = _run_fleet(step=True)
        kinds = _watch_alert_kinds(drift)
        assert {"metric_drift", "slo_burn"} <= kinds
        # No alert fires before the step is injected.
        assert all(alert["t"] >= _STEP_AT_PERIOD for alert in drift.alerts)
        # The CUSUM trip names the collapsed signal.
        first_drift = next(
            alert for alert in drift.alerts
            if alert["kind"] == "metric_drift"
        )
        assert "margin_mean" in first_drift["message"]
        # Alerts route into the health monitor as first-class kinds.
        health_kinds = {
            alert["kind"] for alert in health.status()["alerts"]
        }
        assert {"metric_drift", "slo_burn"} <= health_kinds

        # Visible in the Prometheus exposition...
        text = render_prometheus(registry)
        lines = text.splitlines()
        assert any(
            line.startswith("repro_drift_margin_mean_cusum") for line in lines
        )
        assert any(
            line.startswith("repro_slo_margin_band_burn_short")
            for line in lines
        )
        trips = next(
            line for line in lines
            if line.startswith("repro_drift_trips_total")
        )
        assert float(trips.split()[-1]) >= 1.0

        # ...in the live dashboard...
        frame = WatchFrame(
            source="acceptance",
            kind="live",
            tsdb=tsdb,
            status=health.status()["status"],
            alerts=list(drift.alerts),
        )
        dashboard = render_dashboard(frame)
        assert "drift scores" in dashboard
        assert "** BURN **" in dashboard
        assert "metric_drift" in dashboard

        # ...and in the end-of-run HTML report.
        html = render_html(
            build_report(tsdb=tsdb, health=health, drift=drift)
        )
        assert "metric_drift" in html
        assert "slo_burn" in html
