"""Tests for ``repro.obs.audit`` — decision provenance and bit-replay.

Covers the off-by-default guarantees (no global log, no provenance
capture, no bundle construction), margin math and the near-miss knob,
window evidence encoding, the ring/stream/dump behaviour of
:class:`AuditLog`, bundle structure for exact / bound-decided /
early-abandon provenance, the snapshot/merge cross-process folding
contract, the bit-identical replay verification (including tamper detection), the
health monitor's fragile-verdict alert, the snapshotter's near-miss
ratio gauge, and the deterministic ordering of
``DetectionReport.sybil_clusters`` across hash seeds.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.detector import DetectorConfig, VoiceprintDetector
from repro.core.pairwise import PROV_ABANDON, PROV_EXACT, PROV_INCREMENTAL
from repro.core.thresholds import ConstantThreshold
from repro.obs.audit import (
    DEFAULT_NEAR_MISS_EPSILON,
    AuditLog,
    decode_window,
    default_audit_log,
    encode_window,
    get_audit_context,
    get_near_miss_epsilon,
    load_audit_log,
    normalised_window,
    replay_pair,
    restart_in_child,
    set_audit_context,
    set_near_miss_epsilon,
    signed_margin,
    start_default,
    stop_default,
    verify_bundle,
    window_digest,
)
from repro.obs.health import HealthMonitor, HealthThresholds
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import Snapshotter

_REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _no_leaked_global_state():
    yield
    stop_default()
    set_audit_context(None, None)
    set_near_miss_epsilon(DEFAULT_NEAR_MISS_EPSILON)


def make_detector(n=6, seed=0, samples=120, duration=20.0, **config_kwargs):
    """A loaded detector over random-walk RSSI series."""
    from repro.core.timeseries import RSSITimeSeries

    rng = np.random.default_rng(seed)
    config = DetectorConfig(observation_time=20.0, **config_kwargs)
    detector = VoiceprintDetector(
        threshold=ConstantThreshold(0.05), config=config
    )
    times = np.linspace(0.0, duration, samples)
    for index in range(n):
        series = RSSITimeSeries(f"v{index:02d}")
        rssi = -70.0 + np.cumsum(rng.normal(0.0, 0.8, samples))
        for t, value in zip(times, rssi):
            series.append(float(t), float(value))
        detector.load_series(series)
    return detector


def slid_incremental_bundle():
    """Audit bundle of an incremental detection 2 s after the previous
    one: the windows overlap, so some pairs are decided from bounds or
    by an abandoned kernel run."""
    start_default()
    detector = make_detector(
        samples=300, duration=30.0, pairwise_incremental=True
    )
    detector.detect(density=40.0, now=20.0)
    detector.detect(density=40.0, now=22.0)
    return stop_default().bundles[1]


class TestMarginMath:
    def test_signed_margin_is_relative_slack(self):
        assert signed_margin(0.06, 0.05) == pytest.approx(0.2)
        assert signed_margin(0.04, 0.05) == pytest.approx(-0.2)
        assert signed_margin(0.05, 0.05) == 0.0

    def test_zero_threshold_has_no_relative_scale(self):
        assert signed_margin(0.0, 0.0) == 0.0
        assert signed_margin(1e-12, 0.0) == math.inf
        assert signed_margin(-1e-12, 0.0) == -math.inf

    def test_epsilon_knob_validates_and_returns_previous(self):
        assert get_near_miss_epsilon() == DEFAULT_NEAR_MISS_EPSILON
        previous = set_near_miss_epsilon(0.1)
        assert previous == DEFAULT_NEAR_MISS_EPSILON
        assert get_near_miss_epsilon() == 0.1
        with pytest.raises(ValueError):
            set_near_miss_epsilon(0.0)
        with pytest.raises(ValueError):
            set_near_miss_epsilon(-0.01)

    def test_audit_context_round_trips(self):
        assert get_audit_context() == (None, None)
        previous = set_audit_context(observer="v01", period=3)
        assert previous == (None, None)
        assert get_audit_context() == ("v01", 3)


class TestWindowEvidence:
    def test_encode_decode_is_exact(self):
        rng = np.random.default_rng(1)
        values = rng.normal(-70.0, 5.0, 50)
        values[0] = -0.0
        values[1] = 1e-300
        decoded = decode_window(encode_window(values))
        assert decoded.tobytes() == values.astype("<f8").tobytes()

    def test_digest_detects_single_bit_tamper(self):
        values = np.array([1.0, 2.0, 3.0])
        tampered = values.copy()
        tampered[1] = np.nextafter(2.0, 3.0)
        assert window_digest(values) != window_digest(tampered)


class TestOffByDefault:
    def test_no_global_log_until_started(self):
        assert default_audit_log() is None

    def test_detect_does_no_audit_work_when_off(self):
        detector = make_detector()
        report = detector.detect(density=40.0, now=20.0)
        # Margins are pipeline telemetry, always on; provenance capture
        # and bundle construction are audit work, and must not happen.
        assert report.margins
        assert detector._engine is not None
        assert detector._engine.record_provenance is False
        assert detector._engine.last_provenance is None

    def test_restart_in_child_is_noop_when_off(self):
        assert restart_in_child() is None


class TestAuditLogStore:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            AuditLog(capacity=0)

    def test_ring_evicts_but_counters_keep_totals(self):
        log = AuditLog(capacity=2)
        for index in range(3):
            log.record_detection(
                {"type": "detection", "n": index, "pairs": [{}, {}]}
            )
        assert [b["n"] for b in log.bundles] == [1, 2]
        assert log.detections == 3
        assert log.pairs_recorded == 6

    def test_stream_claims_indexed_path_lazily(self, tmp_path):
        out = str(tmp_path / "audit.jsonl")
        log = AuditLog(out=out)
        assert log.path is None and not os.path.exists(out)
        log.record_detection({"type": "detection", "pairs": []})
        assert log.path == out
        log.close()
        second = AuditLog(out=out)
        second.record_detection({"type": "detection", "pairs": []})
        assert second.path == out + ".1"
        second.close()

    def test_dump_writes_ring_to_fresh_path(self, tmp_path):
        log = AuditLog()
        log.record_detection({"type": "detection", "n": 1, "pairs": []})
        path = log.dump(str(tmp_path / "ring.jsonl"))
        lines = Path(path).read_text().splitlines()
        assert json.loads(lines[0])["n"] == 1


class TestBundleRecording:
    def test_exact_detection_records_full_evidence(self, tmp_path):
        start_default(out=str(tmp_path / "audit.jsonl"))
        set_audit_context(observer="v00", period=7)
        detector = make_detector()
        report = detector.detect(density=40.0, now=20.0)
        log = stop_default()
        assert log.detections == 1
        (bundle,) = log.bundles
        assert bundle["observer"] == "v00"
        assert bundle["period"] == 7
        assert bundle["threshold"] == report.threshold
        assert bundle["threshold_on"] == "normalized"
        n = len(report.compared_ids)
        assert len(bundle["pairs"]) == n * (n - 1) // 2
        pairs = [(r["a"], r["b"]) for r in bundle["pairs"]]
        assert pairs == sorted(pairs)
        for record in bundle["pairs"]:
            pair = (record["a"], record["b"])
            assert record["provenance"] == PROV_EXACT
            assert record["margin"] == report.margins[pair]
            assert record["raw_distance"] == report.raw_distances[pair]
            assert record["flagged"] == (pair in set(report.sybil_pairs))
        for identity in report.compared_ids:
            series = bundle["series"][identity]
            window = decode_window(series["window_b64"])
            assert window.size == series["len"]
            assert window_digest(window) == series["sha256"]
        # The stream holds the same bundle as one JSON line.
        (loaded,) = load_audit_log(log.path)
        assert loaded["pairs"] == bundle["pairs"]

    def test_second_detect_hits_cache_with_key(self):
        # Incremental mode keeps each pair's last kernel result keyed by
        # both windows' bytes and the scale tag; an unchanged window is
        # answered from that store under the key the bundle records.
        start_default()
        detector = make_detector(pairwise_incremental=True)
        detector.detect(density=40.0, now=20.0)
        detector.detect(density=40.0, now=20.0)
        log = stop_default()
        first, second = log.bundles
        assert {r["provenance"] for r in first["pairs"]} == {PROV_EXACT}
        assert {r["provenance"] for r in second["pairs"]} == {PROV_INCREMENTAL}
        assert second["scale_tag"] == first["scale_tag"]
        exact = {(r["a"], r["b"]): r for r in first["pairs"]}
        for record in second["pairs"]:
            a, b = record["a"], record["b"]
            for identity in (a, b):
                assert (
                    second["series"][identity]["sha256"]
                    == first["series"][identity]["sha256"]
                )
            assert record["raw_distance"] == exact[(a, b)]["raw_distance"]
            assert record["bound"] is None

    def test_pruned_pairs_record_their_deciding_bound(self):
        slid = slid_incremental_bundle()
        tags = {r["provenance"] for r in slid["pairs"]}
        assert PROV_EXACT in tags
        decided = [
            r
            for r in slid["pairs"]
            if r["provenance"].startswith("pruned")
            or r["provenance"] == PROV_ABANDON
        ]
        assert decided, "the slid window should decide at least one pair"
        for record in decided:
            assert record["bound"] is not None

    def test_store_windows_off_drops_bytes_and_blocks_replay(self):
        start_default(store_windows=False)
        detector = make_detector()
        detector.detect(density=40.0, now=20.0)
        log = stop_default()
        (bundle,) = log.bundles
        identity = bundle["compared"][0]
        assert "window_b64" not in bundle["series"][identity]
        assert "sha256" in bundle["series"][identity]
        with pytest.raises(ValueError, match="without window bytes"):
            normalised_window(bundle, identity)


class TestReplayContract:
    def _one_bundle(self, **config_kwargs):
        start_default()
        detector = make_detector(**config_kwargs)
        detector.detect(density=40.0, now=20.0)
        (bundle,) = stop_default().bundles
        return bundle

    def test_exact_records_replay_bit_identically(self):
        bundle = self._one_bundle()
        results = verify_bundle(bundle)
        assert results
        assert all(r["status"] == "ok" for r in results)

    def test_per_series_zscore_mode_replays_bit_identically(self):
        bundle = self._one_bundle(scale_mode="per-series")
        assert all(r["status"] == "ok" for r in verify_bundle(bundle))

    def test_replay_survives_json_round_trip(self, tmp_path):
        bundle = self._one_bundle()
        path = tmp_path / "audit.jsonl"
        path.write_text(json.dumps(bundle) + "\n")
        (loaded,) = load_audit_log(str(path))
        assert all(r["status"] == "ok" for r in verify_bundle(loaded))

    def test_tampered_distance_is_a_mismatch(self):
        bundle = self._one_bundle()
        victim = bundle["pairs"][0]
        victim["raw_distance"] = np.nextafter(
            victim["raw_distance"], math.inf
        )
        results = verify_bundle(bundle)
        statuses = {(r["pair"]): r["status"] for r in results}
        assert statuses[(victim["a"], victim["b"])] == "MISMATCH"

    def test_tampered_window_bytes_fail_their_digest(self):
        bundle = self._one_bundle()
        identity = bundle["compared"][0]
        series = bundle["series"][identity]
        window = decode_window(series["window_b64"])
        window[0] += 1.0
        series["window_b64"] = encode_window(window)
        with pytest.raises(ValueError, match="SHA-256"):
            replay_pair(bundle, bundle["pairs"][0]["a"], bundle["pairs"][0]["b"])

    def test_repeat_detection_records_replay_exactly(self):
        # A repeated same-window detection runs the kernels again, so
        # every record carries the bit-replay obligation and meets it.
        start_default()
        detector = make_detector()
        detector.detect(density=40.0, now=20.0)
        detector.detect(density=40.0, now=20.0)
        log = stop_default()
        results = verify_bundle(log.bundles[1])
        assert results
        assert {r["provenance"] for r in results} == {PROV_EXACT}
        assert all(r["status"] == "ok" for r in results)
        assert not [r for r in results if r["status"] == "skipped"]

    def test_non_exact_records_are_skipped(self):
        results = verify_bundle(slid_incremental_bundle())
        replayable = {PROV_EXACT, PROV_INCREMENTAL}
        skipped = [r for r in results if r["status"] == "skipped"]
        assert skipped, "the slid window should decide at least one pair"
        for result in results:
            if result["provenance"] in replayable:
                assert result["status"] == "ok"
            else:
                # Bound-decided and abandoned distances are surrogates.
                assert result["status"] == "skipped"


class TestSnapshotMerge:
    def test_merge_re_records_and_counts_drops(self, tmp_path):
        worker = AuditLog(capacity=2)
        for index in range(3):  # one bundle ring-evicted in the worker
            worker.record_detection(
                {"type": "detection", "n": index, "pairs": [{}]}
            )
        parent = AuditLog(out=str(tmp_path / "audit.jsonl"))
        parent.merge(worker.snapshot())
        assert parent.detections == 3  # 2 merged + 1 evicted, honestly
        assert parent.pairs_recorded == 2
        assert [b["n"] for b in parent.bundles] == [1, 2]
        parent.close()
        lines = Path(parent.path).read_text().splitlines()
        assert len(lines) == 2  # evidence that survived the worker ring

    def test_merge_rejects_unknown_snapshot_version(self):
        with pytest.raises(ValueError, match="version"):
            AuditLog().merge({"version": 99, "detections": 0, "bundles": []})


class TestLifecycle:
    def test_start_default_is_idempotent(self):
        first = start_default()
        assert start_default() is first
        assert default_audit_log() is first

    def test_stop_default_uninstalls_and_returns(self):
        log = start_default()
        assert stop_default() is log
        assert default_audit_log() is None
        assert stop_default() is None

    def test_restart_in_child_swaps_in_memory_shard(self, tmp_path):
        parent = start_default(
            out=str(tmp_path / "audit.jsonl"), capacity=7, store_windows=False
        )
        child = restart_in_child()
        assert child is not parent
        assert default_audit_log() is child
        assert child.out is None  # never the parent's stream fd
        assert child.capacity == 7
        assert child.store_windows is False


class TestLoadAuditLog:
    def test_malformed_line_error_names_path_and_line(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        path.write_text('{"type": "detection", "pairs": []}\n{oops\n')
        with pytest.raises(ValueError, match=r"audit\.jsonl:2"):
            load_audit_log(str(path))

    def test_empty_log_is_an_error(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        path.write_text("\n")
        with pytest.raises(ValueError, match="no detection records"):
            load_audit_log(str(path))


class TestFragileVerdictHealth:
    def _report(self, margins):
        detector = make_detector(n=4)
        report = detector.detect(density=40.0, now=20.0)
        report.margins.clear()
        report.margins.update(
            {pair: margin for pair, margin in zip(report.raw_distances, margins)}
        )
        return report

    def test_fragile_rate_alerts_over_the_limit(self):
        monitor = HealthMonitor(
            HealthThresholds.from_spec("fragile_rate=0.25"),
            registry=MetricsRegistry(),
        )
        report = self._report([0.001, -0.002, 0.9, -0.8, 0.7, 0.6])
        monitor.on_report(report, latency_ms=1.0)
        kinds = {alert.kind for alert in monitor.recent_alerts}
        assert "fragile_verdict_rate" in kinds
        assert monitor.status()["status"] == "alert"
        assert monitor.status()["window"]["fragile_verdict_rate"]

    def test_solid_margins_stay_healthy(self):
        monitor = HealthMonitor(
            HealthThresholds.from_spec("fragile_rate=0.25"),
            registry=MetricsRegistry(),
        )
        report = self._report([0.9, -0.8, 0.7, 0.6, -0.9, 0.8])
        monitor.on_report(report, latency_ms=1.0)
        assert not any(
            alert.kind == "fragile_verdict_rate" for alert in monitor.recent_alerts
        )


class TestMarginTelemetry:
    def test_detect_populates_margin_instruments(self):
        registry = MetricsRegistry()
        registry.enable()
        from repro.core.timeseries import RSSITimeSeries

        rng = np.random.default_rng(0)
        detector = VoiceprintDetector(
            threshold=ConstantThreshold(0.05),
            config=DetectorConfig(observation_time=20.0),
            registry=registry,
        )
        times = np.linspace(0.0, 20.0, 120)
        for index in range(5):
            series = RSSITimeSeries(f"v{index:02d}")
            rssi = -70.0 + np.cumsum(rng.normal(0.0, 0.8, 120))
            for t, value in zip(times, rssi):
                series.append(float(t), float(value))
            detector.load_series(series)
        report = detector.detect(density=40.0, now=20.0)
        n_pairs = len(report.raw_distances)
        assert registry.histogram("pipeline.margin.signed").count == n_pairs
        assert registry.histogram("pipeline.margin.abs").count == n_pairs
        near = sum(
            1
            for margin in report.margins.values()
            if abs(margin) < get_near_miss_epsilon()
        )
        assert registry.counter("pipeline.margin.near_miss").value == near

    def test_snapshotter_publishes_near_miss_rate_gauge(self):
        registry = MetricsRegistry()
        near = registry.counter("pipeline.margin.near_miss")
        pairs = registry.counter("detector.pairs_compared")
        snap = Snapshotter(registry)
        snap.tick(now=0.0)
        near.inc(2)
        pairs.inc(8)
        record = snap.tick(now=1.0)
        assert registry.gauge(
            "rate.margin_near_miss_rate"
        ).value == pytest.approx(0.25)
        assert record["counters"]["pipeline.margin.near_miss"]["delta"] == 2.0


class TestSybilClusterDeterminism:
    _SNIPPET = """
import json
from repro.core.detector import DetectionReport

report = DetectionReport(
    timestamp=0.0, density=0.0, threshold=0.0,
    raw_distances={}, distances={},
    sybil_pairs=(("g", "b"), ("b", "a"), ("z", "q"), ("m", "q")),
    sybil_ids=frozenset("gbazqm"),
    compared_ids=tuple("gbazqm"), skipped_ids=(),
)
clusters = [sorted(c) for c in report.sybil_clusters()]
print(json.dumps(clusters))
"""

    def _run(self, hashseed):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hashseed
        env["PYTHONPATH"] = str(_REPO_ROOT / "src")
        result = subprocess.run(
            [sys.executable, "-c", self._SNIPPET],
            capture_output=True,
            text=True,
            env=env,
            cwd=str(_REPO_ROOT),
            check=True,
        )
        return result.stdout.strip()

    def test_cluster_order_is_hashseed_independent(self):
        # Union-find over set/dict iteration used to leak hash order
        # into the cluster list; the output must now be identical under
        # different PYTHONHASHSEED values, and deterministic in content.
        out_a = self._run("0")
        out_b = self._run("1")
        assert out_a == out_b
        assert json.loads(out_a) == [["a", "b", "g"], ["m", "q", "z"]]
