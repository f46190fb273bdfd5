"""The ``serve-sliding`` workload: an open-loop fleet through the service.

The seeded ``synthetic_fleet`` (100 observers, each hearing 4 honest
identities and a 3-identity Sybil cluster at 10 Hz) is offered to a
one-shard :class:`~repro.serve.DetectionService` by one generator thread
on a fixed schedule: beacon ``i`` is due ``i / rate`` seconds after the
start, whatever the service is doing (open loop).  Each verdict is timed
from when its triggering beacon was *due*, so a stall that delays later
submissions counts against the verdicts behind it.

Detection runs every 5 s over a 20 s window, so consecutive windows
overlap and ``compare_incremental`` takes its carry/prune/abandon path;
every observer's first beacon falls in the same 0.1 s, so detections
bunch on shared period boundaries.  One shard: the workers are GIL-bound
and one shard outran two on a 2-core host.

``verdict_p50_ms``/``verdict_p99_ms`` are taken at ``FIXED_RATE`` over the
verdicts of ``FIXED_PASSES`` passes.
``beacons_per_s`` is the highest rate on a short doubling ladder whose
verdict p99 stays under ``P99_LIMIT_MS`` and whose backlog does not grow
(see :attr:`Rung.backlog_growing`), reported as the rate the generator
actually achieved on that rung.
"""

from __future__ import annotations

import bisect
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from statistics import median
from typing import Dict, List, Tuple

from repro.core.pipeline import OnlineVoiceprint, OnlineVoiceprintConfig
from repro.obs.metrics import MetricsRegistry
from repro.serve import DetectionService, ServiceConfig, synthetic_fleet

from layers import LayerTracer, install_layers, layer_metrics
from measure import peak_rss_mb, percentile

FLEETS = {
    "full": dict(observers=100, legit=4, sybil=3, duration_s=75.0, beacon_hz=10.0),
    "smoke": dict(observers=6, legit=4, sybil=3, duration_s=30.0, beacon_hz=10.0),
}
FIXED_RATE = {"full": 50_000.0, "smoke": 5_000.0}
#: Passes at the fixed rate whose verdicts are pooled: one pass's p99 sits
#: in its two or three slowest boundary bursts and moves with them.
FIXED_PASSES = 2
#: Rungs above the fixed rate, as multiples of it, climbed until one fails.
LADDER = (2.0, 4.0, 8.0)
P99_LIMIT_MS = 500.0
SHARDS = 1
PIPELINE = OnlineVoiceprintConfig(detection_period_s=5.0)
BACKLOG_SAMPLE_S = 0.05


@dataclass
class Rung:
    rate: float
    beacons: int
    #: Per beacon, how late the generator submitted it, in seconds.
    late_s: array
    achieved: float = 0.0
    wall_s: float = 0.0
    #: Shard worker lifetime, ``start()`` to ``stop()``.
    service_s: float = 0.0
    shed: int = 0
    verdicts: List[Tuple[str, int, object]] = field(default_factory=list)
    latencies_ms: List[float] = field(default_factory=list)
    backlog: List[Tuple[float, int]] = field(default_factory=list)

    @property
    def p50_ms(self) -> float:
        return percentile(self.latencies_ms, 50.0)

    @property
    def p99_ms(self) -> float:
        return percentile(self.latencies_ms, 99.0)

    @property
    def backlog_end(self) -> int:
        """Backlog at the last sample within the schedule."""
        end = self.beacons / self.rate
        within = [b for t, b in self.backlog if t <= end]
        return within[-1] if within else 0

    @property
    def backlog_growing(self) -> bool:
        """Whether the schedule ends with more beacons due but unprocessed
        than the service could clear within the latency limit at the
        offered rate.  A sustainable rate drains each boundary burst
        within the following period; an unsustainable one piles up
        ``(1 - capacity / rate)`` of the schedule."""
        return self.backlog_end > self.rate * P99_LIMIT_MS / 1000.0

    @property
    def sustained(self) -> bool:
        return self.p99_ms <= P99_LIMIT_MS and not self.backlog_growing

    def summary(self) -> Dict[str, object]:
        late_ms = [x * 1000.0 for x in self.late_s]
        step = max(1, len(self.backlog) // 40)
        return {
            "rate": self.rate,
            "achieved": self.achieved,
            "wall_s": self.wall_s,
            "verdicts": len(self.latencies_ms),
            "verdict_p50_ms": self.p50_ms,
            "verdict_p99_ms": self.p99_ms,
            "generator_late_p50_ms": percentile(late_ms, 50.0),
            "generator_late_p99_ms": percentile(late_ms, 99.0),
            "generator_late_max_ms": max(late_ms, default=0.0),
            "backlog_max": max((b for _t, b in self.backlog), default=0),
            "backlog_end": self.backlog_end,
            "backlog_over_time": [
                [round(t, 3), b] for t, b in self.backlog[::step]
            ],
            "shed": self.shed,
            "sustained": self.sustained,
        }


def setup(size: str, seed: int):
    return synthetic_fleet(seed=seed, **FLEETS[size])


def _service_config() -> ServiceConfig:
    return ServiceConfig(shards=SHARDS, pipeline_config=PIPELINE)


def _trigger_index(events) -> Dict[str, Tuple[List[float], List[int]]]:
    """Per observer: its beacon times and their positions in the schedule."""
    index: Dict[str, Tuple[List[float], List[int]]] = {}
    for position, event in enumerate(events):
        times, positions = index.setdefault(event.observer, ([], []))
        times.append(event.t)
        positions.append(position)
    return index


def offer(events, rate: float) -> Rung:
    """Offer every event at ``rate`` beacons/s; collect verdicts."""
    service = DetectionService(_service_config(), registry=MetricsRegistry())
    subscription = service.subscribe("bench", depth=1 << 17)
    n = len(events)
    interval = 1.0 / rate
    late = array("d", bytes(8 * n))
    backlog: List[Tuple[float, int]] = []
    submit = service.submit
    clock = time.monotonic
    sleep = time.sleep

    def sample(now: float) -> None:
        due_count = min(n, int((now - start) / interval) + 1)
        backlog.append((now - start, due_count - service.stats()["processed"]))

    service_start = clock()
    service.start()
    start = clock() + 0.005
    next_sample = start
    i = 0
    while i < n:
        now = clock()
        if now >= next_sample:
            sample(now)
            next_sample = now + BACKLOG_SAMPLE_S
        due = start + i * interval
        if now < due:
            sleep(due - now)
            continue
        late[i] = now - due
        submit(events[i])
        i += 1
    last_submit = clock()
    sample(last_submit)
    service.flush(timeout=120.0)
    drained = clock()
    service.stop()
    rung = Rung(rate=rate, beacons=n, late_s=late, backlog=backlog)
    rung.service_s = clock() - service_start
    rung.achieved = n / (last_submit - start)
    rung.wall_s = drained - start
    rung.shed = service.stats()["shed"]

    index = _trigger_index(events)
    for report_event in subscription.drain():
        times, positions = index[report_event.observer]
        # The triggering beacon is the observer's first at or after the
        # detection boundary (one detection per beacon, periods >> 0.1 s).
        trigger = positions[bisect.bisect_left(times, report_event.report.timestamp)]
        rung.latencies_ms.append((late[trigger] * 1000.0) + report_event.latency_ms)
        rung.verdicts.append((report_event.observer, report_event.seq, report_event.report))
    return rung


def serial_replay(events) -> Dict[str, list]:
    """Per-observer serial ``OnlineVoiceprint`` replay (the verdict oracle)."""
    config = _service_config()
    per_observer: Dict[str, list] = defaultdict(list)
    for event in events:
        per_observer[event.observer].append(event)
    reports: Dict[str, list] = {}
    for observer, observer_events in per_observer.items():
        pipeline = OnlineVoiceprint(
            max_range_m=config.max_range_m,
            detector_config=config.detector_config,
            config=config.pipeline_config,
            registry=MetricsRegistry(),
        )
        out = []
        for event in observer_events:
            report = pipeline.on_beacon(event.identity, event.t, event.rssi_dbm)
            if report is not None:
                out.append(report)
        reports[observer] = out
    return reports


def mismatches(rung: Rung, expected: Dict[str, list]) -> int:
    """Verdicts missing, extra or not byte-identical to the serial replay."""
    served: Dict[str, Dict[int, object]] = defaultdict(dict)
    for observer, seq, report in rung.verdicts:
        served[observer][seq] = report
    bad = 0
    for observer in set(expected) | set(served):
        want = expected.get(observer, [])
        got = served.get(observer, {})
        for seq, report in enumerate(want, start=1):
            if got.get(seq) != report:
                bad += 1
        bad += sum(1 for seq in got if not 1 <= seq <= len(want))
    return bad


def fleet_rates(expected: Dict[str, list]) -> Tuple[float, float]:
    """Mean per-verdict DR and FPR; ``ghost`` identities are the Sybils."""
    drs, fprs = [], []
    for reports in expected.values():
        for report in reports:
            heard = set(report.compared_ids)
            sybils = {i for i in heard if ".ghost" in i}
            honest = heard - sybils
            if sybils:
                drs.append(len(report.sybil_ids & sybils) / len(sybils))
            if honest:
                fprs.append(len(report.sybil_ids & honest) / len(honest))
    return (
        sum(drs) / len(drs) if drs else 0.0,
        sum(fprs) / len(fprs) if fprs else 0.0,
    )


def detections_per_boundary(rung: Rung) -> float:
    """Verdicts per occupied 1 s bin of detection time: how they bunch."""
    bins = {int(report.timestamp) for _o, _s, report in rung.verdicts}
    return len(rung.verdicts) / len(bins) if bins else 0.0


def run(size: str, events, seconds: float, trace: bool) -> Dict[str, object]:
    fixed = FIXED_RATE[size]
    start = time.perf_counter()
    if trace:
        plain = offer(events, fixed)
        with LayerTracer() as tracer:
            install_layers(tracer)
            traced = offer(events, fixed)
        rungs = [plain, traced]
        best = None
    else:
        rungs = [offer(events, fixed) for _ in range(FIXED_PASSES)]
        best = rungs[-1] if all(rung.sustained for rung in rungs) else None
        for factor in LADDER:
            if best is None or time.perf_counter() - start > seconds:
                break
            rung = offer(events, fixed * factor)
            rungs.append(rung)
            if not rung.sustained:
                break
            best = rung
    rss = peak_rss_mb()

    expected = serial_replay(events)
    total_expected = sum(len(r) for r in expected.values())
    attempted = failed = 0
    for rung in rungs:
        attempted += len(events) + total_expected
        failed += rung.shed + mismatches(rung, expected)
    detail: Dict[str, object] = {
        "beacons": len(events),
        "expected_verdicts": total_expected,
        "rungs": [rung.summary() for rung in rungs],
        "verdicts_match": failed == 0,
        "checks_run": len(rungs),
    }
    if not trace:
        top = best if best is not None else rungs[-1]
        detail["beacons_per_s_rung"] = top.rate
        detail["no_rung_sustained"] = best is None
        fixed_rungs = rungs[:FIXED_PASSES]
        latencies = [ms for rung in fixed_rungs for ms in rung.latencies_ms]
        metrics = {
            "cell_wall_s": median([rung.wall_s for rung in fixed_rungs]),
            "peak_rss_mb": rss,
            "verdict_p50_ms": percentile(latencies, 50.0),
            "verdict_p99_ms": percentile(latencies, 99.0),
            "beacons_per_s": top.achieved,
        }
        return {"metrics": metrics, "attempted": attempted, "failed": failed,
                "correct": failed == 0, "detail": detail}

    # Coverage is taken on the shard worker: the main thread is the load
    # generator, which is the benchmark, not the system under test.
    covered = tracer.top_level_s(main=False)
    coverage = covered / traced.service_s
    dr, fpr = fleet_rates(expected)
    summary = traced.summary()
    metrics = layer_metrics(tracer)
    metrics.update({
        "net.drop_ratio": 0.0,
        "eval.detection_rate": dr,
        "eval.false_positive_rate": fpr,
        "serve.detections_per_boundary": detections_per_boundary(traced),
        "serve.generator_late_ms": summary["generator_late_p99_ms"],
        "serve.backlog_max": float(summary["backlog_max"]),
        "serve.verdicts": float(len(traced.latencies_ms)),
        "trace.coverage": coverage,
        "trace.unattributed_s": traced.service_s - covered,
        "trace.overhead_ratio": traced.p50_ms / plain.p50_ms - 1.0,
        "ops_failed_ratio": failed / attempted if attempted else 0.0,
    })
    detail["layers"] = tracer.layer_table()
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "correct": failed == 0, "detail": detail}
