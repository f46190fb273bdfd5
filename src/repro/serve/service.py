"""The streaming detection service — fleet-scale Voiceprint online.

The paper's detector is strictly per-verifier (Section IV: every
vehicle judges only its own RSSI observations).  That independence is
what makes it shard cleanly: a fleet collector receiving
``(observer, identity, t, rssi)`` beacon events can partition the
stream by *observer* and run one completely isolated
:class:`~repro.core.pipeline.OnlineVoiceprint` per observer, with no
cross-shard communication at all.

:class:`DetectionService` does exactly that:

* :meth:`submit` routes each event to one of ``shards`` worker
  threads by a stable hash of the observer id.  Each shard owns a
  :class:`~repro.serve.qos.BoundedQueue` (policy ``"block"`` for
  lossless backpressure or ``"shed"`` for bounded-latency loss, both
  counted) and a private ``{observer: OnlineVoiceprint}`` table.
* Because each observer's events land on exactly one shard and the
  queue is FIFO, every observer's pipeline sees its beacons in the
  same order a serial batch replay would — so the emitted
  :class:`~repro.core.detector.DetectionReport` objects are
  **byte-identical** to batch replay, per observer.  The acceptance
  test asserts this with ``==`` on the frozen report dataclass.
* Finished reports are published on a :class:`~repro.serve.qos.ReportBus`
  with per-subscriber QoS; each carries the wall-clock
  ingest-to-verdict latency of the beacon that triggered it
  (``serve.ingest_to_verdict_ms`` histogram).

Shard workers arm the detector's single-writer ownership guard, so any
accidental cross-thread mutation of shard state raises instead of
corrupting buffers, and stamp ``audit_identity`` per observer so audit
bundles from concurrent shards don't race over the process-global
audit context.

When :func:`~repro.obs.lineage.start_lineage` has installed the
process-global lineage *before* :meth:`DetectionService.start`, every
submitted beacon additionally carries two monotonic stamps through the
queue; the shard worker parks them in a per-thread hot-path cell
(:meth:`~repro.obs.lineage.Lineage.register_worker`) and the
:class:`~repro.obs.lineage.TraceContext` is materialised lazily, only
for beacons whose dequeue triggers a detection (so the detector's
audit bundle and the flight recorder pick up its correlation id), and
the verdict path is decomposed into
``serve.stage.*_ms`` stage histograms with tail-based trace retention
(see :mod:`repro.obs.lineage`).  With lineage off the queue items stay
2-tuples and the hot path performs zero extra allocations.
"""

from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.detector import DetectionReport, DetectorConfig
from ..core.pipeline import OnlineVoiceprint, OnlineVoiceprintConfig
from ..core.thresholds import ThresholdPolicy
from ..obs.flightrec import default_recorder
from ..obs.health import HealthMonitor, default_monitor
from ..obs.lineage import Lineage, TraceContext, default_lineage
from ..obs.logging import get_logger
from ..obs.metrics import MetricsRegistry, default_registry
from .qos import BoundedQueue, ReportBus, Subscription
from .stream import BeaconEvent

__all__ = ["ServiceConfig", "ReportEvent", "DetectionService"]

_log = get_logger("serve.service")


def _default_detector_config() -> DetectorConfig:
    # The service is the long-run deployment target, so it defaults to
    # the incremental engine (PR 7): per-period cost scales with new
    # beacons, not window size.
    return DetectorConfig(pairwise_incremental=True)


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`DetectionService`.

    Attributes:
        shards: Worker threads; observers are hash-partitioned across
            them (`crc32(observer) % shards` — stable across runs and
            processes, unlike salted ``hash()``).
        queue_depth: Per-shard ingest queue bound.
        ingest_policy: ``"block"`` (backpressure the producer when a
            shard falls behind) or ``"shed"`` (drop the incoming
            beacon, count it in ``serve.beacons_shed``).
        max_range_m: Eq. 9 density denominator for every pipeline.
        detector_config: Comparison-phase tunables (default: the
            incremental pairwise engine).
        pipeline_config: Scheduling/confirmation parameters shared by
            all per-observer pipelines.
        poll_interval_s: Sleep between :meth:`DetectionService.flush`
            progress polls and idle shard wakeups.
    """

    shards: int = 4
    queue_depth: int = 2048
    ingest_policy: str = "block"
    max_range_m: float = 650.0
    detector_config: DetectorConfig = field(
        default_factory=_default_detector_config
    )
    pipeline_config: OnlineVoiceprintConfig = field(
        default_factory=OnlineVoiceprintConfig
    )
    poll_interval_s: float = 0.01

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.queue_depth < 1:
            raise ValueError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )
        if self.poll_interval_s <= 0:
            raise ValueError(
                f"poll_interval_s must be positive, got {self.poll_interval_s}"
            )
        # BoundedQueue re-validates, but fail at config time, not start.
        if self.ingest_policy not in ("block", "shed"):
            raise ValueError(
                f"ingest_policy must be 'block' or 'shed', "
                f"got {self.ingest_policy!r}"
            )


@dataclass(frozen=True)
class ReportEvent:
    """One published verdict: ``observer``'s ``seq``-th detection.

    ``latency_ms`` is wall-clock ingest-to-verdict: from the moment the
    triggering beacon entered :meth:`DetectionService.submit` to the
    moment its report was published.
    """

    observer: str
    seq: int
    report: DetectionReport
    latency_ms: float


class _Shard:
    """One worker thread plus its private per-observer pipeline table."""

    def __init__(self, index: int, service: "DetectionService") -> None:
        self.index = index
        self.service = service
        config = service.config
        self.queue = BoundedQueue(
            depth=config.queue_depth, policy=config.ingest_policy
        )
        self.pipelines: Dict[str, OnlineVoiceprint] = {}
        self.accepted = 0  # written only by submit() under queue put
        self.processed = 0  # written only by the worker thread
        self.thread = threading.Thread(
            target=self._run, name=f"serve-shard-{index}", daemon=True
        )

    def _pipeline(self, observer: str) -> OnlineVoiceprint:
        pipeline = self.pipelines.get(observer)
        if pipeline is None:
            service = self.service
            config = service.config
            pipeline = OnlineVoiceprint(
                max_range_m=config.max_range_m,
                threshold=service.threshold,
                detector_config=config.detector_config,
                config=config.pipeline_config,
                registry=service.registry,
                health=service.health,
            )
            # Single-writer contract: this worker thread is the only
            # legal mutator of the pipeline's detector from now on.
            pipeline.detector.enable_ownership_guard()
            # Audit bundles from concurrent shards must not race over
            # the process-global audit context.
            pipeline.detector.audit_identity = observer
            self.pipelines[observer] = pipeline
            service._g_observers.set(service._observer_count())
        return pipeline

    def _run(self) -> None:
        poll = self.service.config.poll_interval_s
        # With lineage on, every queue item is a 3-tuple
        # (event, t_submit, t_enqueued) and this thread owns a hot-path
        # cell; the TraceContext is only materialised lazily for the
        # rare beacons whose dequeue triggers a detection.  With it off
        # the loop body is byte-for-byte the pre-lineage path.
        lineage = self.service._lineage
        cell = (
            lineage.register_worker(self.index)
            if lineage is not None
            else None
        )
        while True:
            item = self.queue.get(timeout=poll)
            if item is None:
                if self.queue.closed:
                    break
                continue
            event, wall_in = item[0], item[1]
            if cell is not None:
                cell[0] = item
                cell[1] = time.monotonic()
                cell[2] = None
            pipeline = self._pipeline(event.observer)
            report = pipeline.on_beacon(
                event.identity, event.t, event.rssi_dbm
            )
            if report is not None:
                now = time.monotonic()
                ctx = None
                if cell is not None:
                    ctx = cell[2]
                    if ctx is None:
                        ctx = lineage._materialize(cell)
                    ctx.t_detect_done = now
                    cell[0] = None
                    cell[2] = None
                latency_ms = (now - wall_in) * 1000.0
                self.service._publish(
                    event.observer, pipeline, report, latency_ms, ctx
                )
            self.processed += 1


class DetectionService:
    """Sharded, queued, pub/sub-fronted fleet detection service.

    Typical lifecycle::

        service = DetectionService(ServiceConfig(shards=8))
        verdicts = service.subscribe("verdicts")
        service.start()
        for event in source:
            service.submit(event)
        service.flush()          # drain queues
        service.stop()           # join workers, close the bus
        for ev in verdicts.drain():
            ...

    Args:
        config: Service tunables.
        threshold: Confirmation threshold policy shared by all
            pipelines (default: the detector's trained line).
        registry: Metrics registry (default: the process-global one).
        health: Health monitor fed by every pipeline.  Defaults to the
            process-global monitor; for a live service that monitor
            should be constructed with ``clock="wall"`` (the CLI's
            ``serve`` command does this).
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        threshold: Optional[ThresholdPolicy] = None,
        registry: Optional[MetricsRegistry] = None,
        health: Optional[HealthMonitor] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.threshold = threshold
        self.registry = registry if registry is not None else default_registry()
        self.health = health if health is not None else default_monitor()
        self.bus = ReportBus(self.registry)
        self._c_ingested = self.registry.counter("serve.beacons_ingested")
        self._c_shed = self.registry.counter("serve.beacons_shed")
        self._g_observers = self.registry.gauge("serve.observers")
        self._g_queue_depth = self.registry.gauge("serve.queue_depth")
        self._h_latency = self.registry.histogram("serve.ingest_to_verdict_ms")
        self._shards = [_Shard(i, self) for i in range(self.config.shards)]
        self._submit_lock = threading.Lock()
        self._started = False
        self._stopped = False
        self._n_ingested = 0
        self._n_shed = 0
        self._n_published = 0
        # Captured from the process-global at start() so the submit
        # hot path pays one attribute load, not a module lookup.
        self._lineage: Optional[Lineage] = None
        self._shed_seq: Dict[str, int] = {}

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "DetectionService":
        """Spawn the shard workers (idempotent)."""
        if self._started:
            return self
        self._started = True
        self._lineage = default_lineage()
        for shard in self._shards:
            shard.thread.start()
        _log.info(
            "detection service started",
            extra={
                "shards": self.config.shards,
                "queue_depth": self.config.queue_depth,
                "policy": self.config.ingest_policy,
            },
        )
        return self

    def __enter__(self) -> "DetectionService":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def stop(self, drain: bool = True) -> None:
        """Shut down: optionally drain queues, join workers, close the bus.

        With ``drain=True`` (default) queued events are still processed
        — close only refuses *new* puts — so a clean shutdown loses
        nothing.  ``drain=False`` abandons whatever is queued.
        """
        if self._stopped:
            return
        self._stopped = True
        for shard in self._shards:
            shard.queue.close()
            if not drain:
                shard.queue.clear()
        for shard in self._shards:
            if shard.thread.is_alive():
                shard.thread.join(timeout=30.0)
        self.bus.close()

    def flush(self, timeout: float = 60.0) -> bool:
        """Block until every accepted event has been processed.

        Returns False on timeout (service still running, just behind).
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if all(s.processed >= s.accepted for s in self._shards):
                return True
            time.sleep(self.config.poll_interval_s)
        return all(s.processed >= s.accepted for s in self._shards)

    # -- ingestion -----------------------------------------------------
    @staticmethod
    def shard_of(observer: str, n_shards: int) -> int:
        """Stable observer → shard routing (crc32, not salted hash)."""
        return zlib.crc32(observer.encode("utf-8")) % n_shards

    def submit(self, event: BeaconEvent) -> bool:
        """Ingest one beacon event.

        Returns True when the event was queued; False when it was shed
        (``"shed"`` policy, shard queue full) or the service is
        stopping.  Under the ``"block"`` policy this call applies
        backpressure: it waits for queue space, which is the whole
        point — a lossless producer should slow down, not OOM the
        service.
        """
        lineage = self._lineage
        if lineage is None:
            shard = self._shards[
                self.shard_of(event.observer, len(self._shards))
            ]
            queued = shard.queue.put((event, time.monotonic()))
        else:
            # Producer side stays allocation-free: two monotonic stamps
            # ride the queue and the shard worker materialises a
            # TraceContext lazily, only when a verdict needs one.
            # ``wall_in`` doubles as the trace's submit stamp so the
            # published latency and the stage sum share one clock read.
            t_submit = time.monotonic()
            shard = self._shards[
                self.shard_of(event.observer, len(self._shards))
            ]
            queued = shard.queue.put((event, t_submit, time.monotonic()))
        if queued:
            with self._submit_lock:
                shard.accepted += 1
                self._n_ingested += 1
            self._c_ingested.inc()
            return True
        with self._submit_lock:
            self._n_shed += 1
            shed_seq = self._shed_seq.get(event.observer, 0) + 1
            self._shed_seq[event.observer] = shed_seq
        self._c_shed.inc()
        if lineage is not None:
            lineage.note_shed(event.observer, event.t, shed_seq)
        recorder = default_recorder()
        if recorder is not None:
            recorder.record_shed(event.observer, event.t, shed_seq)
        return False

    # -- reports -------------------------------------------------------
    def subscribe(
        self,
        name: Optional[str] = None,
        depth: int = 256,
        policy: str = "drop-oldest",
    ) -> Subscription:
        """Attach a verdict consumer (see :class:`ReportBus`)."""
        return self.bus.subscribe(name, depth=depth, policy=policy)

    def _publish(
        self,
        observer: str,
        pipeline: OnlineVoiceprint,
        report: DetectionReport,
        latency_ms: float,
        ctx: Optional["TraceContext"] = None,
    ) -> None:
        self._h_latency.observe(latency_ms)
        seq = len(pipeline.reports)  # report already appended → 1-based
        with self._submit_lock:
            self._n_published += 1
        event = ReportEvent(
            observer=observer,
            seq=seq,
            report=report,
            latency_ms=latency_ms,
        )
        if ctx is None:
            self.bus.publish(event)
            return
        ctx.seq = seq
        publish_start = time.monotonic()
        # The bus stamps the subscriber_delivery stage (the fan-out
        # loop); publish is the bus overhead around it, so the two
        # stages stay disjoint.
        self.bus.publish(event, ctx=ctx)
        publish_ms = (time.monotonic() - publish_start) * 1000.0
        delivery_ms = ctx.stages.get("subscriber_delivery", 0.0)
        ctx.stages["publish"] = max(publish_ms - delivery_ms, 0.0)
        self._lineage.complete(ctx, report, latency_ms)

    # -- introspection -------------------------------------------------
    def _observer_count(self) -> int:
        return sum(len(s.pipelines) for s in self._shards)

    def observers(self) -> List[str]:
        """Every observer a pipeline exists for (sorted)."""
        return sorted(
            observer for s in self._shards for observer in s.pipelines
        )

    def confirmed(self) -> Dict[str, List[str]]:
        """Per-observer confirmed Sybil identities.

        Only meaningful when the service is quiescent (after
        :meth:`flush` or :meth:`stop`): shard workers mutate pipelines
        concurrently while running.
        """
        result: Dict[str, List[str]] = {}
        for shard in self._shards:
            for observer, pipeline in shard.pipelines.items():
                confirmed = pipeline.confirmed_sybils
                if confirmed:
                    result[observer] = sorted(confirmed)
        return result

    def stats(self) -> Dict[str, object]:
        """Operational snapshot (also what the CLI summary prints)."""
        depths = [len(s.queue) for s in self._shards]
        self._g_queue_depth.set(max(depths) if depths else 0)
        with self._submit_lock:
            ingested = self._n_ingested
            shed = self._n_shed
            published = self._n_published
        return {
            "ingested": ingested,
            "shed": shed,
            "published": published,
            "observers": self._observer_count(),
            "shards": len(self._shards),
            "queue_depths": depths,
            "processed": sum(s.processed for s in self._shards),
        }
