"""Per-layer tracing from outside the program under test.

Nothing in ``src/`` is edited.  :class:`LayerTracer` swaps a timing
wrapper in for each public entry point named in :func:`install_layers`
for the duration of one traced run and puts the originals back
afterwards.  Each wrapper is one span: it adds its duration to its layer's
busy time and to its parent span's child time, so a layer's *self* time
is its busy time minus the part its child spans cover.  Spans nest per
thread, so the serve workload's producer and shard threads keep separate
stacks.

Aggregates are kept per thread while the run is live (no span list: the
serve workload makes millions of calls) and merged by
:meth:`LayerTracer.layer_table`.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


class _ThreadStats:
    """Span stack and per-layer ``[count, busy_s, self_s]`` of one thread."""

    def __init__(self) -> None:
        self.stack: List[float] = []
        self.layers: Dict[str, List[float]] = {}
        self.top_s = 0.0
        self.ident = threading.get_ident()


class _Local(threading.local):
    """Gives each thread its own :class:`_ThreadStats`, registered for merging."""

    def __init__(self, registry: List[_ThreadStats], lock: threading.Lock) -> None:
        self.stats = _ThreadStats()
        with lock:
            registry.append(self.stats)


class LayerTracer:
    """Span recorder built from wrapped entry points."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._threads: List[_ThreadStats] = []
        self._local = _Local(self._threads, self._lock)
        self._patches: List[Tuple[object, str, object]] = []
        #: Work counts recorded by after-call hooks (pairs, DTW cells...).
        self.counts: Dict[str, float] = defaultdict(float)
        #: Sampled distributions recorded by after-call hooks.
        self.samples: Dict[str, List[float]] = defaultdict(list)

    # -- patching -------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        layer: str,
        after: Optional[Callable[[tuple, object], None]] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as one ``layer`` span.

        ``after(args, result)`` runs after the span's clock has stopped,
        so the bookkeeping it does is not billed to ``layer``.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        local = self._local
        clock = time.perf_counter

        def traced(*args, **kwargs):
            start = clock()
            stats = local.stats
            stack = stats.stack
            stack.append(0.0)
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                entry = stats.layers.get(layer)
                if entry is None:
                    entry = stats.layers[layer] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - child
            if after is not None:
                after(args, result)
            # The enclosing span (or the thread's covered time) also takes
            # this span's bookkeeping, so tracer overhead does not read as
            # time no layer accounts for.
            if stack:
                stack[-1] += clock() - start
            else:
                stats.top_s += clock() - start
            return result

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # -- results --------------------------------------------------------
    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """``layer → {calls, busy_s, self_s}`` merged over threads."""
        merged: Dict[str, List[float]] = {}
        with self._lock:
            threads = list(self._threads)
        for stats in threads:
            for layer, (count, busy, self_s) in stats.layers.items():
                entry = merged.setdefault(layer, [0, 0.0, 0.0])
                entry[0] += count
                entry[1] += busy
                entry[2] += self_s
        return {
            layer: {"calls": int(c), "busy_s": b, "self_s": s}
            for layer, (c, b, s) in sorted(merged.items())
        }

    def top_level_s(self, main: bool) -> float:
        """Busy time of outermost spans on the main thread, or on all others."""
        main_ident = threading.main_thread().ident
        with self._lock:
            threads = list(self._threads)
        return sum(
            stats.top_s for stats in threads if (stats.ident == main_ident) == main
        )


def layer_metrics(tracer: LayerTracer) -> Dict[str, float]:
    """The per-layer metrics every workload derives the same way.

    Layers a workload does not exercise read 0.
    """
    from measure import percentile

    table = tracer.layer_table()

    def busy(layer: str) -> float:
        return table.get(layer, {}).get("busy_s", 0.0)

    def calls(layer: str) -> int:
        return table.get(layer, {}).get("calls", 0)

    counts = tracer.counts
    pairs = counts["pairwise.pairs"]
    compare_s = busy("pairwise.compare") + busy("pairwise.compare_incremental")
    waits = tracer.samples["serve.queue_wait_ms"]
    return {
        "sim.self_s": table.get("sim.run", {}).get("self_s", 0.0),
        "sim.beacon_requests_s": busy("sim.beacon_requests"),
        "net.mac_s": busy("net.mac"),
        "net.channel_s": busy("net.channel"),
        "radio.rssi_matrix_s": busy("radio.rssi_matrix"),
        "radio.noise_s": busy("radio.noise"),
        "eval.density_s": busy("eval.density"),
        "eval.cpvsad_s": busy("eval.cpvsad"),
        "detector.detect_s": busy("detector.detect"),
        "detector.normalise_s": busy("detector.normalise"),
        "detector.detections": float(calls("detector.detect")),
        "pairwise.compare_s": busy("pairwise.compare"),
        "pairwise.compare_incremental_s": busy("pairwise.compare_incremental"),
        "pairwise.pairs": pairs,
        "pairwise.dtw_cells": counts["pairwise.dtw_cells"],
        "pairwise.cells_per_s": (
            counts["pairwise.dtw_cells"] / compare_s if compare_s > 0 else 0.0
        ),
        "pairwise.decided_without_dtw_ratio": (
            (pairs - counts["pairwise.full_dtw"]) / pairs if pairs else 0.0
        ),
        # Every serve-side detection runs inside on_beacon, so the
        # pipeline's own ingest work is on_beacon minus detect.
        "pipeline.ingest_s": (
            busy("pipeline.on_beacon") - busy("detector.detect")
            if calls("pipeline.on_beacon")
            else 0.0
        ),
        "serve.submit_s": busy("serve.submit"),
        "serve.publish_s": busy("serve.publish"),
        "serve.queue_wait_p50_ms": percentile(waits, 50.0),
        "serve.queue_wait_p99_ms": percentile(waits, 99.0),
    }


def _count_pairs(tracer: LayerTracer, engine, arrays, stats) -> None:
    """Pair, full-DTW and band-cell counts of one engine call."""
    from repro.core.pairwise import band_cells

    tracer.counts["pairwise.pairs"] += stats.pairs
    tracer.counts["pairwise.full_dtw"] += stats.exact
    radius = engine.band_radius
    if radius is None:
        return
    sizes = [arrays[identity].size for identity in sorted(arrays)]
    cells = 0
    for index, n in enumerate(sizes):
        for m in sizes[index + 1 :]:
            cells += band_cells(n, m, radius)
    tracer.counts["pairwise.dtw_cells"] += cells


def install_layers(tracer: LayerTracer) -> None:
    """Wrap the public entry point of every layer the benchmark reports.

    Layers are named after the modules that own them.
    ``VoiceprintDetector._normalise`` is the one private method wrapped:
    it is the body of the detector's ``normalise`` phase and has no
    public entry point of its own.
    """
    from repro.core.density import DensityEstimator
    from repro.core.detector import VoiceprintDetector
    from repro.core.pairwise import PairwiseEngine
    from repro.core.pipeline import OnlineVoiceprint
    from repro.eval import runner
    from repro.net.channel import VANETChannel
    from repro.net.mac import CellularCsmaMac
    from repro.radio.noise import SpatialNoiseField
    from repro.serve.qos import BoundedQueue, ReportBus
    from repro.serve.service import DetectionService
    from repro.sim.nodes import Vehicle
    from repro.sim.simulator import HighwaySimulator

    def after_compare(args, result):
        _count_pairs(tracer, args[0], args[1], result[1])

    def after_incremental(args, result):
        _count_pairs(tracer, args[0], args[1], result[2])

    def after_get(args, result):
        # Queue items carry the monotonic stamp ``submit`` took.
        if result is not None:
            tracer.samples["serve.queue_wait_ms"].append(
                (time.monotonic() - result[1]) * 1000.0
            )

    wraps = [
        (HighwaySimulator, "run", "sim.run", None),
        (Vehicle, "beacon_requests", "sim.beacon_requests", None),
        (CellularCsmaMac, "schedule_interval", "net.mac", None),
        (VANETChannel, "deliver", "net.channel", None),
        (VANETChannel, "rssi_matrix", "radio.rssi_matrix", None),
        (SpatialNoiseField, "unit_shadowing_matrix", "radio.noise", None),
        (SpatialNoiseField, "unit_shadowing_pairs", "radio.noise", None),
        (runner, "run_voiceprint", "eval.voiceprint", None),
        (runner, "run_cpvsad", "eval.cpvsad", None),
        (runner, "heard_in_window", "eval.density", None),
        (DensityEstimator, "hear_all", "eval.density", None),
        (DensityEstimator, "estimate", "eval.density", None),
        (VoiceprintDetector, "detect", "detector.detect", None),
        (VoiceprintDetector, "_normalise", "detector.normalise", None),
        (PairwiseEngine, "compare", "pairwise.compare", after_compare),
        (
            PairwiseEngine,
            "compare_incremental",
            "pairwise.compare_incremental",
            after_incremental,
        ),
        (OnlineVoiceprint, "on_beacon", "pipeline.on_beacon", None),
        (DetectionService, "submit", "serve.submit", None),
        (BoundedQueue, "get", "serve.queue_get", after_get),
        (ReportBus, "publish", "serve.publish", None),
    ]
    for owner, attr, layer, after in wraps:
        tracer.wrap(owner, attr, layer, after)
