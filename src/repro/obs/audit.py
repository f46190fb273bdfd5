"""Decision provenance: a per-verdict audit trail for the detector.

The paper's confirmation step (Section IV-D) reduces each pair of
heard identities to one scalar-vs-threshold comparison — and discards
every piece of evidence that produced it.  Fig. 14's false positives
(legitimate vehicles stopped at a red light, RSSI traces genuinely
converged) are impossible to diagnose from a bare flag.  This module
records, for **every compared pair in every**
:meth:`~repro.core.detector.VoiceprintDetector.detect` **call**, a
structured audit bundle:

* the observer id and detection period (set by the evaluation harness
  via :func:`set_audit_context`),
* per-identity window evidence — length, SHA-256 of the raw window
  bytes, the normalisation stats (``mean`` and ``divisor`` such that
  ``(raw - mean) / divisor`` reproduces the normalised series
  bit-identically), and optionally the raw window itself (base64 of
  the float64 little-endian bytes, exact by construction),
* per-pair decision evidence — raw / min–max-normalised / judged DTW
  distance, the signed margin ``(distance - threshold) / threshold``,
  the provenance tag (``exact`` kernel run, ``incremental-carry``,
  ``early-abandon`` or ``pruned-*`` with the deciding bound), the flag,
  and the confirmation outcome,
* the detection context — density, threshold, band radius, kernel and
  normalisation configuration, ``scale_tag``.

Bundles stream into a bounded :class:`AuditLog`: a ring of the most
recent detections in memory, plus one JSON line per detection on disk
when an output path is set (``--audit-out``), claimed through the
flight-recorder ``out.N`` indexing so reruns never clobber evidence.

Because the bundle carries the exact window bytes and the exact
normalisation divisor, any recorded ``exact`` pair can be **replayed**:
:func:`replay_pair` rebuilds the normalised series, runs it through a
fresh :class:`~repro.core.pairwise.PairwiseEngine` with the recorded
configuration, and must reproduce the recorded distance bit-for-bit
(:func:`verify_bundle`, surfaced as ``repro explain --verify``).  That
replay contract is what future kernel backends and incremental-DTW
variants are diffed against.

Everything is **off by default**: :func:`default_audit_log` returns
``None`` until :func:`start_default` installs a log, and the detector's
hot path checks exactly that one ``None`` before doing any audit work —
the same zero-overhead discipline as the sampling profiler.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import threading
from collections import deque
from typing import IO, Any, Deque, Dict, Iterator, List, Optional, Tuple

import numpy as np

from .paths import indexed_path

__all__ = [
    "AuditLog",
    "DEFAULT_NEAR_MISS_EPSILON",
    "SCHEMA_VERSION",
    "decode_window",
    "default_audit_log",
    "encode_window",
    "get_audit_context",
    "get_near_miss_epsilon",
    "iter_pair_records",
    "load_audit_log",
    "make_detection_bundle",
    "normalised_window",
    "replay_pair",
    "restart_in_child",
    "set_audit_context",
    "set_near_miss_epsilon",
    "signed_margin",
    "start_default",
    "stop_default",
    "verify_bundle",
    "window_digest",
]

#: Audit-record schema version (bumped on incompatible field changes;
#: see DESIGN.md §5e for the field-by-field contract).
SCHEMA_VERSION = 1

#: Snapshot format version for cross-process merge.
SNAPSHOT_VERSION = 1

#: Default near-miss margin: a verdict whose |signed margin| falls
#: under this is "fragile" — the distance sat within 5 % of the
#: threshold, so tiny RSSI perturbations could flip it.
DEFAULT_NEAR_MISS_EPSILON = 0.05

_near_miss_epsilon = DEFAULT_NEAR_MISS_EPSILON

#: (observer id, detection period) stamped into bundles recorded next —
#: set by the evaluation harness around each detector's replay loop.
_context: Tuple[Optional[str], Optional[int]] = (None, None)


# ----------------------------------------------------------------------
# Margin + context knobs
# ----------------------------------------------------------------------
def get_near_miss_epsilon() -> float:
    """The current near-miss margin threshold ε."""
    return _near_miss_epsilon


def set_near_miss_epsilon(epsilon: float) -> float:
    """Set ε (must be positive); returns the previous value."""
    global _near_miss_epsilon
    if not (epsilon > 0.0):
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    previous = _near_miss_epsilon
    _near_miss_epsilon = float(epsilon)
    return previous


def set_audit_context(
    observer: Optional[str] = None, period: Optional[int] = None
) -> Tuple[Optional[str], Optional[int]]:
    """Stamp (observer, period) onto subsequent bundles; returns previous."""
    global _context
    previous = _context
    _context = (observer, period)
    return previous


def get_audit_context() -> Tuple[Optional[str], Optional[int]]:
    """The (observer, period) pair bundles are currently stamped with."""
    return _context


def signed_margin(distance: float, threshold: float) -> float:
    """Signed distance-to-threshold margin ``(d - T) / T``.

    Negative means flagged-side (distance under the threshold), positive
    cleared-side; magnitude is the relative slack.  A zero threshold has
    no relative scale: the margin is ±inf by sign of the distance (0.0
    for an exactly-zero distance, which the rule flags).
    """
    if threshold != 0.0:
        return (distance - threshold) / threshold
    if distance == 0.0:
        return 0.0
    return math.copysign(math.inf, distance)


# ----------------------------------------------------------------------
# Window evidence encoding
# ----------------------------------------------------------------------
def window_digest(values: np.ndarray) -> str:
    """SHA-256 hex digest of a window's float64 little-endian bytes."""
    data = np.ascontiguousarray(values, dtype="<f8").tobytes()
    return hashlib.sha256(data).hexdigest()


def encode_window(values: np.ndarray) -> str:
    """Base64 of the float64 little-endian bytes — exact, not rounded."""
    data = np.ascontiguousarray(values, dtype="<f8").tobytes()
    return base64.b64encode(data).decode("ascii")


def decode_window(text: str) -> np.ndarray:
    """Inverse of :func:`encode_window` (a fresh writable array)."""
    raw = base64.b64decode(text.encode("ascii"))
    return np.frombuffer(raw, dtype="<f8").astype(float)


# ----------------------------------------------------------------------
# Bundle construction (called from the detector hot path — keep lean)
# ----------------------------------------------------------------------
def make_detection_bundle(
    report: Any,
    config: Any,
    scale_tag: str,
    series: Dict[str, Dict[str, Any]],
    provenance: Optional[Dict[Tuple[str, str], Dict[str, Any]]],
    observer: Optional[str],
    period: Optional[int],
    store_windows: bool = True,
    correlation_id: Optional[str] = None,
) -> Dict[str, Any]:
    """One JSON-ready audit bundle for a finished detection.

    Args:
        report: The :class:`~repro.core.detector.DetectionReport`.
        config: The detector's :class:`~repro.core.detector.DetectorConfig`.
        scale_tag: Scale fingerprint of this detection's normalisation.
        series: Identity → ``{"values": raw window, "mean": float,
            "divisor": float}`` captured during normalisation.  A zero
            divisor marks the constant-series degenerate case where the
            normalised window is all zeros (z-score σ-floor).
        provenance: Per-pair provenance from the engine (None ⇒ every
            pair is recorded as an exact kernel run).
        observer: Observer id from :func:`get_audit_context`.
        period: Detection-period index from :func:`get_audit_context`.
        store_windows: Embed the raw window bytes (required for replay).
        correlation_id: The lineage trace's correlation id for this
            detection, when one is in flight — the join key shared
            with the trace ring and the flight recorder (additive
            field; the schema version is unchanged because absent ⇒
            ``None`` and no consumer requires it).
    """
    raw = report.raw_distances
    flagged = set(report.sybil_pairs)
    sybil_ids = set(report.sybil_ids)
    judged = (
        report.distances if config.threshold_on == "normalized" else raw
    )

    series_records: Dict[str, Dict[str, Any]] = {}
    for identity in report.compared_ids:
        info = series.get(identity)
        if info is None:
            continue
        values = np.asarray(info["values"], dtype=float)
        record: Dict[str, Any] = {
            "len": int(values.size),
            "sha256": window_digest(values),
            "mean": float(info["mean"]),
            "divisor": float(info["divisor"]),
        }
        if store_windows:
            record["window_b64"] = encode_window(values)
        series_records[identity] = record

    pair_records: List[Dict[str, Any]] = []
    for pair in sorted(raw):
        a, b = pair
        pair_prov = (provenance or {}).get(pair) or {"tag": "exact"}
        pair_records.append(
            {
                "a": a,
                "b": b,
                "raw_distance": float(raw[pair]),
                "normalized_distance": (
                    float(report.distances[pair])
                    if pair in report.distances
                    else None
                ),
                "judged_distance": (
                    float(judged[pair]) if pair in judged else None
                ),
                "margin": report.margins.get(pair),
                "provenance": pair_prov["tag"],
                "bound": pair_prov.get("bound"),
                "flagged": pair in flagged,
                "confirmed_ids": [i for i in pair if i in sybil_ids],
            }
        )

    return {
        "type": "detection",
        "schema": SCHEMA_VERSION,
        "observer": observer,
        "period": period,
        "correlation_id": correlation_id,
        "timestamp": float(report.timestamp),
        "density": float(report.density),
        "threshold": float(report.threshold),
        "threshold_on": config.threshold_on,
        "scale_mode": config.scale_mode,
        "scale_tag": scale_tag,
        "sigma_multiplier": float(config.sigma_multiplier),
        "band_radius": config.band_radius_samples,
        "use_exact_dtw": bool(config.use_exact_dtw),
        "fastdtw_radius": config.fastdtw_radius,
        "normalize_by_path_length": bool(config.normalize_by_path_length),
        "compared": list(report.compared_ids),
        "skipped": list(report.skipped_ids),
        "sybil_ids": sorted(sybil_ids),
        "series": series_records,
        "pairs": pair_records,
    }


# ----------------------------------------------------------------------
# The audit log (ring + JSONL stream)
# ----------------------------------------------------------------------
class AuditLog:
    """Bounded store of detection audit bundles.

    Keeps the most recent ``capacity`` bundles in a ring (post-mortem
    inspection without a disk sink, flight-recorder style) and, when
    ``out`` is set, additionally streams **every** bundle as one JSON
    line to disk — the file is claimed lazily on first write through
    :func:`~repro.obs.paths.indexed_path`, so repeated runs write
    ``audit.jsonl``, ``audit.jsonl.1``, ... instead of clobbering.

    Args:
        out: JSONL destination path, or None for in-memory only.
        capacity: Ring size in detections (not pairs).
        store_windows: Embed raw window bytes in bundles — required for
            ``repro explain --verify`` replay, so on by default; turn
            off to shrink logs when only margins/provenance matter.
    """

    def __init__(
        self,
        out: Optional[str] = None,
        capacity: int = 256,
        store_windows: bool = True,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.out = out
        self.capacity = int(capacity)
        self.store_windows = bool(store_windows)
        self._lock = threading.Lock()
        self._bundles: Deque[Dict[str, Any]] = deque(maxlen=self.capacity)
        self._handle: Optional[IO[str]] = None
        self._path: Optional[str] = None
        self.detections = 0
        self.pairs_recorded = 0

    @property
    def path(self) -> Optional[str]:
        """The resolved on-disk path once the stream has opened."""
        return self._path

    @property
    def bundles(self) -> List[Dict[str, Any]]:
        """The ring's current contents, oldest first."""
        with self._lock:
            return list(self._bundles)

    def record_detection(self, bundle: Dict[str, Any]) -> None:
        """Append one bundle to the ring (and the stream, if any)."""
        with self._lock:
            self._bundles.append(bundle)
            self.detections += 1
            self.pairs_recorded += len(bundle.get("pairs", ()))
            if self.out is not None:
                if self._handle is None:
                    self._path = indexed_path(self.out)
                    self._handle = open(self._path, "w", encoding="utf-8")
                self._handle.write(json.dumps(bundle, separators=(",", ":")) + "\n")
                self._handle.flush()

    def dump(self, out: str) -> str:
        """Write the ring's bundles to a fresh indexed path; returns it."""
        path = indexed_path(out)
        with self._lock:
            bundles = list(self._bundles)
        with open(path, "w", encoding="utf-8") as handle:
            for bundle in bundles:
                handle.write(json.dumps(bundle, separators=(",", ":")) + "\n")
        return path

    # -- cross-process folding (same shape as MetricsRegistry) ---------
    def snapshot(self) -> Dict[str, Any]:
        """Serializable copy of this log's state for a parent to merge."""
        with self._lock:
            return {
                "version": SNAPSHOT_VERSION,
                "detections": self.detections,
                "pairs_recorded": self.pairs_recorded,
                "bundles": list(self._bundles),
            }

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold a worker's snapshot in: every bundle is re-recorded here
        (so a parent with a disk sink persists workers' evidence), and
        the counters track totals across the whole process tree."""
        version = snapshot.get("version")
        if version != SNAPSHOT_VERSION:
            raise ValueError(
                f"cannot merge audit snapshot version {version!r}"
            )
        dropped = snapshot["detections"] - len(snapshot["bundles"])
        for bundle in snapshot["bundles"]:
            self.record_detection(bundle)
        if dropped > 0:
            # Ring-evicted in the worker before shipping: count them so
            # totals stay honest even though the evidence is gone.
            with self._lock:
                self.detections += dropped

    def close(self) -> None:
        """Close the stream (the ring stays readable)."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


# ----------------------------------------------------------------------
# Process-global lifecycle (mirrors the sampling profiler's)
# ----------------------------------------------------------------------
_DEFAULT: Optional[AuditLog] = None


def default_audit_log() -> Optional[AuditLog]:
    """The process-global audit log, or None while auditing is off."""
    return _DEFAULT


def start_default(
    out: Optional[str] = None,
    capacity: int = 256,
    store_windows: bool = True,
) -> AuditLog:
    """Install (or return the already-installed) process-global log."""
    global _DEFAULT
    if _DEFAULT is not None:
        return _DEFAULT
    _DEFAULT = AuditLog(
        out=out, capacity=capacity, store_windows=store_windows
    )
    return _DEFAULT


def stop_default() -> Optional[AuditLog]:
    """Uninstall and close the global log; returns it for inspection."""
    global _DEFAULT
    log = _DEFAULT
    _DEFAULT = None
    if log is not None:
        log.close()
    return log


def restart_in_child() -> Optional[AuditLog]:
    """Replace an inherited global log with a fresh in-memory shard.

    After a fork the child shares the parent's stream file descriptor;
    concurrent writes would interleave.  The child therefore records
    into a ring-only shard with the parent's settings and ships a
    :meth:`~AuditLog.snapshot` home, which the parent folds into its
    own (possibly disk-backed) log — the same discipline as the
    profiler and metrics registry.  No-op (returns None) when the
    parent was not auditing.
    """
    global _DEFAULT
    inherited = _DEFAULT
    if inherited is None:
        return None
    _DEFAULT = AuditLog(
        out=None,
        capacity=inherited.capacity,
        store_windows=inherited.store_windows,
    )
    return _DEFAULT


# ----------------------------------------------------------------------
# Reading + replay verification (the `repro explain` substrate)
# ----------------------------------------------------------------------
def load_audit_log(path: str) -> List[Dict[str, Any]]:
    """Parse an audit JSONL file into its detection bundles.

    Raises:
        ValueError: On a malformed line or when no detection records
            are present.
    """
    bundles: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{path}:{number}: malformed audit line: {error}"
                ) from error
            if record.get("type") == "detection":
                bundles.append(record)
    if not bundles:
        raise ValueError(f"no detection records in {path}")
    return bundles


def iter_pair_records(
    bundles: List[Dict[str, Any]],
) -> Iterator[Tuple[Dict[str, Any], Dict[str, Any]]]:
    """Yield ``(bundle, pair record)`` across bundles in log order."""
    for bundle in bundles:
        for record in bundle.get("pairs", ()):
            yield bundle, record


def normalised_window(bundle: Dict[str, Any], identity: str) -> np.ndarray:
    """Rebuild one identity's normalised window from its evidence.

    Applies ``(raw - mean) / divisor`` — bit-identical to what the
    detector computed, for both z-score and shared-median scaling (a
    zero divisor is the constant-series case: all-zeros by definition).

    Raises:
        ValueError: When the bundle lacks window bytes, the length
            disagrees, or the bytes fail their recorded SHA-256.
    """
    record = bundle["series"].get(identity)
    if record is None:
        raise ValueError(f"no series evidence for {identity!r}")
    if "window_b64" not in record:
        raise ValueError(
            f"bundle recorded without window bytes for {identity!r} "
            "(store_windows was off); replay is impossible"
        )
    values = decode_window(record["window_b64"])
    if values.size != record["len"]:
        raise ValueError(
            f"window for {identity!r} has {values.size} samples, "
            f"recorded len is {record['len']}"
        )
    if window_digest(values) != record["sha256"]:
        raise ValueError(f"window bytes for {identity!r} fail their SHA-256")
    divisor = record["divisor"]
    if divisor == 0.0:
        return np.zeros_like(values)
    return (values - record["mean"]) / divisor


def _replay_engine(bundle: Dict[str, Any]) -> Any:
    """A fresh engine configured exactly as the recorded detection.

    Imported lazily: ``repro.core`` depends on ``repro.obs``, so the
    reverse import must not happen at module load.
    """
    from ..core.pairwise import PairwiseEngine

    from .metrics import MetricsRegistry

    return PairwiseEngine(
        band_radius=bundle["band_radius"],
        use_exact_dtw=bundle["use_exact_dtw"],
        fastdtw_radius=bundle["fastdtw_radius"],
        normalize_by_path_length=bundle["normalize_by_path_length"],
        registry=MetricsRegistry(),
    )


def replay_pair(bundle: Dict[str, Any], a: str, b: str) -> float:
    """Re-run one recorded pair through :mod:`repro.core.pairwise`.

    Returns the raw (pre-min–max) distance a fresh engine computes from
    the bundle's window evidence — the value the bit-replay contract
    compares against ``raw_distance``.
    """
    arrays = {
        a: normalised_window(bundle, a),
        b: normalised_window(bundle, b),
    }
    distances, _stats = _replay_engine(bundle).compare(arrays)
    (distance,) = distances.values()
    return float(distance)


#: Provenance tags whose recorded distance is an exact kernel result
#: and therefore carries the bit-replay obligation.  ``incremental-carry``
#: records re-report the previous period's exact distance for a window
#: that did not change, so replaying the recorded window reproduces it
#: bit for bit just like a fresh ``exact`` record.
_REPLAYABLE_PROVENANCE = ("exact", "incremental-carry")


def verify_bundle(bundle: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Replay every exact-valued pair of one bundle; one result row each.

    ``exact`` and ``incremental-carry`` records hold exact kernel
    distances and are re-run through a fresh engine.  Pairs decided
    from bounds or abandoned early are reported as skipped — their
    recorded distance is a surrogate.
    """
    results: List[Dict[str, Any]] = []
    for record in bundle.get("pairs", ()):
        pair = (record["a"], record["b"])
        if record["provenance"] not in _REPLAYABLE_PROVENANCE:
            results.append(
                {
                    "pair": pair,
                    "status": "skipped",
                    "provenance": record["provenance"],
                }
            )
            continue
        recorded = float(record["raw_distance"])
        replayed = replay_pair(bundle, *pair)
        results.append(
            {
                "pair": pair,
                "status": "ok" if replayed == recorded else "MISMATCH",
                "provenance": record["provenance"],
                "recorded": recorded,
                "replayed": replayed,
            }
        )
    return results
