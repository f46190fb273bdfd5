"""Parallel sharded evaluation: fan replay and experiment grids across
a process pool.

The paper's sweep experiments (Fig. 11's density grid, Fig. 13's four
drives) replay every verifier through the full collection → comparison
→ confirmation pipeline.  The pairwise engine made the per-pair hot
path fast; what dominates a scenario sweep now is the strictly serial
single-process replay loop.  This module supplies the missing execution
layer:

* :func:`run_tasks` — the core executor: a bounded pool of **one
  process per task** (clean terminate semantics for timeouts), with a
  per-task deadline, bounded retry on worker death or timeout, and
  graceful degradation to in-parent serial execution when a task keeps
  failing.  Tasks are :class:`TaskSpec` records whose ``fn`` must be a
  module-level (picklable) callable.
* **Sharded replay** — :func:`run_voiceprint_parallel` /
  :func:`run_cpvsad_parallel` / :func:`run_xiao_parallel` split the
  verifier list into contiguous chunks, replay each chunk in a worker
  via the ordinary serial runner, and concatenate the results in shard
  order.  Because each verifier's replay is independent (its own
  detector and density estimator), the concatenated
  :class:`~repro.eval.metrics.PeriodOutcome` list is **identical** to
  the serial path's for the same inputs — parallelism changes
  wall-clock, never results.
* **Grid fan-out** — experiment drivers submit whole
  (scenario × seed × config) grids as task lists;
  :func:`derive_seed` gives each cell a seed that depends only on its
  key, never on execution order or worker count.
* :class:`Checkpoint` — a JSONL journal of completed cells keyed by
  task key, so an interrupted sweep resumes (``--resume``) from where
  it stopped instead of recomputing finished cells.

Observability under multiprocessing: the ``repro.obs`` registry and
health monitor are per-process, so each worker resets its (inherited or
fresh) default registry, records into it, and ships a
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot` back with its
result; the parent folds that into its own registry with
:meth:`~repro.obs.metrics.MetricsRegistry.merge`.  Spans are captured
in-memory in the worker and re-exported through the parent's tracer,
and a profiling run restarts the sampler in each forked worker and
merges the per-worker profile snapshots the same way.  An armed audit
log likewise restarts as a fresh in-memory shard per worker whose
snapshot the parent folds back in (re-recording the bundles, so a
parent ``--audit-out`` stream persists worker evidence).  ``/metrics``,
flight-recorder dumps, profiles, audit logs, and the bench gate
therefore keep working unchanged whether a sweep ran serially or on
eight workers.
"""

from __future__ import annotations

import base64
import hashlib
import json
import multiprocessing
import os
import pickle
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..obs.audit import default_audit_log
from ..obs.audit import restart_in_child as _audit_restart_in_child
from ..obs.lineage import (
    default_lineage,
    restart_in_child as _lineage_restart_in_child,
)
from ..obs.logging import get_logger
from ..obs.metrics import MetricsRegistry, default_registry
from ..obs.profiling import default_profiler, restart_in_child
from ..obs.trace import InMemorySpanExporter, default_tracer

__all__ = [
    "TaskSpec",
    "TaskError",
    "Checkpoint",
    "ParallelDefaults",
    "set_parallel_defaults",
    "get_parallel_defaults",
    "resolve_workers",
    "resolve_task_timeout",
    "derive_seed",
    "run_tasks",
    "run_voiceprint_parallel",
    "run_cpvsad_parallel",
    "run_xiao_parallel",
]

_log = get_logger("eval.parallel")

#: Environment variable consulted when neither the call nor the process
#: defaults specify a worker count (used by CI to exercise the parallel
#: path across the whole eval suite).
WORKERS_ENV = "REPRO_EVAL_WORKERS"

#: Environment variable overriding the multiprocessing start method
#: (default: ``fork`` where available, else ``spawn``).
START_METHOD_ENV = "REPRO_MP_START"


# ---------------------------------------------------------------------------
# Process-wide defaults (the CLI's --workers / --task-timeout)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ParallelDefaults:
    """Process-wide parallelism defaults.

    Attributes:
        workers: Worker-pool width every eval entry point inherits when
            its caller does not pass one; None falls through to the
            ``REPRO_EVAL_WORKERS`` environment variable, then serial.
        task_timeout: Per-task wall-clock budget in seconds; None
            disables deadlines.
        retries: Attempts *after* the first before a failing task
            degrades to in-parent serial execution.
    """

    workers: Optional[int] = None
    task_timeout: Optional[float] = None
    retries: int = 1


_DEFAULTS = ParallelDefaults()
_UNSET = object()


def set_parallel_defaults(
    workers: object = _UNSET,
    task_timeout: object = _UNSET,
    retries: object = _UNSET,
) -> ParallelDefaults:
    """Update the process-wide defaults; returns the previous values.

    The CLI sets these once from ``--workers`` / ``--task-timeout``
    and restores the previous values on exit, so library users see no
    global drift.
    Arguments left unset keep their current value.
    """
    global _DEFAULTS
    previous = _DEFAULTS
    _DEFAULTS = ParallelDefaults(
        workers=previous.workers if workers is _UNSET else workers,  # type: ignore[arg-type]
        task_timeout=(
            previous.task_timeout if task_timeout is _UNSET else task_timeout  # type: ignore[arg-type]
        ),
        retries=previous.retries if retries is _UNSET else retries,  # type: ignore[arg-type]
    )
    return previous


def get_parallel_defaults() -> ParallelDefaults:
    """The current process-wide parallelism defaults."""
    return _DEFAULTS


def resolve_workers(workers: Optional[int] = None) -> int:
    """Effective worker count: explicit > process default > env > 1."""
    if workers is None:
        workers = _DEFAULTS.workers
    if workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        if env:
            try:
                workers = int(env)
            except ValueError:
                _log.warning(
                    "ignoring bad %s value", WORKERS_ENV, extra={"value": env}
                )
    return max(1, int(workers)) if workers is not None else 1


def resolve_task_timeout(task_timeout: Optional[float] = None) -> Optional[float]:
    """Effective per-task deadline: explicit > process default > None."""
    if task_timeout is None:
        task_timeout = _DEFAULTS.task_timeout
    if task_timeout is not None and task_timeout <= 0:
        raise ValueError(f"task timeout must be positive, got {task_timeout}")
    return task_timeout


def derive_seed(base_seed: int, *parts: object) -> int:
    """A deterministic 63-bit seed for one grid cell.

    Hashes ``(base_seed, *parts)`` with SHA-256, so a cell's seed
    depends only on its identity (scenario key, repetition index, …) —
    never on submission order, worker count, or which cells a resumed
    sweep still has to run.
    """
    material = repr((int(base_seed),) + tuple(str(p) for p in parts))
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


# ---------------------------------------------------------------------------
# Task plumbing
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TaskSpec:
    """One unit of work for :func:`run_tasks`.

    Attributes:
        key: Unique, stable identifier — the checkpoint/resume key and
            the index into the result mapping.
        fn: A **module-level** callable (workers unpickle it by
            reference; lambdas and closures will not survive the trip).
        args: Positional arguments.
        kwargs: Keyword arguments.
    """

    key: str
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Mapping[str, Any] = field(default_factory=dict)


class TaskError(RuntimeError):
    """A task raised inside a worker; carries the remote traceback."""

    def __init__(self, key: str, remote_traceback: str) -> None:
        super().__init__(
            f"task {key!r} raised in worker:\n{remote_traceback}"
        )
        self.key = key
        self.remote_traceback = remote_traceback


class Checkpoint:
    """JSONL journal of completed grid cells, for ``--resume``.

    The first line is a header identifying the file and, optionally,
    the grid it belongs to; every further line records one completed
    task as ``{"key": ..., "value": <base64 pickle>}``.  Lines are
    appended and flushed as cells complete, so an interrupted sweep
    loses at most the in-flight cells.  Reopening with the same path
    (and a matching grid signature) skips every journaled cell.

    Args:
        path: Journal location; created (with its header) if missing.
        grid: Optional JSON-serialisable signature of the sweep
            (densities, seeds, scale knobs).  A resume against a file
            recorded for a *different* grid raises instead of silently
            mixing incompatible cells.
    """

    MAGIC = "repro-eval-checkpoint"
    VERSION = 1

    def __init__(
        self, path: Union[str, Path], grid: Optional[Dict[str, Any]] = None
    ) -> None:
        self.path = Path(path)
        self._results: Dict[str, Any] = {}
        if self.path.exists() and self.path.stat().st_size > 0:
            self._load(grid)
        else:
            header = {"kind": self.MAGIC, "version": self.VERSION}
            if grid is not None:
                header["grid"] = grid
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(header) + "\n")

    def _load(self, grid: Optional[Dict[str, Any]]) -> None:
        with open(self.path, "r", encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
        if not lines:
            raise ValueError(f"empty checkpoint file {self.path}")
        header = json.loads(lines[0])
        if header.get("kind") != self.MAGIC:
            raise ValueError(f"{self.path} is not a repro eval checkpoint")
        if header.get("version") != self.VERSION:
            raise ValueError(
                f"unsupported checkpoint version {header.get('version')!r}"
            )
        recorded_grid = header.get("grid")
        if grid is not None and recorded_grid is not None and recorded_grid != grid:
            raise ValueError(
                f"checkpoint {self.path} was recorded for a different grid "
                f"({recorded_grid!r} != {grid!r}); refusing to resume"
            )
        for line in lines[1:]:
            record = json.loads(line)
            self._results[record["key"]] = pickle.loads(
                base64.b64decode(record["value"])
            )

    def __contains__(self, key: str) -> bool:
        return key in self._results

    def __len__(self) -> int:
        return len(self._results)

    def get(self, key: str) -> Any:
        """The journaled result for ``key`` (KeyError when absent)."""
        return self._results[key]

    @property
    def completed(self) -> List[str]:
        """Keys of every journaled cell."""
        return sorted(self._results)

    def record(self, key: str, value: Any) -> None:
        """Append one completed cell and flush it to disk."""
        encoded = base64.b64encode(pickle.dumps(value)).decode("ascii")
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"key": key, "value": encoded}) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        self._results[key] = value


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------
def _worker_entry(conn, fn, args, kwargs) -> None:
    """Run one task in a child process and ship back the result.

    The child's default registry may be a forked copy of the parent's
    (instruments and values included), so it is reset before the task
    runs — the snapshot sent home contains *only* this task's activity.
    Span export is redirected to an in-memory buffer: after a fork the
    parent's JSONL exporter shares a file descriptor with the parent,
    and concurrent writes would interleave.  When the parent was
    profiling, the child resumes sampling itself
    (:func:`~repro.obs.profiling.restart_in_child` — fork does not
    carry threads across) and ships its profile snapshot home alongside
    the metrics, so a sweep's profile covers every worker.
    """
    registry = default_registry()
    registry.reset()
    registry.enable()
    tracer = default_tracer()
    span_buffer: Optional[InMemorySpanExporter] = None
    if tracer.enabled:
        span_buffer = InMemorySpanExporter()
        tracer.exporter = span_buffer
    profiler = restart_in_child()
    # Same shared-fd hazard as spans: a forked AuditLog would write to
    # the parent's stream, so the child audits into a fresh in-memory
    # shard and ships a snapshot home for the parent to merge.
    audit_log = _audit_restart_in_child()
    # A forked lineage ring is likewise the parent's state in spirit;
    # the child traces into a fresh ring and ships a snapshot home.
    lineage = _lineage_restart_in_child()
    try:
        value = fn(*args, **kwargs)
        status: Tuple[str, Any] = ("ok", value)
    except BaseException:
        status = ("error", traceback.format_exc())
    if profiler is not None:
        profiler.stop()
    payload = (
        status[0],
        status[1],
        registry.snapshot(),
        span_buffer.records if span_buffer is not None else [],
        profiler.snapshot() if profiler is not None else None,
        audit_log.snapshot() if audit_log is not None else None,
        lineage.snapshot() if lineage is not None else None,
    )
    try:
        conn.send(payload)
    finally:
        conn.close()


def _mp_context():
    """The multiprocessing context tasks run under.

    ``fork`` where the platform offers it (fast start, no re-import of
    numpy/scipy per task), ``spawn`` otherwise; overridable with
    ``REPRO_MP_START`` for debugging either path.  Results never depend
    on the start method — tasks are self-contained by construction.
    """
    method = os.environ.get(START_METHOD_ENV, "").strip()
    if method:
        return multiprocessing.get_context(method)
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------
@dataclass
class _Running:
    spec: TaskSpec
    attempt: int
    process: Any
    conn: Any
    started: float
    deadline: Optional[float]


def _reexport_spans(records: Sequence[Dict[str, Any]]) -> None:
    """Feed worker-collected span records through the parent's tracer."""
    if not records:
        return
    tracer = default_tracer()
    if not tracer.enabled or tracer.exporter is None:
        return
    for record in records:
        tracer.exporter.export(record)


def run_tasks(
    tasks: Sequence[TaskSpec],
    workers: Optional[int] = None,
    task_timeout: Optional[float] = None,
    retries: Optional[int] = None,
    checkpoint: Optional[Checkpoint] = None,
    registry: Optional[MetricsRegistry] = None,
) -> Dict[str, Any]:
    """Execute a task grid; returns ``{task.key: result}`` for all tasks.

    Serial when the effective worker count is 1 (or there is only one
    task to run) — the tasks then run in-process, in submission order,
    recording metrics directly.  Parallel otherwise: up to ``workers``
    single-task processes run concurrently; each completed worker's
    metric/span snapshot is merged into ``registry`` (default: the
    process-global one), so instrumentation is identical either way.

    Failure policy, per task: a worker that dies (any non-zero exit,
    including SIGKILL) or overruns ``task_timeout`` is retried up to
    ``retries`` times in a fresh process; after that the task degrades
    to in-parent serial execution — a deliberate "slow is better than
    absent" choice for long sweeps.  A task that raises a Python
    exception is *not* retried (it would fail identically) —
    :class:`TaskError` carries the worker traceback to the caller.

    Args:
        tasks: The grid; keys must be unique.
        workers: Pool width (default: process defaults, then
            ``REPRO_EVAL_WORKERS``, then serial).
        task_timeout: Per-attempt deadline in seconds (None: no limit).
        retries: Extra attempts before serial fallback (default from
            process defaults, normally 1).
        checkpoint: Optional resume journal; journaled keys are
            returned without re-running, fresh completions are appended.
        registry: Metrics destination (default: process-global).
    """
    keys = [t.key for t in tasks]
    if len(set(keys)) != len(keys):
        raise ValueError("task keys must be unique")
    target = registry if registry is not None else default_registry()
    n_workers = resolve_workers(workers)
    timeout = resolve_task_timeout(task_timeout)
    n_retries = _DEFAULTS.retries if retries is None else int(retries)
    if n_retries < 0:
        raise ValueError(f"retries must be >= 0, got {n_retries}")

    c_done = target.counter("parallel.tasks_completed")
    c_resumed = target.counter("parallel.tasks_resumed")
    c_retries = target.counter("parallel.task_retries")
    c_fallbacks = target.counter("parallel.serial_fallbacks")
    h_task_ms = target.histogram("parallel.task_ms")

    results: Dict[str, Any] = {}
    todo: List[TaskSpec] = []
    for spec in tasks:
        if checkpoint is not None and spec.key in checkpoint:
            results[spec.key] = checkpoint.get(spec.key)
            c_resumed.inc()
        else:
            todo.append(spec)
    if checkpoint is not None and len(results):
        _log.info(
            "resuming sweep from checkpoint",
            extra={
                "path": str(checkpoint.path),
                "resumed": len(results),
                "remaining": len(todo),
            },
        )

    def run_in_parent(spec: TaskSpec) -> None:
        start = time.perf_counter()
        value = spec.fn(*spec.args, **dict(spec.kwargs))
        h_task_ms.observe((time.perf_counter() - start) * 1000.0)
        results[spec.key] = value
        c_done.inc()
        if checkpoint is not None:
            checkpoint.record(spec.key, value)

    if n_workers <= 1 or len(todo) <= 1:
        for spec in todo:
            run_in_parent(spec)
        return results

    ctx = _mp_context()
    pending: deque = deque((spec, 0) for spec in todo)
    running: Dict[str, _Running] = {}
    fallback: List[TaskSpec] = []

    def fail(entry: _Running, reason: str) -> None:
        if entry.attempt < n_retries:
            c_retries.inc()
            _log.warning(
                "task failed; retrying",
                extra={
                    "key": entry.spec.key,
                    "reason": reason,
                    "attempt": entry.attempt + 1,
                },
            )
            pending.append((entry.spec, entry.attempt + 1))
        else:
            c_fallbacks.inc()
            _log.warning(
                "task exhausted retries; degrading to serial",
                extra={"key": entry.spec.key, "reason": reason},
            )
            fallback.append(entry.spec)

    def reap(entry: _Running) -> None:
        """Terminate one in-flight worker and release its resources."""
        entry.process.terminate()
        entry.process.join(5.0)
        if entry.process.is_alive():  # pragma: no cover - last resort
            entry.process.kill()
            entry.process.join()
        entry.conn.close()

    try:
        while pending or running:
            while pending and len(running) < n_workers:
                spec, attempt = pending.popleft()
                recv_conn, send_conn = ctx.Pipe(duplex=False)
                process = ctx.Process(
                    target=_worker_entry,
                    args=(send_conn, spec.fn, spec.args, dict(spec.kwargs)),
                    daemon=True,
                )
                process.start()
                send_conn.close()
                now = time.monotonic()
                running[spec.key] = _Running(
                    spec=spec,
                    attempt=attempt,
                    process=process,
                    conn=recv_conn,
                    started=now,
                    deadline=now + timeout if timeout is not None else None,
                )
            deadlines = [
                r.deadline for r in running.values() if r.deadline is not None
            ]
            wait_timeout = (
                max(0.0, min(deadlines) - time.monotonic())
                if deadlines
                else None
            )
            ready = set(
                mp_connection.wait(
                    [r.conn for r in running.values()], timeout=wait_timeout
                )
            )
            now = time.monotonic()
            for entry in list(running.values()):
                if entry.conn in ready:
                    del running[entry.spec.key]
                    message = None
                    try:
                        message = entry.conn.recv()
                    except (EOFError, OSError):
                        pass  # worker died before/while sending
                    entry.conn.close()
                    entry.process.join()
                    if message is None:
                        fail(entry, "worker process died")
                        continue
                    (
                        status,
                        payload,
                        snapshot,
                        spans,
                        profile,
                        audit_shard,
                        lineage_shard,
                    ) = message
                    target.merge(snapshot)
                    _reexport_spans(spans)
                    if profile is not None:
                        parent_profiler = default_profiler()
                        if parent_profiler is not None:
                            parent_profiler.merge(profile)
                    if audit_shard is not None:
                        parent_audit = default_audit_log()
                        if parent_audit is not None:
                            parent_audit.merge(audit_shard)
                    if lineage_shard is not None:
                        parent_lineage = default_lineage()
                        if parent_lineage is not None:
                            parent_lineage.merge(lineage_shard)
                    if status != "ok":
                        raise TaskError(entry.spec.key, payload)
                    h_task_ms.observe((now - entry.started) * 1000.0)
                    results[entry.spec.key] = payload
                    c_done.inc()
                    if checkpoint is not None:
                        checkpoint.record(entry.spec.key, payload)
                elif entry.deadline is not None and now >= entry.deadline:
                    del running[entry.spec.key]
                    reap(entry)
                    fail(entry, f"timeout after {timeout:g}s")
    finally:
        for entry in running.values():
            reap(entry)

    for spec in fallback:
        run_in_parent(spec)
    return results


# ---------------------------------------------------------------------------
# Sharded detector replay
# ---------------------------------------------------------------------------
def _chunk_preserving_order(items: Sequence[str], n_chunks: int) -> List[List[str]]:
    """Split ``items`` into at most ``n_chunks`` contiguous chunks."""
    n_chunks = max(1, min(int(n_chunks), len(items)))
    base, extra = divmod(len(items), n_chunks)
    chunks: List[List[str]] = []
    start = 0
    for index in range(n_chunks):
        size = base + (1 if index < extra else 0)
        chunks.append(list(items[start : start + size]))
        start += size
    return chunks


def _voiceprint_shard(verifiers, result, threshold, detector_config):
    from .runner import run_voiceprint

    return run_voiceprint(
        result,
        threshold,
        detector_config=detector_config,
        verifiers=verifiers,
        workers=1,
    )


def _cpvsad_shard(verifiers, result, detector, observation_time_s, max_witnesses):
    from .runner import run_cpvsad

    return run_cpvsad(
        result,
        detector,
        verifiers=verifiers,
        observation_time_s=observation_time_s,
        max_witnesses=max_witnesses,
        workers=1,
    )


def _xiao_shard(verifiers, result, detector, observation_time_s, max_witnesses):
    from .runner import run_xiao

    return run_xiao(
        result,
        detector,
        verifiers=verifiers,
        observation_time_s=observation_time_s,
        max_witnesses=max_witnesses,
        workers=1,
    )


def _replay_sharded(
    shard_fn: Callable[..., Any],
    verifiers: Sequence[str],
    workers: int,
    task_timeout: Optional[float],
    registry: Optional[MetricsRegistry],
    **common_kwargs: Any,
) -> List[Any]:
    """Shard ``verifiers`` and concatenate the results in shard order.

    Per-verifier replay is independent, so contiguous chunks
    concatenated in order reproduce the serial outcome list exactly.
    """
    chunks = _chunk_preserving_order(list(verifiers), workers)
    tasks = [
        TaskSpec(
            key=f"shard{index:04d}",
            fn=shard_fn,
            kwargs={"verifiers": chunk, **common_kwargs},
        )
        for index, chunk in enumerate(chunks)
    ]
    results = run_tasks(
        tasks,
        workers=workers,
        task_timeout=task_timeout,
        registry=registry,
    )
    outcomes: List[Any] = []
    for index in range(len(chunks)):
        outcomes.extend(results[f"shard{index:04d}"])
    return outcomes


def run_voiceprint_parallel(
    result,
    threshold,
    detector_config,
    verifiers: Sequence[str],
    workers: int,
    task_timeout: Optional[float] = None,
    registry: Optional[MetricsRegistry] = None,
):
    """Verifier-sharded :func:`repro.eval.runner.run_voiceprint`.

    Returns exactly the serial runner's outcome list (see module
    docstring); called by the runner itself when ``workers > 1``.
    """
    return _replay_sharded(
        _voiceprint_shard,
        verifiers,
        workers,
        task_timeout,
        registry,
        result=result,
        threshold=threshold,
        detector_config=detector_config,
    )


def run_cpvsad_parallel(
    result,
    detector,
    verifiers: Sequence[str],
    observation_time_s: float,
    max_witnesses: int,
    workers: int,
    task_timeout: Optional[float] = None,
    registry: Optional[MetricsRegistry] = None,
):
    """Verifier-sharded :func:`repro.eval.runner.run_cpvsad`."""
    return _replay_sharded(
        _cpvsad_shard,
        verifiers,
        workers,
        task_timeout,
        registry,
        result=result,
        detector=detector,
        observation_time_s=observation_time_s,
        max_witnesses=max_witnesses,
    )


def run_xiao_parallel(
    result,
    detector,
    verifiers: Sequence[str],
    observation_time_s: float,
    max_witnesses: int,
    workers: int,
    task_timeout: Optional[float] = None,
    registry: Optional[MetricsRegistry] = None,
):
    """Verifier-sharded :func:`repro.eval.runner.run_xiao`."""
    return _replay_sharded(
        _xiao_shard,
        verifiers,
        workers,
        task_timeout,
        registry,
        result=result,
        detector=detector,
        observation_time_s=observation_time_s,
        max_witnesses=max_witnesses,
    )
