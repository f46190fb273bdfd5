"""Command-line interface: regenerate any paper artefact from a shell.

Installed as ``voiceprint-repro`` (see ``pyproject.toml``), or run as
``python -m repro.cli``::

    voiceprint-repro list
    voiceprint-repro table1
    voiceprint-repro fig9
    voiceprint-repro fig13 --duration 300 --period 60
    voiceprint-repro fig11a --densities 10,40,80 --sim-time 60

Heavyweight experiments accept scale knobs so the CLI is usable both
for a quick look (default, minutes) and a fuller reproduction.

Observability (``repro.obs``) is wired in globally — the flags are
accepted before or after the subcommand::

    voiceprint-repro fig13 --metrics-out m.jsonl --trace-out t.jsonl
    voiceprint-repro --log-level DEBUG fig9

``--metrics-out`` enables the metrics layer, writes one JSON line per
instrument, and prints an end-of-run summary; ``--trace-out`` streams
every finished span (one detection = one root span with its phase
children) as JSONL.

Live telemetry rides the same flags block: ``--telemetry-port`` serves
Prometheus text at ``/metrics`` (plus ``/health``) while the run is in
flight, ``--snapshot-interval`` turns counters into ``rate.*`` gauges
and a snapshot JSONL stream, ``--health-thresholds`` arms the streaming
health monitor, and ``--flight-recorder-out`` keeps a bounded ring of
recent spans/logs/reports that dumps a post-mortem bundle on an alert
or an unhandled exception (see README "Telemetry & health
monitoring").

The streaming service adds causal lineage: ``serve --lineage`` (or
``--lineage-out PATH``) decomposes every beacon→verdict path into
``serve.stage.*`` histograms and tail-samples a bounded trace ring —
flagged / near-miss / slow / shed-adjacent verdicts always retained —
whose correlation ids join the audit log and flight recorder; the
``trace`` subcommand is the forensics reader (see README "Tracing &
lineage").

Profiling rides along too: ``--profile`` samples Python stacks at
``--profile-hz`` and attributes them to pipeline phases via the open
spans, printing per-phase and hotspot tables at the end and writing a
collapsed-stack file (``--profile-out``) ready for flamegraph.pl or
speedscope; ``--profile-memory`` adds per-phase tracemalloc
attribution (see README "Profiling").

The pairwise comparison engine (``repro.core.pairwise``) has no flags:
experiments run its exact path, and ``serve`` runs its incremental
path (see README "Performance").

Parallel evaluation (``repro.eval.parallel``) is configured globally:
``--workers N`` fans experiment grids and per-verifier replay out
over N processes, ``--task-timeout`` bounds each task, and ``--resume
PATH`` (sweep commands) journals completed grid cells so an
interrupted sweep restarts without recomputation (see README
"Parallel evaluation").
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence

from . import obs
from .obs.drift import SLOSpec
from .obs.health import HealthMonitor, HealthThresholds
from .eval import experiments as ex
from .eval.parallel import set_parallel_defaults
from .eval.reporting import render_table
from .sim.scenario import ScenarioConfig

__all__ = ["main", "build_parser"]


def _densities(text: str) -> List[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as error:
        raise argparse.ArgumentTypeError(f"bad density list {text!r}") from error
    if not values or any(v <= 0 for v in values):
        raise argparse.ArgumentTypeError(f"bad density list {text!r}")
    return values


def _cmd_list(args: argparse.Namespace) -> str:
    rows = [
        ("table1", "Table I — method comparison matrix", "instant"),
        ("fig5", "Fig. 5 / Observation 1 — ranging errors", "~1 min"),
        ("table4", "Table IV — dual-slope fits", "~1 min"),
        ("fig6-7", "Figs. 6-7 / Observation 3 — Sybil voiceprints", "~1 min"),
        ("fig9", "Fig. 9 — DTW worked example", "instant"),
        ("fig10", "Fig. 10 — decision boundary training", "minutes"),
        ("fig11a", "Fig. 11a — Voiceprint vs CPVSAD (static)", "minutes"),
        ("fig11b", "Fig. 11b — the same under model change", "minutes"),
        ("fig13", "Fig. 13 — four-environment field test", "~2 min"),
        ("fig14", "Fig. 14 — red-light false positive", "~2 min"),
        ("timing", "§VI-B — comparison cost", "~1 min"),
        ("ablations", "E12 — design ablations", "~2 min"),
    ]
    return render_table(
        ["command", "artefact", "cost"], rows, title="available experiments"
    )


def _cmd_table1(args: argparse.Namespace) -> str:
    rows = ex.run_table1()
    return render_table(
        ["method", "RPM", "C/D", "C/I", "SoI", "mobility", "implemented"],
        [
            (
                r.method,
                r.propagation_model,
                r.centralisation,
                r.cooperation,
                r.needs_infrastructure,
                r.mobility,
                r.implemented,
            )
            for r in rows
        ],
        title="Table I",
    )


def _cmd_fig5(args: argparse.Namespace) -> str:
    rows = ex.run_observation1(duration_s=args.duration, seed=args.seed)
    return render_table(
        ["period", "n", "mean dBm", "std dB", "true m", "FSPL m", "two-ray m"],
        [
            (
                r.label,
                r.n_samples,
                r.mean_dbm,
                r.std_db,
                r.true_distance_m,
                r.fspl_estimate_m,
                r.trgp_estimate_m,
            )
            for r in rows
        ],
        title="Fig. 5 / Observation 1",
    )


def _cmd_table4(args: argparse.Namespace) -> str:
    rows = ex.run_table4(n_samples=args.samples, seed=args.seed)
    return render_table(
        ["environment", "dc t/f", "g1 t/f", "g2 t/f", "s1 t/f", "s2 t/f"],
        [
            (
                r.environment,
                f"{r.dc_true:.0f}/{r.dc_fit:.0f}",
                f"{r.gamma1_true:.2f}/{r.gamma1_fit:.2f}",
                f"{r.gamma2_true:.2f}/{r.gamma2_fit:.2f}",
                f"{r.sigma1_true:.1f}/{r.sigma1_fit:.1f}",
                f"{r.sigma2_true:.1f}/{r.sigma2_fit:.1f}",
            )
            for r in rows
        ],
        title="Table IV (true / fitted)",
    )


def _cmd_fig6_7(args: argparse.Namespace) -> str:
    results = ex.run_observation3(duration_s=args.duration, seed=args.seed)
    return render_table(
        ["recorder", "max within-attacker D", "min cross D"],
        [
            (r.recorder, r.max_within_sybil(), r.min_cross())
            for r in results
        ],
        title="Figs. 6-7 / Observation 3",
    )


def _cmd_fig9(args: argparse.Namespace) -> str:
    result = ex.run_dtw_example()
    return render_table(
        ["quantity", "value"],
        [
            ("DTW (Eqs. 3-6, squared cost)", result.squared_distance),
            ("DTW (absolute cost)", result.absolute_distance),
            ("Fig. 9's printed value", result.paper_claimed),
            ("warp path", " ".join(map(str, result.path))),
        ],
        title="Fig. 9",
    )


def _base_config(args: argparse.Namespace) -> ScenarioConfig:
    return ScenarioConfig(sim_time_s=args.sim_time)


def _cmd_fig10(args: argparse.Namespace) -> str:
    result = ex.run_boundary_training(
        densities_vhls_per_km=args.densities,
        base_config=_base_config(args),
        seed=args.seed,
    )
    return render_table(
        ["quantity", "value"],
        [
            ("trained k", result.line.k),
            ("trained b", result.line.b),
            ("paper k", result.paper_line[0]),
            ("paper b", result.paper_line[1]),
            ("positives", result.n_positive),
            ("negatives", result.n_negative),
            ("training TPR", result.training_tpr),
            ("training FPR", result.training_fpr),
        ],
        title="Fig. 10",
    )


def _fig11(args: argparse.Namespace, model_change: bool) -> str:
    boundary = ex.run_boundary_training(
        densities_vhls_per_km=args.densities,
        base_config=_base_config(args),
        seed=args.seed,
    ).line
    rows = ex.run_fig11(
        boundary,
        densities_vhls_per_km=args.densities,
        model_change=model_change,
        runs_per_density=args.runs,
        base_config=_base_config(args),
        seed=args.seed + 1,
        checkpoint=getattr(args, "resume", None),
    )
    return render_table(
        ["density", "method", "DR", "FPR", "node-periods"],
        [
            (
                r.density_vhls_per_km,
                r.method,
                r.detection_rate,
                r.false_positive_rate,
                r.n_outcomes,
            )
            for r in rows
        ],
        title="Fig. 11b" if model_change else "Fig. 11a",
    )


def _cmd_fig13(args: argparse.Namespace) -> str:
    areas = ex.run_fig13(
        duration_s=args.duration,
        detection_period_s=args.period,
        seed=args.seed,
    )
    return render_table(
        ["environment", "periods", "DR", "FPR", "FP periods"],
        [
            (
                a.environment,
                len(a.detections),
                a.detection_rate,
                a.false_positive_rate,
                a.n_false_positive_periods,
            )
            for a in areas
        ],
        title="Fig. 13",
    )


def _cmd_fig14(args: argparse.Namespace) -> str:
    result = ex.run_fig14(
        duration_s=args.duration,
        detection_period_s=args.period,
        seed=args.seed,
    )
    return render_table(
        ["quantity", "value"],
        [
            ("stationary periods", len(result.stationary_periods)),
            ("moving periods", len(result.moving_periods)),
            ("D(mal, node2) stationary", result.node2_distance_stationary),
            ("D(mal, node2) moving", result.node2_distance_moving),
            ("FP periods (single)", result.false_positives_single),
            ("FP periods (confirmed)", result.false_positives_confirmed),
        ],
        title="Fig. 14",
    )


def _cmd_timing(args: argparse.Namespace) -> str:
    result = ex.run_timing(seed=args.seed)
    rows = [("pair (200 samples)", result.pair_ms, result.paper_pair_ms)]
    for count, ms in zip(result.neighbours, result.full_detection_ms):
        rows.append((f"{count} neighbours", ms, result.paper_80_ms if count == 80 else None))
    return render_table(
        ["operation", "measured ms", "paper ms"], rows, title="§VI-B timing"
    )


def _cmd_ablations(args: argparse.Namespace) -> str:
    rows = ex.run_ablations(duration_s=args.duration, seed=args.seed)
    return render_table(
        ["group", "variant", "sybil max", "other min", "margin", "note"],
        [
            (r.group, r.variant, r.sybil_max, r.other_min, r.margin, r.note)
            for r in rows
        ],
        title="E12 ablations",
    )


def _add_obs_arguments(
    parser: argparse.ArgumentParser, suppress_defaults: bool
) -> None:
    """The global observability flags.

    They are installed twice: on the main parser with real defaults,
    and on every subparser with ``SUPPRESS`` defaults — so they parse
    both before and after the subcommand without the subparser's
    defaults clobbering values parsed by the main parser.
    """
    suppressed = argparse.SUPPRESS
    parser.add_argument(
        "--log-level",
        default=suppressed if suppress_defaults else None,
        choices=["DEBUG", "INFO", "WARNING", "ERROR"],
        help="enable structured key=value logging at this level (stderr)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=suppressed if suppress_defaults else None,
        help="enable metrics; write one JSON line per instrument to PATH "
        "and print an end-of-run summary",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=suppressed if suppress_defaults else None,
        help="enable span tracing; stream finished spans as JSONL to PATH",
    )
    parser.add_argument(
        "--telemetry-port",
        type=int,
        metavar="PORT",
        default=suppressed if suppress_defaults else None,
        help="serve live Prometheus text at http://127.0.0.1:PORT/metrics "
        "and health JSON at /health for the duration of the run "
        "(0 picks an ephemeral port)",
    )
    parser.add_argument(
        "--snapshot-interval",
        type=float,
        metavar="SECONDS",
        default=suppressed if suppress_defaults else None,
        help="periodically snapshot the metrics registry: counter deltas "
        "become rate.* gauges and one JSONL record per tick is written "
        "to --snapshot-out",
    )
    parser.add_argument(
        "--snapshot-out",
        metavar="PATH",
        default=suppressed if suppress_defaults else None,
        help="snapshot JSONL destination (default: snapshots.jsonl when "
        "--snapshot-interval is set)",
    )
    parser.add_argument(
        "--flight-recorder-out",
        metavar="PATH",
        default=suppressed if suppress_defaults else None,
        help="keep a bounded ring of recent spans/logs/reports and dump "
        "a post-mortem JSONL bundle to PATH on a health alert or an "
        "unhandled exception",
    )
    parser.add_argument(
        "--health-thresholds",
        type=HealthThresholds.from_spec,
        metavar="SPEC",
        default=suppressed if suppress_defaults else None,
        help="enable the streaming health monitor with alert limits, "
        "e.g. silence=30,detect_ms=250,flag_rate=0.5,density_drift=0.5",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        default=suppressed if suppress_defaults else False,
        help="sample Python stacks during the run, attribute them to "
        "pipeline phases via open spans, and print per-phase + hotspot "
        "tables at the end (see README \"Profiling\")",
    )
    parser.add_argument(
        "--profile-hz",
        type=float,
        metavar="HZ",
        default=suppressed if suppress_defaults else None,
        help="sampling rate (default: 99 Hz; implies --profile)",
    )
    parser.add_argument(
        "--profile-out",
        metavar="PATH",
        default=suppressed if suppress_defaults else None,
        help="collapsed-stack destination for flamegraph.pl/speedscope "
        "(default: profile.collapsed, indexed .1/.2/... like the flight "
        "recorder instead of overwriting; implies --profile)",
    )
    parser.add_argument(
        "--profile-memory",
        action="store_true",
        default=suppressed if suppress_defaults else False,
        help="also trace allocations (tracemalloc) and report per-phase "
        "net/peak memory (implies --profile; slows the run)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        metavar="N",
        default=suppressed if suppress_defaults else None,
        help="process-pool width for parallel evaluation: experiment "
        "grids and per-verifier replay shard across N worker processes "
        "(1 = serial; default: $REPRO_EVAL_WORKERS or serial)",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        metavar="SECONDS",
        default=suppressed if suppress_defaults else None,
        help="per-task deadline for parallel evaluation: a worker "
        "exceeding it is terminated and its task retried, then run "
        "serially (default: no deadline)",
    )
    parser.add_argument(
        "--audit-out",
        metavar="PATH",
        default=suppressed if suppress_defaults else None,
        help="record per-pair decision provenance (windows, margins, "
        "DTW distances, provenance tags) to a JSONL audit log at PATH "
        "(indexed .1/.2/... like the flight recorder); inspect it with "
        "the 'explain' subcommand",
    )
    parser.add_argument(
        "--watch-record",
        metavar="PATH",
        default=suppressed if suppress_defaults else None,
        help="keep the run's telemetry trajectory in a bounded "
        "multi-resolution time-series store with CUSUM/Page-Hinkley "
        "drift detection and SLO burn-rate alerting, and dump it to "
        "PATH at the end (indexed .1/.2/...; view with the 'watch' "
        "subcommand). Implies a 1s snapshotter, the health monitor "
        "and the /series endpoint when --telemetry-port is set",
    )
    parser.add_argument(
        "--slo",
        action="append",
        type=SLOSpec.from_spec,
        metavar="SPEC",
        default=suppressed if suppress_defaults else None,
        help="add a service-level objective (repeatable), e.g. "
        "detect_p99:metric=hist:detector.detect_ms:p99,max=250,"
        "budget=0.1,short=5,long=30 — replaces the default SLO set; "
        "implies --watch-record's monitoring (without the dump)",
    )
    parser.add_argument(
        "--report-out",
        metavar="PATH",
        default=suppressed if suppress_defaults else None,
        help="write a static end-of-run report (HTML when PATH ends in "
        ".html, markdown otherwise): telemetry charts, drift/SLO "
        "alerts, profiler tables, audit near-misses, bench history",
    )
    parser.add_argument(
        "--margin-epsilon",
        type=float,
        metavar="EPS",
        default=suppressed if suppress_defaults else None,
        help="near-miss threshold: verdicts with |signed margin| below "
        "EPS count as fragile in pipeline.margin.near_miss and the "
        "health monitor's fragile_verdict_rate (default: 0.05)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="voiceprint-repro",
        description="Regenerate tables and figures of the Voiceprint paper "
        "(Yao et al., DSN 2017).",
        # Prefix matching would let a top-level flag claim a subcommand
        # flag that abbreviates it, since argparse classifies every
        # token before handing the tail to the subparser.
        allow_abbrev=False,
    )
    parser.add_argument("--seed", type=int, default=7, help="master RNG seed")
    _add_obs_arguments(parser, suppress_defaults=False)
    obs_parent = argparse.ArgumentParser(add_help=False)
    _add_obs_arguments(obs_parent, suppress_defaults=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, help: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help, parents=[obs_parent])

    add_parser("list", help="list available experiments")
    add_parser("table1", help="Table I")
    add_parser("fig9", help="Fig. 9 DTW example")

    fig5 = add_parser("fig5", help="Fig. 5 / Observation 1")
    fig5.add_argument("--duration", type=float, default=300.0)

    table4 = add_parser("table4", help="Table IV fits")
    table4.add_argument("--samples", type=int, default=4000)

    fig67 = add_parser("fig6-7", help="Figs. 6-7 / Observation 3")
    fig67.add_argument("--duration", type=float, default=120.0)

    for name in ("fig10", "fig11a", "fig11b"):
        p = add_parser(name, help=f"{name} (highway sweep)")
        p.add_argument("--densities", type=_densities, default=[10, 40, 80])
        p.add_argument("--sim-time", type=float, default=60.0)
        p.add_argument("--runs", type=int, default=1)
        if name != "fig10":
            p.add_argument(
                "--resume",
                metavar="PATH",
                default=None,
                help="journal completed (density, run) cells to PATH and "
                "skip cells already journaled there on restart",
            )

    for name in ("fig13", "fig14"):
        p = add_parser(name, help=f"{name} (field test)")
        p.add_argument("--duration", type=float, default=300.0)
        p.add_argument("--period", type=float, default=60.0 if name == "fig13" else 30.0)

    add_parser("timing", help="§VI-B timing")

    ablations = add_parser("ablations", help="E12 ablations")
    ablations.add_argument("--duration", type=float, default=120.0)

    serve = add_parser(
        "serve",
        help="streaming detection service: shard a fleet-wide beacon "
        "stream by observer, run one online pipeline each, publish "
        "verdicts (see README 'Streaming service')",
    )
    serve.add_argument(
        "--input",
        metavar="PATH",
        default=None,
        help="beacon JSONL ({observer, identity, t, rssi} per line); "
        "'-' reads stdin; omit for the synthetic demo fleet",
    )
    serve.add_argument(
        "--observers", type=int, default=100,
        help="demo fleet: receiving vehicles (default: 100)",
    )
    serve.add_argument(
        "--identities", type=int, default=4,
        help="demo fleet: legitimate identities per observer",
    )
    serve.add_argument(
        "--sybil", type=int, default=3,
        help="demo fleet: Sybil identities per observer (0 = no attack)",
    )
    serve.add_argument(
        "--duration", type=float, default=60.0,
        help="demo fleet: simulated seconds of beaconing",
    )
    serve.add_argument(
        "--beacon-hz", type=float, default=10.0,
        help="demo fleet: per-identity beacon rate",
    )
    serve.add_argument(
        "--rate", type=float, default=0.0, metavar="BEACONS_PER_S",
        help="pace ingestion at this many beacons/s (0 = as fast as "
        "the queues accept; useful with --telemetry-port to watch "
        "a run live)",
    )
    serve.add_argument(
        "--shards", type=int, default=4,
        help="worker threads; observers are hash-partitioned across them",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=2048,
        help="per-shard ingest queue bound",
    )
    serve.add_argument(
        "--ingest-policy", choices=("block", "shed"), default="block",
        help="queue-full behaviour: backpressure the producer (block) "
        "or drop and count the beacon (shed)",
    )
    serve.add_argument(
        "--max-range", type=float, default=650.0,
        help="Eq. 9 density denominator (metres)",
    )
    serve.add_argument(
        "--lineage", action="store_true",
        help="beacon-to-verdict stage tracing with tail-based "
        "sampling: serve.stage.* histograms plus a bounded ring of "
        "the flagged/near-miss/slow/shed-adjacent traces (see README "
        "'Tracing & lineage')",
    )
    serve.add_argument(
        "--lineage-out", metavar="PATH", default=None,
        help="dump the retained trace ring as JSONL on shutdown "
        "(implies --lineage; inspect with the 'trace' subcommand)",
    )
    serve.add_argument(
        "--lineage-sample", type=float, default=0.01, metavar="P",
        help="probability an uninteresting verdict trace is retained "
        "anyway — flagged/near-miss/slow/shed-adjacent always are "
        "(default: 0.01)",
    )
    serve.add_argument(
        "--lineage-capacity", type=int, default=512,
        help="trace ring size in retained traces (default: 512)",
    )

    # No obs parent here: explain reads an existing audit log, it does
    # not run the pipeline, so telemetry/profiling flags make no sense.
    explain = sub.add_parser(
        "explain",
        help="forensic report from an --audit-out log: why was a pair "
        "flagged (windows, DTW cost decomposition, margin, provenance)",
    )
    explain.add_argument("log", help="audit JSONL written by --audit-out")
    explain.add_argument(
        "--pair",
        metavar="A,B",
        default=None,
        help="show every recorded period of the pair A,B",
    )
    explain.add_argument(
        "--observer",
        metavar="ID",
        default=None,
        help="restrict to detections recorded by this observer",
    )
    explain.add_argument(
        "--worst",
        action="store_true",
        help="show the verdict closest to its threshold",
    )
    explain.add_argument(
        "--near-misses",
        type=int,
        metavar="N",
        default=None,
        help="show the N verdicts closest to their thresholds",
    )
    explain.add_argument(
        "--verify",
        action="store_true",
        help="replay every exact record through repro.core.pairwise and "
        "fail unless each distance is bit-identical",
    )

    # No obs parent here either: trace reads an existing lineage dump.
    trace = sub.add_parser(
        "trace",
        help="forensics over a --lineage-out trace dump: slowest / "
        "flagged / near-miss paths, per-verdict stage waterfalls, "
        "audit-bundle joins, Chrome-tracing export",
    )
    trace.add_argument(
        "dump", help="lineage JSONL written by serve --lineage-out"
    )
    trace.add_argument(
        "--slowest", type=int, metavar="N", default=None,
        help="show the N highest-latency traces in the selection",
    )
    trace.add_argument(
        "--flagged", action="store_true",
        help="restrict to traces whose verdict flagged a Sybil pair",
    )
    trace.add_argument(
        "--near-misses", type=int, metavar="N", default=None,
        help="show the N near-miss traces (margin within epsilon)",
    )
    trace.add_argument(
        "--follow", metavar="CID", default=None,
        help="print one trace's stage waterfall by correlation id; "
        "with --audit, also the joined audit pair evidence",
    )
    trace.add_argument(
        "--export", metavar="PATH", default=None,
        help="write the selection as Chrome-tracing / Perfetto JSON "
        "(open in chrome://tracing or ui.perfetto.dev)",
    )
    trace.add_argument(
        "--audit", metavar="PATH", default=None,
        help="join traces to this --audit-out log on correlation id; "
        "exits non-zero when a flagged trace has no bundle",
    )
    trace.add_argument(
        "--once", action="store_true",
        help="render a single report and exit (already the default; "
        "accepted so scripts can be explicit, like watch --once)",
    )

    # No obs parent here either: watch observes another run's
    # telemetry, it does not produce its own.
    watch = sub.add_parser(
        "watch",
        help="terminal dashboard over a run's telemetry: phase latency, "
        "throughput, margins, drift scores and SLO burn rates",
    )
    watch.add_argument(
        "source",
        help="a live telemetry URL (http://127.0.0.1:PORT), a "
        "--watch-record dump, or a --snapshot-out JSONL log",
    )
    watch.add_argument(
        "--once",
        action="store_true",
        help="render a single frame (no ANSI clearing) and exit — "
        "CI/script friendly",
    )
    watch.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="repaint period in follow mode (default: 2s)",
    )
    return parser


def _cmd_explain(args: argparse.Namespace) -> str:
    # Lazy import: explain pulls in repro.core for the replay engine,
    # which every other (list/figure) invocation does not need.
    from .obs.explain import run_explain

    pair = None
    if args.pair is not None:
        parts = [part.strip() for part in args.pair.split(",")]
        if len(parts) != 2 or not all(parts):
            raise SystemExit(
                f"--pair wants two comma-separated ids, got {args.pair!r}"
            )
        pair = (parts[0], parts[1])
    try:
        return run_explain(
            args.log,
            pair=pair,
            observer=args.observer,
            worst=args.worst,
            near_misses=args.near_misses,
            verify=args.verify,
        )
    except (ValueError, OSError) as error:
        raise SystemExit(str(error))


def _cmd_watch(args: argparse.Namespace) -> str:
    from .obs.watch import run_watch

    try:
        if args.once:
            import io

            # run_watch writes the frame to its stream; capture it and
            # hand it back so main() prints it exactly once.
            return run_watch(
                args.source,
                once=True,
                interval_s=args.interval,
                out=io.StringIO(),
            )
        run_watch(args.source, once=False, interval_s=args.interval)
        return ""
    except (ValueError, OSError) as error:
        raise SystemExit(str(error))


def _cmd_serve(args: argparse.Namespace) -> str:
    # Lineage must be installed before service.start() captures the
    # process-global instance for its submit hot path — and
    # uninstalled on every exit, so a bad --input path cannot leak
    # tracing into later work in the same process.
    lineage: Optional["obs.Lineage"] = None
    if args.lineage or args.lineage_out:
        lineage = obs.start_lineage(
            capacity=args.lineage_capacity, sample=args.lineage_sample
        )
    try:
        return _run_serve(args, lineage)
    finally:
        if lineage is not None:
            obs.stop_lineage()


def _run_serve(
    args: argparse.Namespace, lineage: Optional["obs.Lineage"]
) -> str:
    # Lazy import: serve pulls in the threaded service machinery no
    # figure command needs.
    from .serve import (
        DetectionService,
        ServiceConfig,
        read_jsonl,
        synthetic_fleet,
    )

    config = ServiceConfig(
        shards=args.shards,
        queue_depth=args.queue_depth,
        ingest_policy=args.ingest_policy,
        max_range_m=args.max_range,
    )
    service = DetectionService(config)
    # The CLI consumer wants every verdict for the end-of-run summary,
    # so it gets a deep queue; other subscribers (none by default)
    # would pick their own QoS.
    verdicts = service.subscribe("cli", depth=65536)

    if args.input is not None:
        if args.input == "-":
            events = read_jsonl(sys.stdin)
        else:
            try:
                handle = open(args.input, encoding="utf-8")
            except OSError as error:
                raise SystemExit(str(error))
            events = read_jsonl(handle)
    else:
        events = iter(
            synthetic_fleet(
                observers=args.observers,
                legit=args.identities,
                sybil=args.sybil,
                duration_s=args.duration,
                beacon_hz=args.beacon_hz,
                seed=args.seed,
            )
        )

    service.start()
    start = time.monotonic()
    submitted = 0
    for event in events:
        service.submit(event)
        submitted += 1
        if args.rate > 0 and submitted % 256 == 0:
            # Pace in chunks; per-event sleeps are dominated by timer
            # granularity at realistic rates.
            ahead = submitted / args.rate - (time.monotonic() - start)
            if ahead > 0:
                time.sleep(ahead)
    drained = service.flush(timeout=600.0)
    ingest_wall = time.monotonic() - start
    service.stop()

    stats = service.stats()
    reports = verdicts.drain()
    latencies = sorted(r.latency_ms for r in reports)

    def pct(q: float) -> str:
        if not latencies:
            return "-"
        rank = q / 100.0 * (len(latencies) - 1)
        low = int(rank)
        high = min(low + 1, len(latencies) - 1)
        frac = rank - low
        return f"{latencies[low] * (1 - frac) + latencies[high] * frac:.2f}"

    confirmed = service.confirmed()
    rows = [
        ("beacons ingested", f"{stats['ingested']}"),
        ("beacons shed", f"{stats['shed']}"),
        ("observers", f"{stats['observers']}"),
        ("reports published", f"{len(reports)}"),
        ("throughput (beacons/s)", f"{stats['ingested'] / ingest_wall:,.0f}"),
        ("ingest-to-verdict p50 (ms)", pct(50.0)),
        ("ingest-to-verdict p99 (ms)", pct(99.0)),
        ("observers with confirmed Sybils", f"{len(confirmed)}"),
        ("drained cleanly", "yes" if drained else "NO (flush timed out)"),
    ]
    if lineage is not None:
        lstats = lineage.stats()
        rows.append(
            (
                "traces retained",
                f"{lstats['retained']} in ring "
                f"({lstats['retained_total']} of "
                f"{lstats['completed']} completed)",
            )
        )
    lines = [render_table(["quantity", "value"], rows, title="serve summary")]
    if confirmed:
        shown = list(confirmed.items())[:10]
        lines.append("")
        lines.append(
            render_table(
                ["observer", "confirmed Sybil identities"],
                [(obs_id, ", ".join(ids)) for obs_id, ids in shown],
                title=f"confirmed Sybil clusters "
                f"(first {len(shown)} of {len(confirmed)})",
            )
        )
    if lineage is not None and args.lineage_out:
        dump_path = lineage.dump_jsonl(args.lineage_out)
        lines.append("")
        lines.append(
            f"[{lineage.stats()['retained']} trace(s) -> {dump_path}; "
            f"inspect with 'trace {dump_path}']"
        )
    return "\n".join(lines)


def _cmd_trace(args: argparse.Namespace) -> str:
    # Lazy import: trace reads a finished dump; nothing else needs the
    # forensics renderer.
    from .obs.traceview import run_trace

    try:
        return run_trace(
            args.dump,
            slowest=args.slowest,
            flagged=args.flagged,
            near_misses=args.near_misses,
            follow=args.follow,
            export=args.export,
            audit_path=args.audit,
        )
    except (ValueError, OSError, RuntimeError) as error:
        raise SystemExit(str(error))


_HANDLERS: Dict[str, Callable[[argparse.Namespace], str]] = {
    "list": _cmd_list,
    "table1": _cmd_table1,
    "fig5": _cmd_fig5,
    "table4": _cmd_table4,
    "fig6-7": _cmd_fig6_7,
    "fig9": _cmd_fig9,
    "fig10": _cmd_fig10,
    "fig11a": lambda args: _fig11(args, model_change=False),
    "fig11b": lambda args: _fig11(args, model_change=True),
    "fig13": _cmd_fig13,
    "fig14": _cmd_fig14,
    "timing": _cmd_timing,
    "ablations": _cmd_ablations,
    "explain": _cmd_explain,
    "trace": _cmd_trace,
    "watch": _cmd_watch,
    "serve": _cmd_serve,
}


def _metrics_summary(registry: "obs.MetricsRegistry") -> str:
    """Compact end-of-run rendering of everything the run recorded."""
    snapshot = registry.to_dict()
    rows = []
    for name, value in snapshot["counters"].items():
        rows.append((name, "counter", f"{value:g}"))
    for name, value in snapshot["gauges"].items():
        rendered = "-" if value is None else f"{value:g}"
        rows.append((name, "gauge", rendered))
    for name, summary in snapshot["histograms"].items():
        if summary["count"]:
            rendered = (
                f"n={summary['count']} p50={summary['p50']:.3g} "
                f"p95={summary['p95']:.3g} max={summary['max']:.3g}"
            )
        else:
            rendered = "n=0"
        rows.append((name, "histogram", rendered))
    if not rows:
        return "metrics summary: (nothing recorded)"
    return render_table(["metric", "kind", "value"], rows, title="metrics summary")


def _health_summary(monitor: "obs.HealthMonitor") -> str:
    """End-of-run health line(s): verdict plus any alerts fired."""
    status = monitor.status()
    if status["status"] == "ok":
        return f"health: ok ({status['reports']} reports, 0 alerts)"
    lines = [
        f"health: ALERT ({status['reports']} reports, "
        f"{monitor.alerts_total} alert(s))"
    ]
    for alert in status["alerts"]:
        lines.append(
            f"  [{alert['kind']}] t={alert['t']:g} {alert['message']}"
        )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.command]

    # Any watchtower flag arms the full trajectory stack: TSDB + drift
    # detection + SLOs, fed by a snapshotter (1s unless --snapshot-
    # interval says otherwise) and the streaming health monitor.
    watch_on = bool(args.watch_record or args.report_out or args.slo)
    telemetry_on = (
        args.telemetry_port is not None
        or args.snapshot_interval is not None
        or watch_on
    )
    # Any profile flag switches profiling on; --profile alone uses the
    # defaults (99 Hz, profile.collapsed, no memory tracing).
    profiling_on = bool(
        args.profile
        or args.profile_hz is not None
        or args.profile_out is not None
        or args.profile_memory
    )
    # Open both output files up front so a bad path fails before the
    # (potentially long) run instead of after it.
    metrics_file = (
        open(args.metrics_out, "w", encoding="utf-8")
        if args.metrics_out
        else None
    )
    registry = obs.default_registry()
    if telemetry_on:
        # Long live runs must not leak raw histogram samples: cap
        # reservoirs for every histogram created from here on.
        registry.histogram_max_samples = 65536

    # The health monitor is armed by --health-thresholds, and also
    # (with permissive default limits) whenever something consumes its
    # status: the /health endpoint or the flight recorder's triggers.
    monitor: Optional[HealthMonitor] = None
    if (
        args.health_thresholds is not None
        or args.telemetry_port is not None
        or args.flight_recorder_out
        or watch_on
    ):
        monitor = HealthMonitor(
            args.health_thresholds or HealthThresholds(),
            registry=registry,
            # Clock-source contract (see HealthMonitor): simulations
            # and replays measure silence in event time, the live
            # service in wall time.
            clock="wall" if args.command == "serve" else "event",
        )
    previous_monitor = obs.set_default_monitor(monitor) if monitor else None

    tsdb: Optional[obs.TimeSeriesDB] = None
    drift: Optional[obs.DriftMonitor] = None
    if watch_on:
        tsdb = obs.TimeSeriesDB()
        drift = obs.DriftMonitor(
            registry=registry, health=monitor, slos=args.slo
        )

    recorder: Optional[obs.FlightRecorder] = None
    previous_recorder: Optional[obs.FlightRecorder] = None
    if args.flight_recorder_out:
        recorder = obs.FlightRecorder(
            args.flight_recorder_out, tracer=obs.default_tracer()
        )
        recorder.install_log_capture()
        recorder.install_excepthook()
        assert monitor is not None
        monitor.attach_recorder(recorder)
        # Publish as the process default so the serve layer's shed
        # path (DetectionService.submit) can record dropped beacons.
        previous_recorder = obs.set_default_recorder(recorder)

    # Span destinations: the JSONL stream (--trace-out), the per-phase
    # latency histograms (telemetry), and the flight-recorder ring.
    exporters = []
    if args.trace_out:
        exporters.append(obs.JsonlSpanExporter(args.trace_out))
    if telemetry_on:
        exporters.append(obs.SpanLatencyRecorder(registry=registry))
    if recorder is not None:
        exporters.append(recorder)
    trace_exporter = None
    if len(exporters) == 1:
        trace_exporter = exporters[0]
    elif exporters:
        trace_exporter = obs.TeeSpanExporter(*exporters)
    obs.configure(
        log_level=args.log_level,
        metrics=bool(args.metrics_out)
        or telemetry_on
        or monitor is not None
        or profiling_on,
        trace_exporter=trace_exporter,
    )
    # The profiler needs open spans for attribution; start_profiler
    # enables the global tracer itself if no trace flag already did
    # (spans then nest and time without being exported anywhere).
    profiler: Optional[obs.SamplingProfiler] = None
    if profiling_on:
        profiler = obs.start_profiler(
            hz=args.profile_hz if args.profile_hz is not None else 99.0,
            memory=bool(args.profile_memory),
        )
    previous_parallel = set_parallel_defaults(
        workers=args.workers, task_timeout=args.task_timeout
    )
    previous_epsilon: Optional[float] = None
    if args.margin_epsilon is not None:
        previous_epsilon = obs.set_near_miss_epsilon(args.margin_epsilon)
    audit_log: Optional[obs.AuditLog] = None
    if args.audit_out:
        audit_log = obs.start_audit(out=args.audit_out)
    server: Optional[obs.TelemetryServer] = None
    snapshotter: Optional[obs.Snapshotter] = None
    try:
        if args.telemetry_port is not None:
            server = obs.TelemetryServer(
                registry=registry,
                health=monitor,
                tsdb=tsdb,
                port=args.telemetry_port,
            ).start()
            print(f"[telemetry: {server.url}/metrics]")
        snapshot_out: Optional[str] = None
        if args.snapshot_interval is not None or watch_on:
            # --watch-record wants the trajectory but not necessarily
            # the JSONL stream; only the explicit snapshot flags write
            # one.
            if args.snapshot_interval is not None or args.snapshot_out:
                snapshot_out = args.snapshot_out or "snapshots.jsonl"
            snapshotter = obs.Snapshotter(
                registry=registry,
                interval_s=(
                    args.snapshot_interval
                    if args.snapshot_interval is not None
                    else 1.0
                ),
                out=snapshot_out,
                health=monitor,
                tsdb=tsdb,
                drift=drift,
            ).start()
        start = time.perf_counter()
        output = handler(args)
        elapsed = time.perf_counter() - start
        print(output)
        if profiler is not None:
            # Stop sampling before rendering so the report itself is
            # not billed to the run, and publish the gauges before the
            # metrics summary/JSONL so pipeline.profile.* shows there.
            obs.stop_profiler()
            profiler.publish_gauges()
            out_path = obs.indexed_path(args.profile_out or "profile.collapsed")
            n_stacks = profiler.write_collapsed(out_path)
            print()
            print(profiler.phase_table())
            print()
            print(profiler.hotspot_table())
            print(f"[{n_stacks} stacks -> {out_path}]")
            if args.profile_memory:
                mem_path = obs.indexed_path(
                    f"{args.profile_out}.memory.jsonl"
                    if args.profile_out
                    else "profile.memory.jsonl"
                )
                n_phases = profiler.write_memory_jsonl(mem_path)
                print(f"[{n_phases} phase memory records -> {mem_path}]")
        if metrics_file is not None:
            print()
            print(_metrics_summary(registry))
            n_records = registry.write_jsonl(metrics_file)
            print(f"[{n_records} metric records -> {args.metrics_out}]")
        if monitor is not None:
            print()
            print(_health_summary(monitor))
            if recorder is not None and recorder.dumps_written:
                print(
                    f"[{recorder.dumps_written} post-mortem bundle(s) -> "
                    f"{args.flight_recorder_out}]"
                )
        if snapshotter is not None:
            snapshotter.close()
            snapshotter = None
            if snapshot_out is not None:
                print(f"[snapshots -> {snapshot_out}]")
        if args.watch_record and tsdb is not None:
            dump_path = obs.indexed_path(args.watch_record)
            n_series = tsdb.dump_jsonl(dump_path)
            print(
                f"[{n_series} series ({tsdb.samples} samples) -> "
                f"{dump_path}; view with 'watch {dump_path}']"
            )
        if drift is not None and drift.alerts:
            print(
                f"[drift/SLO: {len(drift.alerts)} alert(s) — "
                f"{sum(1 for a in drift.alerts if a['kind'] == 'metric_drift')} "
                f"drift, "
                f"{sum(1 for a in drift.alerts if a['kind'] == 'slo_burn')} "
                "burn]"
            )
        if args.report_out:
            from .obs.report import write_report

            report_path = write_report(
                args.report_out,
                tsdb=tsdb,
                health=monitor,
                drift=drift,
                profiler=profiler,
                audit_bundles=(
                    audit_log.bundles if audit_log is not None else None
                ),
                history_path="benchmarks/history/BENCH_history.jsonl",
                title=f"repro {args.command} run report",
            )
            print(f"[run report -> {report_path}]")
        if args.trace_out:
            print(f"[spans -> {args.trace_out}]")
        if audit_log is not None:
            destination = audit_log.path or args.audit_out
            print(
                f"[{audit_log.detections} detection bundle(s) "
                f"({audit_log.pairs_recorded} pair records) -> "
                f"{destination}]"
            )
        if elapsed > 1.0:
            print(f"\n[{elapsed:.1f}s]")
    finally:
        if audit_log is not None:
            obs.stop_audit()
        if previous_epsilon is not None:
            obs.set_near_miss_epsilon(previous_epsilon)
        obs.stop_profiler()  # no-op when already stopped above
        if snapshotter is not None:
            snapshotter.close()
        if server is not None:
            server.stop()
        if recorder is not None:
            obs.set_default_recorder(previous_recorder)
            recorder.close()
        if monitor is not None:
            obs.set_default_monitor(previous_monitor)
        set_parallel_defaults(
            workers=previous_parallel.workers,
            task_timeout=previous_parallel.task_timeout,
        )
        obs.shutdown()
        if metrics_file is not None:
            metrics_file.close()
        if (
            metrics_file is not None
            or telemetry_on
            or monitor is not None
            or profiling_on
        ):
            registry.reset()
        if telemetry_on:
            registry.histogram_max_samples = None
    return 0


if __name__ == "__main__":
    sys.exit(main())
