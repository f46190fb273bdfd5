"""The repository's end-to-end benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig11a-dense --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

One run builds its inputs from ``--seed``, measures the workload, checks
the program's outputs outside the timed region and prints two JSON lines:
a ``{"perfbench": ...}`` detail line (machine fingerprint, per-cell or
per-rung figures, layer table) and, last, the result line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` makes a
separate traced pass and reports its per-layer metrics.  ``failed`` over
``attempted`` is the run's ops-failed ratio: failed output checks plus
shed beacons, over verdicts and beacons attempted.

``--smoke`` runs every workload at tiny sizes, traced and untraced, in a
few seconds each, and asserts that every metric named in
``BENCHMARK.json`` is emitted with its unit, that the output checks ran
and that the traced layers cover at least 95% of the traced wall time.
``perfbench/compare.py`` compares two sets of saved runs.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("fig11a-dense", "fig11a-sparse", "serve-sliding")
#: The seed whose fig11a cell-0 outcomes are pinned by digest.
DEFAULT_SEED = 1
SETUP_REPEATS = 3
COVERAGE_FLOOR = 0.95


def _bootstrap() -> None:
    """Import the program from this checkout; keep temp files inside it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        sys.exit(2)
    # The native DTW kernel is compiled into the temp dir on first use.
    scratch = ROOT / ".bench_build" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    sys.path.insert(0, str(SRC))


def _load_inputs(workload: str, size: str, seed: int, seconds: float):
    """Imports, native warmup and input generation: the timed set-up."""
    from repro.core import native

    native.warmup()
    if workload == "serve-sliding":
        import serve_fleet

        return serve_fleet.setup(size, seed)
    import fig11a

    return fig11a.setup(workload, size, seed, seconds)


def fingerprint() -> dict:
    import numpy
    from repro.core.native import native_available

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "native": native_available(),
    }


def _setup_samples(args: argparse.Namespace) -> list:
    """Set-up time of fresh processes, each timed from this script's first line."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--size", args.size,
    ]
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _expected_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure(args: argparse.Namespace) -> int:
    setup_samples = [] if args.trace else _setup_samples(args)
    inputs = _load_inputs(args.workload, args.size, args.seed, args.seconds)
    # The inputs (half a million beacon events for serve) are the
    # benchmark's, not the program's: keep the collector from walking
    # them on every full collection inside the timed region.
    gc.freeze()
    if args.workload == "serve-sliding":
        import serve_fleet

        outcome = serve_fleet.run(args.size, inputs, args.seconds, bool(args.trace))
    else:
        import fig11a

        outcome = fig11a.run(args.workload, args.size, args.seed, inputs,
                             bool(args.trace), DEFAULT_SEED)
    values = dict(outcome["metrics"])
    if args.trace:
        # The wrapped layers must account for the traced wall time, so
        # that nothing hides between them.
        coverage_ok = values["trace.coverage"] >= COVERAGE_FLOOR
        outcome["detail"]["coverage_ok"] = coverage_ok
        if not coverage_ok:
            print(f"perfbench: layers cover only {values['trace.coverage']:.1%} of "
                  f"traced wall time (floor {COVERAGE_FLOOR:.0%})", file=sys.stderr)
    else:
        values["setup_s"] = statistics.median(setup_samples)
        outcome["detail"]["setup_samples_s"] = setup_samples
    units = _expected_metrics(bool(args.trace))
    if set(values) != set(units):
        print(f"perfbench: metric set mismatch: missing {sorted(set(units) - set(values))}, "
              f"unexpected {sorted(set(values) - set(units))}", file=sys.stderr)
        return 3
    print(json.dumps({"perfbench": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "size": args.size, "fingerprint": fingerprint(), "detail": outcome["detail"],
    }}, default=str))
    print(json.dumps({
        "correct": bool(outcome["correct"]),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name in units},
    }))
    return 0


def smoke() -> int:
    """Tiny-size run of every workload, traced and untraced."""
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(DEFAULT_SEED), "--seconds", "2", "--trace", str(trace),
                   "--size", "smoke"]
            started = time.perf_counter()
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
            label = f"{workload} trace={trace}"
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or len(lines) < 2:
                problems.append(f"{label}: exit {done.returncode}: {done.stderr[-500:]}")
                continue
            result = json.loads(lines[-1])
            detail = json.loads(lines[-2])["perfbench"]["detail"]
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: checks failed: {lines[-1][:300]}")
            if detail.get("checks_run", 0) < 1:
                problems.append(f"{label}: no output checks ran")
            if trace and not detail.get("coverage_ok"):
                problems.append(f"{label}: layers cover under {COVERAGE_FLOOR:.0%}")
            for name, unit in _expected_metrics(bool(trace)).items():
                metric = result["metrics"].get(name)
                if metric is None or metric.get("unit") != unit:
                    problems.append(f"{label}: metric {name} missing or not in {unit}")
                elif not math.isfinite(metric["value"]):
                    problems.append(f"{label}: metric {name} = {metric['value']}")
            print(f"smoke {label}: {time.perf_counter() - started:.1f}s", file=sys.stderr)
    for problem in problems:
        print(f"smoke FAIL {problem}", file=sys.stderr)
    print(json.dumps({"smoke_ok": not problems}))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run of every workload; checks metric names and units")
    args = parser.parse_args()
    _bootstrap()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        _load_inputs(args.workload, args.size, args.seed, args.seconds)
        print(json.dumps({"setup_s": time.perf_counter() - _T0}))
        return 0
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
