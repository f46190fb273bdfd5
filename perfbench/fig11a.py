"""Fig. 11a cell workloads: ``fig11a-dense`` and ``fig11a-sparse``.

One cell is what the Fig. 11a sweep runs per (density, seed): simulate
the 2 km highway, replay verifiers through Voiceprint on the default
exact pairwise-engine path, replay them through CPVSAD, and score both
with Eqs. 12-13.  ``cell_wall_s`` times the simulation plus the replays
and scoring, i.e. from the scenario to the scored outcomes.

* ``fig11a-dense`` (80 veh/km, 60 s, 2 verifiers) is compare-bound: a
  DTW kernel or compare-path change shows here.
* ``fig11a-sparse`` (10 veh/km, 100 s, 1 verifier) is simulator-bound:
  a sim, MAC or channel change shows here and a DTW change should not.

Verifiers: compare work grows with the square of a verifier's
neighbourhood, which varies several-fold between recorded nodes.  The
cell replays the recorded nodes whose neighbourhoods (identity pairs with
enough samples, summed over the detection windows) come closest to the
workload's reference size, so a run's work depends on the seed far less
than on which nodes happened to be recorded first.  The pick is made
between the two timed phases and is not timed.

Threshold: the paper's published line (k=0.00054, b=0.0483) sits two
orders of magnitude above this reproduction's normalised distances
(EXPERIMENTS.md E5) and flags most honest neighbours, which puts FPR far
outside the E6 band.  The cells therefore use the fixed line this
repository's own Fig. 10 training fits (``run_boundary_training`` with
its defaults, 60 s runs, seed 100), so no training runs and DR/FPR land
where E6 reports them.  In exact mode every pair is compared whatever the
threshold, so the line does not change the work timed.
"""

from __future__ import annotations

import hashlib
import json
import time
from statistics import median
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.baselines.cpvsad import CpvsadConfig, CpvsadDetector
from repro.core.detector import DetectorConfig
from repro.core.thresholds import LinearThreshold
from repro.eval import runner
from repro.eval.metrics import PeriodOutcome, average_rates
from repro.radio.base import LinkBudget
from repro.radio.dual_slope import DualSlopeModel
from repro.radio.environments import environment
from repro.sim.scenario import ScenarioConfig
from repro.sim.simulator import HighwaySimulator, SimulationResult

from layers import LayerTracer, install_layers, layer_metrics
from measure import peak_rss_mb, percentile

TRAINED_LINE = LinearThreshold(k=-9.71922591807359e-07, b=0.0014034291398524123)

#: The E6 band a run's Voiceprint and CPVSAD averages must land in.  E6
#: reports DR 0.47-0.85 and FPR 0.01-0.16 over sweep averages; one run
#: averages only a few verifiers, and E6's deviation (a) — min-max forces
#: the closest pair of every report to 0 — lets a sparse verifier with no
#: attacker in range flag two of its few honest neighbours, hence the
#: margins.
DR_MIN = 0.2
FPR_MAX = 0.4


@dataclass(frozen=True)
class CellSpec:
    density: float
    sim_time_s: float
    recorded: int
    verifiers: int
    #: Reference neighbourhood size: identity pairs per verifier, summed
    #: over the detection windows (the median over recorded nodes of
    #: seeded reference scenarios).
    ref_pairs: int
    #: Cell wall time on the reference host; ``--seconds`` divided by it
    #: fixes how many cells a run measures, so a faster program runs the
    #: same cells rather than more of them.
    nominal_s: float


SPECS: Dict[Tuple[str, str], CellSpec] = {
    ("fig11a-dense", "full"): CellSpec(80, 60.0, 8, 2, 8800, 15.0),
    ("fig11a-sparse", "full"): CellSpec(10, 100.0, 8, 1, 430, 2.0),
    ("fig11a-dense", "smoke"): CellSpec(20, 25.0, 4, 1, 100, 1.0),
    ("fig11a-sparse", "smoke"): CellSpec(10, 25.0, 4, 1, 10, 1.0),
}

#: Outcome digests of cell 0 at the default seed (see :func:`digest`).
PINNED_DIGESTS: Dict[Tuple[str, str], str] = {
    ("fig11a-dense", "full"):
        "b9a18389ec4f8dd60f9edc36b7296fb2e0975b80528d56e03a43db0256153d66",
    ("fig11a-sparse", "full"):
        "f4963e62e54199de942300cf02e7e272ca4a85c939518f42655e2f3959ba83be",
    ("fig11a-dense", "smoke"):
        "9e4162fc04b92cd57deb8e1d7709ba9711a748a590207bf5091481c44dce6879",
    ("fig11a-sparse", "smoke"):
        "23a97aa03bfade237f852dadb02f55f5cc85713a1ab84a95c3bb837a21415488",
}


@dataclass
class Cell:
    config: ScenarioConfig
    verifiers: Tuple[str, ...]
    wall_s: float
    sim_s: float
    #: Voiceprint verdicts, each timed from the start of the replay.
    verdict_latencies_s: List[float]
    result: SimulationResult
    outcomes: Dict[str, List[PeriodOutcome]]

    @property
    def offered_beacons(self) -> int:
        return self.result.transmitted + self.result.dropped


def setup(workload: str, size: str, seed: int, seconds: float) -> List[ScenarioConfig]:
    """The scenarios of every cell a run measures."""
    spec = SPECS[(workload, size)]
    cells = max(1, round(seconds / spec.nominal_s))
    template = ScenarioConfig(sim_time_s=spec.sim_time_s).with_density(spec.density)
    return [template.with_seed(seed * 1000 + i) for i in range(cells)]


def pick_verifiers(result: SimulationResult, spec: CellSpec) -> Tuple[str, ...]:
    """The recorded nodes whose neighbourhood is nearest ``ref_pairs``."""
    config = result.config
    window = config.observation_time_s
    min_samples = DetectorConfig().min_samples
    times = runner.detection_times(config.sim_time_s, window, config.detection_period_s)

    def pairs(node: str) -> int:
        total = 0
        for t in times:
            n = sum(
                1 for series in result.series_at(node).values()
                if len(series.window(t - window, t + 1e-9)) >= min_samples
            )
            total += n * (n - 1) // 2
        return total

    ranked = sorted(result.recorded_nodes, key=lambda node: (abs(pairs(node) - spec.ref_pairs), node))
    return tuple(sorted(ranked[: spec.verifiers]))


def run_cell(spec: CellSpec, config: ScenarioConfig) -> Cell:
    """Simulate, pick verifiers, replay both detectors, score."""
    stamps: List[float] = []
    evaluate_flags = runner.evaluate_flags

    def stamped(*args, **kwargs):
        outcome = evaluate_flags(*args, **kwargs)
        stamps.append(time.perf_counter())
        return outcome

    start = time.perf_counter()
    result = HighwaySimulator(config, recorded_nodes=spec.recorded).run()
    sim_s = time.perf_counter() - start
    verifiers = pick_verifiers(result, spec)
    runner.evaluate_flags = stamped
    try:
        replay_start = time.perf_counter()
        vp = runner.run_voiceprint(result, TRAINED_LINE, verifiers=verifiers, workers=1)
        n_vp = len(stamps)
        cpvsad = CpvsadDetector(
            assumed_budget=LinkBudget(tx_power_dbm=sum(config.tx_power_range_dbm) / 2.0),
            assumed_model=DualSlopeModel(environment(config.environment)),
            config=CpvsadConfig(),
        )
        cp = runner.run_cpvsad(result, cpvsad, verifiers=verifiers, workers=1)
        replay_s = time.perf_counter() - replay_start
    finally:
        runner.evaluate_flags = evaluate_flags
    return Cell(
        config=config,
        verifiers=verifiers,
        wall_s=sim_s + replay_s,
        sim_s=sim_s,
        verdict_latencies_s=[stamp - replay_start for stamp in stamps[:n_vp]],
        result=result,
        outcomes={"voiceprint": vp, "cpvsad": cp},
    )


def digest(cell: Cell) -> str:
    """SHA-256 over every scored outcome of both methods."""
    rows = [
        [method, o.node, o.period_index, o.true_flagged, o.total_illegitimate,
         o.false_flagged, o.total_legitimate]
        for method, outcomes in sorted(cell.outcomes.items())
        for o in outcomes
    ]
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()


def check_cell(cell: Cell, spec: CellSpec, pinned: Optional[str]) -> Dict[str, object]:
    """Per-cell output checks, run outside the timed region."""
    problems: List[str] = []
    expected = spec.verifiers * len(
        runner.detection_times(
            cell.config.sim_time_s,
            cell.config.observation_time_s,
            cell.config.detection_period_s,
        )
    )
    for method, outcomes in cell.outcomes.items():
        if len(outcomes) != expected:
            problems.append(f"{method}: {len(outcomes)} outcomes, expected {expected}")
    found = digest(cell)
    if pinned is not None and found != pinned:
        problems.append(f"outcome digest {found[:16]} != pinned {pinned[:16]}")
    return {
        "scenario_seed": cell.config.seed,
        "verifiers": cell.verifiers,
        "wall_s": cell.wall_s,
        "sim_s": cell.sim_s,
        "outcomes": sum(len(o) for o in cell.outcomes.values()),
        "loss_rate": cell.result.loss_rate,
        "digest": found,
        "digest_pinned": pinned is not None,
        "problems": problems,
    }


def check_band(cells: List[Cell]) -> Tuple[Dict[str, object], List[str]]:
    """Eqs. 12-13 over every outcome of the run, against the E6 band."""
    rates, problems = {}, []
    for method in ("voiceprint", "cpvsad"):
        dr, fpr = average_rates([o for cell in cells for o in cell.outcomes[method]])
        rates[method] = {"dr": dr, "fpr": fpr}
        if dr is not None and dr < DR_MIN:
            problems.append(f"{method}: DR {dr:.3f} below {DR_MIN}")
        if fpr is not None and fpr > FPR_MAX:
            problems.append(f"{method}: FPR {fpr:.3f} above {FPR_MAX}")
    return rates, problems


def run(workload: str, size: str, seed: int, configs: List[ScenarioConfig],
        trace: bool, default_seed: int) -> Dict[str, object]:
    spec = SPECS[(workload, size)]
    pinned = PINNED_DIGESTS.get((workload, size)) if seed == default_seed else None
    cells = [run_cell(spec, config) for config in configs]
    checked = list(cells)
    if trace:
        # A traced pass over cell 0 on top of the untraced run: the layers
        # come from it, the tracing overhead from its difference to the
        # untraced pass, and its outcomes must match that pass's.
        with LayerTracer() as tracer:
            install_layers(tracer)
            traced = run_cell(spec, configs[0])
        checked.append(traced)
    rss = peak_rss_mb()

    checks = [
        check_cell(cell, spec, pinned if cell.config is configs[0] else None)
        for cell in checked
    ]
    if trace and checks[-1]["digest"] != checks[0]["digest"]:
        checks[-1]["problems"].append("traced outcomes differ from untraced")
    attempted = sum(info["outcomes"] for info in checks)
    failed = sum(info["outcomes"] for info in checks if info["problems"])
    rates, band_problems = check_band(cells)
    # A smoke cell makes one detection over a handful of identities, too
    # few for the band to mean anything.
    if size == "full" and band_problems:
        failed = attempted
    detail: Dict[str, object] = {
        "cells": checks,
        "rates": rates,
        "band_problems": band_problems,
        "checks_run": len(checks) + 1,
    }

    if not trace:
        latencies = [s for cell in cells for s in cell.verdict_latencies_s]
        metrics = {
            "cell_wall_s": median([cell.wall_s for cell in cells]),
            "peak_rss_mb": rss,
            "verdict_p50_ms": percentile(latencies, 50.0) * 1000.0,
            "verdict_p99_ms": percentile(latencies, 99.0) * 1000.0,
            "beacons_per_s": median([cell.offered_beacons / cell.wall_s for cell in cells]),
        }
        detail["verdicts"] = len(latencies)
        return {"metrics": metrics, "attempted": attempted, "failed": failed,
                "correct": failed == 0, "detail": detail}

    covered = tracer.top_level_s(main=True)
    metrics = layer_metrics(tracer)
    metrics.update({
        "net.drop_ratio": traced.result.loss_rate,
        "eval.detection_rate": rates["voiceprint"]["dr"] or 0.0,
        "eval.false_positive_rate": rates["voiceprint"]["fpr"] or 0.0,
        "serve.detections_per_boundary": 0.0,
        "serve.generator_late_ms": 0.0,
        "serve.backlog_max": 0.0,
        "serve.verdicts": 0.0,
        "trace.coverage": covered / traced.wall_s,
        "trace.unattributed_s": traced.wall_s - covered,
        "trace.overhead_ratio": traced.wall_s / cells[0].wall_s - 1.0,
        "ops_failed_ratio": failed / attempted if attempted else 0.0,
    })
    detail["layers"] = tracer.layer_table()
    detail["traced_wall_s"] = traced.wall_s
    detail["untraced_wall_s"] = cells[0].wall_s
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "correct": failed == 0, "detail": detail}
