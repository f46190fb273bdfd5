"""Compare two sets of saved benchmark runs; refuse mismatched machines.

    python3 perfbench/compare.py --base base/*.out --head head/*.out

Each file holds the standard output of one ``perfbench/run.py`` run.  Runs
are grouped by workload and trace mode.  For every metric the tool prints
each side's median and quartiles.  For an end-to-end metric it also says
whether the head median is worse than the base median by more than the
metric's bound in ``BENCHMARK.json``, or "unresolved" when the base runs
spread wider than the bound and the two sides overlap.

Timings from different hosts are not comparable, so the tool exits with
code 2, comparing nothing, when the runs carry different machine
fingerprints.  It exits 1 when a run failed its checks or a metric
regressed, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    result = json.loads(lines[-1])
    info = json.loads(lines[-2])["perfbench"]
    return {
        "path": path,
        "key": (info["workload"], info["trace"]),
        "fingerprint": info["fingerprint"],
        "correct": result["correct"] and result["failed"] == 0,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args()
    runs = {"base": [load(p) for p in args.base], "head": [load(p) for p in args.head]}

    prints = {json.dumps(r["fingerprint"], sort_keys=True) for side in runs.values() for r in side}
    if len(prints) > 1:
        print("refusing to compare timings across machine fingerprints:", file=sys.stderr)
        for fingerprint in sorted(prints):
            print(f"  {fingerprint}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    status = 0
    for side, side_runs in runs.items():
        for run in side_runs:
            if not run["correct"]:
                print(f"{side} run {run['path']} failed its output checks")
                status = 1

    grouped = defaultdict(lambda: defaultdict(lambda: defaultdict(list)))
    for side, side_runs in runs.items():
        for run in side_runs:
            for name, value in run["metrics"].items():
                grouped[run["key"]][name][side].append(value)

    for (workload, trace), metrics in sorted(grouped.items()):
        print(f"== {workload} (trace={trace})")
        for name, sides in metrics.items():
            base, head = sides.get("base", []), sides.get("head", [])
            if not base or not head:
                continue
            b1, b2, b3 = quartiles(base)
            h1, h2, h3 = quartiles(head)
            line = (f"  {name:36s} base {b2:.6g} [{b1:.6g}, {b3:.6g}] n={len(base)}"
                    f"  head {h2:.6g} [{h1:.6g}, {h3:.6g}] n={len(head)}")
            rule = bounds.get(name)
            if rule is not None and b2:
                lower = rule["better"] == "lower"
                worse = (h2 - b2) / b2 if lower else (b2 - h2) / b2
                spread = (b3 - b1) / b2
                head_wins = max(head) < min(base) if lower else min(head) > max(base)
                if spread > rule["bound"] and not head_wins:
                    verdict = "unresolved"
                elif worse > rule["bound"]:
                    verdict = "REGRESSION"
                    status = 1
                else:
                    verdict = "ok"
                line += f"  {-worse:+.1%} {verdict} (bound {rule['bound']:.0%})"
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
