"""Forensic rendering of audit records — the ``repro explain`` command.

Given an audit log written by ``--audit-out`` (see
:mod:`repro.obs.audit`), this module answers the operator's question
*"why was this pair flagged?"* with evidence instead of a bare bit:

* the two RSSI windows (sparkline + normalisation stats + byte hash),
* the DTW warping path with its per-step cost decomposition
  (:func:`repro.core.dtw.path_cost_steps` over the recorded windows),
* the signed margin rendered as a distance-to-threshold bar,
* the provenance of the recorded distance (kernel run, carry, bound
  decision or early abandon),
* and, with ``--verify``, a bit-replay of every ``exact`` record
  through :mod:`repro.core.pairwise` (the contract check).

Everything renders to plain text — the CLI prints the returned string.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .audit import (
    _REPLAYABLE_PROVENANCE,
    get_near_miss_epsilon,
    iter_pair_records,
    load_audit_log,
    normalised_window,
    verify_bundle,
)

__all__ = [
    "render_pair_report",
    "render_verification",
    "run_explain",
    "select_pair_records",
    "sparkline",
]

#: Most pair reports rendered in one invocation (a pair recurs once per
#: detection period; unbounded output helps nobody).
MAX_REPORTS = 5

_BLOCKS = " ▁▂▃▄▅▆▇█"


def sparkline(values: np.ndarray, width: int = 64) -> str:
    """Fixed-width unicode sparkline of a series (shared with the
    ``repro watch`` dashboard and the end-of-run report)."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return ""
    if values.size > width:
        idx = np.linspace(0, values.size - 1, width).round().astype(int)
        values = values[idx]
    lo = float(np.min(values))
    hi = float(np.max(values))
    span = hi - lo
    if span <= 0.0:
        return _BLOCKS[1] * values.size
    levels = ((values - lo) / span * (len(_BLOCKS) - 1)).round().astype(int)
    return "".join(_BLOCKS[level] for level in levels)


def _margin_bar(margin: Optional[float], width: int = 41) -> str:
    """ASCII distance-to-threshold bar; ``|`` marks the threshold."""
    if margin is None or not math.isfinite(margin):
        return f"(margin {margin})"
    epsilon = get_near_miss_epsilon()
    scale = max(abs(margin), 2.0 * epsilon)
    half = (width - 1) // 2
    cells = [" "] * (2 * half + 1)
    cells[half] = "|"
    offset = int(round(max(-1.0, min(1.0, margin / scale)) * half))
    step = 1 if offset >= 0 else -1
    for position in range(step, offset + step, step):
        cells[half + position] = "="
    if offset != 0:
        cells[half + offset] = "#"
    return "[" + "".join(cells) + "]"


def _select_sort_key(record: Dict[str, Any]) -> float:
    margin = record.get("margin")
    if margin is None:
        return math.inf
    return abs(margin)


def select_pair_records(
    bundles: List[Dict[str, Any]],
    pair: Optional[Tuple[str, str]] = None,
    observer: Optional[str] = None,
    worst: bool = False,
    near_misses: Optional[int] = None,
) -> List[Tuple[Dict[str, Any], Dict[str, Any]]]:
    """Pick the ``(bundle, pair record)`` entries a query asks for.

    Exactly one selector must be active: ``pair`` (all of one pair's
    periods), ``worst`` (the single verdict closest to its threshold),
    or ``near_misses`` (the N closest).  ``observer`` further restricts
    any of them.
    """
    selectors = sum((pair is not None, bool(worst), near_misses is not None))
    if selectors != 1:
        raise ValueError(
            "specify exactly one of --pair, --worst, --near-misses"
        )
    entries = [
        (bundle, record)
        for bundle, record in iter_pair_records(bundles)
        if observer is None or bundle.get("observer") == observer
    ]
    if not entries:
        raise ValueError("no pair records match the query")
    if pair is not None:
        wanted = tuple(sorted(pair))
        matches = [
            (bundle, record)
            for bundle, record in entries
            if (record["a"], record["b"]) == wanted
        ]
        if not matches:
            raise ValueError(f"pair {wanted[0]},{wanted[1]} not in the log")
        return matches
    ranked = sorted(entries, key=lambda entry: _select_sort_key(entry[1]))
    if worst:
        return ranked[:1]
    assert near_misses is not None
    if near_misses < 1:
        raise ValueError(f"--near-misses wants a positive N, got {near_misses}")
    return ranked[:near_misses]


def _dtw_section(bundle: Dict[str, Any], record: Dict[str, Any]) -> List[str]:
    """Warping-path cost decomposition (needs window bytes + a real run)."""
    from ..core.dtw import path_cost_steps

    from .audit import _replay_engine

    a, b = record["a"], record["b"]
    try:
        xa = normalised_window(bundle, a)
        xb = normalised_window(bundle, b)
    except ValueError as error:
        return [f"dtw     : (no decomposition: {error})"]
    engine = _replay_engine(bundle)
    result = engine._kernel(xa, xb)
    steps = path_cost_steps(xa, xb, result.path)
    total = steps[-1][3] if steps else 0.0
    lines = [
        f"dtw     : path_len={len(steps)}  cells={result.cells}  "
        f"accumulated_cost={total:.6g}"
        + (
            f"  (/{len(steps)} path steps -> {result.distance / len(steps):.6g})"
            if bundle["normalize_by_path_length"] and steps
            else ""
        ),
        "          top warp-path steps by cost:",
        "            step     i     j       cost    cum%",
    ]
    order = sorted(range(len(steps)), key=lambda k: steps[k][2], reverse=True)
    for rank in sorted(order[:8]):
        i, j, cost, cumulative = steps[rank]
        share = 100.0 * cumulative / total if total > 0 else 0.0
        lines.append(
            f"            {rank + 1:>4}  {i:>4}  {j:>4}  {cost:>9.4g}  {share:>5.1f}"
        )
    return lines


def render_pair_report(
    bundle: Dict[str, Any], record: Dict[str, Any]
) -> str:
    """One pair's full forensic report as multi-line text."""
    a, b = record["a"], record["b"]
    observer = bundle.get("observer") or "-"
    period = bundle.get("period")
    margin = record.get("margin")
    flagged = record["flagged"]
    lines = [
        f"=== {a} × {b} — observer {observer}, period "
        f"{period if period is not None else '-'}, "
        f"t={bundle['timestamp']:.1f}s, density "
        f"{bundle['density']:.1f}/km ===",
        f"verdict : {'FLAGGED' if flagged else 'clear'}  "
        f"(judged {record['judged_distance']:.6g} "
        f"{'<=' if flagged else '>'} threshold {bundle['threshold']:.6g} "
        f"on {bundle['threshold_on']} distance)"
        + (
            f"   confirmed ids: {', '.join(record['confirmed_ids'])}"
            if record["confirmed_ids"]
            else ""
        ),
        f"distance: raw {record['raw_distance']:.6g}"
        + (
            f"   normalized {record['normalized_distance']:.6g}"
            if record.get("normalized_distance") is not None
            else ""
        ),
        f"margin  : {margin:+.1%}  {_margin_bar(margin)}  "
        "(| = threshold; <- flagged side)"
        if margin is not None and math.isfinite(margin)
        else f"margin  : {margin}",
    ]
    provenance = record["provenance"]
    detail = ""
    if record.get("bound") is not None:
        detail = f"  (deciding bound {record['bound']:.6g}; distance is a surrogate)"
    lines.append(f"prov    : {provenance}{detail}")
    for identity in (a, b):
        series = bundle["series"].get(identity)
        if series is None:
            lines.append(f"window  : {identity}  (not recorded)")
            continue
        lines.append(
            f"window  : {identity}  len={series['len']}  "
            f"mean={series['mean']:.2f} dBm  divisor={series['divisor']:.4g}  "
            f"sha256={series['sha256'][:16]}…"
        )
        if "window_b64" in series:
            lines.append(f"          {sparkline(normalised_window(bundle, identity))}")
    if provenance in _REPLAYABLE_PROVENANCE:
        lines.extend(_dtw_section(bundle, record))
    else:
        lines.append(
            "dtw     : (pair decided from bounds; no kernel run to decompose)"
        )
    return "\n".join(lines)


def render_verification(bundles: List[Dict[str, Any]]) -> Tuple[str, bool]:
    """Replay-verify every bundle; returns ``(text, all_ok)``."""
    verified = 0
    skipped: Dict[str, int] = {}
    mismatches: List[str] = []
    for index, bundle in enumerate(bundles):
        for result in verify_bundle(bundle):
            if result["status"] == "skipped":
                skipped[result["provenance"]] = (
                    skipped.get(result["provenance"], 0) + 1
                )
            elif result["status"] == "ok":
                verified += 1
            else:
                a, b = result["pair"]
                mismatches.append(
                    f"  detection #{index} {a}×{b}: recorded "
                    f"{result['recorded'].hex()} != replayed "
                    f"{result['replayed'].hex()}"
                )
    lines = [
        f"replayed {verified} exact pair record(s) through "
        f"repro.core.pairwise: "
        + ("all bit-identical" if not mismatches else
           f"{len(mismatches)} MISMATCH(ES)"),
    ]
    if skipped:
        detail = ", ".join(
            f"{count} {tag}" for tag, count in sorted(skipped.items())
        )
        lines.append(f"skipped (no replay obligation): {detail}")
    lines.extend(mismatches)
    return "\n".join(lines), not mismatches


def run_explain(
    log_path: str,
    pair: Optional[Tuple[str, str]] = None,
    observer: Optional[str] = None,
    worst: bool = False,
    near_misses: Optional[int] = None,
    verify: bool = False,
) -> str:
    """The ``repro explain`` entry point; returns the rendered text.

    Raises:
        ValueError: Bad query or unreadable/malformed log.
        RuntimeError: ``verify`` found a non-bit-identical replay.
    """
    bundles = load_audit_log(log_path)
    sections: List[str] = []
    if pair is not None or worst or near_misses is not None:
        selected = select_pair_records(
            bundles,
            pair=pair,
            observer=observer,
            worst=worst,
            near_misses=near_misses,
        )
        shown = selected[:MAX_REPORTS]
        sections.extend(
            render_pair_report(bundle, record) for bundle, record in shown
        )
        if len(selected) > len(shown):
            sections.append(
                f"... {len(selected) - len(shown)} more matching record(s) "
                "not shown"
            )
    elif not verify:
        raise ValueError(
            "specify --pair A,B, --worst, --near-misses N, or --verify"
        )
    if verify:
        text, ok = render_verification(bundles)
        sections.append(text)
        if not ok:
            raise RuntimeError(
                "audit replay mismatch:\n" + "\n\n".join(sections)
            )
    return "\n\n".join(sections)
