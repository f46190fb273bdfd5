"""Normalisation steps of the Voiceprint comparison phase.

Two normalisations appear in the paper:

* **Enhanced Z-score** (Eq. 7) — applied to every RSSI series *before*
  DTW.  Dividing by ``3 * sigma`` maps ~99.7 % of samples into
  ``(-1, 1)`` and, crucially, cancels any constant TX-power offset the
  attacker gives each Sybil identity (Assumption 3): shifting a series
  by a constant changes only its mean, and rescaling the radio gain
  changes only its deviation — the *shape*, which is what DTW compares,
  is preserved.

* **Min–max** (Eq. 8) — applied to the set of pairwise DTW distances
  *after* comparison, mapping them into ``[0, 1]`` so that a single
  trained decision boundary is meaningful across detection periods.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Tuple

import numpy as np

from .timeseries import RSSITimeSeries

__all__ = [
    "zscore",
    "zscore_series",
    "enhanced_zscore",
    "minmax",
    "minmax_distances",
    "RunningStats",
    "StreamingWindowStats",
]

#: Below this standard deviation a series is treated as constant; the
#: Z-score of a constant series is defined as all-zeros rather than a
#: division by (almost) zero blowing measurement noise up to +/-inf.
_SIGMA_FLOOR = 1e-12


def zscore(values: np.ndarray, sigma_multiplier: float = 1.0) -> np.ndarray:
    """Classic Z-score normalisation ``(x - mu) / (k * sigma)``.

    Args:
        values: 1-D array of samples.
        sigma_multiplier: ``k`` in the denominator; the paper's enhanced
            variant uses 3 (see :func:`enhanced_zscore`).

    Returns:
        A new array of the same shape.  A constant (or empty) input maps
        to all zeros.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D array, got shape {arr.shape}")
    if sigma_multiplier <= 0:
        raise ValueError(f"sigma_multiplier must be positive, got {sigma_multiplier}")
    if arr.size == 0:
        return arr.copy()
    sigma = float(np.std(arr))
    if sigma < _SIGMA_FLOOR:
        return np.zeros_like(arr)
    return (arr - float(np.mean(arr))) / (sigma_multiplier * sigma)


def enhanced_zscore(values: np.ndarray) -> np.ndarray:
    """The paper's enhanced Z-score (Eq. 7): ``(x - mu) / (3 * sigma)``.

    Maps ~99.7 % of a Gaussian-like series into ``(-1, 1)`` while
    leaving the series *shape* untouched, which eliminates spoofed
    per-identity transmission-power offsets.
    """
    return zscore(values, sigma_multiplier=3.0)


def zscore_series(
    series: RSSITimeSeries, sigma_multiplier: float = 3.0
) -> RSSITimeSeries:
    """Return a normalised copy of ``series`` (timestamps preserved)."""
    normalised = zscore(series.values, sigma_multiplier=sigma_multiplier)
    out = RSSITimeSeries(series.identity)
    for t, v in zip(series.timestamps, normalised):
        out.append(float(t), float(v))
    return out


def minmax(values: np.ndarray) -> np.ndarray:
    """Min–max normalisation into ``[0, 1]`` (Eq. 8).

    A constant (or single-element) input maps to all zeros — in the
    detector this situation means "all pairs look equally similar", and
    mapping to 0 (maximal similarity) errs on the side of flagging,
    which matches the paper's treatment of indistinguishable pairs.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return arr.copy()
    lo = float(np.min(arr))
    hi = float(np.max(arr))
    if hi - lo < _SIGMA_FLOOR:
        return np.zeros_like(arr)
    return (arr - lo) / (hi - lo)


class RunningStats:
    """Streaming mean/variance over a sliding window (Welford + removal).

    Maintains the running mean and the sum of squared deviations (``M2``)
    of the samples currently inside the window, updated in O(1) per
    ``add``/``remove`` instead of O(window) per period.  This is the
    screening-layer counterpart of :func:`zscore`.  Nothing in the
    detector uses it: the incremental engine's ``_IdentityState`` keeps
    the raw window, and ``_normalise`` recomputes ``np.mean``/``np.std``
    for every window.

    The batch path computes ``np.mean``/``np.std`` over the full window;
    streaming accumulation follows a different float summation order, so
    the two agree only to accumulation tolerance (~1e-9 relative), never
    necessarily bit-for-bit.  The one exact guarantee — required by the
    divisor==0.0 constant-series sentinel in the audit schema — is that a
    window whose samples are all equal reports ``M2 == 0.0`` exactly, and
    therefore ``std() == 0.0`` and ``divisor() == 0.0``:  ``add`` skips
    the M2 update when the incoming sample equals the running mean, and
    removals that empty the window reset both accumulators to exactly
    zero.
    """

    __slots__ = ("count", "mean", "m2")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add(self, value: float) -> None:
        """Fold one sample into the window (Welford update)."""
        value = float(value)
        self.count += 1
        delta = value - self.mean
        if delta == 0.0:
            # Constant run: mean is unchanged and M2 must stay *exactly*
            # what it was (0.0 for an all-constant window) rather than
            # accumulate a -0.0/rounding residue.
            return
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)

    def remove(self, value: float) -> None:
        """Remove one sample previously ``add``-ed (reverse Welford)."""
        value = float(value)
        if self.count <= 0:
            raise ValueError("remove() from empty RunningStats")
        if self.count == 1:
            self.count = 0
            self.mean = 0.0
            self.m2 = 0.0
            return
        self.count -= 1
        delta = value - self.mean
        if delta == 0.0:
            return
        self.mean -= delta / self.count
        self.m2 -= delta * (value - self.mean)
        if self.m2 < 0.0:
            # Cancellation can leave a tiny negative residue; variance
            # is non-negative by definition.
            self.m2 = 0.0

    @property
    def variance(self) -> float:
        """Population variance of the current window (0.0 when empty)."""
        if self.count <= 0:
            return 0.0
        return self.m2 / self.count

    def std(self) -> float:
        """Population standard deviation of the current window."""
        return float(np.sqrt(self.variance))

    def divisor(self, sigma_multiplier: float = 3.0) -> float:
        """Z-score divisor ``k * sigma``; exactly 0.0 for constant windows.

        Mirrors the constant-series sentinel of :func:`zscore` (and the
        audit bundle's ``divisor == 0.0`` convention): a window with
        sub-floor deviation normalises to all zeros, signalled by a 0.0
        divisor rather than a near-zero one.
        """
        sigma = self.std()
        if sigma < _SIGMA_FLOOR:
            return 0.0
        return sigma_multiplier * sigma


class StreamingWindowStats:
    """Timestamped sliding-window statistics fed one beacon at a time.

    Wraps :class:`RunningStats` with the window bookkeeping the online
    detector needs: ``push`` appends a ``(timestamp, value)`` sample and
    ``advance`` drops samples older than the new window start, keeping
    cost proportional to the number of samples that *entered or left*
    the window — never to the window size.
    """

    __slots__ = ("_samples", "_stats")

    def __init__(self) -> None:
        self._samples: Deque[Tuple[float, float]] = deque()
        self._stats = RunningStats()

    def push(self, timestamp: float, value: float) -> None:
        """Append one sample; timestamps must be non-decreasing."""
        timestamp = float(timestamp)
        if self._samples and timestamp < self._samples[-1][0]:
            raise ValueError(
                f"timestamp {timestamp} precedes window tail "
                f"{self._samples[-1][0]}"
            )
        self._samples.append((timestamp, float(value)))
        self._stats.add(value)

    def advance(self, start: float) -> int:
        """Drop samples with ``timestamp < start``; returns the count."""
        dropped = 0
        while self._samples and self._samples[0][0] < float(start):
            _, value = self._samples.popleft()
            self._stats.remove(value)
            dropped += 1
        return dropped

    @property
    def count(self) -> int:
        return self._stats.count

    @property
    def mean(self) -> float:
        return self._stats.mean

    def std(self) -> float:
        return self._stats.std()

    def divisor(self, sigma_multiplier: float = 3.0) -> float:
        return self._stats.divisor(sigma_multiplier)


def minmax_distances(
    distances: Dict[Tuple[str, str], float],
) -> Dict[Tuple[str, str], float]:
    """Min–max normalise a pairwise-distance mapping (Eq. 8).

    Args:
        distances: Mapping from an identity pair to its raw DTW distance.

    Returns:
        A new mapping with every value scaled into ``[0, 1]``.
    """
    if not distances:
        return {}
    keys = list(distances.keys())
    values = minmax(np.array([distances[k] for k in keys], dtype=float))
    return {k: float(v) for k, v in zip(keys, values)}
