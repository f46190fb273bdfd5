"""Tests for repro.core.pairwise — kernels, bounds, compare, decisions.

The engine's contract is *bit-equality*: every distance it answers must
be exactly what a per-pair loop over the reference kernels
(``dtw_banded_fast`` / ``fastdtw`` / ``dtw``, divided by the warp-path
length) produces, not merely close.  The property tests below therefore
compare with ``==`` on floats.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from repro.core.detector import DetectorConfig, VoiceprintDetector
from repro.core.dtw import dtw
from repro.core.fastdtw import dtw_banded_fast, fastdtw
from repro.core.normalization import minmax_distances
from repro.core.pairwise import (
    PROV_INCREMENTAL,
    PairwiseEngine,
    band_cells,
    dtw_band_upper_bound,
    dtw_banded_batch,
    dtw_banded_vec,
    lb_kim,
)
from repro.core.thresholds import ConstantThreshold
from repro.obs.metrics import MetricsRegistry
from tests.test_core_incremental import _sliding_scenario, _window_inputs

_series = st.lists(
    st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=40,
)


def _registry():
    return MetricsRegistry(enabled=True)


def _reference_distances(arrays, radius=10, path_norm=True):
    """The per-pair reference loop every engine answer must reproduce."""
    ids = sorted(arrays)
    out = {}
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            result = dtw_banded_fast(arrays[a], arrays[b], radius)
            out[(a, b)] = (
                result.distance / len(result.path) if path_norm else result.distance
            )
    return out


def _scenario_arrays(rng, n_ids=6, n_min=80, n_max=220, similar=2):
    """Random identity series, some near-duplicates (sybil-like)."""
    base = rng.normal(size=n_max)
    arrays = {}
    for i in range(n_ids):
        n = int(rng.integers(n_min, n_max + 1))
        if i < similar:
            arrays[f"id{i}"] = base[:n] + rng.normal(scale=0.05, size=n)
        else:
            arrays[f"id{i}"] = rng.normal(size=n)
    return arrays


class TestVectorKernel:
    @given(x=_series, y=_series, radius=st.integers(0, 12))
    @settings(max_examples=80, deadline=None)
    def test_matches_scalar_banded_exactly(self, x, y, radius):
        ref = dtw_banded_fast(np.array(x), np.array(y), radius)
        got = dtw_banded_vec(np.array(x), np.array(y), radius)
        assert got.distance == ref.distance
        assert got.path == ref.path
        assert got.cells == ref.cells

    @given(x=_series, y=_series)
    @settings(max_examples=40, deadline=None)
    def test_full_band_matches_exact_dtw_distance(self, x, y):
        # A radius covering the whole matrix relaxes every cell, so the
        # banded optimum equals unconstrained DTW.
        radius = len(x) + len(y)
        got = dtw_banded_vec(np.array(x), np.array(y), radius)
        assert got.distance == dtw(np.array(x), np.array(y)).distance

    def test_typical_detector_window(self):
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=200), rng.normal(size=200)
        ref = dtw_banded_fast(x, y, 10)
        got = dtw_banded_vec(x, y, 10)
        assert (got.distance, got.path, got.cells) == (
            ref.distance,
            ref.path,
            ref.cells,
        )

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            dtw_banded_vec(np.ones(5), np.ones(5), -1)
        with pytest.raises(ValueError):
            dtw_banded_vec(np.ones(0), np.ones(5), 2)
        with pytest.raises(ValueError):
            dtw_banded_vec(np.ones((2, 2)), np.ones(5), 2)


class TestBatchKernel:
    @given(
        shapes=st.tuples(st.integers(2, 50), st.integers(2, 50)),
        count=st.integers(1, 6),
        radius=st.integers(0, 12),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_banded_exactly(self, shapes, count, radius, seed):
        n, m = shapes
        rng = np.random.default_rng(seed)
        xs = [rng.normal(size=n) for _ in range(count)]
        ys = [rng.normal(size=m) for _ in range(count)]
        got = dtw_banded_batch(xs, ys, radius)
        assert len(got) == count
        for (distance, path_len, cells), x, y in zip(got, xs, ys):
            ref = dtw_banded_fast(x, y, radius)
            assert distance == ref.distance
            assert path_len == len(ref.path)
            assert cells == ref.cells

    def test_empty_batch(self):
        assert dtw_banded_batch([], [], 5) == []

    def test_rejects_mixed_shapes(self):
        with pytest.raises(ValueError):
            dtw_banded_batch([np.ones(5), np.ones(6)], [np.ones(5)] * 2, 2)
        with pytest.raises(ValueError):
            dtw_banded_batch([np.ones(5)], [np.ones(5), np.ones(5)], 2)


def _envelope(values, width):
    """Sliding min/max envelope as the incremental engine keeps it."""
    if values.size <= width:
        return None  # the whole-series min/max covers every interval
    windows = sliding_window_view(values, width)
    return windows.min(axis=1), windows.max(axis=1)


class TestBounds:
    @given(x=_series, y=_series, radius=st.integers(0, 12))
    @settings(max_examples=80, deadline=None)
    def test_sandwich_banded_dtw(self, x, y, radius):
        xa, ya = np.array(x), np.array(y)
        distance = dtw_banded_fast(xa, ya, radius).distance
        width = 2 * radius + 1
        engine = PairwiseEngine(band_radius=radius, registry=_registry())
        lower = engine._incremental_lower_bound(
            xa, ya, _envelope(xa, width), _envelope(ya, width), radius
        )
        upper, upper_len = dtw_band_upper_bound(xa, ya, radius)
        assert lb_kim(xa, ya) <= distance + 1e-9
        assert lower <= distance + 1e-9
        assert distance <= upper + 1e-9
        assert max(len(x), len(y)) <= upper_len <= len(x) + len(y) - 1

    @given(x=_series, radius=st.integers(0, 12), seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_equal_length_upper_bound_is_euclidean(self, x, radius, seed):
        xa = np.array(x)
        ya = xa + np.random.default_rng(seed).normal(size=xa.size)
        upper, upper_len = dtw_band_upper_bound(xa, ya, radius)
        euclid = float(((xa - ya) ** 2).sum())
        assert upper == pytest.approx(euclid, abs=1e-12)
        assert upper_len == xa.size

    def test_band_cells_matches_kernel_work(self):
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=120), rng.normal(size=100)
        assert band_cells(120, 100, 10) == dtw_banded_fast(x, y, 10).cells


class TestEngineCompare:
    def test_bit_equal_to_naive_loop(self):
        rng = np.random.default_rng(9)
        arrays = _scenario_arrays(rng)
        engine = PairwiseEngine(band_radius=10, registry=_registry())
        distances, stats = engine.compare(arrays)
        want = _reference_distances(arrays)
        assert distances == want
        assert list(distances) == list(want)  # sorted-identity order
        assert stats.pairs == stats.exact == len(distances)

    @pytest.mark.parametrize(
        "engine_kwargs,ref",
        [
            (
                {"band_radius": None, "fastdtw_radius": 1},
                lambda x, y: fastdtw(x, y, radius=1),
            ),
            ({"use_exact_dtw": True}, lambda x, y: dtw(x, y)),
            (
                {"band_radius": 10, "normalize_by_path_length": False},
                lambda x, y: dtw_banded_fast(x, y, 10),
            ),
        ],
    )
    def test_other_kernel_modes(self, engine_kwargs, ref):
        rng = np.random.default_rng(10)
        arrays = {k: rng.normal(size=120) for k in "abcd"}
        engine = PairwiseEngine(registry=_registry(), **engine_kwargs)
        distances, _ = engine.compare(arrays)
        path_norm = engine_kwargs.get("normalize_by_path_length", True)
        for (a, b), value in distances.items():
            result = ref(arrays[a], arrays[b])
            expected = (
                result.distance / len(result.path) if path_norm else result.distance
            )
            assert value == expected

    def test_counters_reach_registry(self):
        rng = np.random.default_rng(11)
        arrays = {k: rng.normal(size=150) for k in "abcd"}
        registry = _registry()
        engine = PairwiseEngine(band_radius=10, registry=registry)
        first, stats1 = engine.compare(arrays)
        second, stats2 = engine.compare(arrays)
        # Every call runs the kernels: same answer, same work.
        assert second == first
        assert stats2.exact == 6 and stats2.cells == stats1.cells
        assert registry.counter("detector.pairs_compared").value == 12
        assert registry.counter("detector.pairs_exact").value == 12
        assert registry.counter("detector.dtw_cells").value == 2 * stats1.cells
        assert engine.stats.pairs == 12

    # Incremental mode keeps one cache: each pair's last kernel result,
    # keyed by both windows' bytes and the scale tag, LRU-bounded by
    # ``MAX_PAIR_STATES``.  An unchanged pair is answered from it.
    def test_cache_hits_and_counters(self):
        rng = np.random.default_rng(11)
        inputs = _random_window_inputs(rng, "abcd")
        registry = _registry()
        engine = PairwiseEngine(band_radius=10, incremental=True, registry=registry)
        first, _, stats1 = _decide(engine, inputs, 0.1, "normalized")
        second, _, stats2 = _decide(engine, inputs, 0.1, "normalized")
        assert second == first
        assert stats2.incremental == 6 and stats2.exact == 0 and stats2.cells == 0
        assert stats2.cells_saved == stats1.cells
        assert registry.counter("detector.pairs_incremental").value == 6
        assert registry.counter("detector.pairs_compared").value == 12
        assert registry.counter("detector.dtw_cells").value == stats1.cells

    def test_scale_tag_invalidates_cache(self):
        rng = np.random.default_rng(12)
        inputs = _random_window_inputs(rng, "ab")
        engine = PairwiseEngine(band_radius=10, incremental=True, registry=_registry())
        _decide(engine, inputs, 0.1, "normalized", scale_tag="scale-A")
        _, _, stats = _decide(engine, inputs, 0.1, "normalized", scale_tag="scale-B")
        assert stats.incremental == 0 and stats.exact == 1
        # The rerun is stored under the new tag and answers the next call.
        _, _, stats = _decide(engine, inputs, 0.1, "normalized", scale_tag="scale-B")
        assert stats.incremental == 1 and stats.exact == 0

    def test_lru_eviction(self):
        rng = np.random.default_rng(13)
        inputs = _random_window_inputs(rng, "abc")  # 3 pairs
        engine = PairwiseEngine(band_radius=10, incremental=True, registry=_registry())
        engine.MAX_PAIR_STATES = 2
        _decide(engine, inputs, 0.1, "normalized")
        assert engine.incremental_state_len == 2
        assert list(engine._pair_states) == [("a", "c"), ("b", "c")]  # oldest out
        _, _, stats = _decide(engine, inputs, 0.1, "normalized")
        assert 0 < stats.incremental < 3
        assert engine.incremental_state_len == 2

    def test_cache_disabled(self):
        rng = np.random.default_rng(14)
        arrays = {k: rng.normal(size=100) for k in "ab"}
        engine = PairwiseEngine(band_radius=10, registry=_registry())
        assert not engine.can_incremental
        _, stats1 = engine.compare(arrays)
        _, stats2 = engine.compare(arrays)
        assert engine.incremental_state_len == 0
        assert stats1.incremental == stats2.incremental == 0
        assert stats2.exact == 1


def _decide(engine, inputs, cutoff, threshold_on, scale_tag="s"):
    """One ``compare_incremental`` call on :func:`_window_inputs` output."""
    arrays, raw, times, keys, params = inputs
    return engine.compare_incremental(
        arrays, raw, times, keys, scale_tag, params, cutoff, threshold_on
    )


def _random_window_inputs(rng, ids, n=150):
    t = np.arange(n) * 0.1
    streams = {k: rng.normal(size=n) - 70.0 for k in ids}
    return _window_inputs(t, streams, 0.0, float(t[-1]))


def _slid_windows(streams, t, shift, length=20.0):
    """Inputs for a window and for the same window ``shift`` s later.

    The two overlap, so on the second call
    :meth:`PairwiseEngine.compare_incremental` may decide pairs from
    the bound sandwich or an abandoned kernel run.
    """
    return (
        _window_inputs(t, streams, 0.0, length),
        _window_inputs(t, streams, shift, length + shift),
    )


def _unscaled(inputs):
    """The same windows compared unnormalised (mean 0, divisor 1)."""
    _arrays, raw, times, keys, _params = inputs
    return raw, raw, times, keys, {k: (0.0, 1.0) for k in raw}


class TestCompareDecided:
    """Threshold-aware comparison: after a slide,
    :meth:`PairwiseEngine.compare_incremental` decides pairs without an
    exact distance — ``pruned-*`` from the bound sandwich, or an
    abandoned kernel run — and must still return the naive loop's flags.
    """

    @pytest.mark.parametrize("threshold_on", ["normalized", "raw"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_flags_identical_to_naive(self, threshold_on, seed):
        rng = np.random.default_rng(seed)
        t, streams = _sliding_scenario(rng, n_samples=300)
        n_ids = int(rng.integers(5, 7))
        streams = dict(sorted(streams.items())[:n_ids])
        first, second = _slid_windows(streams, t, shift=1.0 + 0.5 * seed)
        naive_raw = _reference_distances(second[0])
        judged = (
            minmax_distances(naive_raw) if threshold_on == "normalized" else naive_raw
        )
        values = sorted(naive_raw.values())
        cutoffs = (
            [-0.5, 0.0, 0.05, 0.3, 0.7, 1.0, 2.0]
            if threshold_on == "normalized"
            else [0.0, values[0], values[len(values) // 2], values[-1] * 2]
        )
        decided = 0
        for cutoff in cutoffs:
            engine = PairwiseEngine(
                band_radius=10, incremental=True, registry=_registry()
            )
            _decide(engine, first, cutoff, threshold_on)
            distances, flags, stats = _decide(engine, second, cutoff, threshold_on)
            assert flags == {p: d <= cutoff for p, d in judged.items()}
            assert stats.exact + stats.pruned + stats.abandoned == stats.pairs
            decided += stats.pruned + stats.abandoned
            if threshold_on == "normalized":
                # Normalized mode resolves the min-max anchors exactly,
                # so the report's extremes match the naive loop even
                # when other pairs carry bound surrogates.
                assert min(distances.values()) == values[0]
                assert max(distances.values()) == values[-1]
        assert decided > 0  # the slide must leave pairs to decide

    def test_surrogates_stay_on_correct_side(self):
        # Three near-identical series and three far, offset ones,
        # compared unnormalised: pairs within the near group are decided
        # by the upper bound, pairs with a far series by the lower bound.
        rng = np.random.default_rng(21)
        t = np.arange(300) * 0.1
        wave = np.sin(t / 1.5)
        streams = {}
        for i in range(3):
            streams[f"near{i}"] = wave + rng.normal(scale=0.01, size=t.size)
        for i in range(3):
            streams[f"far{i}"] = wave[::-1] + 100.0 * (i + 1) + rng.normal(
                scale=0.01, size=t.size
            )
        first, second = (
            _unscaled(inputs) for inputs in _slid_windows(streams, t, shift=1.0)
        )
        naive_raw = _reference_distances(second[0])
        for threshold_on, cutoff in (("normalized", 0.3), ("raw", 5000.0)):
            engine = PairwiseEngine(
                band_radius=10, incremental=True, registry=_registry()
            )
            _decide(engine, first, cutoff, threshold_on)
            distances, flags, stats = _decide(engine, second, cutoff, threshold_on)
            assert stats.pruned + stats.abandoned > 0  # the slide must decide
            naive_judged = (
                minmax_distances(naive_raw)
                if threshold_on == "normalized"
                else naive_raw
            )
            assert flags == {p: d <= cutoff for p, d in naive_judged.items()}
            # Surrogates must land on their flag's side of the threshold
            # even after re-normalising the mixed exact/surrogate report.
            judged = (
                minmax_distances(distances)
                if threshold_on == "normalized"
                else distances
            )
            for pair, flag in flags.items():
                assert (judged[pair] <= cutoff) == flag

    def test_degenerate_identical_series(self):
        t = np.arange(200) * 0.1
        base = np.sin(np.linspace(0.0, 6.0, t.size))
        streams = {k: base.copy() for k in "abc"}
        first, second = _slid_windows(streams, t, shift=1.0, length=12.0)
        engine = PairwiseEngine(band_radius=10, incremental=True, registry=_registry())
        _decide(engine, first, 0.0, "normalized")
        distances, flags, _ = _decide(engine, second, 0.0, "normalized")
        assert all(flags.values())  # min-max degenerates to all-zero
        assert set(distances.values()) == {0.0}

    def test_cached_pairs_count_as_exact(self):
        # Only veh0's window changes: every other pair is answered from
        # the carry store and enters the decision as an exact distance.
        rng = np.random.default_rng(22)
        t, streams = _sliding_scenario(rng)
        first = _window_inputs(t, streams, 0.0, 20.0)
        moved = dict(streams)
        moved["veh0"] = streams["veh0"] + rng.normal(scale=0.5, size=t.size)
        second = _window_inputs(t, moved, 0.0, 20.0)
        engine = PairwiseEngine(band_radius=10, incremental=True, registry=_registry())
        _decide(engine, first, 0.3, "normalized")
        engine.record_provenance = True
        distances, flags, stats = _decide(engine, second, 0.3, "normalized")
        naive = _reference_distances(second[0])
        carried = [pair for pair in naive if "veh0" not in pair]
        assert stats.incremental == len(carried) == 10
        assert stats.exact == stats.pairs - len(carried)
        assert distances == naive
        for pair in carried:
            assert engine.last_provenance[pair]["tag"] == PROV_INCREMENTAL
        normalised = minmax_distances(naive)
        assert flags == {p: d <= 0.3 for p, d in normalised.items()}

    def test_requires_banded_pruning(self):
        for kwargs in ({"band_radius": None}, {"use_exact_dtw": True}):
            engine = PairwiseEngine(incremental=True, registry=_registry(), **kwargs)
            assert not engine.can_incremental
            with pytest.raises(RuntimeError):
                engine.compare_incremental({}, {}, {}, {}, "", {}, 0.0, "normalized")


def _feed(detector, identity, values, start=0.0, interval=0.1):
    for index, value in enumerate(values):
        detector.observe(identity, start + index * interval, value)


def _synthetic_observations(rng, n_samples=200):
    """One attacker (3 streams sharing a waveform) + two normal nodes."""
    t = np.arange(n_samples) * 0.1
    shared = (
        -70
        + 5 * np.sin(2 * np.pi * t / 15)
        + np.cumsum(rng.normal(0, 0.4, n_samples))
    )
    streams = {}
    for name, offset in (("mal", 0.0), ("syb1", 4.0), ("syb2", -3.0)):
        streams[name] = shared + offset + rng.normal(0, 0.3, n_samples)
    for name in ("norm1", "norm2"):
        streams[name] = (
            -75
            + 6 * np.sin(2 * np.pi * t / 11 + rng.uniform(0, 6))
            + np.cumsum(rng.normal(0, 0.5, n_samples))
        )
    return streams


def _detector(registry=None, **config_kwargs):
    return VoiceprintDetector(
        threshold=ConstantThreshold(0.1),
        config=DetectorConfig(**config_kwargs),
        registry=registry or _registry(),
    )


def _reference_report(detector, density, now):
    """The detector's report recomputed with the per-pair reference loop.

    The detector's own normalised windows go through
    :func:`_reference_distances`, then Eq. 8 min–max and the threshold
    rule — the computation every engine path must reproduce.
    """
    normalised, _skipped, _scale_tag = detector._normalise(now)
    raw = _reference_distances(normalised, radius=detector.config.band_radius_samples)
    distances = minmax_distances(raw)
    cutoff = detector.threshold.threshold_at(density)
    judged = distances if detector.config.threshold_on == "normalized" else raw
    sybil_pairs = tuple(pair for pair, d in sorted(judged.items()) if d <= cutoff)
    return raw, distances, sybil_pairs


class TestDetectorIntegration:
    @pytest.mark.parametrize("scale_mode", ["median", "per-series"])
    @pytest.mark.parametrize("threshold_on", ["normalized", "raw"])
    def test_engine_report_bit_identical_to_legacy(self, scale_mode, threshold_on):
        rng = np.random.default_rng(31)
        streams = _synthetic_observations(rng)
        engine = _detector(scale_mode=scale_mode, threshold_on=threshold_on)
        for name, values in streams.items():
            _feed(engine, name, values)
        now = engine._latest
        want_raw, want_distances, want_pairs = _reference_report(engine, 40.0, now)
        got = engine.detect(density=40.0, now=now)
        assert got.raw_distances == want_raw
        assert got.distances == want_distances
        assert got.sybil_pairs == want_pairs
        assert got.sybil_ids == frozenset(i for pair in want_pairs for i in pair)
        assert got.sybil_pairs  # the attacker trio must actually be flagged

    @pytest.mark.parametrize("threshold_on", ["normalized", "raw"])
    def test_pruned_detect_flags_identical_to_legacy(self, threshold_on):
        # Incremental detections 1–1.5 s apart: pairs are pruned from
        # bounds or abandoned, yet each report flags what the per-pair
        # reference loop flags.
        rng = np.random.default_rng(32)
        streams = _synthetic_observations(rng, n_samples=260)
        registry = _registry()
        pruned = _detector(
            registry, pairwise_incremental=True, threshold_on=threshold_on
        )
        for name, values in streams.items():
            _feed(pruned, name, values)
        for now in (20.0, 21.0, 22.5, 24.0, 25.5):
            _, _, want_pairs = _reference_report(pruned, 40.0, now)
            got = pruned.detect(density=40.0, now=now)
            assert got.sybil_pairs == want_pairs
            assert got.sybil_ids == frozenset(i for pair in want_pairs for i in pair)
        stats = pruned.pairwise_stats
        assert stats.pruned + stats.abandoned > 0
        assert (
            stats.exact + stats.pruned + stats.incremental + stats.abandoned
            == stats.pairs
        )
        assert registry.counter("detector.pairs_compared").value == stats.pairs

    def test_repeat_detect_hits_cache(self):
        rng = np.random.default_rng(33)
        streams = _synthetic_observations(rng)
        registry = _registry()
        detector = _detector(registry, pairwise_incremental=True)
        for name, values in streams.items():
            _feed(detector, name, values)
        first = detector.detect(density=40.0)
        cells_after_first = registry.counter("detector.dtw_cells").value
        second = detector.detect(density=40.0)
        assert second.raw_distances == first.raw_distances
        assert second.sybil_pairs == first.sybil_pairs
        assert registry.counter("detector.dtw_cells").value == cells_after_first
        assert registry.counter("detector.pairs_incremental").value == len(
            first.raw_distances
        )

    @pytest.mark.parametrize(
        "kwargs",
        [{"band_radius_samples": -1}, {"fastdtw_radius": -2}],
    )
    def test_config_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            DetectorConfig(**kwargs)
