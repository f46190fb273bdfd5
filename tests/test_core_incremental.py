"""Tests for incremental detection — streaming stats, carries, abandons.

Covers the O(new-beacons) machinery end to end:

* :class:`repro.core.normalization.RunningStats` /
  :class:`StreamingWindowStats` — property-tested against batch
  ``np.mean``/``np.std`` over the same window, plus the *exact*
  ``divisor() == 0.0`` constant-window sentinel the audit schema
  relies on;
* :meth:`PairwiseEngine.compare_incremental` — flag sets byte-identical
  to the exact pairwise loop on sliding-window recheck sequences (both
  threshold modes, a spread of cutoffs), carried verdicts with
  ``incremental-carry`` provenance, envelope slide-vs-rebuild
  bit-identity, batched bound bit-identity, and the state-hygiene
  guarantees (disjoint windows take the fully exact path, eviction
  bounds hold, ``drop_identity``/``clear_incremental``/``reset`` leave
  no stale carries);
* the detector / experiment / audit plumbing: sliding ``detect()``
  flags match exact mode, disjoint periods reproduce exact reports
  byte for byte (the fig11a grid, serial and under ``eval.parallel``),
  and ``incremental-carry`` audit records replay bit-identically.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detector import DetectorConfig, VoiceprintDetector
from repro.core.fastdtw import dtw_banded_fast
from repro.core.normalization import (
    RunningStats,
    StreamingWindowStats,
    minmax_distances,
)
from repro.core.pairwise import (
    PROV_INCREMENTAL,
    PairwiseEngine,
    dtw_band_upper_bound,
)
from repro.core.thresholds import ConstantThreshold
from repro.obs.metrics import MetricsRegistry


_values = st.lists(
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=60,
)


def _registry():
    return MetricsRegistry(enabled=True)


def _assert_stats_match(stats, window):
    """Streaming accumulators agree with the batch reduction.

    Tolerances follow the class contract: different float summation
    orders agree to accumulation error, scaled by the window's
    magnitude (cancellation after removals is the worst case).
    """
    scale = float(np.max(np.abs(window))) if len(window) else 0.0
    assert stats.count == len(window)
    assert stats.mean == pytest.approx(
        float(np.mean(window)), rel=1e-9, abs=1e-9 * (1.0 + scale)
    )
    assert stats.variance == pytest.approx(
        float(np.var(window)), rel=1e-6, abs=1e-6 * (1.0 + scale * scale)
    )


class TestRunningStats:
    @given(values=_values)
    @settings(max_examples=100, deadline=None)
    def test_add_only_matches_batch(self, values):
        stats = RunningStats()
        for value in values:
            stats.add(value)
        _assert_stats_match(stats, values)

    @given(values=_values, window=st.integers(1, 20))
    @settings(max_examples=100, deadline=None)
    def test_sliding_window_matches_batch(self, values, window):
        stats = RunningStats()
        for index, value in enumerate(values):
            stats.add(value)
            if index >= window:
                stats.remove(values[index - window])
            _assert_stats_match(stats, values[max(0, index - window + 1) : index + 1])

    @given(value=st.floats(-1e6, 1e6, allow_nan=False), count=st.integers(1, 30))
    @settings(max_examples=60, deadline=None)
    def test_constant_window_sentinel_is_exact(self, value, count):
        # The audit schema's divisor == 0.0 convention requires *exact*
        # zeros for constant windows, not near-zeros.
        stats = RunningStats()
        for _ in range(count):
            stats.add(value)
        assert stats.m2 == 0.0
        assert stats.std() == 0.0
        assert stats.divisor() == 0.0

    def test_emptied_window_resets_exactly(self):
        stats = RunningStats()
        for value in (3.7, -1.2, 9.9):
            stats.add(value)
        for value in (3.7, -1.2, 9.9):
            stats.remove(value)
        assert (stats.count, stats.mean, stats.m2) == (0, 0.0, 0.0)
        # Refilling with a constant after arbitrary history stays exact.
        stats.add(5.0)
        stats.add(5.0)
        assert stats.divisor() == 0.0

    def test_remove_from_empty_raises(self):
        with pytest.raises(ValueError):
            RunningStats().remove(1.0)

    def test_divisor_scales_by_sigma_multiplier(self):
        stats = RunningStats()
        for value in (0.0, 2.0):
            stats.add(value)
        assert stats.divisor(sigma_multiplier=3.0) == 3.0 * stats.std()
        assert stats.divisor(sigma_multiplier=1.0) == stats.std()


class TestStreamingWindowStats:
    @given(
        values=st.lists(
            st.floats(-500.0, 500.0, allow_nan=False), min_size=1, max_size=50
        ),
        window_s=st.floats(0.5, 5.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_push_advance_matches_batch(self, values, window_s):
        times = np.arange(len(values)) * 0.1
        stream = StreamingWindowStats()
        for timestamp, value in zip(times, values):
            stream.push(float(timestamp), value)
            stream.advance(timestamp - window_s)
            window = [
                v for t, v in zip(times, values) if timestamp - window_s <= t <= timestamp
            ]
            assert stream.count == len(window)
            _assert_stats_match(stream._stats, window)

    def test_rejects_decreasing_timestamps(self):
        stream = StreamingWindowStats()
        stream.push(1.0, -70.0)
        with pytest.raises(ValueError):
            stream.push(0.5, -71.0)

    def test_advance_returns_dropped_count_and_empties_exactly(self):
        stream = StreamingWindowStats()
        for index in range(5):
            stream.push(float(index), float(index))
        assert stream.advance(3.0) == 3
        assert stream.count == 2
        assert stream.advance(100.0) == 2
        assert (stream.count, stream.mean, stream.std()) == (0, 0.0, 0.0)

    def test_constant_window_divisor_sentinel(self):
        stream = StreamingWindowStats()
        for index in range(10):
            stream.push(float(index), -70.0)
        assert stream.divisor() == 0.0


# ----------------------------------------------------------------------
# compare_incremental — engine-level contract
# ----------------------------------------------------------------------
def _sliding_scenario(rng, n_samples=400, rate_hz=10.0):
    """Long beacon streams: one attacker trio + independent vehicles."""
    t = np.arange(n_samples) / rate_hz
    shared = (
        -70.0
        + 5.0 * np.sin(2 * np.pi * t / 15.0)
        + np.cumsum(rng.normal(0.0, 0.4, n_samples))
    )
    streams = {}
    for name, offset in (("mal", 0.0), ("syb1", 4.0), ("syb2", -3.0)):
        streams[name] = shared + offset + rng.normal(0.0, 0.3, n_samples)
    for index in range(3):
        streams[f"veh{index}"] = (
            -75.0
            + 6.0 * np.sin(2 * np.pi * t / (9.0 + index) + rng.uniform(0.0, 6.0))
            + np.cumsum(rng.normal(0.0, 0.5, n_samples))
        )
    return t, streams


def _window_inputs(t, streams, start, end):
    """Build compare_incremental inputs for the window [start, end]."""
    mask = (t >= start) & (t <= end)
    arrays, raw, times, keys, params = {}, {}, {}, {}, {}
    for ident, values in streams.items():
        window = np.ascontiguousarray(values[mask])
        mean = float(np.mean(window))
        sigma = float(np.std(window))
        divisor = 0.0 if sigma < 1e-12 else 3.0 * sigma
        arrays[ident] = (
            np.zeros_like(window) if divisor == 0.0 else (window - mean) / divisor
        )
        raw[ident] = window
        times[ident] = np.ascontiguousarray(t[mask])
        keys[ident] = window.tobytes()
        params[ident] = (mean, divisor)
    return arrays, raw, times, keys, params


def _naive_reference(arrays, cutoff, threshold_on, radius=10):
    """Exact distances + flags the incremental engine must reproduce."""
    ids = sorted(arrays)
    distances = {}
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            result = dtw_banded_fast(arrays[a], arrays[b], radius)
            distances[(a, b)] = result.distance / len(result.path)
    judged = (
        minmax_distances(distances) if threshold_on == "normalized" else distances
    )
    return distances, {pair: value <= cutoff for pair, value in judged.items()}


def _incremental_engine(**kwargs):
    kwargs.setdefault("band_radius", 10)
    kwargs.setdefault("incremental", True)
    kwargs.setdefault("registry", _registry())
    return PairwiseEngine(**kwargs)


class TestCompareIncremental:
    def test_requires_incremental_banded_mode(self):
        plain = PairwiseEngine(band_radius=10, registry=_registry())
        assert not plain.can_incremental
        with pytest.raises(RuntimeError):
            plain.compare_incremental({}, {}, {}, {}, "", {}, 0.1, "normalized")
        fastdtw_mode = PairwiseEngine(
            band_radius=None, incremental=True, registry=_registry()
        )
        assert not fastdtw_mode.can_incremental

    @pytest.mark.parametrize("threshold_on", ["normalized", "raw"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_sliding_flags_identical_to_exact(self, threshold_on, seed):
        rng = np.random.default_rng(seed)
        t, streams = _sliding_scenario(rng)
        engine = _incremental_engine()
        cutoffs = (
            [0.02, 0.1, 0.5] if threshold_on == "normalized" else [0.001, 0.01, 0.1]
        )
        cutoff = cutoffs[seed % len(cutoffs)]
        # A 20 s window sliding by 1 s per recheck — the incremental
        # fast paths (carries, bounds, early abandons) all engage, and
        # every step's flag set must equal the exact loop's.
        for end in np.arange(20.0, 32.0, 1.0):
            arrays, raw, times, keys, params = _window_inputs(
                t, streams, end - 20.0, end
            )
            _, flags, stats = engine.compare_incremental(
                arrays, raw, times, keys, "scale", params, cutoff, threshold_on
            )
            _, want = _naive_reference(arrays, cutoff, threshold_on)
            assert flags == want, f"diverged at window end {end}"
        cumulative = engine.stats
        assert cumulative.envelope_updates > 0  # the slides actually slid

    @pytest.mark.parametrize("threshold_on", ["normalized", "raw"])
    def test_every_cutoff_band_matches_exact(self, threshold_on):
        # One slid window, cutoffs swept across the whole decision
        # range (fresh engine per cutoff so carries don't leak flags).
        rng = np.random.default_rng(7)
        t, streams = _sliding_scenario(rng)
        first = _window_inputs(t, streams, 0.0, 20.0)
        second = _window_inputs(t, streams, 2.0, 22.0)
        raw_ref, _ = _naive_reference(second[0], 0.0, threshold_on)
        values = sorted(raw_ref.values())
        cutoffs = (
            [-0.5, 0.0, 0.05, 0.3, 0.7, 1.0, 2.0]
            if threshold_on == "normalized"
            else [0.0, values[0], values[len(values) // 2], values[-1] * 2.0]
        )
        for cutoff in cutoffs:
            engine = _incremental_engine()
            for arrays, raw, times, keys, params in (first, second):
                _, flags, _ = engine.compare_incremental(
                    arrays, raw, times, keys, "s", params, cutoff, threshold_on
                )
                _, want = _naive_reference(arrays, cutoff, threshold_on)
                assert flags == want, f"cutoff {cutoff} diverged"

    def test_unchanged_windows_carry_with_provenance(self):
        rng = np.random.default_rng(3)
        t, streams = _sliding_scenario(rng)
        engine = _incremental_engine()
        inputs = _window_inputs(t, streams, 0.0, 20.0)
        distances1, flags1, stats1 = engine.compare_incremental(
            *inputs[:2], inputs[2], inputs[3], "s", inputs[4], 0.1, "normalized"
        )
        assert stats1.incremental == 0
        engine.record_provenance = True
        distances2, flags2, stats2 = engine.compare_incremental(
            *inputs[:2], inputs[2], inputs[3], "s", inputs[4], 0.1, "normalized"
        )
        # Every pair carries: same distances (bit-identical), no kernel
        # work, and incremental-carry provenance throughout.
        assert distances2 == distances1
        assert flags2 == flags1
        assert stats2.incremental == stats2.pairs
        assert stats2.exact == stats2.abandoned == stats2.cells == 0
        assert engine.last_provenance is not None
        assert {
            record["tag"] for record in engine.last_provenance.values()
        } == {PROV_INCREMENTAL}

    def test_scale_tag_change_invalidates_carries(self):
        rng = np.random.default_rng(4)
        t, streams = _sliding_scenario(rng)
        engine = _incremental_engine()
        inputs = _window_inputs(t, streams, 0.0, 20.0)
        engine.compare_incremental(
            *inputs[:2], inputs[2], inputs[3], "scale-A", inputs[4], 0.1, "normalized"
        )
        _, _, stats = engine.compare_incremental(
            *inputs[:2], inputs[2], inputs[3], "scale-B", inputs[4], 0.1, "normalized"
        )
        assert stats.incremental == 0

    def test_slid_envelopes_bit_identical_to_rebuild(self):
        rng = np.random.default_rng(5)
        t, streams = _sliding_scenario(rng)
        engine = _incremental_engine()
        for start in (0.0, 1.0, 2.5):
            arrays, raw, times, keys, params = _window_inputs(
                t, streams, start, start + 20.0
            )
            _, _, stats = engine.compare_incremental(
                arrays, raw, times, keys, "s", params, 0.1, "normalized"
            )
            width = 2 * 10 + 1
            from numpy.lib.stride_tricks import sliding_window_view

            for ident, window in raw.items():
                state = engine._identity_states[ident]
                windows = sliding_window_view(window, width)
                assert np.array_equal(state.env_lo, windows.min(axis=1))
                assert np.array_equal(state.env_hi, windows.max(axis=1))
        assert engine.stats.envelope_updates > 0

    def test_disjoint_windows_reproduce_exact_distances(self):
        # Consecutive windows with no timestamp overlap (the fig11a
        # grid shape): every pair must take the fully exact path, so
        # the reported distances — not just the flags — are
        # byte-identical to the naive loop.
        rng = np.random.default_rng(6)
        t, streams = _sliding_scenario(rng, n_samples=450)
        engine = _incremental_engine()
        for start in (0.0, 21.0, 42.0):
            arrays, raw, times, keys, params = _window_inputs(
                t, streams, start, start + 20.0
            )
            distances, flags, stats = engine.compare_incremental(
                arrays, raw, times, keys, "s", params, 0.1, "normalized"
            )
            want_distances, want_flags = _naive_reference(arrays, 0.1, "normalized")
            assert distances == want_distances
            assert flags == want_flags
            assert stats.abandoned == stats.pruned == 0

    def test_degenerate_identical_series(self):
        base = np.sin(np.linspace(0.0, 6.0, 120))
        t = np.arange(120) * 0.1
        streams = {k: base.copy() for k in "abc"}
        engine = _incremental_engine()
        arrays, raw, times, keys, params = _window_inputs(t, streams, 0.0, 12.0)
        for _ in range(2):  # second call exercises the carry path too
            _, flags, _ = engine.compare_incremental(
                arrays, raw, times, keys, "s", params, 0.0, "normalized"
            )
            assert all(flags.values())  # min-max degenerates to all-zero

    def test_batched_bounds_bit_identical_to_scalar(self):
        from numpy.lib.stride_tricks import sliding_window_view

        rng = np.random.default_rng(8)
        radius, width = 10, 21
        ids = [f"id{i}" for i in range(6)]
        arrays = {ident: rng.normal(size=150) for ident in ids}
        norm_env = {}
        for ident, values in arrays.items():
            windows = sliding_window_view(values, width)
            norm_env[ident] = (windows.min(axis=1), windows.max(axis=1))
        pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]]
        engine = _incremental_engine()
        bounds = {}
        engine._compute_bounds(pairs, arrays, norm_env, radius, bounds)
        for pair in pairs:
            a, b = pair
            n, m = arrays[a].size, arrays[b].size
            lower = engine._incremental_lower_bound(
                arrays[a], arrays[b], norm_env[a], norm_env[b], radius
            )
            upper_cost, _len = dtw_band_upper_bound(arrays[a], arrays[b], radius)
            assert bounds[pair].lower == lower / (n + m - 1)
            assert bounds[pair].upper == upper_cost / max(n, m)
            # Sanity: the sandwich really brackets the pair's distance.
            result = dtw_banded_fast(arrays[a], arrays[b], radius)
            distance = result.distance / len(result.path)
            assert bounds[pair].lower <= distance <= bounds[pair].upper + 1e-12

    def test_drop_identity_forgets_all_touching_state(self):
        rng = np.random.default_rng(9)
        t, streams = _sliding_scenario(rng)
        engine = _incremental_engine()
        inputs = _window_inputs(t, streams, 0.0, 20.0)
        engine.compare_incremental(
            *inputs[:2], inputs[2], inputs[3], "s", inputs[4], 0.1, "normalized"
        )
        assert engine.incremental_state_len > 0
        engine.drop_identity("mal")
        assert "mal" not in engine._identity_states
        assert all("mal" not in pair for pair in engine._pair_states)
        engine.clear_incremental()
        assert engine.incremental_state_len == 0
        assert len(engine._identity_states) == 0

    def test_state_stores_respect_eviction_bounds(self):
        rng = np.random.default_rng(10)
        engine = _incremental_engine()
        engine.MAX_PAIR_STATES = 5
        engine.MAX_IDENTITY_STATES = 3
        t = np.arange(120) * 0.1
        streams = {f"id{i}": rng.normal(size=120) - 70.0 for i in range(6)}
        arrays, raw, times, keys, params = _window_inputs(t, streams, 0.0, 12.0)
        engine.compare_incremental(
            arrays, raw, times, keys, "s", params, 0.1, "normalized"
        )
        assert engine.incremental_state_len <= 5
        assert len(engine._identity_states) <= 3


# ----------------------------------------------------------------------
# Detector / experiment / CLI / audit plumbing
# ----------------------------------------------------------------------
def _feed(detector, t, streams):
    for name, values in streams.items():
        for timestamp, value in zip(t, values):
            detector.observe(name, float(timestamp), float(value))


def _detector(threshold=0.1, registry=None, **config_kwargs):
    return VoiceprintDetector(
        threshold=ConstantThreshold(threshold),
        config=DetectorConfig(**config_kwargs),
        registry=registry or _registry(),
    )


class TestDetectorIncremental:
    @pytest.mark.parametrize("threshold_on", ["normalized", "raw"])
    def test_sliding_detect_flags_match_exact_mode(self, threshold_on):
        rng = np.random.default_rng(41)
        t, streams = _sliding_scenario(rng)
        threshold = 0.1 if threshold_on == "normalized" else 0.01
        exact = _detector(threshold, threshold_on=threshold_on)
        incremental = _detector(
            threshold, pairwise_incremental=True, threshold_on=threshold_on
        )
        _feed(exact, t, streams)
        _feed(incremental, t, streams)
        for now in np.arange(20.0, 32.0, 1.0):
            want = exact.detect(density=40.0, now=float(now))
            got = incremental.detect(density=40.0, now=float(now))
            assert got.sybil_pairs == want.sybil_pairs
            assert got.sybil_ids == want.sybil_ids

    def test_disjoint_periods_report_bit_identical(self):
        # observation_time == detection spacing: every period's window
        # is fresh, so incremental mode must reproduce the exact
        # report byte for byte — distances and margins included.
        rng = np.random.default_rng(42)
        t, streams = _sliding_scenario(rng, n_samples=450)
        kwargs = {"observation_time": 10.0}
        exact = _detector(**kwargs)
        incremental = _detector(pairwise_incremental=True, **kwargs)
        _feed(exact, t, streams)
        _feed(incremental, t, streams)
        for now in (10.0, 20.5, 31.0, 41.5):
            want = exact.detect(density=40.0, now=now)
            got = incremental.detect(density=40.0, now=now)
            assert got.raw_distances == want.raw_distances
            assert got.distances == want.distances
            assert got.sybil_pairs == want.sybil_pairs

    def test_incremental_counters_reach_registry(self):
        rng = np.random.default_rng(43)
        t, streams = _sliding_scenario(rng)
        registry = _registry()
        detector = _detector(registry=registry, pairwise_incremental=True)
        _feed(detector, t, streams)
        detector.detect(density=40.0, now=20.0)
        detector.detect(density=40.0, now=20.0)  # unchanged → carries
        detector.detect(density=40.0, now=22.0)  # slid → envelope updates
        assert registry.counter("detector.pairs_incremental").value > 0
        assert registry.counter("detector.envelope_updates").value > 0

    def test_reset_clears_incremental_state(self):
        rng = np.random.default_rng(44)
        t, streams = _sliding_scenario(rng)
        detector = _detector(pairwise_incremental=True)
        _feed(detector, t, streams)
        detector.detect(density=40.0, now=20.0)
        engine = detector._engine
        assert engine.incremental_state_len > 0
        detector.reset()
        assert engine.incremental_state_len == 0
        assert len(engine._identity_states) == 0

    def test_config_and_defaults_plumbing(self):
        assert _detector(pairwise_incremental=True)._engine.can_incremental
        # The default configuration runs the exact engine.
        assert DetectorConfig().pairwise_incremental is False
        assert not _detector()._engine.can_incremental
        fastdtw_mode = _detector(
            pairwise_incremental=True, band_radius_samples=None
        )
        assert not fastdtw_mode._engine.can_incremental


class TestFig11aGridIdentity:
    """Incremental vs exact over the fig11a grid, serial and parallel."""

    @staticmethod
    def _rows(detector_config, workers=None):
        from repro.core.lda import DecisionLine
        from repro.eval.experiments import run_fig11
        from repro.sim.scenario import ScenarioConfig

        return run_fig11(
            DecisionLine(k=0.0, b=0.002),
            densities_vhls_per_km=(20,),
            runs_per_density=1,
            base_config=ScenarioConfig(sim_time_s=45.0),
            recorded_nodes=4,
            verifiers_per_run=2,
            detector_config=detector_config,
            seed=901,
            workers=workers,
        )

    def test_serial_rows_identical(self):
        want = self._rows(DetectorConfig())
        got = self._rows(DetectorConfig(pairwise_incremental=True))
        # Dataclass equality covers DR/FPR floats: the grid's rates —
        # and hence every per-period verdict behind them — match the
        # exact engine bit for bit.
        assert got == want

    def test_parallel_rows_identical_to_serial(self):
        config = DetectorConfig(pairwise_incremental=True)
        serial = self._rows(config)
        parallel = self._rows(config, workers=2)
        assert parallel == serial


class TestAuditIncrementalCarry:
    @staticmethod
    def _bundles():
        """Audit bundles of two incremental detections of one window."""
        from repro.obs.audit import start_default, stop_default
        from tests.test_obs_audit import make_detector

        start_default()
        try:
            detector = make_detector(pairwise_incremental=True)
            detector.detect(density=40.0, now=20.0)
            detector.detect(density=40.0, now=20.0)  # unchanged → carries
        finally:
            log = stop_default()
        return log.bundles

    def test_carry_records_replay_bit_identically(self):
        from repro.obs.audit import verify_bundle

        first, second = self._bundles()
        assert all(r["status"] == "ok" for r in verify_bundle(first))
        carried = verify_bundle(second)
        assert carried
        # Carried verdicts keep the exact kernel triple, so they stay
        # under the bit-replay obligation — and meet it.
        assert {r["provenance"] for r in carried} == {PROV_INCREMENTAL}
        assert all(r["status"] == "ok" for r in carried)

    def test_carry_records_render_their_warp_path(self):
        from repro.obs.explain import render_pair_report

        _, carried = self._bundles()
        record = carried["pairs"][0]
        assert record["provenance"] == PROV_INCREMENTAL
        # A carry holds an exact kernel result, so `repro explain`
        # decomposes its warp path like a fresh exact record.
        assert "path_len=" in render_pair_report(carried, record)
