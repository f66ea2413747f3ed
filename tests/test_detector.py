"""Sliding-window analysis and change-detector behavior."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from ospfrqa import detect, ingest, rqa
from ospfrqa.detect import Alert, DetectorConfig, MeasureSeries


def count_series(counts, bin_size=10, start_us=0):
    return ingest.CountSeries(start_us, bin_size, np.asarray(counts))


def synthetic_measures(values_by_name, bin_size=10):
    n = len(next(iter(values_by_name.values())))
    return MeasureSeries(
        window_end_bins=np.arange(199, 199 + n),
        values={name: np.asarray(v, dtype=float) for name, v in values_by_name.items()},
        bin_size_s=bin_size,
        start_us=0,
    )


def flat_config(**kw):
    # unit floors keep synthetic-series scores easy to reason about
    defaults = dict(
        window_bins=200, baseline_bins=20, k_mad=6.0,
        measures_enabled=("rr",), floors={"rr": 0.01},
    )
    defaults.update(kw)
    return DetectorConfig(**defaults)


class TestSlidingRqa:
    def test_single_window(self):
        cfg = DetectorConfig()
        ms = detect.sliding_rqa(count_series([1, 0, 2] * 67), cfg)  # 201 bins
        assert len(ms) == 2
        assert ms.window_end_bins.tolist() == [199, 200]

    def test_series_shorter_than_window_errors(self):
        with pytest.raises(rqa.SeriesTooShortError):
            detect.sliding_rqa(count_series([1] * 50), DetectorConfig())

    def test_constant_series_degenerate_throughout(self):
        cfg = DetectorConfig()
        ms = detect.sliding_rqa(count_series([3] * 220), cfg)
        assert ms.degenerate_windows == len(ms)
        assert np.all(ms.values["rr"] == 1.0)
        assert np.all(ms.values["det"] == 1.0)

    def test_spike_windows_differ_from_quiet(self):
        counts = np.zeros(420, dtype=int)
        counts[::180] = 1  # keep every window non-degenerate
        counts[300] = 25
        cfg = DetectorConfig()
        ms = detect.sliding_rqa(count_series(counts), cfg)
        ends = ms.window_end_bins
        with_spike = ms.values["rr"][np.searchsorted(ends, 310)]
        without = ms.values["rr"][np.searchsorted(ends, 240)]
        assert with_spike != without

    def test_step_bins(self):
        cfg = DetectorConfig(step_bins=5)
        ms = detect.sliding_rqa(count_series([1, 0] * 150), cfg)
        assert np.all(np.diff(ms.window_end_bins) == 5)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        counts = rng.poisson(0.4, size=260)
        cfg = DetectorConfig()
        a = detect.sliding_rqa(count_series(counts), cfg)
        b = detect.sliding_rqa(count_series(counts + 9), cfg)
        for name in rqa.MEASURE_NAMES:
            assert np.array_equal(a.values[name], b.values[name]), name


def per_window_reference(counts, cfg):
    """sliding_rqa as one full recompute per window, with no memo."""
    x = np.asarray(counts, dtype=float)
    w, p = cfg.window_bins, cfg.embed
    rows, degenerate, eps_warn = [], 0, 0
    for end in range(w - 1, x.size, cfg.step_bins):
        window = x[end - w + 1 : end + 1]
        measures, is_degenerate = rqa.measures_for_series(window, p)
        rows.append(measures.as_tuple())
        degenerate += is_degenerate
        if not is_degenerate and p.epsilon * 10.0 > 2.0:
            if (window.max() - window.min()) / window.std() < p.epsilon * 10.0:
                z, _ = rqa.znormalize(window)
                diameter = rqa.phase_space_diameter(rqa.embed(z, p.tau, p.m), p.norm)
                eps_warn += diameter < p.epsilon * 10.0
    return np.array(rows), degenerate, eps_warn


def assert_matches_reference(ms, counts, cfg):
    rows, degenerate, eps_warn = per_window_reference(counts, cfg)
    for j, name in enumerate(rqa.MEASURE_NAMES):
        assert ms.values[name].tobytes() == rows[:, j].tobytes(), name
    assert ms.degenerate_windows == degenerate
    assert ms.epsilon_warnings == eps_warn


def _tile_and_edit(pattern, length, edits):
    counts = [pattern[i % len(pattern)] for i in range(length)]
    for at, value in edits:
        counts[at % length] = value
    return counts


# Small-alphabet count series of at least the largest window: random ones, and periodic ones with a few
# edits, whose windows repeat and also nearly repeat (same bins but one).
small_counts = st.one_of(
    st.lists(st.integers(min_value=0, max_value=3), min_size=30, max_size=160),
    st.builds(
        _tile_and_edit,
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=12),
        st.integers(min_value=30, max_value=160),
        st.lists(st.tuples(st.integers(min_value=0, max_value=159),
                           st.integers(min_value=0, max_value=3)), max_size=4),
    ),
)


class TestSlidingRqaMemo:
    @given(
        counts=small_counts,
        window=st.integers(min_value=10, max_value=30),
        step=st.integers(min_value=1, max_value=4),
        epsilon=st.sampled_from([0.2, 0.3, 0.45, 0.7]),
        norm=st.sampled_from(["euclidean", "maximum"]),
        cap=st.sampled_from([1, 3, detect.MEMO_WINDOWS]),
    )
    @settings(max_examples=60, deadline=None)
    def test_memo_equals_per_window_recompute(self, counts, window, step, epsilon, norm, cap):
        cfg = DetectorConfig(window_bins=window, step_bins=step,
                             embed=rqa.EmbedParams(epsilon=epsilon, norm=norm))
        with mock.patch.object(detect, "MEMO_WINDOWS", cap):
            ms = detect.sliding_rqa(count_series(counts), cfg)
        assert_matches_reference(ms, counts, cfg)

    def test_epsilon_warnings_counted(self):
        # z-scored range 2 and diameter 2*sqrt(2) < 10 * 0.5: every window warns.
        counts = [0, 1] * 50
        cfg = DetectorConfig(window_bins=10, embed=rqa.EmbedParams(epsilon=0.5))
        ms = detect.sliding_rqa(count_series(counts), cfg)
        assert ms.epsilon_warnings == len(ms) == 91
        assert_matches_reference(ms, counts, cfg)

    def test_repeated_windows_computed_once(self):
        with mock.patch.object(detect, "measures_for_series",
                               wraps=rqa.measures_for_series) as spy:
            ms = detect.sliding_rqa(count_series([0, 0, 1, 2] * 60), DetectorConfig())
        assert len(ms) == 41
        assert spy.call_count == 4  # the period of the series

    def test_eviction_past_the_cap(self):
        # More distinct windows than the memo holds, then window 0 again at
        # the end: it was evicted, so it is computed a second time.
        rng = np.random.default_rng(4)
        head = rng.integers(0, 10, size=detect.MEMO_WINDOWS + 200)
        counts = np.concatenate([head, head[:10]])
        windows = [counts[i : i + 10].tobytes() for i in range(counts.size - 9)]
        assert len(set(windows)) == len(windows) - 1 > detect.MEMO_WINDOWS
        cfg = DetectorConfig(window_bins=10)
        with mock.patch.object(detect, "measures_for_series",
                               wraps=rqa.measures_for_series) as spy:
            ms = detect.sliding_rqa(count_series(counts), cfg)
        assert spy.call_count == len(windows)
        assert_matches_reference(ms, counts, cfg)


class TestDetect:
    def test_too_short_for_baseline_returns_empty(self):
        ms = synthetic_measures({"rr": np.ones(15)})
        assert detect.detect(ms, flat_config()) == []

    def test_step_change_alerts_within_two_windows(self):
        rng = np.random.default_rng(0)
        v = 0.5 + 0.002 * rng.normal(size=120)
        v[70:] += 0.3
        alerts = detect.detect(synthetic_measures({"rr": v}), flat_config())
        assert alerts
        first = alerts[0]
        step_bin = int(synthetic_measures({"rr": v}).window_end_bins[70])
        assert step_bin <= first.bin_index <= step_bin + 2
        assert first.triggered[0].name == "rr"
        assert first.severity >= 6.0

    def test_stationary_noise_no_alerts(self):
        rng = np.random.default_rng(42)
        v = 0.5 + 0.01 * rng.normal(size=1000)
        alerts = detect.detect(synthetic_measures({"rr": v}), flat_config())
        assert alerts == []

    def test_contiguous_run_collapses_to_one_alert(self):
        v = np.full(80, 0.5)
        v[50:60] = 0.9
        alerts = detect.detect(synthetic_measures({"rr": v}), flat_config())
        assert len(alerts) >= 1
        bins = [a.bin_index for a in alerts]
        assert bins[0] == 199 + 50
        # the deviant stretch 50..59 produces exactly one alert
        assert sum(1 for b in bins if 199 + 50 <= b < 199 + 60) == 1

    def test_warm_up_invariant(self):
        rng = np.random.default_rng(7)
        v = 0.5 + 0.001 * rng.normal(size=300)
        v[rng.integers(0, 300, size=40)] += 0.5  # fires wherever allowed
        cfg = flat_config(baseline_bins=40)
        alerts = detect.detect(synthetic_measures({"rr": v}), cfg)
        assert alerts
        assert min(a.bin_index for a in alerts) >= 199 + 40

    def test_causality_truncation(self):
        rng = np.random.default_rng(5)
        v = 0.5 + 0.002 * rng.normal(size=200)
        v[100:110] += 0.2
        v[150:] += 0.4
        cfg = flat_config()
        full = detect.detect(synthetic_measures({"rr": v}), cfg)
        cut = detect.detect(synthetic_measures({"rr": v[:120]}), cfg)
        horizon = 199 + 120
        assert [a.bin_index for a in full if a.bin_index < horizon] == \
               [a.bin_index for a in cut]

    def test_doubling_k_shrinks_deviant_set(self):
        # The provable sensitivity property: raising the threshold can only
        # remove deviant windows.  (Alert counts can occasionally rise when
        # a long post-event deviant run splits; scores cannot.)
        rng = np.random.default_rng(11)
        for _ in range(10):
            v = 0.5 + 0.005 * rng.normal(size=400)
            for at in rng.integers(30, 380, size=3):
                v[at : at + rng.integers(2, 20)] += rng.uniform(0.05, 0.5)
            ms = synthetic_measures({"rr": v})
            scores, _ = detect.deviation_scores(ms, flat_config())
            hi = set(np.flatnonzero(scores["rr"] >= 12.0))
            lo = set(np.flatnonzero(scores["rr"] >= 6.0))
            assert hi <= lo

    def test_doubling_k_alerts_stay_inside_deviant_stretches(self):
        # Raising the threshold never creates an alert in a stretch that
        # was clean at the lower threshold.  (The raw alert COUNT is not
        # monotone: a run whose score plateau wobbles across the higher
        # threshold splits in two.)
        rng = np.random.default_rng(13)
        for _ in range(20):
            v = 0.5 + 0.005 * rng.normal(size=400)
            starts = rng.choice(np.arange(30, 360, 45), size=rng.integers(1, 4), replace=False)
            for at in starts:
                v[at : at + rng.integers(2, 8)] += rng.uniform(0.1, 0.5)
            ms = synthetic_measures({"rr": v})
            scores, _ = detect.deviation_scores(ms, flat_config())
            deviant_low = set(ms.window_end_bins[np.flatnonzero(scores["rr"] >= 6.0)])
            for alert in detect.detect(ms, flat_config(k_mad=12.0)):
                assert alert.bin_index in deviant_low

    def test_multiple_measures_reported(self):
        v1 = np.full(60, 0.5)
        v2 = np.full(60, 2.0)
        v1[40:] = 0.9
        v2[40:] = 4.0
        ms = synthetic_measures({"rr": v1, "tt": v2})
        cfg = flat_config(measures_enabled=("rr", "tt"), floors={"rr": 0.01, "tt": 0.05})
        alerts = detect.detect(ms, cfg)
        assert {t.name for t in alerts[0].triggered} == {"rr", "tt"}
        assert alerts[0].severity == max(t.deviation_score for t in alerts[0].triggered)

    def test_floor_scale_tames_alerts(self):
        v = np.full(60, 0.5)
        v[40:] = 0.56
        ms = synthetic_measures({"rr": v})
        assert detect.detect(ms, flat_config()) != []
        assert detect.detect(ms, flat_config(floor_scale=10.0)) == []


def assert_scores_match_oracle(values, cfg):
    ms = synthetic_measures(values)
    scores, medians = detect.deviation_scores(ms, cfg)
    assert list(scores) == list(medians) == [
        m for m in rqa.MEASURE_NAMES if m in cfg.measures_enabled]
    for name in scores:
        ref_scores, ref_medians = oracle.deviation_scores(
            values[name], cfg.baseline_bins,
            cfg.floors.get(name, 1e-6), cfg.floor_scale)
        assert scores[name].tobytes() == np.array(ref_scores).tobytes(), name
        assert medians[name].tobytes() == np.array(ref_medians).tobytes(), name


plateaus = st.lists(
    st.tuples(st.sampled_from([0.0, 0.1, 0.125, 0.5, 0.5004, 3.0]),
              st.integers(min_value=1, max_value=40)),
    min_size=1, max_size=20,
).map(lambda runs: [v for v, k in runs for _ in range(k)])
noise = st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=1, max_size=200)


class TestDeviationScores:
    @given(
        rr=plateaus, det=noise,
        baseline=st.integers(min_value=10, max_value=25),
        floor=st.sampled_from([0.0, 1e-3, 0.01, 0.5]),
        floor_scale=st.sampled_from([1.0, 0.25, 3.0, 10.0]),
        chunk=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_oracle_bit_for_bit(self, rr, det, baseline, floor, floor_scale, chunk):
        n = max(len(rr), len(det))
        values = {"rr": np.resize(rr, n), "det": np.resize(det, n)}
        # "det" has no floor entry, so the 1e-6 default applies to it.
        cfg = flat_config(baseline_bins=baseline, measures_enabled=("det", "rr"),
                          floors={"rr": floor}, floor_scale=floor_scale)
        with mock.patch.object(detect, "SCORE_CHUNK_ROWS", chunk):
            assert_scores_match_oracle(values, cfg)

    def test_matches_oracle_across_a_chunk_boundary(self):
        rng = np.random.default_rng(8)
        n = 60 + 2 * detect.SCORE_CHUNK_ROWS + 7
        rr = 0.5 + np.round(rng.normal(size=n), 1) * 0.01  # many zero MADs
        cfg = flat_config(baseline_bins=60, floor_scale=2.5)
        assert_scores_match_oracle({"rr": rr}, cfg)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_series_at_the_baseline_length(self, offset):
        b = 20
        v = np.linspace(0.1, 0.9, b + offset)
        scores, medians = detect.deviation_scores(synthetic_measures({"rr": v}), flat_config())
        assert scores["rr"].size == medians["rr"].size == b + offset
        if offset <= 0:
            assert not scores["rr"].any() and not medians["rr"].any()
        assert_scores_match_oracle({"rr": v}, flat_config())


class TestSerialization:
    def test_measures_csv_round_shape(self, tmp_path):
        cfg = DetectorConfig()
        ms = detect.sliding_rqa(count_series([1, 0, 0, 2] * 60), cfg)
        path = tmp_path / "measures.csv"
        detect.write_measures_csv(path, ms)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "window_end_bin,t_s," + ",".join(rqa.MEASURE_NAMES)
        assert len(lines) == len(ms) + 1

    def test_alerts_jsonl_round_trip(self, tmp_path):
        alerts = [Alert(
            bin_index=250, time_s=2510.0,
            triggered=(detect.TriggeredMeasure("rr", 0.9, 0.5, 12.5),),
            severity=12.5,
        )]
        path = tmp_path / "alerts.jsonl"
        detect.write_alerts_jsonl(path, alerts)
        back = detect.read_alerts_jsonl(path)
        assert back == alerts


class TestAnalyzeRun:
    def test_composition(self):
        events = [
            ingest.LsaEvent(int(t * 1e6), "m", 1, "10.0.0.1", "10.0.0.1", 2, -2147483600)
            for t in range(0, 3000, 600)
        ]
        cfg = DetectorConfig(window_bins=30, baseline_bins=10)
        series, ms, alerts = detect.analyze_run(
            events, ingest.EventFilter(monitor="m"), cfg, 0, 3_000_000_000, bin_size_s=10,
        )
        assert len(series) == 300
        assert len(ms) == 271
        assert isinstance(alerts, list)
