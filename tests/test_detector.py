"""Sliding-window analysis and change-detector behavior."""

import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

import oracle
from ospfrqa import detect, ingest, rqa, sim
from ospfrqa.detect import Alert, DetectorConfig, MeasureSeries
from test_rqa import equality_of, no_equality_rows


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


def csv_bytes(tmp_path, measures):
    path = tmp_path / "measures.csv"
    detect.write_measures_csv(path, measures)
    return path.read_bytes()


def per_row_csv(measures):
    """``measures.csv`` as a plain loop over the rows writes it."""
    lines = ["window_end_bin,t_s," + ",".join(rqa.MEASURE_NAMES) + "\n"]
    for i in range(len(measures)):
        values = tuple(measures.values[name][i] for name in rqa.MEASURE_NAMES)
        lines.append("%d,%.6f," % (measures.window_end_bins[i], measures.time_s(i))
                     + ",".join(["%.12g"] * 9) % values + "\n")
    return "".join(lines).encode()


# Values whose bits differ where their text may not: both zeros, NaNs of
# both signs and with a payload, both infinities, and subnormals.
SPECIAL_FLOATS = [0.0, -0.0, np.nan, np.copysign(np.nan, -1.0),
                  float(np.array(0x7FF8_0000_0000_0001).view(float)), np.inf, -np.inf,
                  5e-324, -2.5e-310, 1e-300, 1.2345678901234567e300, 0.5]
# Three rows of them, each value in three of the nine measures.
SPECIAL_TABLE = [[-0.0, np.nan, 1e-300] * 3, [np.inf, 0.0, 1.2345678901234567e300] * 3,
                 [0.5] * 9]
measure_rows = st.lists(st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats()),
                        min_size=9, max_size=9)


@st.composite
def row_pools(draw):
    """One to five rows of nine measures, most of them the first row with
    one value negated (so -0.0 beside 0.0, say)."""
    first = draw(measure_rows)
    pool = [first]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        row = list(first) if draw(st.booleans()) else draw(measure_rows)
        j = draw(st.integers(min_value=0, max_value=8))
        row[j] = -row[j]
        pool.append(row)
    return pool


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
        (values,), (is_degenerate,) = rqa.measures_for_series(window, [0], w, p)
        rows.append(values)
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


INT64_EDGES = [-(2**63), -(2**63 - 1), 2**63 - 1]

# Four distinct int64 values that the 0..3 of small_counts stand for: 0..3
# themselves, which rqa._tuple_ids ranks through its table of counts, or
# negative or wide values up to the int64 extremes, which it ranks through
# np.unique.
alphabets = st.one_of(
    st.just([0, 1, 2, 3]),
    st.just([-3, -2, -1, 0]),
    st.just([INT64_EDGES[0], -1, 0, INT64_EDGES[2]]),
    st.lists(st.one_of(st.sampled_from(INT64_EDGES), st.integers(-(2**63), 2**63 - 1)),
             min_size=4, max_size=4, unique=True),
)


def rank_branch(c):
    """The branch that ranks the values of ``c`` in ``rqa._dense_rank``."""
    return "table" if 0 <= c.min() and c.max() <= c.size else "np.unique"


def rows_computed(spy):
    """Windows quantified through a spy on ``measures_for_series``: its starts."""
    return sum(len(call.args[1]) for call in spy.call_args_list)


@st.composite
def mirrored_series(draw):
    """``(counts, window)``: counts ``head + x + middle + x[::-1] + tail``, a
    palindrome where head, middle and tail are empty, of sparse 0/1 or
    Poisson(50) counts, and a window that fits in the mirrored stretch."""
    sizes = [draw(st.integers(0, 8)), draw(st.integers(5, 30)), draw(st.integers(0, 8)),
             draw(st.integers(0, 8))]
    if draw(st.booleans()):
        parts = [draw(st.lists(st.sampled_from([0, 0, 0, 0, 1]), min_size=k, max_size=k))
                 for k in sizes]
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        parts = [rng.poisson(50, k).tolist() for k in sizes]
    head, x, middle, tail = parts
    return head + x + middle + x[::-1] + tail, draw(st.integers(10, 2 * sizes[1] + sizes[2]))


# Poisson(50) windows that differ from their reversal in the float path's last
# bits: FLOAT_MIRROR in its measures at epsilon 1.495333199231828 (rows 0 and
# 34 of it and its reversal), WARNING_MIRROR in its epsilon warning at m = 3
# and epsilon 0.37639857956063166, 10 * epsilon being its own diameter, just
# above its reversal's.
FLOAT_MIRROR = [51, 51, 44, 43, 47, 49, 54, 39, 50, 43, 58, 42, 58, 48, 48, 39, 54, 67, 52, 46,
                44, 42, 55, 47, 42, 56, 51, 39, 49, 59, 53, 51, 51, 38]
WARNING_MIRROR = [59, 57, 48, 42, 38, 45, 47, 47, 55, 54, 60]


class TestSlidingRqaMemo:
    @given(
        counts=small_counts,
        window=st.integers(min_value=10, max_value=30),
        step=st.integers(min_value=1, max_value=4),
        epsilon=st.sampled_from([0.2, 0.3, 0.45, 0.7, 1.0, 1.5]),
        norm=st.sampled_from(["euclidean", "maximum"]),
        tau=st.integers(min_value=1, max_value=4),
        m=st.integers(min_value=1, max_value=4),
        theiler=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_memo_equals_per_window_recompute(self, counts, window, step, epsilon, norm,
                                              tau, m, theiler):
        # With counts 0..3, the larger epsilons put windows past the equality guard.
        assume(window >= (m - 1) * tau + 2)
        cfg = DetectorConfig(window_bins=window, step_bins=step,
                             embed=rqa.EmbedParams(tau=tau, m=m, epsilon=epsilon, norm=norm,
                                                   theiler=theiler))
        ms = detect.sliding_rqa(count_series(counts), cfg)
        assert_matches_reference(ms, counts, cfg)
        # And the definition: every window through the float path.
        with mock.patch.object(rqa, "_equality_rows", side_effect=no_equality_rows):
            forced = detect.sliding_rqa(count_series(counts), cfg)
        for name in rqa.MEASURE_NAMES:
            assert ms.values[name].tobytes() == forced.values[name].tobytes(), name

    @given(counts=small_counts, alphabet=alphabets,
           shape=st.one_of(st.tuples(st.integers(1, 30), st.just(1)),
                           st.tuples(st.integers(1, 4), st.integers(1, 4))),
           rows=st.integers(1, 3))
    @settings(max_examples=300, deadline=None)
    def test_window_ids_equal_exactly_when_counts_equal(self, counts, alphabet, shape, rows):
        # rqa._tuple_ids gives the window ids (length w, stride 1) and the
        # equality engine's delay-vector ids (length m, stride tau), along the
        # last axis of a series or of a block of rows.
        length, stride = shape
        span = (length - 1) * stride + 1
        rows = min(rows, len(counts) // span)
        values = np.array(alphabet, dtype=np.int64)[counts]
        c = values if rows == 1 else values[: values.size // rows * rows].reshape(rows, -1)
        ids = rqa._tuple_ids(c, length, stride)
        starts = c.shape[-1] - span + 1
        assert ids.shape == c.shape[:-1] + (starts,)
        c2 = c.reshape(rows, -1)
        keys = [c2[r, i : i + span : stride].tobytes() for r in range(rows) for i in range(starts)]
        ids = ids.ravel().tolist()
        # The pairing (id, content) is one to one: equal ids exactly when equal
        # tuples, also across rows; and the ids are dense.
        assert len(set(zip(ids, keys))) == len(set(ids)) == len(set(keys))
        assert sorted(set(ids)) == list(range(len(set(ids))))
        event(f"tuples: {'windows' if stride == 1 and length > 4 else 'delay vectors'}")
        event(f"first rank: {rank_branch(c)}")

    @given(counts=small_counts, alphabet=alphabets,
           window=st.integers(min_value=10, max_value=30),
           step=st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_any_int64_counts_equal_per_window_recompute(self, counts, alphabet, window, step):
        # Negative counts and counts at the int64 extremes, as a CountSeries
        # built through the API holds them; the window ids are taken of the
        # int64 counts and the measures of their floats.
        values = np.array(alphabet, dtype=np.int64)[counts]
        cfg = DetectorConfig(window_bins=window, step_bins=step)
        ms = detect.sliding_rqa(count_series(values), cfg)
        assert_matches_reference(ms, values, cfg)
        event(f"first rank: {rank_branch(values)}")

    @given(
        counts=small_counts,
        window=st.integers(min_value=10, max_value=30),
        epsilon=st.sampled_from([0.2, 0.45, 0.7]),
        block=st.sampled_from([1, 3, rqa.BLOCK_WINDOWS]),
    )
    @settings(max_examples=40, deadline=None)
    def test_blocks_compute_each_window_once_up_to_reversal(self, counts, window, epsilon,
                                                             block):
        cfg = DetectorConfig(window_bins=window, embed=rqa.EmbedParams(epsilon=epsilon))
        with mock.patch.object(rqa, "BLOCK_WINDOWS", block), \
                mock.patch.object(detect, "measures_for_series",
                                  wraps=rqa.measures_for_series) as spy, \
                mock.patch.object(rqa, "_measures_from_histograms",
                                  wraps=rqa._measures_from_histograms) as passes, \
                mock.patch.object(rqa, "_tuple_ids", wraps=rqa._tuple_ids) as vector_ids:
            ms = detect.sliding_rqa(count_series(counts), cfg)
        # Windows and their reversals, by the first window of each pair: one
        # computation for the pair where that window takes the equality
        # engine, else one per distinct content.
        pairs = {}
        for i in range(len(counts) - window + 1):
            x = np.asarray(counts[i : i + window], dtype=float)
            key = min(x.tobytes(), x[::-1].tobytes())
            pairs.setdefault(key, (x, set()))[1].add(x.tobytes())
        computed = sum(1 if equality_of(x, cfg.embed) else len(contents)
                       for x, contents in pairs.values())
        # A second call only for the reversals of float-path windows.
        assert spy.call_count == 1 + (computed > len(pairs))
        assert rows_computed(spy) == computed
        # One reducer pass per block, of at most block windows each (h is (3, B, n + 1)).
        rows = [call.args[1].shape[1] for call in passes.call_args_list]
        assert sum(rows) == computed and max(rows) <= block
        assert vector_ids.call_count <= spy.call_count  # the delay-vector ids, once per call
        assert_matches_reference(ms, counts, cfg)

    @given(series=mirrored_series(), step=st.integers(1, 3), m=st.integers(1, 3),
           tau=st.integers(1, 3), theiler=st.integers(0, 2),
           norm=st.sampled_from(["euclidean", "maximum"]), epsilon=st.sampled_from([0.2, 0.45]))
    @example(series=(FLOAT_MIRROR + FLOAT_MIRROR[::-1], 34), step=1, m=2, tau=1, theiler=1,
             norm="euclidean", epsilon=1.495333199231828)
    @example(series=(WARNING_MIRROR + WARNING_MIRROR[::-1], 11), step=1, m=3, tau=1, theiler=1,
             norm="euclidean", epsilon=0.37639857956063166)
    @settings(max_examples=60, deadline=None)
    def test_mirror_reuse_equals_per_window_recompute(self, series, step, m, tau, theiler,
                                                       norm, epsilon):
        counts, window = series
        cfg = DetectorConfig(window_bins=window, step_bins=step,
                             embed=rqa.EmbedParams(tau=tau, m=m, epsilon=epsilon, norm=norm,
                                                   theiler=theiler))
        assert_matches_reference(detect.sliding_rqa(count_series(counts), cfg), counts, cfg)

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
        assert rows_computed(spy) == 4  # the period of the series

    def test_window_recurring_after_4096_distinct_windows_computed_once(self):
        # More than 4,096 distinct windows, then window 0 again at the end:
        # nothing is evicted, so it is not computed a second time.
        rng = np.random.default_rng(4)
        head = rng.integers(0, 10, size=4096 + 200)
        counts = np.concatenate([head, head[:10]])
        windows = [counts[i : i + 10].tobytes() for i in range(counts.size - 9)]
        assert len(set(windows)) == len(windows) - 1 > 4096
        cfg = DetectorConfig(window_bins=10)
        with mock.patch.object(detect, "measures_for_series",
                               wraps=rqa.measures_for_series) as spy:
            ms = detect.sliding_rqa(count_series(counts), cfg)
        assert rows_computed(spy) == len(windows) - 1
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
    st.tuples(st.sampled_from([-0.0, 0.0, 0.1, 0.125, 0.5, 0.5004, 3.0]),
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

    @pytest.mark.parametrize("baseline", [10, 11])
    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_reuse_across_chunk_edges(self, baseline, chunk):
        # Plateaus of 1-7 windows, so the scored rows of one chunk end
        # inside a plateau and the next chunk starts after a reused stretch.
        rng = np.random.default_rng(baseline * 10 + chunk)
        runs = rng.choice([-0.0, 0.0, 0.25, 0.5, 2.0], 40), rng.integers(1, 8, 40)
        rr = np.repeat(*runs)
        cfg = flat_config(baseline_bins=baseline, floor_scale=0.5)
        with mock.patch.object(detect, "SCORE_CHUNK_ROWS", chunk):
            assert_scores_match_oracle({"rr": rr}, cfg)

    @pytest.mark.parametrize("baseline", [10, 11])
    @pytest.mark.parametrize("rr", [np.linspace(0.0, 1.0, 90),  # every baseline changes
                                    np.full(90, 0.3),  # only the first one
                                    np.full(90, -0.0)])
    def test_every_or_no_baseline_changed(self, baseline, rr):
        with mock.patch.object(detect, "SCORE_CHUNK_ROWS", 7):
            assert_scores_match_oracle({"rr": rr}, flat_config(baseline_bins=baseline,
                                                               floor_scale=3.0))

    @pytest.mark.parametrize("chunk", [1, 4, detect.SCORE_CHUNK_ROWS])
    def test_nan_baselines_score_as_np_median_does(self, chunk):
        b = 11
        rr = np.repeat([0.5, 0.25, 0.5, 1.0, 0.5], 12)
        rr[[20, 21, 44]] = np.nan
        with mock.patch.object(detect, "SCORE_CHUNK_ROWS", chunk):
            scores, medians = detect.deviation_scores(synthetic_measures({"rr": rr}),
                                                      flat_config(baseline_bins=b))
        base = np.lib.stride_tricks.sliding_window_view(rr, b)[:-1]
        med = np.median(base, axis=1)
        mad = np.median(np.abs(base - med[:, None]), axis=1)
        assert np.isnan(med).any() and not np.isnan(med).all()
        assert medians["rr"][b:].tobytes() == med.tobytes()
        assert scores["rr"][b:].tobytes() == (np.abs(rr[b:] - med)
                                              / np.maximum(mad, 0.01)).tobytes()

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_series_at_the_baseline_length(self, offset):
        b = 20
        v = np.linspace(0.1, 0.9, b + offset)
        scores, medians = detect.deviation_scores(synthetic_measures({"rr": v}), flat_config())
        assert scores["rr"].size == medians["rr"].size == b + offset
        if offset <= 0:
            assert not scores["rr"].any() and not medians["rr"].any()
        assert_scores_match_oracle({"rr": v}, flat_config())


class TestAlertCollapse:
    @given(
        data=st.data(),
        n=st.integers(min_value=0, max_value=160),
        baseline=st.integers(min_value=10, max_value=40),
        k_mad=st.sampled_from([0.5, 1.0, 3.0, 6.0, 20.0]),
        floor_scale=st.sampled_from([1e-3, 1.0]),
        enabled=st.sets(st.sampled_from(rqa.MEASURE_NAMES)),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_per_window_scan(self, data, n, baseline, k_mad, floor_scale, enabled):
        ms = synthetic_measures({name: np.resize(data.draw(plateaus), n)
                                 for name in rqa.MEASURE_NAMES})
        cfg = DetectorConfig(baseline_bins=baseline, k_mad=k_mad, floor_scale=floor_scale,
                             measures_enabled=tuple(sorted(enabled)))
        scores, medians = detect.deviation_scores(ms, cfg)
        assert [dataclasses.astuple(a) for a in detect.detect(ms, cfg)] == oracle.alerts(
            ms, scores, medians, cfg.baseline_bins, cfg.k_mad)


class TestSerialization:
    def test_measures_csv_round_shape(self, tmp_path):
        cfg = DetectorConfig()
        ms = detect.sliding_rqa(count_series([1, 0, 0, 2] * 60), cfg)
        path = tmp_path / "measures.csv"
        detect.write_measures_csv(path, ms)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "window_end_bin,t_s," + ",".join(rqa.MEASURE_NAMES)
        assert len(lines) == len(ms) + 1

    @pytest.mark.parametrize("chunk", [7, 81, detect.CSV_CHUNK_ROWS])
    def test_measures_csv_matches_per_row_formatting(self, tmp_path, chunk):
        cfg = DetectorConfig()
        ms = detect.sliding_rqa(count_series([1, 0, 0, 2, 5, 0, 1] * 40, bin_size=7,
                                             start_us=1_700_000_000_123_457), cfg)
        ms.values["rr"][:5] = [np.nan, np.inf, -0.0, 1e-300, 1.2345678901234567e300]
        path = tmp_path / "measures.csv"
        with mock.patch.object(detect, "CSV_CHUNK_ROWS", chunk):
            detect.write_measures_csv(path, ms)
        rows = ["window_end_bin,t_s," + ",".join(rqa.MEASURE_NAMES)]
        for i in range(len(ms)):
            rows.append(",".join([str(int(ms.window_end_bins[i])), f"{ms.time_s(i):.6f}"]
                                 + [f"{ms.values[n][i]:.12g}" for n in rqa.MEASURE_NAMES]))
        assert path.read_text() == "\n".join(rows) + "\n"

    @given(pool=row_pools(),
           picks=st.lists(st.integers(min_value=0, max_value=4), max_size=40),
           chunk=st.sampled_from([1, 2, 3, 7]),
           start_us=st.sampled_from([0, 123_457, 1_700_000_000_123_457]),
           bin_size=st.sampled_from([1, 10]))
    @example(pool=SPECIAL_TABLE, picks=[0, 1, 2, 1, 0, 0, 2, 2, 1, 0], chunk=3, start_us=0,
             bin_size=10)
    @example(pool=[[0.0] * 9, [0.0] * 8 + [-0.0]], picks=[0, 1, 1, 0], chunk=7, start_us=0,
             bin_size=1)
    @settings(max_examples=200, deadline=None)
    def test_measures_csv_equals_per_row_reference(self, tmp_path_factory, pool, picks, chunk,
                                                   start_us, bin_size):
        table = np.array([pool[i % len(pool)] for i in picks]).reshape(len(picks), 9)
        ms = MeasureSeries(np.arange(7, 7 + len(picks)), dict(zip(rqa.MEASURE_NAMES, table.T)),
                           bin_size, start_us)
        with mock.patch.object(detect, "CSV_CHUNK_ROWS", chunk):
            assert csv_bytes(tmp_path_factory.getbasetemp(), ms) == per_row_csv(ms)

    @pytest.mark.parametrize("step", [1, 2, 3, 4])
    def test_measures_csv_same_with_and_without_distinct_rows(self, tmp_path, step):
        cfg = DetectorConfig(window_bins=20, step_bins=step)
        ms = detect.sliding_rqa(count_series([1, 0, 0, 2, 0, 1, 0, 0, 2, 3] * 30,
                                             start_us=123_457), cfg)
        table = np.stack([ms.values[name] for name in rqa.MEASURE_NAMES], axis=1)
        assert len(np.unique(table, axis=0)) < len(ms)  # windows repeat
        # Chunks of 7 share the text of repeated rows; chunks of 1 have no
        # repeats, so each row is formatted alone.
        for chunk in (7, 1):
            with mock.patch.object(detect, "CSV_CHUNK_ROWS", chunk):
                assert csv_bytes(tmp_path, ms) == per_row_csv(ms)
        # Repeated rows edited apart, and distinct rows edited alike.
        ms.values["rr"][3] = -0.0
        ms.values["det"][::5] = np.nan
        ms.values["tt"][:] = 0.125
        for chunk in (7, 1):
            with mock.patch.object(detect, "CSV_CHUNK_ROWS", chunk):
                assert csv_bytes(tmp_path, ms) == per_row_csv(ms)

    @pytest.mark.parametrize("case", ["repeats", "stale", "no repeat"])
    def test_measures_csv_of_a_synthetic_distinct_index(self, tmp_path, case):
        # Each row is the table row that a synthetic index picks.
        rng = np.random.default_rng(5)
        table = np.array([[-0.0, np.nan, 1e-300], [np.inf, 0.0, 1.2345678901234567e300],
                          [0.5, 0.5, 0.5]]).repeat(3, axis=1)  # (row, measure)
        rows = rng.integers(0, 3, 50)
        if case == "no repeat":
            table, rows = rng.normal(size=(50, 9)), rng.permutation(50)
        values = table[rows].T
        if case == "stale":  # a row that no longer equals the table row it was picked from
            values[:, 17] = 0.125
        ms = MeasureSeries(np.arange(7, 57), dict(zip(rqa.MEASURE_NAMES, values)), 10, 0)
        for chunk in (7, detect.CSV_CHUNK_ROWS):
            with mock.patch.object(detect, "CSV_CHUNK_ROWS", chunk):
                assert csv_bytes(tmp_path, ms) == per_row_csv(ms)

    @pytest.mark.parametrize("chunk", [3, 7, detect.CSV_CHUNK_ROWS])
    def test_measures_csv_equal_rows_across_chunk_boundaries(self, tmp_path, chunk):
        # Rows 0, 5, 10, ... are equal and fall in different chunks; so do
        # the -0.0/+0.0 and NaN rows beside them, which must keep their texts.
        n = 2 * detect.CSV_CHUNK_ROWS + 11
        table = np.array([[0.5] * 9, [-0.0] * 9, [0.0] * 9, [np.nan] * 9,
                          [1.2345678901234567e300, 5e-324, -np.inf] * 3])
        values = table[np.arange(n) % 5].T
        ms = MeasureSeries(np.arange(199, 199 + n), dict(zip(rqa.MEASURE_NAMES, values)),
                           10, 1_700_000_000_123_457)
        with mock.patch.object(detect, "CSV_CHUNK_ROWS", chunk):
            assert csv_bytes(tmp_path, ms) == per_row_csv(ms)

    # Starts and bin sizes around the integer rendering of the times: the
    # last window time (bin 229 with bin size 1) just below and at 2^32 s,
    # then ones printed by % per row: below 0 s, past 2^32 s, not whole
    # microseconds, and not whole seconds.
    @pytest.mark.parametrize("start_us, bin_size", [
        (2**32 * 10**6 - 229 * 10**6 - 1, 1), (2**32 * 10**6 - 229 * 10**6, 1),
        (-5_000_001, 10), (-3_000_000_000, 1), (2**32 * 10**6 - 2_000_000, 1),
        (2**32 * 10**6, 10), (2**62, 10), (1.5, 10), (0, 2.5), (123_457, np.float64(7.0))])
    @pytest.mark.parametrize("chunk", [7, detect.CSV_CHUNK_ROWS])
    def test_measures_csv_around_the_exact_time_guard(self, tmp_path, start_us, bin_size,
                                                      chunk):
        ms = synthetic_measures({name: np.resize([0.25, -0.0, np.nan, 3.0], 30)
                                 for name in rqa.MEASURE_NAMES}, bin_size=bin_size)
        ms.start_us = start_us
        with mock.patch.object(detect, "CSV_CHUNK_ROWS", chunk):
            assert csv_bytes(tmp_path, ms) == per_row_csv(ms)

    def test_measures_csv_memory_is_bounded_on_distinct_rows(self, tmp_path):
        # A text is kept from the chunk where its row first occurs to its
        # last occurrence, so all-distinct rows hold about a chunk of texts
        # (over 100 bytes each) while the index arrays take about 60 per row.
        rng = np.random.default_rng(7)

        def peak(n):
            ms = MeasureSeries(np.arange(199, 199 + n),
                               dict(zip(rqa.MEASURE_NAMES, rng.normal(size=(9, n)))), 10, 0)
            tracemalloc.start()
            try:
                detect.write_measures_csv(tmp_path / "measures.csv", ms)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(40_000) - peak(4_000) < 100 * 36_000

    def test_measures_csv_with_negative_window_ends(self, tmp_path):
        ms = synthetic_measures({name: [0.5, -0.0, 2.0, 0.5] for name in rqa.MEASURE_NAMES})
        ms.window_end_bins = np.arange(-1, 3)  # the first time, of bin 0, prints exactly
        assert csv_bytes(tmp_path, ms) == per_row_csv(ms)

    def test_alerts_jsonl_round_trip(self, tmp_path):
        alerts = [Alert(
            bin_index=250, time_s=2510.0,
            triggered=(detect.TriggeredMeasure("rr", 0.9, 0.5, 12.5),),
            severity=12.5,
        )]
        path = tmp_path / "alerts.jsonl"
        detect.write_alerts_jsonl(path, alerts)
        back = [Alert(rec["bin_index"], rec["time_s"],
                      tuple(detect.TriggeredMeasure(**t) for t in rec["triggered_measures"]),
                      rec["severity"])
                for rec in oracle.read_alerts_jsonl(path)]
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

    def test_rows_and_events_give_the_same_run(self):
        # A simulator row is an LsaEvent left unnamed: analyze_run reads either.
        topo = sim.load_topology("paper16")
        res = sim.run(topo, sim.scenario_paper_attacks()[:1], 4000, seed=1)
        flt = ingest.EventFilter(monitor="rcs1", origin=topo.router_id("r9"))
        cfg = DetectorConfig(window_bins=30, baseline_bins=10)
        (s1, m1, a1), (s2, m2, a2) = (detect.analyze_run(events, flt, cfg, 0, 4_000_000_000)
                                      for events in (res.rows["rcs1"], res.logs["rcs1"]))
        assert (s1.start_us, s1.dropped, s1.counts.tolist()) == (s2.start_us, s2.dropped,
                                                                  s2.counts.tolist())
        np.testing.assert_array_equal(m1.window_end_bins, m2.window_end_bins)
        assert m1.values.keys() == m2.values.keys()
        for name in m1.values:
            np.testing.assert_array_equal(m1.values[name], m2.values[name])
        assert a1 == a2 != []
