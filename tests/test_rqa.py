"""Unit and property tests for the recurrence engine."""

import dataclasses
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

import oracle
from ospfrqa import detect, ingest, rqa


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf, 0.0, -0.2])
def test_epsilon_must_be_positive_and_finite(epsilon):
    with pytest.raises(ValueError, match=f"epsilon must be > 0 and finite, not {epsilon}"):
        rqa.EmbedParams(epsilon=epsilon)


class TestZnormalize:
    def test_simple(self):
        z, flag = rqa.znormalize([1, 2, 3])
        assert not flag
        np.testing.assert_allclose(z, [-1.224744871392, 0.0, 1.224744871392], atol=1e-12)

    def test_zero_variance(self):
        z, flag = rqa.znormalize([5, 5, 5, 5])
        assert flag
        assert np.all(z == 0.0)

    def test_idempotent(self):
        x = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
        z1, _ = rqa.znormalize(x)
        z2, _ = rqa.znormalize(z1)
        np.testing.assert_allclose(z1, z2, atol=1e-12)

    def test_integer_shift_is_exact(self):
        x = np.array([0, 3, 0, 0, 7, 1, 0, 2], dtype=float)
        z1, _ = rqa.znormalize(x)
        z2, _ = rqa.znormalize(x + 13)
        assert np.array_equal(z1, z2)


class TestEmbed:
    def test_basic(self):
        traj = rqa.embed([1, 2, 3, 4, 5], tau=1, m=2)
        np.testing.assert_array_equal(traj, [[1, 2], [2, 3], [3, 4], [4, 5]])

    def test_m1_identity(self):
        x = [4.0, 2.0, 7.0]
        traj = rqa.embed(x, tau=3, m=1)
        np.testing.assert_array_equal(traj[:, 0], x)

    def test_tau2(self):
        traj = rqa.embed([0, 1, 0, 1, 0, 1], tau=2, m=2)
        np.testing.assert_array_equal(traj, [[0, 0], [1, 1], [0, 0], [1, 1]])

    def test_too_short_names_minimum(self):
        with pytest.raises(rqa.SeriesTooShortError, match="at least 11"):
            rqa.embed([1, 2, 3], tau=3, m=4)


class TestRecurrenceMatrix:
    def test_constant_trajectory_all_ones(self):
        traj = np.zeros((6, 2))
        rm = rqa.recurrence_matrix(traj, 0.5)
        assert rm.all()

    def test_alternating_values(self):
        # 1-D points [0,1,0,1]: recurrent iff equal; 8 ones of 16 per oracle.
        traj = rqa.embed([0, 1, 0, 1], tau=1, m=1)
        rm = rqa.recurrence_matrix(traj, 0.5)
        assert int(rm.sum()) == 8
        pts = oracle.embed_points([0, 1, 0, 1], 1, 1)
        assert rm.astype(int).tolist() == oracle.recurrence(pts, 0.5, "euclidean")

    def test_symmetric_reflexive_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            traj = rng.normal(size=(rng.integers(2, 40), rng.integers(1, 4)))
            rm = rqa.recurrence_matrix(traj, float(rng.uniform(0.05, 2.0)))
            assert np.array_equal(rm, rm.T)
            assert rm.diagonal().all()

    def test_boundary_inclusive(self):
        traj = np.array([[0.0], [1.0]])
        assert rqa.recurrence_matrix(traj, 1.0)[0, 1]

    def test_maximum_norm(self):
        traj = np.array([[0.0, 0.0], [0.6, 0.9]])
        assert rqa.recurrence_matrix(traj, 1.0, norm="maximum")[0, 1]
        assert not rqa.recurrence_matrix(traj, 1.0, norm="euclidean")[0, 1]

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, 0.0, -0.5])
    def test_epsilon_must_be_positive_and_finite(self, epsilon):
        # A NaN threshold would compare False everywhere, the diagonal included.
        with pytest.raises(ValueError, match=f"epsilon must be > 0 and finite, not {epsilon}"):
            rqa.recurrence_matrix([[0.0], [1.0], [2.0]], epsilon)


def histogram_maps(rm, theiler):
    """``rqa._line_histograms`` of rm as (diagonal, vertical, white vertical)
    maps of length -> count, the form of ``oracle.histogram``."""
    return tuple({int(length): int(h[length]) for length in np.flatnonzero(h)}
                 for h in rqa._line_histograms(rm, theiler))


class TestLineHistograms:
    def test_all_ones_5x5(self):
        rm = np.ones((5, 5), dtype=bool)
        diagonal, vertical, white = histogram_maps(rm, theiler=1)
        assert diagonal == {4: 2, 3: 2, 2: 2, 1: 2}
        assert vertical == {5: 5}
        assert white == {}

    def test_identity_only(self):
        rm = np.eye(8, dtype=bool)
        diagonal, vertical, white = histogram_maps(rm, theiler=1)
        assert diagonal == {}
        assert vertical == {1: 8}
        assert white == {}

    def test_checkerboard_matches_oracle(self):
        series = [0, 1] * 4
        traj = rqa.embed(series, tau=1, m=1)
        rm = rqa.recurrence_matrix(traj, 0.1)
        diagonal, vertical, white = histogram_maps(rm, theiler=1)
        assert diagonal == {6: 2, 4: 2, 2: 2}
        assert vertical == {1: 32}
        assert white == {1: 24}

    def test_theiler_widens_exclusion(self):
        rm = np.ones((6, 6), dtype=bool)
        diagonal, _, _ = histogram_maps(rm, theiler=3)
        assert diagonal == {3: 2, 2: 2, 1: 2}

    def test_loi_excluded_even_at_theiler_zero(self):
        rm = np.eye(5, dtype=bool)
        assert histogram_maps(rm, theiler=0)[0] == {}


class TestRqaMeasures:
    def test_fields_are_in_column_order(self):
        # dataclasses.astuple of a window's measures fills a row of columns.
        assert tuple(f.name for f in dataclasses.fields(rqa.RqaMeasures)) == rqa.MEASURE_NAMES

    def test_all_ones_10x10(self):
        # Frozen from the run-enumeration oracle; note det = 44/45 because
        # the two length-1 corner diagonals fall below l_min.
        rm = np.ones((10, 10), dtype=bool)
        m = rqa.rqa_measures(rm, l_min=2, v_min=2, theiler=1)
        assert m.rr == 1.0
        assert m.det == pytest.approx(44 / 45, abs=1e-12)
        assert m.l_max == 9.0
        assert m.tt == 10.0
        assert m.v_entr == 0.0
        assert m.t2 == 0.0
        assert m.w_entr == 0.0

    def test_identity_only(self):
        n = 12
        rm = np.eye(n, dtype=bool)
        m = rqa.rqa_measures(rm)
        assert m.rr == pytest.approx(1 / n, abs=1e-15)
        assert m.det == 0.0
        assert m.l_max == 0.0
        assert m.l_mean == 0.0
        assert m.l_entr == 0.0 and m.v_entr == 0.0 and m.w_entr == 0.0

    def test_period_two_series(self):
        series = [0, 1] * 4
        traj = rqa.embed(series, tau=1, m=1)
        rm = rqa.recurrence_matrix(traj, 0.1)
        m = rqa.rqa_measures(rm)
        assert m.rr == pytest.approx(0.5, abs=1e-15)
        assert m.det == pytest.approx(1.0, abs=1e-15)

    def test_matches_oracle_on_random_matrices(self):
        rng = np.random.default_rng(123)
        for _ in range(60):
            n = int(rng.integers(2, 31))
            rm = rng.random((n, n)) < rng.uniform(0.1, 0.9)
            rm |= rm.T
            np.fill_diagonal(rm, True)
            theiler = int(rng.integers(0, 3))
            l_min = int(rng.integers(2, 4))
            v_min = int(rng.integers(2, 4))
            got = dataclasses.asdict(rqa.rqa_measures(rm, l_min, v_min, theiler))
            want = oracle.measures(rm.astype(int).tolist(), l_min, v_min, theiler)
            for name in rqa.MEASURE_NAMES:
                assert got[name] == pytest.approx(want[name], abs=1e-12), name

    def test_rr_monotone_in_epsilon(self):
        rng = np.random.default_rng(5)
        traj = rng.normal(size=(40, 2))
        eps = np.sort(rng.uniform(0.01, 3.0, size=10))
        rrs = [rqa.rqa_measures(rqa.recurrence_matrix(traj, e)).rr for e in eps]
        assert all(a <= b + 1e-15 for a, b in zip(rrs, rrs[1:]))


def block_measures(block, params):
    """``measures_for_series`` of a (B, w) block of unrelated windows: the
    raveled block, with a window starting every w counts."""
    block = np.asarray(block, dtype=float)
    b, w = block.shape
    return rqa.measures_for_series(block.ravel(), np.arange(b) * w, w, params)


def window_measures(x, params):
    """``measures_for_series`` of one window as a block of one: its row of
    measures and whether it is degenerate."""
    (values,), (degenerate,), _ = block_measures(np.asarray(x, dtype=float)[None], params)
    return values, bool(degenerate)


class TestConstantWindow:
    def test_matches_all_ones_matrix_except_pinned_det(self):
        for n in (5, 20, 199):
            conv = rqa.constant_window_measures(n)
            raw = rqa.rqa_measures(np.ones((n, n), dtype=bool))
            assert conv.rr == raw.rr == 1.0
            assert conv.det == 1.0
            assert conv.l_max == raw.l_max
            assert conv.l_mean == pytest.approx(raw.l_mean, abs=1e-9)
            assert conv.l_entr == pytest.approx(raw.l_entr, abs=1e-9)
            assert conv.tt == raw.tt
            assert (conv.v_entr, conv.t2, conv.w_entr) == (0.0, 0.0, 0.0)

    def test_measures_for_series_degenerate(self):
        params = rqa.EmbedParams()
        values, degenerate = window_measures(np.zeros(50), params)
        assert degenerate
        expected = np.array(dataclasses.astuple(rqa.constant_window_measures(49)))
        assert values.tobytes() == expected.tobytes()
        assert values[0] == 1.0 and values[1] == 1.0  # rr and det

    def test_measures_for_series_shift_invariant(self):
        params = rqa.EmbedParams()
        rng = np.random.default_rng(11)
        counts = rng.poisson(1.0, size=60).astype(float)
        a, _ = window_measures(counts, params)
        b, _ = window_measures(counts + 7, params)
        assert a.tobytes() == b.tobytes()


class TestPhaseSpaceDiameter:
    def test_pythagoras(self):
        assert rqa.phase_space_diameter(np.array([[0, 0], [3, 4]])) == pytest.approx(5.0)

    def test_constant(self):
        assert rqa.phase_space_diameter(np.zeros((5, 2))) == 0.0

    def test_znormalized_series_respects_ten_percent_rule(self):
        # 400 z-normalized normal samples spread far past 2 in each delay
        # coordinate, so the default threshold 0.2 stays within 10% of the
        # diameter.  A few embedded points need not (TWO_EQUAL_POINTS in
        # test_detector.py).
        rng = np.random.default_rng(3)
        z, _ = rqa.znormalize(rng.normal(size=400))
        traj = rqa.embed(z, tau=1, m=2)
        assert 0.2 <= 0.1 * rqa.phase_space_diameter(traj)


@given(
    st.lists(st.integers(min_value=0, max_value=6), min_size=4, max_size=48),
    st.integers(min_value=0, max_value=20),
)
@settings(max_examples=60, deadline=None)
def test_measures_shift_invariant_property(counts, shift):
    params = rqa.EmbedParams()
    x = np.asarray(counts, dtype=float)
    a, da = window_measures(x, params)
    b, db = window_measures(x + shift, params)
    assert da == db
    assert a.tobytes() == b.tobytes()


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_rr_equals_brute_force_count(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 50))
    traj = rng.normal(size=(n, int(rng.integers(1, 4))))
    eps = float(rng.uniform(0.1, 2.0))
    rm = rqa.recurrence_matrix(traj, eps)
    m = rqa.rqa_measures(rm)
    count = sum(
        1
        for i in range(n)
        for j in range(n)
        if math.dist(traj[i], traj[j]) <= eps
    )
    assert m.rr == count / (n * n)


# --- distance kernels against the oracle ------------------------------------
#
# Integer coordinates make many pairs sit exactly on the threshold (3-4-5
# triangles, axis-aligned steps), which checks the inclusive boundary;
# floats check the accumulation order.  A tiny BLOCK_ELEMENTS forces many
# row blocks.

NORMS = st.sampled_from(["euclidean", "maximum"])
BLOCKS = st.integers(min_value=1, max_value=64)


@st.composite
def trajectories(draw):
    integer = draw(st.booleans())
    elem = (st.integers(-4, 4).map(float) if integer
            else st.floats(-10, 10, allow_nan=False, allow_infinity=False))
    n = draw(st.integers(2, 12))
    m = draw(st.integers(1, 3))
    pts = draw(st.lists(st.lists(elem, min_size=m, max_size=m), min_size=n, max_size=n))
    eps = float(draw(st.integers(1, 6))) if integer else draw(st.floats(0.01, 10))
    return pts, eps


@st.composite
def count_or_float_series(draw, min_size=4, max_size=40):
    elem = draw(st.sampled_from([
        st.integers(0, 5).map(float),
        st.floats(-5, 5, allow_nan=False, allow_infinity=False),
    ]))
    return np.array(draw(st.lists(elem, min_size=min_size, max_size=max_size)))


# Ratios of integer sums are correctly rounded on both sides, so they must
# agree exactly; the oracle's entropies use math.log and a sequential sum.
EXACT_MEASURES = ("rr", "det", "l_max", "l_mean", "tt", "t2")


def assert_matches_oracle(got, want):
    for name in rqa.MEASURE_NAMES:
        if name in EXACT_MEASURES:
            assert getattr(got, name) == want[name], name
        else:
            assert getattr(got, name) == pytest.approx(want[name], abs=1e-12), name


class TestDistanceKernels:
    def test_pythagorean_boundary_is_inclusive(self):
        traj = np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]])
        assert rqa.recurrence_matrix(traj, 5.0).astype(int).tolist() == [
            [1, 1, 0], [1, 1, 1], [0, 1, 1]]
        assert not rqa.recurrence_matrix(traj, math.nextafter(5.0, 0.0))[0, 1]
        assert rqa.phase_space_diameter(traj) == 10.0

    def test_boundary_inclusive_on_rounded_distance(self):
        # The distance of (0.9, 0.6) rounds to eps, yet eps * eps rounds
        # below the sum of squares: the test is on distances, not squares.
        traj = np.array([[0.0, 0.0], [0.9, 0.6]])
        eps = math.sqrt(0.9 * 0.9 + 0.6 * 0.6)
        assert eps * eps < 0.9 * 0.9 + 0.6 * 0.6
        assert rqa.recurrence_matrix(traj, eps)[0, 1]
        assert not rqa.recurrence_matrix(traj, math.nextafter(eps, 0.0))[0, 1]

    @given(trajectories(), NORMS, BLOCKS)
    @settings(max_examples=150, deadline=None)
    def test_recurrence_matrix_matches_oracle(self, case, norm, block):
        pts, eps = case
        with mock.patch.object(rqa, "BLOCK_ELEMENTS", block):
            rm = rqa.recurrence_matrix(np.array(pts), eps, norm)
        assert rm.astype(int).tolist() == oracle.recurrence(pts, eps, norm)

    @given(count_or_float_series(), st.integers(1, 3), st.integers(1, 4), NORMS,
           st.sampled_from([0.2, 0.5, 1.0, 2.0]))
    @settings(max_examples=150, deadline=None)
    def test_measures_for_series_matrix_matches_oracle(self, x, tau, m, norm, eps):
        # The float path builds R from the series without embedding it;
        # capture that R where it is handed to the line statistics.  The
        # equality-class engine builds no R, so the float path is forced for
        # that check; the measures as computed (by the equality engine where
        # it applies) are then checked against the oracle's measures of R.
        assume(x.size >= (m - 1) * tau + 2)
        z, degenerate = rqa.znormalize(x)
        assume(not degenerate)
        params = rqa.EmbedParams(tau=tau, m=m, epsilon=eps, norm=norm)
        with mock.patch.object(rqa, "_equality_rows", side_effect=no_equality_rows), \
                mock.patch.object(rqa, "_line_histograms", wraps=rqa._line_histograms) as spy:
            window_measures(x, params)
        rm = spy.call_args.args[0]
        want = oracle.recurrence(oracle.embed_points(z.tolist(), tau, m), eps, norm)
        assert rm.astype(int).tolist() == want
        got, _ = window_measures(x, params)
        assert_matches_oracle(rqa.RqaMeasures(*got.tolist()),
                              oracle.measures(want, params.l_min, params.v_min, params.theiler))

    @given(trajectories(), NORMS, BLOCKS)
    @settings(max_examples=100, deadline=None)
    def test_phase_space_diameter_matches_oracle(self, case, norm, block):
        pts, _ = case
        with mock.patch.object(rqa, "BLOCK_ELEMENTS", block):
            got = rqa.phase_space_diameter(np.array(pts), norm)
        assert got == oracle.diameter(pts, norm)

    @given(count_or_float_series(min_size=6, max_size=30), st.integers(1, 3),
           st.integers(1, 4), BLOCKS)
    @settings(max_examples=100, deadline=None)
    def test_fnn_neighbors_match_oracle(self, x, tau, m_max, block):
        assume(x.size - m_max * tau >= 2)
        with mock.patch.object(rqa, "BLOCK_ELEMENTS", block):
            got = rqa._nearest_neighbors(x, tau, m_max)
        for m in range(1, m_max + 1):
            points = oracle.embed_points(x.tolist(), tau, m)[: x.size - m * tau]
            assert got[m - 1].tolist() == oracle.nearest_neighbors(points), m


# --- equality-class engine ---------------------------------------------------


def both_engines(x, params):
    """The measures of window x as ``measures_for_series`` computes them, whether
    the equality engine ran (no recurrence matrix reached the line
    statistics), and the float path's measures and recurrence matrix."""
    with mock.patch.object(rqa, "_line_histograms", wraps=rqa._line_histograms) as spy:
        got, degenerate = window_measures(x, params)
    assert not degenerate
    equality = spy.call_count == 0
    with mock.patch.object(rqa, "_equality_rows", side_effect=no_equality_rows), \
            mock.patch.object(rqa, "_line_histograms", wraps=rqa._line_histograms) as spy:
        want, _ = window_measures(x, params)
    return got, equality, want, spy.call_args.args[0]


def no_equality_rows(windows, sd, params):
    """``rqa._equality_rows`` with no row in the equality regime: patched in,
    it sends every window down the float path."""
    return np.zeros(len(windows), dtype=bool)


def equality_of(x, params):
    """``rqa._equality_rows`` of one window, as a block of one."""
    block = x[None]
    (inside,) = rqa._equality_rows(block, rqa._centered(block)[1], params)
    return bool(inside)


def equality_matrix(x, tau, m):
    pts = rqa.embed(x, tau, m)
    return (pts[:, None, :] == pts[None, :, :]).all(axis=2)


# Factors f for epsilon = f / sd: sd just below and just above 1 / epsilon,
# on both sides of the guard epsilon * sd <= 1 - 1e-9.
EDGE_FACTORS = [1 - 1e-6, 1 - 2e-9, 1 - 1e-9, 1 - 5e-10, 1.0, 1 + 1e-9, 1 + 1e-6]


@st.composite
def equality_cases(draw):
    tau, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    # Counts up to 6 are ranked through rqa._dense_rank's table, and counts
    # spread up to the guard's 2**20 mostly through np.unique.
    high = draw(st.sampled_from([6, 2**20]))
    alphabet = draw(st.lists(st.integers(0, high), min_size=2, max_size=4, unique=True))
    x = np.array(draw(st.lists(st.sampled_from(alphabet), min_size=(m - 1) * tau + 2,
                               max_size=60)), dtype=float)
    x += draw(st.integers(-3, 3))
    _, sd = rqa._centered(x)
    assume(sd > 0)
    factor = draw(st.sampled_from([None] + EDGE_FACTORS))
    eps = draw(st.floats(0.01, 1.0)) if factor is None else min(factor / sd, 1.0)
    params = rqa.EmbedParams(tau=tau, m=m, epsilon=eps, norm=draw(NORMS),
                             theiler=draw(st.integers(0, 3)), l_min=draw(st.integers(2, 4)),
                             v_min=draw(st.integers(2, 4)))
    return x, params


class TestEqualityEngine:
    @given(equality_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_float_path_bit_for_bit(self, case):
        x, params = case
        got, equality, want, rm = both_engines(x, params)
        assert got.tobytes() == want.tobytes()
        _, sd = rqa._centered(x)
        assert equality == (params.epsilon * sd <= 1 - 1e-9)
        event(f"equality engine: {equality}")
        if equality:
            c = x - x.min()
            event(f"first rank: {'table' if c.max() <= c.size else 'np.unique'}")
            # The reason it is exact: R is the equality matrix of the vectors.
            assert np.array_equal(rm, equality_matrix(x, params.tau, params.m))

    def test_guard_edge_is_inclusive(self):
        x = np.array([0.0, 2.0] * 10)
        assert rqa._centered(x)[1] == 1.0
        inside = rqa.EmbedParams(epsilon=1 - 1e-9)
        outside = rqa.EmbedParams(epsilon=math.nextafter(1 - 1e-9, 2.0))
        for params, expect in ((inside, True), (outside, False)):
            got, equality, want, _ = both_engines(x, params)
            assert equality == expect
            assert got.tobytes() == want.tobytes()

    def test_beyond_guard_takes_float_path(self):
        # epsilon * sd = 1.05: unequal points one count apart recur.
        x = np.array([0.0, 1.0, 2.0, 1.0] * 5)
        _, sd = rqa._centered(x)
        params = rqa.EmbedParams(m=1, epsilon=1.05 / sd)
        got, equality, want, rm = both_engines(x, params)
        assert not equality
        assert got.tobytes() == want.tobytes()
        assert not np.array_equal(rm, equality_matrix(x, 1, 1))

    def test_non_integer_window_takes_float_path(self):
        x = np.array([0.0, 1.0, 0.0, 2.0, 1.0, 0.5, 0.0, 1.0, 2.0, 1.0])
        _, sd = rqa._centered(x)
        params = rqa.EmbedParams()
        assert params.epsilon * sd < 1 - 1e-9
        assert not equality_of(x, params)
        got, equality, want, _ = both_engines(x, params)
        assert not equality
        assert got.tobytes() == want.tobytes()

    def test_non_finite_window_takes_float_path(self):
        x = np.array([0.0, 1.0, np.inf, 0.0, 1.0, 0.0])
        with np.errstate(invalid="ignore"):
            assert not equality_of(x, rqa.EmbedParams())

    @pytest.mark.parametrize("span, expect", [(2**20, True), (2**20 + 1, False)])
    def test_spread_guard(self, span, expect):
        rng = np.random.default_rng(span)
        x = rng.integers(0, span + 1, size=60).astype(float)
        x[:2] = 0, span
        _, sd = rqa._centered(x)
        params = rqa.EmbedParams(epsilon=0.5 / sd)
        assert equality_of(x, params) == expect
        got, equality, want, _ = both_engines(x, params)
        assert equality == expect
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("high, m, tau", [(2, 10, 1), (2**20, 5, 2), (3, 40, 1)])
    def test_large_code_spaces(self, high, m, tau):
        # The delay-vector ids take 4, 3 and 6 doubling steps; counts up to
        # 2**20 are ranked through np.unique from the first step on.
        rng = np.random.default_rng(m)
        x = np.tile(rng.integers(0, high + 1, size=20), 6).astype(float)
        x[-7:] = rng.integers(0, high + 1, size=7)
        _, sd = rqa._centered(x)
        params = rqa.EmbedParams(tau=tau, m=m, epsilon=0.9 / sd, theiler=2)
        got, equality, want, rm = both_engines(x, params)
        assert equality
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(rm, equality_matrix(x, tau, m))


@st.composite
def series_windows(draw):
    """A small-alphabet series tiled from a pattern with edits, so that runs
    cross and cover window edges, with tau, m, theiler, the window's points
    n and non-decreasing window starts.  The gaps between starts are 0 (a
    repeated start), 1 to 4, just under, at and past ``rqa.SEGMENT_GAP``
    and far past it, so segments of one window, of many windows and
    segments split at a gap all occur."""
    tau, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n = draw(st.integers(2, 30))
    gap = rqa.SEGMENT_GAP
    gaps = draw(st.lists(st.one_of(st.integers(0, 4), st.integers(gap - 1, gap + 1),
                                   st.integers(gap + 2, 60)), max_size=30))
    starts = draw(st.integers(0, 5)) + np.cumsum([0] + gaps)
    size = int(starts[-1]) + n + (m - 1) * tau + draw(st.integers(0, 5))
    pattern = draw(st.lists(st.integers(0, 3), min_size=1, max_size=8))
    series = np.resize(np.array(pattern), size)
    for at, value in draw(st.lists(st.tuples(st.integers(0, size - 1), st.integers(0, 3)),
                                   max_size=6)):
        series[at] = value
    return series, tau, m, draw(st.integers(0, 3)), n, starts


def pinned_case(tau, m, theiler, n, starts, extra=0, seed=0):
    """A ``series_windows`` case: a random 0..2 series that ends ``extra``
    counts after the last window."""
    starts = np.array(starts)
    size = int(starts[-1]) + n + (m - 1) * tau + extra
    return np.random.default_rng(seed).integers(0, 3, size), tau, m, theiler, n, starts


GAP = rqa.SEGMENT_GAP


@given(series_windows(), st.sampled_from([1, 40, 400, None]))
@settings(max_examples=200, deadline=None)
# A block of one-window segments: windows of GAP + 5 counts laid end to end,
# as a (B, w) block is raveled.
@example(pinned_case(1, 2, 1, GAP + 4, np.arange(5) * (GAP + 5), seed=1), None)
# One segment of many windows, down to one diagonal per scan.
@example(pinned_case(2, 2, 0, 12, [0, 1, 2, 3, 5, 9, 14, 14, 20, 20 + GAP], extra=3, seed=2), 1)
# Gaps of exactly GAP (one segment) and GAP + 1 (a split).
@example(pinned_case(1, 1, 1, 8, np.cumsum([0, GAP, GAP + 1, GAP, 1, GAP + 1]), extra=2,
                      seed=3), 40)
# A segment of several windows that ends at the last id.
@example(pinned_case(1, 3, 2, 15, [0, 30, 31, 33], seed=4), None)
def test_diagonal_runs_match_oracle(case, cells):
    # cells: match cells scanned at once, down to one diagonal per scan;
    # None keeps the default.
    series, tau, m, theiler, n, starts = case
    ids = rqa._tuple_ids(series, m, tau)
    with mock.patch.object(rqa, "BLOCK_ELEMENTS", 16 * cells if cells else rqa.BLOCK_ELEMENTS):
        got = rqa._diagonal_runs(ids, starts, n, theiler)
    assert got.shape == (starts.size, n + 1)
    for row, s in zip(got, starts):
        rm = equality_matrix(series[s : s + n + (m - 1) * tau], tau, m).astype(int).tolist()
        want = oracle.histogram(oracle.diagonal_lengths(rm, theiler))
        assert {int(length): int(row[length]) for length in np.flatnonzero(row)} == want
    gaps = np.diff(starts)
    sizes = np.diff(np.r_[0, np.flatnonzero(gaps > rqa.SEGMENT_GAP) + 1, starts.size])
    event(f"a segment of one window: {bool((sizes == 1).any())}")
    event(f"a segment of many windows: {bool((sizes > 1).any())}")
    at_split = np.isin(gaps, [rqa.SEGMENT_GAP, rqa.SEGMENT_GAP + 1]).any()
    event(f"a gap at the split: {bool(at_split)}")


# --- blocks of windows --------------------------------------------------------


@st.composite
def window_blocks(draw):
    """A (B, w) block, B in 1..40, mixing small-alphabet integer windows,
    constant windows, windows at the equality guard's edge (copies of a pivot
    window that sets epsilon), twice the pivot (its sd doubles, past the
    guard) and non-integer windows, with parameters for the block."""
    tau, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    w = draw(st.integers((m - 1) * tau + 2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alphabet = np.array(draw(st.lists(st.integers(0, 6), min_size=2, max_size=4, unique=True)),
                        dtype=float)
    pivot = rng.choice(alphabet, w)
    pivot[:2] = alphabet[:2]
    rows = []
    for kind in draw(st.lists(st.sampled_from(["integer", "constant", "edge", "twice", "fraction"]),
                              min_size=1, max_size=40)):
        if kind == "integer":
            row = rng.choice(alphabet, w)
        elif kind == "constant":
            row = np.full(w, rng.choice(alphabet))
        elif kind == "edge":
            row = pivot.copy()
        elif kind == "twice":
            row = 2 * pivot
        else:
            row = rng.choice(alphabet, w)
            row[rng.integers(w)] += 0.5
        rows.append(row + rng.integers(-3, 4))  # an integer shift keeps the sd's bits
    factor = draw(st.sampled_from([None] + EDGE_FACTORS))
    eps = (draw(st.floats(0.01, 1.0)) if factor is None
           else min(factor / rqa._centered(pivot)[1], 1.0))
    params = rqa.EmbedParams(tau=tau, m=m, epsilon=eps, norm=draw(NORMS),
                             theiler=draw(st.integers(0, 3)), l_min=draw(st.integers(2, 4)),
                             v_min=draw(st.integers(2, 4)))
    return np.array(rows), params


class TestBlocks:
    @given(window_blocks())
    @settings(max_examples=200, deadline=None)
    def test_each_row_equals_the_row_alone_and_the_float_path(self, case):
        # "Alone" is each row as a block of one.
        block, params = case
        alone = [window_measures(row, params) for row in block]
        want = np.array([values for values, _ in alone])
        want_degenerate = np.array([degenerate for _, degenerate in alone])
        with mock.patch.object(rqa, "_equality_rows", side_effect=no_equality_rows):
            forced, forced_degenerate, _ = block_measures(block, params)
        assert forced.tobytes() == want.tobytes()
        assert np.array_equal(forced_degenerate, want_degenerate)
        for size in (3, rqa.BLOCK_WINDOWS):
            parts = [block_measures(block[i : i + size], params)
                     for i in range(0, len(block), size)]
            got = np.concatenate([values for values, _, _ in parts])
            assert got.tobytes() == want.tobytes(), size
            assert np.array_equal(np.concatenate([d for _, d, _ in parts]), want_degenerate), size
            # And one call that walks the whole block size rows at a time.
            with mock.patch.object(rqa, "BLOCK_WINDOWS", size):
                walked, walked_degenerate, _ = block_measures(block, params)
            assert walked.tobytes() == want.tobytes(), size
            assert np.array_equal(walked_degenerate, want_degenerate), size
        rows = rqa._equality_rows(block, rqa._centered(block)[1], params)
        event(f"equality rows: {'all' if rows.all() else 'some' if rows.any() else 'none'}")

    @given(window_blocks())
    @settings(max_examples=100, deadline=None)
    def test_measures_are_finite(self, case):
        # Baseline scoring sorts the measures, and a sort puts NaN last
        # where np.median returns it: an empty ratio must give 0, not NaN.
        values, _, _ = block_measures(*case)
        assert np.isfinite(values).all()

    def test_any_number_of_windows_takes_bounded_memory(self):
        # 2,000 distinct 200-bin windows: one call gathers and histograms
        # BLOCK_WINDOWS of them at a time, never all of them at once.
        counts = np.random.default_rng(0).integers(0, 6, 2199)
        tracemalloc.start()
        try:
            values, _, _ = rqa.measures_for_series(counts, np.arange(2000), 200,
                                                   rqa.EmbedParams())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.shape == (2000, len(rqa.MEASURE_NAMES))
        assert peak < 8 * 2**20

    def test_block_shapes(self):
        params = rqa.EmbedParams()
        values, degenerate, warned = block_measures(np.zeros((0, 20)), params)
        assert values.shape == (0, len(rqa.MEASURE_NAMES))
        assert degenerate.shape == warned.shape == (0,)
        for counts, starts in ((np.zeros((2, 20)), [0]), (np.zeros(20), [[0]]),
                               (np.zeros(21), [0.5])):
            with pytest.raises(ValueError, match="1-D series of counts and 1-D integer starts"):
                rqa.measures_for_series(counts, starts, 20, params)
        for starts in ([-1], [2], [0, 1, 0]):
            with pytest.raises(ValueError, match=r"non-decreasing and within 0\.\.1 for 21"):
                rqa.measures_for_series(np.zeros(21), starts, 20, params)
        with pytest.raises(rqa.SeriesTooShortError, match="window of 2 bins"):
            rqa.measures_for_series(np.zeros(6), [0, 2, 4], 2, rqa.EmbedParams(m=3))


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


# Poisson(50) counts whose window and its reversal (rows 0 and 34 of it and
# its reversal) differ in the float path's last bits at epsilon
# 1.495333199231828.
FLOAT_MIRROR = [51, 51, 44, 43, 47, 49, 54, 39, 50, 43, 58, 42, 58, 48, 48, 39, 54, 67, 52, 46,
                44, 42, 55, 47, 42, 56, 51, 39, 49, 59, 53, 51, 51, 38]
# Poisson(50) counts whose sd is one ulp above its reversal's: at epsilon
# 0.13717262536842229 the window takes the float path and its reversal the
# equality engine.
GUARD_MIRROR = [56, 51, 48, 40, 60, 50, 45, 49, 52, 55, 56, 63, 58, 47, 45, 60, 40, 52, 57, 45,
                57, 68, 51, 58, 48, 48, 38, 45, 65, 59, 47, 56, 45, 60]


@given(series=mirrored_series(), picks=st.lists(st.integers(0, 2**16), min_size=2, max_size=12),
       repeat=st.booleans(), m=st.integers(1, 3), tau=st.integers(1, 3),
       theiler=st.integers(0, 2), norm=NORMS, epsilon=st.sampled_from([0.2, 0.45, 1.0]))
@example(series=(FLOAT_MIRROR + FLOAT_MIRROR[::-1], 34), picks=[0, 34], repeat=True, m=2, tau=1,
         theiler=1, norm="euclidean", epsilon=1.495333199231828)
@example(series=(GUARD_MIRROR + GUARD_MIRROR[::-1], 34), picks=[0, 34], repeat=False, m=2,
         tau=1, theiler=1, norm="euclidean", epsilon=0.13717262536842229)
@example(series=(GUARD_MIRROR[::-1] + GUARD_MIRROR, 34), picks=[0, 34], repeat=False, m=2,
         tau=1, theiler=1, norm="euclidean", epsilon=0.13717262536842229)
@settings(max_examples=100, deadline=None)
def test_repeated_and_mirrored_windows_equal_each_window_alone(series, picks, repeat, m, tau,
                                                               theiler, norm, epsilon):
    # Windows are shared up to reversal inside one call; every row must still
    # be the bits of its window quantified alone.
    counts, w = series
    assume(w >= (m - 1) * tau + 2)
    x = np.asarray(counts, dtype=float)
    starts = np.sort(np.array(picks * (1 + repeat)) % (x.size - w + 1))
    params = rqa.EmbedParams(tau=tau, m=m, epsilon=epsilon, norm=norm, theiler=theiler)
    got, degenerate, warned = rqa.measures_for_series(x, starts, w, params)
    alone = [rqa.measures_for_series(x[s : s + w], [0], w, params) for s in starts]
    assert got.tobytes() == np.concatenate([values for values, _, _ in alone]).tobytes()
    assert degenerate.tolist() == [bool(d) for _, (d,), _ in alone]
    assert warned.tolist() == [bool(v) for _, _, (v,) in alone]
    windows = [x[s : s + w] for s in starts]
    contents = {v.tobytes() for v in windows}
    mirrored = any(v[::-1].tobytes() in contents - {v.tobytes()} for v in windows)
    event(f"a reversed window: {mirrored}")


def warns_by_definition(window, params):
    """The epsilon warning of one window, by its definition."""
    z, degenerate = rqa.znormalize(window)
    diameter = rqa.phase_space_diameter(rqa.embed(z, params.tau, params.m), params.norm)
    return not degenerate and diameter < 10 * params.epsilon


# Values for the 0..3 of a small-alphabet series: integer counts, float
# counts, and counts spread past the 2**20 span of the equality guard.
WARNING_ALPHABETS = [[0, 1, 2, 3], [0.0, 0.5, 1.25, 3.1], [0, 1, 2**21, 2**22 + 3],
                     [2**40, 2**40 + 7, 2**40 + 2**21, 2**40 + 5]]


@st.composite
def warning_series(draw):
    """``(counts, window)``: a mirrored series (see :func:`mirrored_series`), or
    a small-alphabet one, whose windows repeat and whose diameters fall
    near 10 epsilon, over one of ``WARNING_ALPHABETS`` or four drawn floats."""
    if draw(st.booleans()):
        return draw(mirrored_series())
    alphabet = draw(st.one_of(st.sampled_from(WARNING_ALPHABETS), st.lists(
        st.floats(-1e6, 1e6, allow_nan=False), min_size=4, max_size=4)))
    counts = draw(st.lists(st.integers(0, 3), min_size=10, max_size=60))
    return np.asarray(alphabet, dtype=float)[counts].tolist(), draw(st.integers(2, 30))


@given(series=warning_series(), m=st.integers(1, 4), tau=st.integers(1, 4), norm=NORMS,
       epsilon=st.floats(0.2, 1.5), at=st.none() | st.tuples(st.integers(0, 2**16),
                                                               st.integers(-2, 2)))
@example(series=([0] + [5] * 9 + [10], 11), m=2, tau=1, norm="euclidean", epsilon=0.4, at=None)
@example(series=([0] + [5] * 9 + [10], 11), m=2, tau=1, norm="maximum", epsilon=0.4, at=None)
@example(series=([2, 2, 1, 2, 0, 0, 2, 1, 0, 0], 10), m=3, tau=4, norm="euclidean",
         epsilon=0.2, at=None)
@settings(max_examples=150, deadline=None)
def test_epsilon_warnings_equal_the_definition(series, m, tau, norm, epsilon, at):
    # ``at`` puts 10 epsilon within two ulps of one window's diameter, where
    # the diameter's last bits decide, and those can change under reversal.
    counts, w = series
    x = np.asarray(counts, dtype=float)
    assume(w <= x.size and w >= (m - 1) * tau + 2)
    windows = [x[s : s + w] for s in range(x.size - w + 1)]
    if at is not None:
        z, _ = rqa.znormalize(windows[at[0] % len(windows)])
        limit = rqa.phase_space_diameter(rqa.embed(z, tau, m), norm)
        assume(limit > 0)
        for _ in range(abs(at[1])):
            limit = math.nextafter(limit, math.copysign(math.inf, at[1]))
        epsilon = limit / 10
    params = rqa.EmbedParams(tau=tau, m=m, epsilon=epsilon, norm=norm)
    _, _, warned = rqa.measures_for_series(x, np.arange(len(windows)), w, params)
    assert warned.tolist() == [warns_by_definition(v, params) for v in windows]
    event(f"warnings: {'all' if warned.all() else 'some' if warned.any() else 'none'}")


@given(st.integers(1, 12).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=n, max_size=n)),
    st.integers(0, 13), st.integers(2, 4), st.integers(2, 4))
@settings(max_examples=200, deadline=None)
def test_line_statistics_of_any_matrix_match_oracle(rows, theiler, l_min, v_min):
    # Not necessarily symmetric: the diagonals below the LOI are read apart.
    rm = np.array(rows, dtype=bool)
    diagonal, vertical, white = histogram_maps(rm, theiler)
    assert diagonal == oracle.histogram(oracle.diagonal_lengths(rows, theiler))
    assert vertical == oracle.histogram(oracle.vertical_lengths(rows))
    assert white == oracle.histogram(oracle.white_lengths(rows))
    assert_matches_oracle(rqa.rqa_measures(rm, l_min, v_min, theiler),
                          oracle.measures(rows, l_min, v_min, theiler))


@given(st.lists(st.integers(0, 6), min_size=10, max_size=60), st.integers(10, 20),
       st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       st.sampled_from([0.05, 0.2, 1.0, 3.0]), NORMS)
@settings(max_examples=100, deadline=None)
def test_sliding_rqa_measures_are_finite(counts, w, step, tau, m, eps, norm):
    counts = np.resize(counts, max(len(counts), w))
    cfg = detect.DetectorConfig(window_bins=w, step_bins=step,
                                embed=rqa.EmbedParams(tau=tau, m=m, epsilon=eps, norm=norm))
    ms = detect.sliding_rqa(ingest.CountSeries(0, 10, counts), cfg)
    assert all(np.isfinite(v).all() for v in ms.values.values())


def test_oracle_imports_no_package_module():
    tests = Path(oracle.__file__).resolve().parent
    code = ("import sys, oracle; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'ospfrqa'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=tests)
    assert out.stdout.strip() == "[]"


def test_import_loads_no_scipy():
    src = Path(rqa.__file__).resolve().parents[1]
    code = ("import sys, ospfrqa.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=src)
    assert out.stdout.strip() == "[]"


class TestMutualInformation:
    def test_iid_noise_near_zero(self):
        # The plug-in estimator carries a positive bias of roughly
        # (bins-1)^2 / (2N) nats (~0.11 at N=1000, bins=16), so "near zero"
        # is asserted against that bias and checked to shrink with N.
        rng = np.random.default_rng(42)
        mi, flag = rqa.mutual_information(rng.uniform(size=1000), tau_max=10, bins=16)
        assert not flag
        assert np.all(mi >= 0.0)
        assert np.all(mi < 0.15)
        mi_big, _ = rqa.mutual_information(rng.uniform(size=20000), tau_max=10, bins=16)
        assert np.all(mi_big < 0.02)

    def test_identical_copy_equals_marginal_entropy(self):
        rng = np.random.default_rng(1)
        x = np.tile(rng.uniform(size=25), 40)
        # x_{t+25} == x_t exactly: MI at tau=25 equals the marginal entropy.
        mi, _ = rqa.mutual_information(x, tau_max=25, bins=16)
        hist, _ = np.histogram(x[:-25], bins=np.linspace(x.min(), x.max(), 17))
        p = hist / hist.sum()
        p = p[p > 0]
        h = float(-(p * np.log(p)).sum())
        assert mi[24] == pytest.approx(h, rel=1e-6)

    def test_sine_first_minimum_near_quarter_period(self):
        # A noiseless sine with an exactly commensurate integer period only
        # takes 20 distinct values, which flattens the binned MI curve into
        # a quantized plateau (first min lands at 3 there; frozen below).
        # Light dithering restores the theoretical quarter-period minimum.
        t = np.arange(1000)
        rng = np.random.default_rng(0)
        x = np.sin(2 * np.pi * t / 20) + 0.05 * rng.normal(size=1000)
        mi, fallback = rqa.mutual_information(x, tau_max=15, bins=16)
        tau, fallback = rqa.estimate_delay(mi)
        assert not fallback
        assert abs(tau - 5) <= 1

    def test_sine_exact_period_plateau_frozen(self):
        t = np.arange(1000)
        mi, _ = rqa.mutual_information(np.sin(2 * np.pi * t / 20), tau_max=15, bins=16)
        assert rqa.estimate_delay(mi) == (3, False)

    def test_degenerate_series(self):
        mi, flag = rqa.mutual_information(np.full(100, 3.0), tau_max=5)
        assert flag
        assert np.all(mi == 0.0)

    def test_shuffle_destroys_dependence(self):
        rng = np.random.default_rng(99)
        t = np.arange(800)
        x = np.sin(2 * np.pi * t / 40) + 0.1 * rng.normal(size=800)
        mi, _ = rqa.mutual_information(x, tau_max=5, bins=16)
        shuffled = rng.permutation(x)
        mi_s, _ = rqa.mutual_information(shuffled, tau_max=5, bins=16)
        assert np.all(mi_s < mi)


class TestEstimateDelay:
    def test_interior_minimum(self):
        assert rqa.estimate_delay([3.0, 1.0, 2.0, 2.0]) == (2, False)

    def test_monotone_fallback(self):
        assert rqa.estimate_delay([4.0, 3.0, 2.0, 1.0]) == (1, True)

    def test_first_point_can_win(self):
        assert rqa.estimate_delay([1.0, 2.0, 0.5, 3.0]) == (1, False)


class TestFnn:
    def test_sine_resolves_at_two(self):
        t = np.arange(1000)
        x = np.sin(2 * np.pi * t / 25)
        fnn = rqa.false_nearest_neighbors(x, tau=6, m_max=5)
        assert fnn[1] < 0.01

    def test_white_noise_stays_high(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=1000)
        fnn = rqa.false_nearest_neighbors(x, tau=1, m_max=10)
        assert np.all(fnn > 0.1)

    def test_constant_series_zero(self):
        fnn = rqa.false_nearest_neighbors(np.full(200, 2.0), tau=1, m_max=5)
        assert np.all(fnn == 0.0)

    @pytest.mark.parametrize("name", ["r_tol", "a_tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_tolerances_must_be_positive_and_finite(self, name, value):
        # A NaN tolerance would compare False for every pair and drop its criterion.
        x = np.random.default_rng(5).normal(size=50)
        with pytest.raises(ValueError, match=f"{name} must be > 0 and finite, not {value}"):
            rqa.false_nearest_neighbors(x, tau=1, m_max=3, **{name: value})


class TestEstimateDimension:
    def test_threshold_crossing(self):
        m, flag = rqa.estimate_dimension([0.9, 0.005, 0.004, 0.004])
        assert (m, flag) == (2, False)

    def test_saturation(self):
        m, flag = rqa.estimate_dimension([0.9, 0.8, 0.7, 0.6])
        assert (m, flag) == (4, True)

    def test_local_minimum(self):
        m, flag = rqa.estimate_dimension([0.9, 0.4, 0.05, 0.08, 0.06])
        assert (m, flag) == (3, False)
