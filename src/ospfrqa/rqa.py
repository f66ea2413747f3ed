"""Recurrence quantification for binned LSA-count series.

Everything needed to turn a scalar count series into recurrence-based
complexity measures: z-normalization, time-delay embedding, recurrence
matrix construction, diagonal / vertical / white-vertical line statistics,
and the estimators used to choose embedding parameters (binned mutual
information for the delay, false nearest neighbors for the dimension,
phase-space diameter for sanity-checking the threshold).

All functions are pure; nothing here holds shared mutable state, so the
module is safe to call from worker threads.

Conventions (documented so results are comparable across tools):

* distances are built from float64 coordinate differences
  ``d_k = p_k - q_k`` accumulated in coordinate order:
  ``sqrt(((d_0**2 + d_1**2) + d_2**2) + ...)`` for the euclidean norm and
  ``max(max(|d_0|, |d_1|), |d_2|, ...)`` for the maximum norm, so every
  distance is the textbook value rounded the same way whatever the code
  path (recurrence matrix, diameter or nearest neighbors);
* distances are compared against the threshold inclusively,
  ``R[i, j] = 1`` when ``dist <= epsilon``;
* diagonal statistics exclude the band ``|i - j| < max(theiler, 1)``,
  so the line of identity is never counted;
* vertical runs are taken over the full matrix; white-vertical runs of
  zeros that touch the top or bottom border are discarded because their
  true length is censored;
* entropies use the natural logarithm and are normalized over the lines
  that meet the relevant minimum length;
* any measure whose denominator is empty is defined as 0.

Two engines build the line-length histograms P(l), P(v) and P(w) of a
window, and one reducer turns histograms into the nine measures:

* the float path builds R from the z-scored delay vectors exactly as the
  conventions above say and reads its lines.  It is the definition, and
  :func:`rqa_measures` reduces the histograms of the matrix it is given;
* the equality-class engine is a shortcut for integer windows (symbolic
  recurrence, Caballero-Pintado et al., Chaos 2018).  Take a window of
  integers whose population sd, the sd that :func:`znormalize` divides
  by, is sigma.  Equal delay vectors are at distance 0.  Unequal ones
  differ by at least one count in some coordinate, which is at least
  ``1 / sigma`` after z-normalization under both norms.  When
  ``epsilon * sigma <= 1 - 1e-9``, R is therefore exactly the equality
  matrix ``R[i, j] = [v_i == v_j]``.  The engine reads the three
  histograms, without building R, from the ids of the delay vectors that
  :func:`_tuple_ids` gives, as it gives ``sliding_rqa`` its window ids.
  Its guard also requires ``max - min <= 2**20`` of the window, which
  keeps the rounding of the float path inside the 1e-9 margin.  Any other
  window takes the float path, so no convention depends on which ran.

Windows are evaluated in blocks (as PyRQA evaluates them, Rawald, Sips &
Marwan 2017): :func:`measures_for_series` walks the windows it is given
``BLOCK_WINDOWS`` at a time, in memory that does not grow with their
number, and takes the ids of the series' delay vectors once.  Both engines
write a block's B windows into one (3, B, n + 1) histogram stack.  One
vectorized pass centers the windows, applies the equality guard
(:func:`_equality_rows`) and histograms the vertical and white runs of the
windows inside it; their diagonals come from the runs of the series' own
delay vector matches, each run found once per segment of nearby starts
(:func:`_diagonal_runs`).  Only the float path loops over windows, and the
diagonal scan over segments.  One reducer call per block then gives each
window the bits it gets alone: integer sums are exact, every ratio divides
two of them once, and each entropy ``-(p * np.log(p)).sum()`` is taken over
the window's nonzero counts in ascending length order.  numpy sums a row of
k terms in a fixed pairwise order, which padding rows with zeros to a
common width would change, so the reducer groups rows by their count k of
nonzero lengths and sums each group as a contiguous (rows, k) block.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import astuple, dataclass

import numpy as np

MEASURE_NAMES = ("rr", "det", "l_max", "l_mean", "l_entr", "tt", "v_entr", "t2", "w_entr")

# Per-coordinate term and its fold for each norm (see "pairwise distances").
_TERM = {"euclidean": np.square, "maximum": np.abs}
_FOLD = {"euclidean": np.add, "maximum": np.maximum}

# Elements per row block of pairwise terms (8 MB of float64): bounds the
# memory of the diameter and nearest-neighbor scans on long series.  The
# diagonal match scan takes a sixteenth as many cells at once, since a cell
# and its share of the runs' temporaries take about 10 bytes.
BLOCK_ELEMENTS = 1 << 20

# Guard of the equality-class engine (module docstring): epsilon * sd must
# stay this far below 1, and the window's integers may spread over at most
# EQUALITY_MAX_SPAN.  The float path then rounds a one-count difference by
# at most about 4 * 2**-53 * span / sd, under 4.7e-10 / sd, which is inside
# the margin of 1e-9 / sd.
EQUALITY_MARGIN = 1.0 - 1e-9
EQUALITY_MAX_SPAN = float(1 << 20)

# Window starts at most this many bins apart share a segment, which
# _diagonal_runs scans once for all its windows: a position between two
# starts costs a row of n + 1 counts, far less than the n - 1 points and the
# loop pass that a split adds.
SEGMENT_GAP = 16

# Windows quantified per pass of measures_for_series: its starts go in
# blocks of at most this many, so one vectorized pass covers the runs that
# many windows share while the temporaries stay small.
BLOCK_WINDOWS = 64


class SeriesTooShortError(ValueError):
    """Series cannot be embedded with the requested (tau, m)."""


@dataclass(frozen=True)
class EmbedParams:
    """Embedding and recurrence parameters for one analysis.

    tau and m follow the usual delay-embedding meaning; epsilon is the
    recurrence threshold in z-normalized units.  theiler is the half-width
    of the diagonal band excluded from diagonal line statistics (the line
    of identity is excluded even when theiler is 0).
    """

    tau: int = 1
    m: int = 2
    epsilon: float = 0.2
    norm: str = "euclidean"
    theiler: int = 1
    l_min: int = 2
    v_min: int = 2

    def __post_init__(self):
        if self.tau < 1 or self.m < 1:
            raise ValueError("tau and m must be positive integers")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        _check_norm(self.norm)
        if self.theiler < 0:
            raise ValueError("theiler must be >= 0")
        if self.l_min < 2 or self.v_min < 2:
            raise ValueError("l_min and v_min must be >= 2")

    def min_series_length(self) -> int:
        return (self.m - 1) * self.tau + 2

    def n_points(self, n_samples: int) -> int:
        return n_samples - (self.m - 1) * self.tau


@dataclass(frozen=True)
class RqaMeasures:
    """The nine per-window recurrence measures, in ``MEASURE_NAMES`` order."""

    rr: float
    det: float
    l_max: float
    l_mean: float
    l_entr: float
    tt: float
    v_entr: float
    t2: float
    w_entr: float


def znormalize(values) -> tuple[np.ndarray, bool]:
    """Shift to zero mean and scale to unit population standard deviation.

    Returns ``(normalized, degenerate)``; a zero-variance input maps to an
    all-zero vector with ``degenerate=True`` instead of faulting, which is
    what quiet OSPF windows need.  The input is pre-centered on its first
    element so that adding an integer constant to an integer-valued series
    leaves the output bit-identical.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("znormalize expects a non-empty 1-D series")
    centered, sd = _centered(x)
    if sd == 0.0:
        return np.zeros_like(x), True
    return centered / sd, False


def _centered(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The centered series and the sd that :func:`znormalize` divides by.

    Works along the last axis, so a (B, w) block gives B rows and B sds; a
    row's reductions are the same contiguous sums as for the row alone, so
    they round the same way.
    """
    y = x - x[..., :1]
    centered = y - y.mean(axis=-1, keepdims=True)
    return centered, np.sqrt((centered * centered).mean(axis=-1))


def embed(values, tau: int, m: int) -> np.ndarray:
    """Time-delay embedding into m-dimensional points.

    Parameters
    ----------
    values : 1-D array
        Scalar series of length ``n_s``.
    tau : int
        Delay in samples.
    m : int
        Embedding dimension.

    Returns
    -------
    ndarray of shape ``(n_s - (m - 1) * tau, m)`` where row ``i`` is
    ``(x[i], x[i + tau], ..., x[i + (m - 1) * tau])``.

    Raises
    ------
    SeriesTooShortError
        If fewer than two embedded points would remain.
    """
    x = np.asarray(values, dtype=float)
    if tau < 1 or m < 1:
        raise ValueError("tau and m must be positive integers")
    n = x.size - (m - 1) * tau
    if n < 2:
        need = (m - 1) * tau + 2
        raise SeriesTooShortError(
            f"series of length {x.size} too short for tau={tau}, m={m}; "
            f"need at least {need} samples"
        )
    return np.stack([x[k * tau : k * tau + n] for k in range(m)], axis=1)


# --- pairwise distances ----------------------------------------------------
#
# Coordinate k of delay vector i is x[i + k*tau], so the coordinate-k
# differences of all pairs form one shifted sub-block of the scalar
# difference block x[:, None] - x[None, :].  That block is computed and
# squared (or made absolute) once, and its shifted sub-blocks are folded in
# coordinate order; a dimension-(m+1) scan continues from dimension m by
# folding one more sub-block.  A general trajectory is the same with one
# scalar block per coordinate.
#
# Blocks are kept flat.  In a row-major block of width w, the sub-block
# shifted by s rows and s columns starts s*(w + 1) elements later, so each
# fold is one contiguous 1-D operation; a strided 2-D view would cost one
# numpy loop call per row, more than the arithmetic on 200-point windows.
# The flat rows run past the last valid column into the next row; those
# padding cells hold finite values that every consumer drops.


def _pairwise_folds(sources, counts, norm):
    """Yield ``(start, k, acc, c)`` for each row block and dimension k.

    ``sources`` lists ``(x, shifts)`` in coordinate order: coordinate
    ``k`` of point ``i`` is ``x[i + shift_k]`` (the first shift must be 0).
    A delay embedding is the single entry ``(z, (0, tau, 2*tau, ...))``; a
    general trajectory has one entry ``(column, (0,))`` per coordinate.
    ``counts[k - 1]`` is the number of points of dimension k and must not
    increase with k.  ``acc`` is a view with a row per point ``start, ...``
    of the block whose first ``c = counts[k - 1]`` columns hold the fold of
    the first k coordinate terms (squared or absolute differences) against
    every point; its remaining columns hold finite values to be ignored.
    It is overwritten by later yields.
    """
    term, fold = _TERM[norm], _FOLD[norm]
    shifts = [s for _, sh in sources for s in sh]
    width = max(s + c for s, c in zip(shifts, counts))
    step = min(max(1, BLOCK_ELEMENTS // width), counts[0])
    # Two work slots, for a scalar block and the running fold, from one
    # allocation per call.  Allocated apart, glibc's malloc returned the
    # freed ~640 KB of a 200-bin window to the system and faulted it back
    # in for the next window of the float path.
    slot_size = (step + max(shifts)) * width
    slots = np.empty(2 * slot_size).reshape(2, slot_size)
    for start in range(0, counts[0], step):
        rows = [min(start + step, c) - start for c in counts]
        k = 0
        flat, held = None, 1  # the running fold and the slot it is in
        for x, sh in sources:
            live = [(s, c, r) for s, c, r in zip(sh, counts[k:], rows[k:]) if r > 0]
            if not live:
                break
            span = max(s + r for s, _, r in live)
            slot = 1 - held
            terms = slots[slot, : span * width]
            np.subtract.outer(x[start : start + span], x[:width], out=terms.reshape(span, width))
            term(terms, out=terms)
            for s, c, r in live:
                k += 1
                length = (r - 1) * width + c
                offset = s * (width + 1)
                if flat is None:
                    flat, held = terms, slot
                elif flat is terms:
                    # Later sub-blocks of this block may still be read.
                    flat, held = slots[1 - slot], 1 - slot
                    fold(terms[:length], terms[offset : offset + length], out=flat[:length])
                    flat[length : r * width] = 0.0  # keep the padding finite
                else:
                    fold(flat[:length], terms[offset : offset + length], out=flat[:length])
                yield start, k, flat[: r * width].reshape(r, width), c


def _squared_bound(epsilon: float) -> float:
    """Largest double ``b`` with ``sqrt(b) <= epsilon``.

    sqrt is correctly rounded and therefore non-decreasing, so
    ``sqrt(s) <= epsilon`` holds exactly when ``s <= b``: the inclusive
    euclidean test needs no square roots.
    """
    b = epsilon * epsilon
    while b > 0 and math.sqrt(b) > epsilon:
        b = math.nextafter(b, 0.0)
    while math.isfinite(b) and math.sqrt(math.nextafter(b, math.inf)) <= epsilon:
        b = math.nextafter(b, math.inf)
    return b


def _recurrence(sources, n: int, epsilon: float, norm: str) -> np.ndarray:
    m = sum(len(shifts) for _, shifts in sources)
    bound = _squared_bound(epsilon) if norm == "euclidean" else epsilon
    rm = np.empty((n, n), dtype=bool)
    for start, k, acc, _ in _pairwise_folds(sources, [n] * m, norm):
        if k == m:
            # Compare whole contiguous rows, then drop the padding columns.
            rm[start : start + acc.shape[0]] = (acc <= bound)[:, :n]
    return rm


def _points(traj) -> np.ndarray:
    pts = np.asarray(traj, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[0] < 2:
        raise ValueError("need at least 2 trajectory points")
    return pts


def _check_norm(norm: str) -> None:
    if norm not in _TERM:
        raise ValueError(f"unknown norm {norm!r}; use 'euclidean' or 'maximum'")


def recurrence_matrix(traj: np.ndarray, epsilon: float, norm: str = "euclidean") -> np.ndarray:
    """Boolean recurrence matrix of an embedded trajectory.

    ``R[i, j] = 1`` iff the distance between points i and j is at most
    epsilon (boundary inclusive, i.e. the Heaviside step maps 0 to 1).
    The result is symmetric with an all-ones main diagonal.
    """
    pts = _points(traj)
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    _check_norm(norm)
    return _recurrence([(col, (0,)) for col in pts.T], pts.shape[0], epsilon, norm)


def phase_space_diameter(traj: np.ndarray, norm: str = "euclidean") -> float:
    """Maximum pairwise distance of the trajectory, computed in row blocks."""
    pts = _points(traj)
    _check_norm(norm)
    n, m = pts.shape
    best = 0.0
    for _, k, acc, c in _pairwise_folds([(col, (0,)) for col in pts.T], [n] * m, norm):
        if k == m:
            best = max(best, float(acc[:, :c].max()))
    # sqrt is non-decreasing, so the root of the largest sum of squares is
    # the largest distance.
    return math.sqrt(best) if norm == "euclidean" else best


# --- line statistics -------------------------------------------------------
#
# Lines are read from one bool stream per family that starts with False and
# holds a False after every diagonal or column, so no run crosses from one
# line into the next: the runs are the spans between successive changes of
# the stream.  Diagonal k of an (n, n) matrix laid out in rows of width 2n
# is column k of the same buffer laid out in rows of width 2n + 1 (the flat
# trick of the distance kernels); the extra columns are the False padding.


def _run_bounds(stream: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Starts and ends of the runs of True in a bool vector framed by False."""
    edges = np.flatnonzero(stream[1:] != stream[:-1]) + 1
    return edges[0::2], edges[1::2]


def _line_histograms(rm: np.ndarray, theiler: int) -> np.ndarray:
    """Diagonal, vertical and interior white-vertical length histograms of rm.

    A (3, n + 1) stack of ``np.bincount`` arrays, in that family order:
    entry ``[f, l]`` counts the lines of family f and length l.
    """
    n = rm.shape[0]
    w = max(theiler, 1)
    rows = max(n - w, 0)
    # Diagonals k >= w of rm, then of rm.T (the diagonals -k of rm), one per
    # row of the stream; row k - w holds rm[i, i + k] and then False.
    diags = np.zeros(1 + 2 * rows * n, dtype=bool)
    buf = np.zeros(n * (2 * n + 1), dtype=bool)
    for half, mat in enumerate((rm, rm.T)):
        buf[: 2 * n * n].reshape(n, 2 * n)[:, :n] = mat
        out = diags[1 + half * rows * n : 1 + (half + 1) * rows * n].reshape(rows, n)
        out[...] = buf.reshape(n, 2 * n + 1)[:, w:n].T
    starts, ends = _run_bounds(diags)
    dh = np.bincount(ends - starts, minlength=n + 1)

    # Column j of rm is row j of the stream, followed by a False.
    cols = np.zeros(1 + n * (n + 1), dtype=bool)
    cols[1:].reshape(n, n + 1)[:, :n] = rm.T
    starts, ends = _run_bounds(cols)
    vh = np.bincount(ends - starts, minlength=n + 1)
    # White runs must be flanked by recurrence points on both sides: they
    # are the gaps between successive runs of one column.  A gap before the
    # first or after the last run touches the border and is censored.
    same = (ends[:-1] - 2) // (n + 1) == (starts[1:] - 1) // (n + 1)
    wh = np.bincount(starts[1:][same] - ends[:-1][same], minlength=n + 1)
    return np.stack([dh, vh, wh])


def _lines(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Line counts, point counts and entropies of each row of histograms h."""
    lines = h.sum(axis=1)
    points = h @ np.arange(h.shape[1])
    # numpy sums a row of k terms in a fixed pairwise order, which padding
    # to a common width would change.  Rows are therefore sorted by their
    # number k of nonzero lengths, and each group is summed as one (rows, k)
    # block: every row is then the same contiguous length-k sum, of the
    # nonzero counts in ascending length order, as a histogram alone gets.
    nonzero = h != 0
    k = nonzero.sum(axis=1)
    order = np.argsort(k, kind="stable")
    k_sorted = k[order]
    counts = h[order][nonzero[order]]
    p = counts / np.repeat(lines[order], k_sorted)
    terms = p * np.log(p)
    entropy = np.zeros(h.shape[0])
    ks = k_sorted.tolist()
    first = offset = 0
    while first < len(ks):
        group = ks[first]
        last = bisect.bisect_right(ks, group)
        if group:
            block = terms[offset : offset + (last - first) * group].reshape(-1, group)
            entropy[order[first:last]] = -block.sum(axis=1)
        offset += (last - first) * group
        first = last
    return lines, points, entropy


def _measures_from_histograms(n: int, h: np.ndarray, l_min: int, v_min: int) -> np.ndarray:
    """The nine measures of B windows from their line-length histograms, as (B, 9).

    ``h`` is (3, B, width): the diagonal, vertical and white-vertical
    ``np.bincount``-style histograms of each window (entry l counts the
    lines of length l; trailing zeros are free).  Every recurrence point
    lies on exactly one vertical line, so RR is read from the vertical
    histogram.  Every ratio is of two exact integer sums, divided once,
    and each entropy sees the nonzero counts in ascending length order
    (see :func:`_lines`), so any two ways of building the same histograms
    give the same bits.
    """
    b, width = h.shape[1:]
    lengths = np.arange(width)
    diag_points = h[0] @ lengths
    l_max = ((h[0] != 0) * lengths).max(axis=1, initial=0)
    # Only lines of at least l_min, v_min and 1 enter the measures below.
    counted = h * (lengths >= np.array([[l_min], [v_min], [1]]))[:, None, :]
    lines, points, entropy = (a.reshape(3, b) for a in _lines(counted.reshape(3 * b, width)))
    # DET, L-MEAN, TT and T2; an empty denominator gives 0.
    num = points[[0, 0, 1, 2]]
    den = np.stack([diag_points, lines[0], lines[1], lines[2]])
    ratios = np.divide(num, den, out=np.zeros(num.shape), where=den != 0)

    out = np.empty((b, len(MEASURE_NAMES)))
    out[:, 0] = (h[1] @ lengths) / float(n * n)
    out[:, 2] = l_max
    out[:, [1, 3, 5, 7]] = ratios.T
    out[:, [4, 6, 8]] = entropy.T
    return out


def rqa_measures(rm: np.ndarray, l_min: int = 2, v_min: int = 2, theiler: int = 1) -> RqaMeasures:
    """Compute the nine recurrence measures of a boolean matrix.

    Parameters
    ----------
    rm : (n, n) boolean array
        Recurrence matrix.
    l_min, v_min : int
        Minimum diagonal / vertical line lengths entering DET, L-MEAN,
        L-ENTR, TT and V-ENTR.  Both must be >= 2.
    theiler : int
        Diagonal exclusion half-width (the LOI is always excluded).

    Notes
    -----
    ``det`` is the fraction of counted diagonal-line points lying on lines
    of length >= l_min; ``t2`` and ``w_entr`` use every interior white run
    with no minimum length.  Empty denominators yield 0.
    """
    rm = np.asarray(rm, dtype=bool)
    if rm.ndim != 2 or rm.shape[0] != rm.shape[1]:
        raise ValueError("recurrence matrix must be square")
    if l_min < 2 or v_min < 2:
        raise ValueError("l_min and v_min must be >= 2")
    row = _measures_from_histograms(rm.shape[0], _line_histograms(rm, theiler)[:, None],
                                    l_min, v_min)[0]
    return RqaMeasures(*row.tolist())


def constant_window_measures(n_points: int) -> RqaMeasures:
    """Measure vector for a zero-variance window.

    A constant window produces the all-ones recurrence matrix, whose
    statistics have closed forms: every column is one vertical run of
    length n, there are no white runs, and the off-LOI diagonals have
    lengths 1..n-1 twice each.  ``det`` is reported as exactly 1 (the
    signal is perfectly deterministic); the raw all-ones matrix would give
    1 - 2/(n(n-1)), a finite-size artifact of the two corner diagonals.
    """
    n = n_points
    l_max, l_mean, l_entr = float(max(n - 1, 0)), 0.0, 0.0
    if n >= 3:
        l_mean, l_entr = (n * (n - 1) / 2.0 - 1.0) / (n - 2), math.log(n - 2)
    return RqaMeasures(
        rr=1.0, det=1.0, l_max=l_max, l_mean=l_mean, l_entr=l_entr,
        tt=float(n), v_entr=0.0, t2=0.0, w_entr=0.0,
    )


def measures_for_series(counts, starts, window_bins: int,
                        params: EmbedParams) -> tuple[np.ndarray, np.ndarray]:
    """Z-normalize, embed, threshold and quantify windows of one count series.

    Window r is ``counts[starts[r] : starts[r] + window_bins]``, and
    ``starts`` must not decrease.  Returns a ``(B, 9)`` array of measures in
    ``MEASURE_NAMES`` order and a ``(B,)`` bool array of degenerate flags.
    Each window gets the bits it gets alone (``counts=window, starts=[0]``);
    a (B, w) block of unrelated windows is ``block.ravel()`` with starts
    ``np.arange(B) * w``.  Degenerate (zero-variance) windows short-circuit
    to :func:`constant_window_measures` so quiet OSPF stretches never fault;
    the others go ``BLOCK_WINDOWS`` at a time through one histogram stack
    and reducer, in memory that does not grow with B (module docstring).
    """
    x = np.asarray(counts, dtype=float)
    starts = np.asarray(starts)
    w = window_bins
    if x.ndim != 1 or starts.ndim != 1 or starts.size and starts.dtype.kind not in "iu":
        raise ValueError("measures_for_series expects a 1-D series of counts and 1-D "
                         "integer starts")
    starts = starts.astype(np.int64)
    if w < params.min_series_length():
        raise SeriesTooShortError(
            f"window of {w} bins cannot be embedded with tau={params.tau}, "
            f"m={params.m}; need at least {params.min_series_length()}"
        )
    if starts.size and not (0 <= starts[0] and starts[-1] <= x.size - w
                            and (np.diff(starts) >= 0).all()):
        raise ValueError(f"window starts must be non-decreasing and within "
                         f"0..{x.size - w} for {x.size} counts and {w}-bin windows")
    n = params.n_points(w)
    out = np.empty((starts.size, len(MEASURE_NAMES)))
    degenerate = np.empty(starts.size, dtype=bool)
    ids = None  # the delay-vector ids of the series, once a block needs them
    # The recurrence matrix of embed(z, tau, m), built from z directly.
    shifts = range(0, params.m * params.tau, params.tau)
    for rows, centered, sd, equality in _guarded_blocks(x, starts, w, params):
        block = starts[rows]
        h = np.zeros((3, block.size, n + 1), dtype=np.int64)
        if equality.any():
            ids = _tuple_ids(x, params.m, params.tau) if ids is None else ids
            h[:, equality] = _equality_histograms(ids, block[equality], n, params.theiler)
        for r in np.flatnonzero((sd != 0.0) & ~equality):
            rm = _recurrence([(centered[r] / sd[r], shifts)], n, params.epsilon, params.norm)
            h[:, r] = _line_histograms(rm, params.theiler)
        out[rows] = _measures_from_histograms(n, h, params.l_min, params.v_min)
        degenerate[rows] = sd == 0.0
    out[degenerate] = astuple(constant_window_measures(n))
    return out, degenerate


# --- equality-class engine -------------------------------------------------
#
# In the equality regime R[i, j] = [s_i == s_j] for the symbols s of the
# delay vectors, so every column of one symbol is the same column and the
# diagonals are the matches of the symbol sequence with its own shifts.
# For the vertical and white runs each window gets its own symbols, so a run
# never crosses from one window into the next and the runs of all windows
# are read at once; the diagonals are read from the series (_diagonal_runs).


def _dense_rank(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense ranks of the values of a numeric array, in value order, and their counts.

    Integers in 0..a.size are counted in a table no larger than ``a``; any
    other values are sorted by ``np.unique``.
    """
    if a.dtype.kind == "f" or a.max(initial=-1) > a.size or a.min(initial=0) < 0:
        _, ranks, counts = np.unique(a, return_inverse=True, return_counts=True)
        return ranks.reshape(a.shape), counts
    counts = np.bincount(a.ravel())
    present = counts != 0
    return (np.cumsum(present) - 1)[a], counts[present]


def _tuple_ids(c: np.ndarray, length: int, stride: int = 1) -> np.ndarray:
    """Dense ids of the tuples ``(c[i], c[i + stride], ..., c[i + (length - 1) * stride])``.

    Along the last axis of the numeric array ``c``: id ``[..., i]`` is that of
    the tuple starting at ``c[..., i]``, and two ids are equal exactly when
    their tuples are, wherever they start.  A window of w counts is
    ``length = w, stride = 1``, a delay vector ``length = m, stride = tau``.
    Prefix doubling (Manber & Myers 1993): a tuple of ``span + step``
    coordinates is the pair of its first ``span`` coordinates and its
    ``span`` coordinates from ``step`` on, so re-ranking pairs of ranks
    extends the ids exactly.  With K ranks a pair code is below K**2, and K
    is at most the element count, so no code overflows int64.
    """
    rank, counts = _dense_rank(c)
    span = 1
    while span < length:
        step = min(span, length - span)
        rank, counts = _dense_rank(rank[..., : -step * stride] * counts.size
                                   + rank[..., step * stride :])
        span += step
    return rank


def _equality_rows(windows: np.ndarray, sd: np.ndarray, params: EmbedParams) -> np.ndarray:
    """Which rows of a (B, w) block of windows, with sds ``sd``, take the
    equality engine: those that hold integers, are not constant and pass the
    guard of the module docstring.  A (B,) bool mask."""
    span = windows.max(axis=1) - windows.min(axis=1)
    return ((sd > 0.0) & (params.epsilon * sd <= EQUALITY_MARGIN)
            & (span <= EQUALITY_MAX_SPAN) & (windows == np.floor(windows)).all(axis=1))


def _guarded_blocks(x: np.ndarray, starts: np.ndarray, w: int, params: EmbedParams):
    """Each block of ``BLOCK_WINDOWS`` windows at ``starts``: its slice of the starts,
    the centered windows, their sds and which take the equality engine."""
    for lo in range(0, starts.size, BLOCK_WINDOWS):
        rows = slice(lo, lo + BLOCK_WINDOWS)
        windows = x[starts[rows, None] + np.arange(w)]
        centered, sd = _centered(windows)
        yield rows, centered, sd, _equality_rows(windows, sd, params)


def _row_histograms(row: np.ndarray, length: np.ndarray, weight: np.ndarray,
                    rows: int, width: int) -> np.ndarray:
    """Weighted length histograms, one per row, as a (rows, width) int array."""
    h = np.bincount(row * width + length, weights=weight, minlength=rows * width)
    return h.astype(np.int64).reshape(rows, width)


def _diagonal_runs(ids: np.ndarray, starts: np.ndarray, n: int, theiler: int) -> np.ndarray:
    """Diagonal length histograms of the equality matrices of windows of a series.

    Window r holds the delay vectors ``ids[starts[r] : starts[r] + n]``, and
    ``starts`` is not empty and does not decrease.  R is symmetric, so the
    diagonals k >= max(theiler, 1) are counted twice.  Diagonal k of the
    window at s is ``match_k[s : s + c]``, with c = n - k and ``match_k[i] =
    [ids[i] == ids[i + k]]``.  The starts are taken a segment at a time (a
    run of starts at most SEGMENT_GAP apart), in a table with a row of n + 1
    counts per position s of the segment.  Each maximal run [a, b) of a
    match_k is found once and gives the window at s a line of length
    ``min(b, s + c) - max(a, s)``: rising by 1 with s from a - c + 1 to
    min(a, b - c), flat to max(a, b - c) and falling to b - 1.  Each range,
    clipped to the segment's positions, is one +1/-1 pair along stride
    n + 2, n + 1 or n of the table, which a cumsum along that stride fills.
    """
    out = np.zeros((starts.size, n + 1), dtype=np.int64)
    cut = np.flatnonzero(starts[1:] - starts[:-1] > SEGMENT_GAP) + 1
    heads, ends = np.r_[0, cut], np.r_[cut, starts.size]
    positions = starts[ends - 1] - starts[heads] + 1
    # One table per call, cleared for each segment: fewer fresh pages.
    whole = np.empty((3, (int(positions.max()) + 2) * (n + 2)), dtype=np.int64)
    strides = (n + 2, n + 1, n)
    for first, last, rows in zip(heads.tolist(), ends.tolist(), positions.tolist()):
        u = int(starts[first])
        p = rows + n  # a sentinel and the segment's points
        # g: the sentinel, the points' ids, then distinct negatives, so each
        # row of the match table opens with False and no run passes the end.
        g = -1 - np.arange(p + n)
        g[1:p] = ids[u : u + p - 1]
        z = (rows + 2) * (n + 2)
        table = whole[:, :z]
        table[...] = 0
        step = max(1, BLOCK_ELEMENTS // 16 // p)
        for k in range(max(theiler, 1), n, step):
            count = min(step, n - k)  # rows of m: match_k .. match_{k + count - 1}
            m = np.equal(np.ndarray((count, p), g.dtype, g, k * g.itemsize, (g.itemsize,) * 2),
                         g[:p])
            run_start, run_end = _run_bounds(m.ravel())
            j, a = np.divmod(run_start - 1, p)  # no run starts at the sentinel
            b, c = a + (run_end - run_start), n - k - j
            lo, hi = np.minimum(a, b - c), np.maximum(a, b - c)
            edges = np.clip(np.stack([a - c + 1, lo + 1, hi + 1, b]), 0, rows)
            # The length each range would give the window at s = 0.
            for i, length in enumerate((c - a, np.minimum(b - a, c), b)):
                # One count array alive at a time: two made glibc map fresh pages.
                table[i] += np.bincount(edges[i] * strides[i] + length, minlength=z)
                table[i] -= np.bincount(edges[i + 1] * strides[i] + length, minlength=z)
        size = rows * (n + 1)
        total = sum(t[: z // s * s].reshape(-1, s).cumsum(axis=0).ravel()[:size]
                    for t, s in zip(table, strides))
        out[first:last] = total.reshape(rows, n + 1)[starts[first:last] - u]
    return 2 * out


def _equality_histograms(ids: np.ndarray, starts: np.ndarray, n: int, theiler: int) -> np.ndarray:
    """Line-length histograms of the equality matrices of windows of a series.

    Window r holds the delay vectors ``ids[starts[r] : starts[r] + n]``.  A
    (3, E, n + 1) stack, in the family order of :func:`_line_histograms`.
    """
    e = starts.size
    dh = _diagonal_runs(ids, starts, n, theiler)  # first, while few temporaries are alive
    codes, counts = _dense_rank(ids[starts[:, None] + np.arange(n)]
                                + np.arange(e)[:, None] * (int(ids.max()) + 1))
    flat = codes.ravel()
    # Vertical: each run of symbol s in a row is one vertical line in each
    # of the counts[s] columns of s.
    change = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    run_start = np.concatenate(([0], change))
    run_end = np.concatenate((change, [flat.size]))
    symbol = flat[run_start]
    weight = counts[symbol]
    row = run_start // n
    vh = _row_histograms(row, run_end - run_start, weight, e, n + 1)
    # White vertical: the gaps between successive runs of one symbol, again
    # once per column of that symbol; gaps at the borders are censored.
    order = np.argsort(symbol, kind="stable")
    after, before = order[1:], order[:-1]
    same = symbol[after] == symbol[before]
    after, before = after[same], before[same]
    wh = _row_histograms(row[after], run_start[after] - run_end[before], weight[after], e, n + 1)
    return np.stack([dh, vh, wh])


# --- embedding-parameter estimation ---------------------------------------


def mutual_information(values, tau_max: int, bins: int = 16) -> tuple[np.ndarray, bool]:
    """Binned mutual information of (x_t, x_{t+tau}) for tau = 1..tau_max.

    The joint histogram uses ``bins`` equal-width cells per axis spanning
    the [min, max] of the full series, and MI is in nats.  Returns
    ``(mi, degenerate)``; an all-equal series yields a zero vector with
    the degenerate flag set instead of an error.
    """
    x = np.asarray(values, dtype=float)
    if bins < 2:
        raise ValueError("bins must be >= 2")
    if x.size <= tau_max + 1:
        raise SeriesTooShortError(
            f"series of length {x.size} too short for tau_max={tau_max}; "
            f"need more than {tau_max + 1} samples"
        )
    lo, hi = float(x.min()), float(x.max())
    if hi == lo:
        return np.zeros(tau_max), True
    edges = np.linspace(lo, hi, bins + 1)
    mi = np.empty(tau_max)
    for tau in range(1, tau_max + 1):
        joint, _, _ = np.histogram2d(x[:-tau], x[tau:], bins=(edges, edges))
        pab = joint / joint.sum()
        pa = pab.sum(axis=1)
        pb = pab.sum(axis=0)
        nz = pab > 0
        ratio = pab[nz] / np.outer(pa, pb)[nz]
        mi[tau - 1] = max(float((pab[nz] * np.log(ratio)).sum()), 0.0)
    return mi, False


def estimate_delay(mi_curve) -> tuple[int, bool]:
    """First local minimum of an MI curve indexed tau = 1..len.

    MI(0) is treated as +inf and the final point is a boundary (it cannot
    be a minimum).  Returns ``(tau, fallback)`` where fallback means no
    interior minimum existed and tau = 1 was returned by convention.
    """
    mi = np.asarray(mi_curve, dtype=float)
    if mi.size == 0:
        raise ValueError("mi_curve must be non-empty")
    for t in range(1, mi.size):
        left = mi[t - 2] if t >= 2 else math.inf
        if mi[t - 1] < left and mi[t - 1] <= mi[t]:
            return t, False
    return 1, True


def false_nearest_neighbors(
    values, tau: int, m_max: int = 10, r_tol: float = 15.0, a_tol: float = 2.0
) -> np.ndarray:
    """Kennel-style false-nearest-neighbor fractions for m = 1..m_max.

    For each candidate dimension the nearest neighbor of every point
    (excluding itself) is found in the m-dimensional embedding; a pair is
    false when the extension coordinate grows the distance by more than
    ``r_tol`` times the m-dimensional distance, or the (m+1)-dimensional
    distance exceeds ``a_tol`` standard deviations of the series.  Pairs
    at zero m-dimensional distance are judged by the second criterion
    only; "zero" includes numerically-zero distances (below 1e-9 sigma),
    where the growth ratio would measure nothing but rounding noise.
    """
    x = np.asarray(values, dtype=float)
    if r_tol <= 0 or a_tol <= 0:
        raise ValueError("r_tol and a_tol must be > 0")
    if x.size - m_max * tau < 2:
        raise SeriesTooShortError(
            f"series of length {x.size} too short for FNN with tau={tau}, "
            f"m_max={m_max}; need at least {m_max * tau + 2} samples"
        )
    sd = float(x.std())
    fractions = np.empty(m_max)
    for m, nn in enumerate(_nearest_neighbors(x, tau, m_max), start=1):
        full = embed(x, tau, m + 1)
        base = full[:, :m]
        ext = full[:, m]
        d_m = np.linalg.norm(base - base[nn], axis=1)
        extra = np.abs(ext - ext[nn])
        d_m1 = np.hypot(d_m, extra)
        crit1 = np.zeros(base.shape[0], dtype=bool)
        pos = d_m > 1e-9 * sd
        crit1[pos] = extra[pos] / d_m[pos] > r_tol
        crit2 = d_m1 > a_tol * sd
        fractions[m - 1] = float(np.mean(crit1 | crit2))
    return fractions


def _nearest_neighbors(x: np.ndarray, tau: int, m_max: int) -> list[np.ndarray]:
    """Euclidean nearest neighbors in the delay embeddings m = 1..m_max.

    Entry ``m - 1`` holds, for each of the first ``x.size - m * tau``
    delay vectors of dimension m, the index of its nearest neighbor among
    them, self excluded.  Ties resolve to the lowest index, so results do
    not depend on any spatial-index implementation; count data is full of
    exact duplicates.
    """
    counts = [x.size - m * tau for m in range(1, m_max + 1)]
    nn = [np.empty(c, dtype=np.int64) for c in counts]
    for start, m, acc, c in _pairwise_folds([(x, range(0, m_max * tau, tau))], counts, "euclidean"):
        # Roots first: distinct sums of squares can share a root, and the
        # lowest-index tie rule is defined on distances.
        dist = np.sqrt(acc[:, :c])
        rows = np.arange(dist.shape[0])
        dist[rows, rows + start] = np.inf
        nn[m - 1][start : start + dist.shape[0]] = dist.argmin(axis=1)
    return nn


def estimate_dimension(fnn, drop_threshold: float = 0.01) -> tuple[int, bool]:
    """Smallest m whose FNN fraction is a local minimum or under threshold.

    Returns ``(m, saturated)``; when neither condition occurs the last
    tested dimension is returned with the saturation flag set.
    """
    f = np.asarray(fnn, dtype=float)
    if f.size == 0:
        raise ValueError("fnn must be non-empty")
    if not 0.0 < drop_threshold < 1.0:
        raise ValueError("drop_threshold must be in (0, 1)")
    for m in range(1, f.size + 1):
        if f[m - 1] < drop_threshold:
            return m, False
        if 2 <= m <= f.size - 1 and f[m - 1] < f[m - 2] and f[m - 1] <= f[m]:
            return m, False
    return f.size, True
