"""Sliding-window recurrence analysis and baseline-deviation alerting.

Each window of the binned count series is z-normalized, embedded and
quantified on its own.  Quiet OSPF traffic is sparse and periodic, so the
same window contents, and their reversals, recur many times along a
series; ``sliding_rqa`` labels every window and its reversal with exact ids
of their counts, computed at once by prefix doubling (``rqa._tuple_ids``),
and quantifies each window only once up to reversal, in position order and
in blocks (see :mod:`ospfrqa.rqa`).  A repeated window takes the results of
its first occurrence, which depend on nothing else.  A reversed window
takes them only where the integer shortcut gave them: reversing the counts
reverses each delay vector and their order, which turns the equality
matrix by 180 degrees and keeps its line-length histograms, so every
measure bit.  The float path centers on the first count and sums
coordinates in order, so its bits can change under reversal: a reversed
float-path window is quantified itself.  The results equal the windows
quantified one at a time, bit for bit.
The change detector then scans each measure against a
rolling baseline of strictly prior windows: the deviation score is the
distance from the baseline median in units of the baseline MAD, and a
window alerts when any enabled measure's score reaches ``k_mad``.
Contiguous deviant windows collapse into a single alert stamped at the
run's first window.  Medians and MADs are exact, from sorted baselines, and
recomputed only where a baseline's multiset changes; ``write_measures_csv``
formats each distinct row of measures once per series.

Quiet OSPF traffic makes the raw MAD useless as a scale: the measure
series of a refresh-only count series is piecewise constant, so the MAD
of a baseline is very often exactly zero.  Each measure therefore has an
absolute score floor sized to its natural range (see
``DEFAULT_FLOORS``); a tiny epsilon floor instead of these would turn
every benign refresh-alignment step into an alert.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .ingest import CSV_CHUNK_ROWS, CountSeries, EventColumns, EventFilter, bin_series
from .ingest import _ascii_rows, _exact_seconds
from .rqa import (
    MEASURE_NAMES,
    EmbedParams,
    SeriesTooShortError,
    _guarded_blocks,
    _tuple_ids,
    embed,
    measures_for_series,
    phase_space_diameter,
    znormalize,
)

# Changed baselines sorted per numpy call: bounds the (rows x
# baseline_bins) copy that they are gathered and sorted in.
SCORE_CHUNK_ROWS = 2048

# Per-measure deviation-score floors, calibrated on quiet per-originator
# paper16 series (the paper's monitoring mode) so that refresh-alignment
# steps score under ~4.5 while interface flaps and attack injections score
# past k_mad = 6.  With these defaults hardware failures fire through rr
# and the falsification attacks through rr/det/w_entr.  Unfiltered
# all-origin series swing harder in quiet operation; scale the floors up
# (``floor_scale``) when analyzing those.
DEFAULT_FLOORS = {
    "rr": 0.0045,
    "det": 0.0023,
    "l_max": 7.0,
    "l_mean": 12.0,
    "l_entr": 0.45,
    "tt": 24.0,
    "v_entr": 0.16,
    "t2": 0.85,
    "w_entr": 0.023,
}


@dataclass(frozen=True)
class DetectorConfig:
    window_bins: int = 200
    step_bins: int = 1
    embed: EmbedParams = field(default_factory=EmbedParams)
    baseline_bins: int = 60
    k_mad: float = 6.0
    measures_enabled: tuple[str, ...] = MEASURE_NAMES
    floors: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_FLOORS))
    floor_scale: float = 1.0

    def __post_init__(self):
        if self.window_bins < 10:
            raise ValueError("window_bins must be >= 10")
        if self.baseline_bins < 10:
            raise ValueError("baseline_bins must be >= 10")
        if self.k_mad <= 0:
            raise ValueError("k_mad must be > 0")
        if self.step_bins < 1:
            raise ValueError("step_bins must be >= 1")
        if self.floor_scale <= 0:
            raise ValueError("floor_scale must be > 0")
        unknown = set(self.measures_enabled) - set(MEASURE_NAMES)
        if unknown:
            raise ValueError(f"unknown measures: {sorted(unknown)}")
        repeated = {m for m in self.measures_enabled if self.measures_enabled.count(m) > 1}
        if repeated:
            raise ValueError(f"measures listed more than once: {sorted(repeated)}")


@dataclass
class MeasureSeries:
    """Per-measure vectors indexed by window end bin."""

    window_end_bins: np.ndarray
    values: dict[str, np.ndarray]
    bin_size_s: int
    start_us: int
    degenerate_windows: int = 0
    epsilon_warnings: int = 0

    def __len__(self) -> int:
        return int(self.window_end_bins.size)

    def time_s(self, idx: int) -> float:
        return self.start_us / 1e6 + (int(self.window_end_bins[idx]) + 1) * self.bin_size_s


@dataclass(frozen=True)
class TriggeredMeasure:
    name: str
    value: float
    baseline_median: float
    deviation_score: float


@dataclass(frozen=True)
class Alert:
    bin_index: int
    time_s: float
    triggered: tuple[TriggeredMeasure, ...]
    severity: float


def sliding_rqa(series: CountSeries, config: DetectorConfig) -> MeasureSeries:
    """Recurrence measures for every window position of the count series.

    Window w covers bins [w - window_bins + 1, w]; the first index is
    window_bins - 1.  Degenerate windows use the constant-window
    conventions and are tallied, as are windows whose threshold exceeds
    10% of the phase-space diameter guidance.

    ``rqa._tuple_ids`` labels each window and its reversal by their exact
    counts.  The first window of each class equal up to reversal is
    quantified, in position order, by one ``measures_for_series`` call, and
    every window takes its class's row, except a reversal of a float-path
    window, which a second call quantifies.  All equal a recompute bit for bit.
    """
    counts = np.asarray(series.counts, dtype=float)
    w, step, params = config.window_bins, config.step_bins, config.embed
    if counts.size < w:
        raise SeriesTooShortError(
            f"series has {counts.size} bins; need at least window_bins={w}"
        )
    # The reversal of window s is window N - s - w of the reversed counts.
    ids = _tuple_ids(np.stack([series.counts, series.counts[::-1]]), w)
    fwd, rev = ids[0, ::step], ids[1, ::-1][::step]
    reps, row = _first_rows(np.minimum(fwd, rev))  # each window's class row
    starts = reps * step
    values, degenerate = measures_for_series(counts, starts, w, params)
    mirror = fwd != fwd[reps[row]]  # reversals of their class's first window
    classes = np.unique(row[mirror])
    exact = np.zeros(reps.size, dtype=bool)  # classes that took the equality engine
    for rows, _, _, equality in _guarded_blocks(counts, starts[classes], w, params):
        exact[classes[rows]] = equality
    redo = np.flatnonzero(mirror & ~exact[row])
    if redo.size:
        again, back = _first_rows(fwd[redo])
        more, more_degenerate = measures_for_series(counts, redo[again] * step, w, params)
        row[redo] = reps.size + back
        values, degenerate = np.r_[values, more], np.r_[degenerate, more_degenerate]
    warnings = 0
    # Threshold guidance: epsilon should stay within 10% of the phase-space
    # diameter.  The z-scored 1-D range (max-min)/sigma is an exact lower
    # bound on the diameter and is always >= 2 (Popoviciu), so the default
    # epsilon=0.2 can never trip this; larger thresholds get the exact check,
    # for each distinct content, as its rounding may change under reversal.
    eps_limit = params.epsilon * 10.0
    if eps_limit > 2.0:
        seen, content = _first_rows(fwd)
        warned = np.array([not degenerate[row[i]] and _epsilon_warning(
            counts[i * step : i * step + w], params, eps_limit) for i in seen])
        warnings = int(warned[content].sum())
    return MeasureSeries(
        window_end_bins=np.arange(w - 1, counts.size, step),
        values=dict(zip(MEASURE_NAMES, values[row].T)),
        bin_size_s=series.bin_size_s,
        start_us=series.start_us,
        degenerate_windows=int(degenerate[row].sum()),
        epsilon_warnings=warnings,
    )


def _first_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index of each distinct key's first occurrence, ascending, and each
    element's row among them."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[inverse]


def _epsilon_warning(window: np.ndarray, params: EmbedParams, eps_limit: float) -> bool:
    """Whether a non-degenerate window's diameter is under ``eps_limit``."""
    sd = window.std()
    if not (window.max() - window.min()) / sd < eps_limit:
        return False
    z, _ = znormalize(window)
    return phase_space_diameter(embed(z, params.tau, params.m), params.norm) < eps_limit


def detect(measures: MeasureSeries, config: DetectorConfig) -> list[Alert]:
    """Scan a MeasureSeries for significant deviations from rolling baselines.

    For window index i past the warm-up, each enabled measure is scored
    against the strictly prior ``baseline_bins`` values:

        score = |v[i] - median(prior)| / max(MAD(prior), floor)

    A window is deviant when any score reaches ``k_mad``; one alert is
    raised per contiguous deviant run, stamped at the run's first window
    with the measures that fired there.  Scores depend only on prior
    windows, so alerts are causal: truncating the series after a window
    never changes the alerts at or before it.
    """
    scores, medians = deviation_scores(measures, config)
    if not scores:
        return []
    # Warm-up scores are zero and k_mad > 0, so no warm-up window fires.
    fired = np.stack(list(scores.values())) >= config.k_mad
    deviant = fired.any(axis=0)
    alerts: list[Alert] = []
    for i in np.flatnonzero(deviant & ~np.r_[False, deviant[:-1]]):
        triggered = tuple(
            TriggeredMeasure(
                name=name,
                value=float(measures.values[name][i]),
                baseline_median=float(medians[name][i]),
                deviation_score=float(scores[name][i]),
            )
            for name, hit in zip(scores, fired[:, i]) if hit
        )
        alerts.append(Alert(
            bin_index=int(measures.window_end_bins[i]),
            time_s=measures.time_s(i),
            triggered=triggered,
            severity=max(t.deviation_score for t in triggered),
        ))
    return alerts


def deviation_scores(
    measures: MeasureSeries, config: DetectorConfig
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Per-window deviation scores and baseline medians for each measure.

    Both dicts are keyed by the enabled measures in ``MEASURE_NAMES``
    order.  Scores and medians for window indices inside the warm-up are
    zero, so a series of at most ``baseline_bins`` windows scores all zero.
    A zero median is +0.0, as from ``np.median``; baselines are sorted only
    where their multiset changes.
    The deviant set {i : score >= k} can only shrink as k grows; the alert
    count can occasionally rise with k when a long deviant run splits,
    which is why sensitivity comparisons should look at scores, not alert
    counts.
    """
    n = len(measures)
    b = config.baseline_bins
    enabled = [m for m in MEASURE_NAMES if m in config.measures_enabled]
    scores = {name: np.zeros(n) for name in enabled}
    medians = {name: np.zeros(n) for name in enabled}
    if n <= b:
        return scores, medians
    mid = slice((b - 1) // 2, b // 2 + 1)  # the one or two middle columns
    for name in enabled:
        v = measures.values[name]
        floor = max(config.floors.get(name, 1e-6) * config.floor_scale, 1e-6)
        # Row j of the view is the baseline of window b + j; it holds row
        # j - 1's multiset unless the value entering differs from the leaving.
        baselines = sliding_window_view(v, b)[: n - b]
        changed = np.r_[True, v[b : n - 1] != v[: n - b - 1]]
        fill, changed = np.cumsum(changed) - 1, np.flatnonzero(changed)  # fill[j]: j's scored row
        med, scale = np.empty((2, changed.size))
        for lo in range(0, changed.size, SCORE_CHUNK_ROWS):
            rows = slice(lo, lo + SCORE_CHUNK_ROWS)
            base = baselines[changed[rows]]
            base.sort(axis=1)
            # As in np.median: np.mean turns -0.0 to +0.0, and a NaN (sorted last) wins.
            m = np.where(np.isnan(base[:, -1]), np.nan, np.mean(base[:, mid], axis=1))
            np.abs(np.subtract(base, m[:, None], out=base), out=base)
            base.sort(axis=1)
            med[rows], scale[rows] = m, np.maximum(np.mean(base[:, mid], axis=1), floor)
        medians[name][b:] = med[fill]
        scores[name][b:] = np.abs(v[b:] - medians[name][b:]) / scale[fill]
    return scores, medians


def analyze_run(
    events: list[tuple],
    flt: EventFilter,
    config: DetectorConfig,
    t0_us: int,
    t1_us: int,
    bin_size_s: int = 10,
) -> tuple[CountSeries, MeasureSeries, list[Alert]]:
    """Bin, quantify and scan one monitor's events (LsaEvents or rows) end to end."""
    series = bin_series(EventColumns.from_events(events), flt, bin_size_s, t0_us, t1_us)
    measures = sliding_rqa(series, config)
    return series, measures, detect(measures, config)


# --- serialization ----------------------------------------------------------


def write_measures_csv(path, measures: MeasureSeries) -> None:
    """Plot-ready CSV: ``window_end_bin,t_s`` then the nine measure columns.

    Rows whose nine values have the same bits (so -0.0, +0.0 and each NaN
    stay apart) share one text, formatted once per series: in the chunk of
    ``CSV_CHUNK_ROWS`` rows where it first occurs, and kept only until its
    last.  The heads ``window_end_bin,t_s,`` are rendered from integers where
    the times print exactly, else by ``%``, and joined to the texts."""
    ends = measures.window_end_bins
    k = ends + 1  # window w ends as bin w + 1 starts
    bits = [np.asarray(measures.values[name], float).view(np.uint64) for name in MEASURE_NAMES]
    order = np.lexsort(bits)  # rows sorted by their bits, so that equal rows fall together
    new = np.ones(order.size, dtype=bool)
    new[1:] = np.any([np.diff(c[order]) != 0 for c in bits], axis=0)
    row = np.empty_like(order)
    row[order] = np.cumsum(new) - 1  # each row's distinct row: its run of the sort
    head, tail = np.zeros((2, order.size), dtype=bool)  # each distinct row's first and last
    head[order[new]] = tail[order[np.roll(new, -1)]] = True  # (a stable sort keeps row order)
    texts = np.empty(np.count_nonzero(new), dtype=object)
    fields = b",".join([b"%.12g"] * len(MEASURE_NAMES)) + b"\n"
    start_us, bin_s = measures.start_us, measures.bin_size_s
    exact = 0 <= ends.min(initial=0) and _exact_seconds(start_us, bin_s, k)
    start_s, frac = divmod(int(start_us), 1_000_000) if exact else (0, 0)
    with open(path, "wb") as f:
        f.write(("window_end_bin,t_s," + ",".join(MEASURE_NAMES) + "\n").encode())
        for lo in range(0, ends.size, CSV_CHUNK_ROWS):
            rows = slice(lo, lo + CSV_CHUNK_ROWS)
            group, fresh = row[rows], lo + np.flatnonzero(head[rows])
            distinct = zip(*[c[fresh].view(float).tolist() for c in bits])
            texts[row[fresh]] = [fields % v for v in distinct]
            if exact:
                heads = _ascii_rows(group.size, [
                    ends[rows], b",", start_s + k[rows] * int(bin_s), b".%06d,\n" % frac,
                ]).split(b"\n")[:-1]
            else:  # the float arithmetic of MeasureSeries.time_s
                times = start_us / 1e6 + k[rows] * bin_s
                heads = [b"%d,%.6f," % p for p in zip(ends[rows].tolist(), times.tolist())]
            parts = [b""] * (2 * len(heads))
            parts[::2], parts[1::2] = heads, texts[group].tolist()
            f.write(b"".join(parts))
            texts[group[tail[rows]]] = None


def write_alerts_jsonl(path, alerts: list[Alert]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for a in alerts:
            f.write(json.dumps({
                "bin_index": a.bin_index,
                "time_s": round(a.time_s, 6),
                "severity": round(a.severity, 6),
                "triggered_measures": [
                    {"name": t.name, "value": t.value, "baseline_median": t.baseline_median,
                     "deviation_score": round(t.deviation_score, 6)}
                    for t in a.triggered
                ],
            }, sort_keys=True, separators=(",", ":")) + "\n")

