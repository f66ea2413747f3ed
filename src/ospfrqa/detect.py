"""Sliding-window recurrence analysis and baseline-deviation alerting.

Each window of the binned count series is z-normalized, embedded and
quantified on its own.  Quiet OSPF traffic is sparse and periodic, so the
same window contents recur many times along a series; ``sliding_rqa``
therefore memoizes the results of each call keyed on the exact bytes of a
window's counts.  A repeated window reuses the results of its first
occurrence, which are identical to a recompute because the per-window
computation depends on nothing else, and the memo holds at most
``MEMO_WINDOWS`` distinct windows (oldest evicted first), so its memory is
bounded whatever the series.  The change detector then scans each measure
against a rolling baseline of strictly prior windows: the deviation score
is the distance from the baseline median in units of the baseline MAD,
and a window alerts when any enabled measure's score reaches ``k_mad``.
Contiguous deviant windows collapse into a single alert stamped at the
run's first window.

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

from .ingest import CountSeries, EventFilter, LsaEvent, bin_series
from .rqa import (
    MEASURE_NAMES,
    EmbedParams,
    SeriesTooShortError,
    embed,
    measures_for_series,
    phase_space_diameter,
    znormalize,
)

# Distinct windows the sliding_rqa memo holds.  With 200-bin windows a
# full memo takes about 8.5 MB; a quiet series returns to a window it has
# seen after far fewer distinct windows than this.
MEMO_WINDOWS = 4096

# Baseline rows scored per numpy call: bounds the temporary copies that
# np.median makes of the (windows x baseline_bins) view.
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

    Results are memoized for the duration of the call, keyed on the exact
    bytes of each window's counts: a window whose contents already
    occurred reuses that occurrence's measures and flags, which equal a
    recompute bit for bit.  At most ``MEMO_WINDOWS`` distinct windows are
    held; the oldest is evicted first, so a series without repeats costs
    one dictionary insert per window and no more memory than the cap.
    """
    counts = np.asarray(series.counts, dtype=float)
    w = config.window_bins
    if counts.size < w:
        raise SeriesTooShortError(
            f"series has {counts.size} bins; need at least window_bins={w}"
        )
    ends = np.arange(w - 1, counts.size, config.step_bins)
    columns = np.empty((len(MEASURE_NAMES), ends.size))
    degenerate = 0
    eps_warn = 0
    # Threshold guidance: epsilon should stay within 10% of the phase-space
    # diameter.  The z-scored 1-D range (max-min)/sigma is an exact lower
    # bound on the diameter and is always >= 2 (Popoviciu), so the default
    # epsilon=0.2 can never trip this; larger thresholds get the exact check.
    eps_limit = config.embed.epsilon * 10.0
    memo: dict[bytes, tuple[tuple[float, ...], bool, bool]] = {}
    for i, end in enumerate(ends):
        window = counts[end - w + 1 : end + 1]
        key = window.tobytes()
        hit = memo.get(key)
        if hit is None:
            hit = _window_results(window, config.embed, eps_limit)
            if len(memo) >= MEMO_WINDOWS:
                del memo[next(iter(memo))]
            memo[key] = hit
        values, is_degenerate, is_eps_warn = hit
        columns[:, i] = values
        degenerate += is_degenerate
        eps_warn += is_eps_warn
    return MeasureSeries(
        window_end_bins=ends,
        values=dict(zip(MEASURE_NAMES, columns)),
        bin_size_s=series.bin_size_s,
        start_us=series.start_us,
        degenerate_windows=degenerate,
        epsilon_warnings=eps_warn,
    )


def _window_results(
    window: np.ndarray, params: EmbedParams, eps_limit: float
) -> tuple[tuple[float, ...], bool, bool]:
    """One window's (measure tuple, degenerate, epsilon warning)."""
    measures, is_degenerate = measures_for_series(window, params)
    eps_warn = False
    if not is_degenerate and eps_limit > 2.0:
        sd = window.std()
        if (window.max() - window.min()) / sd < eps_limit:
            z, _ = znormalize(window)
            traj = embed(z, params.tau, params.m)
            eps_warn = phase_space_diameter(traj, params.norm) < eps_limit
    return measures.as_tuple(), is_degenerate, eps_warn


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
    n = len(measures)
    b = config.baseline_bins
    if n <= b:
        return []
    scores, medians = deviation_scores(measures, config)
    enabled = list(scores)

    alerts: list[Alert] = []
    in_run = False
    for i in range(b, n):
        fired = [name for name in enabled if scores[name][i] >= config.k_mad]
        if fired and not in_run:
            triggered = tuple(
                TriggeredMeasure(
                    name=name,
                    value=float(measures.values[name][i]),
                    baseline_median=float(medians[name][i]),
                    deviation_score=float(scores[name][i]),
                )
                for name in fired
            )
            alerts.append(Alert(
                bin_index=int(measures.window_end_bins[i]),
                time_s=measures.time_s(i),
                triggered=triggered,
                severity=max(t.deviation_score for t in triggered),
            ))
            in_run = True
        elif not fired:
            in_run = False
    return alerts


def deviation_scores(
    measures: MeasureSeries, config: DetectorConfig
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Per-window deviation scores and baseline medians for each measure.

    Both dicts are keyed by the enabled measures in ``MEASURE_NAMES``
    order.  Scores and medians for window indices inside the warm-up are
    zero, so a series of at most ``baseline_bins`` windows scores all zero.
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
    for name in enabled:
        v = measures.values[name]
        floor = max(config.floors.get(name, 1e-6) * config.floor_scale, 1e-6)
        # Row j of the view is the baseline of window b + j.
        baselines = sliding_window_view(v, b)[: n - b]
        for lo in range(0, n - b, SCORE_CHUNK_ROWS):
            base = baselines[lo : lo + SCORE_CHUNK_ROWS]
            med = np.median(base, axis=1)
            mad = np.median(np.abs(base - med[:, None]), axis=1)
            i = slice(b + lo, b + lo + base.shape[0])
            medians[name][i] = med
            scores[name][i] = np.abs(v[i] - med) / np.maximum(mad, floor)
    return scores, medians


def analyze_run(
    events: list[LsaEvent],
    flt: EventFilter,
    config: DetectorConfig,
    t0_us: int,
    t1_us: int,
    bin_size_s: int = 10,
) -> tuple[CountSeries, MeasureSeries, list[Alert]]:
    """Bin, quantify and scan one monitor's event log end to end."""
    series = bin_series(events, flt, bin_size_s, t0_us, t1_us)
    measures = sliding_rqa(series, config)
    return series, measures, detect(measures, config)


# --- serialization ----------------------------------------------------------


def write_measures_csv(path, measures: MeasureSeries) -> None:
    """Plot-ready CSV: ``window_end_bin,t_s`` then the nine measure columns."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("window_end_bin,t_s," + ",".join(MEASURE_NAMES) + "\n")
        for i in range(len(measures)):
            row = [str(int(measures.window_end_bins[i])), f"{measures.time_s(i):.6f}"]
            row += [f"{measures.values[name][i]:.12g}" for name in MEASURE_NAMES]
            f.write(",".join(row) + "\n")


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


def read_alerts_jsonl(path) -> list[Alert]:
    alerts = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            triggered = tuple(
                TriggeredMeasure(t["name"], t["value"], t["baseline_median"], t["deviation_score"])
                for t in rec["triggered_measures"]
            )
            alerts.append(Alert(rec["bin_index"], rec["time_s"], triggered, rec["severity"]))
    return alerts
