"""Per-layer tracing of ospfrqa from outside the package.

``Tracer.install`` replaces every public module-level function of the five
layer modules with a wrapper that records a span (name, start, end,
parent) in memory; nothing under ``src/`` is edited.  Functions that a
module imported by name from another layer (``detect`` imports
``measures_for_series``, ``znormalize``, ``embed``, ``phase_space_diameter``
and ``bin_series``) are wrapped where they are bound too, under the layer
that defines them.  Generator functions get a span that covers their
iteration, not just the call that creates them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "sim", "ingest", "rqa", "detect")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._saved: list[tuple] = []

    # --- installation -------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"ospfrqa.{layer}")
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or not fn.__module__.startswith("ospfrqa.")):
                    continue
                if fn not in wrappers:
                    name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
                    wrappers[fn] = self._wrap(name, fn)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, wrappers[fn])

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _open(self, name: str) -> int:
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
        return len(self.spans) - 1

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            self.stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans[idx][1:3] = start, end
            if observe is not None:
                observe(self.counts, result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # The body first runs at the first next(), so the span opens
            # when iteration starts, under whatever span is open then.
            inner = fn(*args, **kwargs)
            idx = self._open(name)
            start = perf_counter()
            items = 0
            try:
                while True:
                    self.stack.append(idx)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.stack.pop()
                    items += 1
                    yield item
            finally:
                inner.close()
                self.spans[idx][1:3] = start, perf_counter()
                self.counts[name + ".items"] += items

        return wrapper

    # --- reduction ------------------------------------------------------------

    def totals(self):
        """Inclusive time, self time and call count per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        incl, self_t, calls = defaultdict(float), defaultdict(float), Counter()
        for i, (name, start, end, _parent) in enumerate(self.spans):
            incl[name] += end - start
            self_t[name] += end - start - child[i]
            calls[name] += 1
        return incl, self_t, calls

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": self.spans}, f, separators=(",", ":"))


def _observe_run(counts, result):
    counts["sim.events"] += sum(len(v) for v in result.logs.values())


def _observe_bin(counts, series):
    counts["ingest.events_kept"] += int(series.counts.sum())
    counts["ingest.events_dropped"] += series.dropped


def _observe_sliding(counts, ms):
    counts["detect.windows"] += len(ms)
    counts["rqa.degenerate_windows"] += ms.degenerate_windows
    counts["detect.epsilon_warnings"] += ms.epsilon_warnings


def _observe_detect(counts, alerts):
    counts["detect.alerts"] += len(alerts)


# Exact counts taken from return values, outside the wrapped call's span.
OBSERVERS = {
    "sim.run": _observe_run,
    "ingest.bin_series": _observe_bin,
    "detect.sliding_rqa": _observe_sliding,
    "detect.detect": _observe_detect,
}


def layer_metrics(tracer: Tracer, untraced: dict, traced: dict) -> dict:
    """The per-layer metrics (value, unit) of a traced pass.

    ``untraced`` and ``traced`` are the timings of the untraced reference
    pass and of the traced pass.  The ``cli.*_s`` stage times come from the
    untraced pass, so they add up to its ``pipeline_s``.
    """
    incl, self_t, calls = tracer.totals()
    c = tracer.counts
    windows = c["detect.windows"]
    events_read = c["ingest.read_lsa_log.items"] + c["ingest.extract_pcap_events.items"]

    def per_window_us(name):
        return incl[name] / windows * 1e6 if windows else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "sim.run_s": (incl["sim.run"], "s"),
        "sim.events": (c["sim.events"], "count"),
        "sim.events_per_s": (ratio(c["sim.events"], incl["sim.run"]), "events/s"),
        "sim.load_topology_s": (incl["sim.load_topology"], "s"),
        "ingest.write_lsa_log_s": (incl["ingest.write_lsa_log"], "s"),
        "ingest.read_lsa_log_s": (incl["ingest.read_lsa_log"], "s"),
        "ingest.extract_pcap_events_s": (incl["ingest.extract_pcap_events"], "s"),
        "ingest.parse_ospf_packet.calls": (calls["ingest.parse_ospf_packet"], "count"),
        "ingest.bin_series_s": (incl["ingest.bin_series"], "s"),
        "ingest.write_series_csv_s": (incl["ingest.write_series_csv"], "s"),
        "ingest.read_series_csv_s": (incl["ingest.read_series_csv"], "s"),
        "ingest.events_read": (events_read, "count"),
        "ingest.events_kept": (c["ingest.events_kept"], "count"),
        "ingest.events_dropped": (c["ingest.events_dropped"], "count"),
        "ingest.kept_ratio": (ratio(c["ingest.events_kept"], events_read), "ratio"),
    }
    for fn in ("znormalize", "embed", "recurrence_matrix", "rqa_measures"):
        m[f"rqa.{fn}_us"] = (per_window_us(f"rqa.{fn}"), "us")
        m[f"rqa.{fn}.calls"] = (calls[f"rqa.{fn}"], "count")
    detect_cli = incl["cli.cmd_detect"]
    m.update({
        "rqa.measures_for_series.calls": (calls["rqa.measures_for_series"], "count"),
        "rqa.degenerate_windows": (c["rqa.degenerate_windows"], "count"),
        "detect.deviation_scores_s": (incl["detect.deviation_scores"], "s"),
        "detect.sliding_rqa_self_s": (self_t["detect.sliding_rqa"], "s"),
        "detect.alert_collapse_s": (self_t["detect.detect"], "s"),
        "detect.write_measures_csv_s": (incl["detect.write_measures_csv"], "s"),
        "detect.write_alerts_jsonl_s": (incl["detect.write_alerts_jsonl"], "s"),
        "detect.windows": (windows, "count"),
        "detect.alerts": (c["detect.alerts"], "count"),
        "detect.epsilon_warnings": (c["detect.epsilon_warnings"], "count"),
        "detect.rqa_scoring_share": (ratio(incl["rqa.measures_for_series"]
                                           + incl["detect.deviation_scores"], detect_cli),
                                     "ratio"),
        "cli.calls": (calls["cli.main"], "count"),
    })
    stage = untraced["stage_s"]
    m.update({
        "cli.simulate_s": (stage.get("simulate", 0.0), "s"),
        "cli.extract_s": (stage.get("extract", 0.0), "s"),
        "cli.detect_s": (stage.get("detect", 0.0), "s"),
        "cli.events_per_s": (ratio(untraced["events_read"], stage.get("extract", 0.0)), "events/s"),
        "cli.windows_per_s": (ratio(windows, stage.get("detect", 0.0)), "windows/s"),
    })
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(v for k, v in self_t.items()
                                    if k.startswith(layer + ".")), "s")
    m["trace.overhead_s"] = (traced["pipeline_s"] - untraced["pipeline_s"], "s")
    return m
