"""The benchmark's workloads: CLI command chains, input synthesis and output checks.

Each workload is a chain of ``ospfrqa.cli.main`` calls run in one process,
in the order of the README pipeline (simulate, extract, detect).  All paths
are relative to the workload's own directory, so the ``run_config.cfg``
echoes, and with them the artifact digests, do not depend on where the
checkout lives.

A workload's seed is the benchmark's ``--seed``; the program only sees the
command lines and files that the seed generates.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WINDOW_BINS = 200
EPSILON = 0.2

# A chain calls ``run(stage, argv)`` for every CLI invocation (timed) and
# may do untimed input synthesis between calls.
Runner = Callable[[str, list], None]


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int  # the workload's reference seed; the semantic checks are pinned to it
    topology: str  # loaded by the set-up measurement
    chain: Callable[[int, Runner], None]
    # Checks that hold for any seed: (label, passed) pairs.
    invariants: Callable[[Path, int], list]
    # Checks that need hold only at the reference seed.
    semantic: Callable[[Path, int], list]
    # Series CSVs the input-property report covers.
    analysed_series: Callable[[Path], list]


# --- failure-32h ------------------------------------------------------------

FAILURE_DURATION_S = 115200  # covers all six events of the paper-failure script
FAILURE_EVENT_BINS = (1440, 2880, 4320, 5760)  # isolated abr1.eth0 flaps


def failure_chain(seed: int, run: Runner) -> None:
    Path("series").mkdir()
    run("simulate", ["simulate", "--topology", "paper16", "--scenario", "paper-failure",
                     "--duration", str(FAILURE_DURATION_S), "--seed", str(seed),
                     "--out", "sim"])
    run("extract", ["extract", "--log", "sim/events_rcs1.jsonl", "--monitor", "rcs1",
                    "--origin", "abr1", "--topology", "paper16", "--bin", "10",
                    "--t0", "0", "--t1", str(FAILURE_DURATION_S),
                    "--out", "series/rcs1_abr1.csv"])
    run("detect", ["detect", "series/rcs1_abr1.csv", "--out", "det"])


def failure_semantic(d: Path, seed: int) -> list:
    bins = [a["bin_index"] for a in read_jsonl(d / "det" / "alerts.jsonl")]
    checks = []
    for event_bin in FAILURE_EVENT_BINS:
        near = [b for b in bins if event_bin - 600 <= b <= event_bin + 2]
        checks.append((f"first alert within +2 bins of bin {event_bin}",
                       bool(near) and event_bin <= near[0] <= event_bin + 2))
    return checks


def failure_invariants(d: Path, seed: int) -> list:
    return [detect_shape_check(d / "series" / "rcs1_abr1.csv", d / "det")]


# --- attacks-3seed ----------------------------------------------------------

ATTACK_DURATION_S = 12000
ATTACK_SPANS_S = {  # origin -> attack interval (paper-attacks scenario)
    "r9": (2485, 2485 + 1200),
    "10.99.0.99": (5012, 5012 + 1200),
    "r8": (9532, 9532 + 1200),
}
ATTACK_SCENARIOS = ("paper-attacks", "quiet")


def attack_runs(seed: int):
    """(sim seed, scenario, origin, run directory name, origin tag) tuples."""
    for s in (seed, seed + 1, seed + 2):
        for scenario in ATTACK_SCENARIOS:
            for origin in ATTACK_SPANS_S:
                yield s, scenario, origin, f"{scenario}-{s}", origin.replace(".", "_")


def attacks_chain(seed: int, run: Runner) -> None:
    first_origin = next(iter(ATTACK_SPANS_S))
    for s, scenario, origin, run_dir, tag in attack_runs(seed):
        if origin == first_origin:
            run("simulate", ["simulate", "--topology", "paper16", "--scenario", scenario,
                             "--duration", str(ATTACK_DURATION_S), "--seed", str(s),
                             "--out", f"sim/{run_dir}"])
            Path(f"series/{run_dir}").mkdir(parents=True)
        run("extract", ["extract", "--log", f"sim/{run_dir}/events_rcs1.jsonl",
                        "--monitor", "rcs1", "--origin", origin, "--topology", "paper16",
                        "--bin", "10", "--t0", "0", "--t1", str(ATTACK_DURATION_S),
                        "--out", f"series/{run_dir}/{tag}.csv"])
        run("detect", ["detect", f"series/{run_dir}/{tag}.csv", "--out", f"det/{run_dir}/{tag}"])


def attacks_semantic(d: Path, seed: int) -> list:
    checks = []
    for s, scenario, origin, run_dir, tag in attack_runs(seed):
        bins = [a["bin_index"] for a in read_jsonl(d / "det" / run_dir / tag / "alerts.jsonl")]
        if scenario == "quiet":
            checks.append((f"no alert on quiet run seed {s} origin {origin}", not bins))
        else:
            lo, hi = ATTACK_SPANS_S[origin]
            checks.append((f"alert inside attack span seed {s} origin {origin}",
                           any(lo // 10 <= b <= hi // 10 for b in bins)))
    return checks


def attacks_invariants(d: Path, seed: int) -> list:
    return [detect_shape_check(d / "series" / run_dir / f"{tag}.csv", d / "det" / run_dir / tag)
            for _s, _sc, _o, run_dir, tag in attack_runs(seed)]


# --- capture-7d -------------------------------------------------------------

CAPTURE_DURATION_S = 604800


def capture_chain(seed: int, run: Runner) -> None:
    run("simulate", ["simulate", "--topology", "topo35", "--scenario", "quiet",
                     "--duration", str(CAPTURE_DURATION_S), "--seed", str(seed),
                     "--out", "sim"])
    monitors = sorted(p.name[len("events_"):-len(".jsonl")]
                      for p in Path("sim").glob("events_*.jsonl"))
    for sub in ("pcap", "series/pcap", "series/log"):
        Path(sub).mkdir(parents=True)
    for mon in monitors:  # benchmark input synthesis, outside the timed calls
        log_to_pcap(Path("sim") / f"events_{mon}.jsonl", Path("pcap") / f"{mon}.pcap")
    for mon in monitors:
        common = ["--monitor", mon, "--bin", "10", "--t0", "0", "--t1", str(CAPTURE_DURATION_S)]
        run("extract", ["extract", "--pcap", f"pcap/{mon}.pcap", *common,
                        "--out", f"series/pcap/{mon}.csv"])
        run("extract", ["extract", "--log", f"sim/events_{mon}.jsonl", *common,
                        "--out", f"series/log/{mon}.csv"])


def capture_invariants(d: Path, seed: int) -> list:
    log_series = sorted((d / "series" / "log").glob("*.csv"))
    checks = [(f"pcap series equals log series for {p.stem}",
               p.read_bytes() == (d / "series" / "pcap" / p.name).read_bytes())
              for p in log_series]
    manifest = json.loads((d / "sim" / "manifest.json").read_text())
    sim_totals = set(manifest["monitor_totals"].values())
    series_totals = {int(read_counts(p).sum()) for p in log_series}
    checks.append(("all monitor totals equal (conservation)",
                   len(log_series) == len(manifest["monitor_totals"]) > 1
                   and len(sim_totals) == 1 and series_totals == sim_totals))
    return checks


def log_to_pcap(log_path: Path, pcap_path: Path) -> None:
    """Write a classic Ethernet pcap holding one LS Update or LS Ack frame per event."""
    out = [struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)]
    with open(log_path, encoding="utf-8") as f:
        for line in f:
            ev = json.loads(line)
            lsa = struct.pack(">HBB4s4siHH", ev["ls_age"], 0, ev["ls_type"],
                              ip_bytes(ev["ls_id"]), ip_bytes(ev["adv_router"]),
                              ev["ls_seq"], 0, 20)
            if ev["is_ack"]:
                ptype, body = 5, lsa
            else:
                ptype, body = 4, struct.pack(">I", 1) + lsa
            ospf = struct.pack(">BBH4s4sHH8s", 2, ptype, 24 + len(body),
                               ip_bytes(ev["adv_router"]), bytes(4), 0, 0, bytes(8)) + body
            ip = struct.pack(">BBHHHBBH4s4s", 0x45, 0, 20 + len(ospf), 0, 0, 1, 89, 0,
                             bytes([10, 0, 0, 1]), bytes([224, 0, 0, 5])) + ospf
            frame = b"\x01\x00\x5e\x00\x00\x05" + b"\x02" * 6 + b"\x08\x00" + ip
            ts = ev["ts_us"]
            out.append(struct.pack("<IIII", ts // 1_000_000, ts % 1_000_000,
                                   len(frame), len(frame)) + frame)
    pcap_path.write_bytes(b"".join(out))


def ip_bytes(dotted: str) -> bytes:
    return bytes(int(p) for p in dotted.split("."))


# --- shared helpers ---------------------------------------------------------


def read_jsonl(path: Path) -> list:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def read_counts(csv_path: Path) -> np.ndarray:
    rows = csv_path.read_text(encoding="utf-8").splitlines()[1:]
    return np.array([int(r.rsplit(",", 1)[1]) for r in rows], dtype=np.int64)


def detect_shape_check(series_csv: Path, det_dir: Path) -> tuple:
    """measures.csv has one row per window, and every alert is past the warm-up."""
    n_bins = read_counts(series_csv).size
    rows = (det_dir / "measures.csv").read_text(encoding="utf-8").count("\n") - 1
    cfg = dict(line.split(" = ", 1) for line in
               (det_dir / "run_config.cfg").read_text(encoding="utf-8").splitlines())
    first_scored = WINDOW_BINS - 1 + int(cfg["baseline"])
    alerts_ok = all(a["bin_index"] >= first_scored for a in read_jsonl(det_dir / "alerts.jsonl"))
    return (f"window count and warm-up of {'/'.join(det_dir.parts[-3:])}",
            rows == n_bins - WINDOW_BINS + 1 and alerts_ok)


def window_sds(counts: np.ndarray) -> np.ndarray:
    """Population standard deviation of every WINDOW_BINS window, from exact integer sums."""
    if counts.size < WINDOW_BINS:
        return np.zeros(0)
    n = WINDOW_BINS
    s = np.concatenate(([0], np.cumsum(counts)))
    q = np.concatenate(([0], np.cumsum(counts * counts)))
    s, q = s[n:] - s[:-n], q[n:] - q[:-n]
    return np.sqrt(n * q - s * s) / n


def input_properties(d: Path, wl: Workload) -> dict:
    """Properties of the generated inputs that later changes may key behaviour on."""
    logs = list((d / "sim").rglob("events_*.jsonl"))
    events = sum(p.read_bytes().count(b"\n") for p in logs)
    series = [read_counts(p) for p in wl.analysed_series(d)]
    sds = np.concatenate([window_sds(c) for c in series])
    return {
        "input.events": (events, "count"),
        "input.monitors": (len(logs), "count"),
        "input.bins": (int(sum(c.size for c in series)), "count"),
        "input.distinct_counts": (len(np.unique(np.concatenate(series))), "count"),
        "input.max_window_sd": (float(sds.max()), "count"),
        # sd >= 1/epsilon is the only case where two unequal integer count
        # pairs can lie within epsilon of each other after z-normalization.
        "rqa.windows_beyond_equality": (int((sds >= 1.0 / EPSILON).sum()), "count"),
    }


# Why these three: failure-32h and attacks-3seed load the same layers (rqa
# and detect do nearly all the work), one as a single long series and one as
# 18 short ones, so per-series costs show only in the second.  capture-7d
# loads only sim and ingest, so a detection-path change must leave it alone.
WORKLOADS = {w.name: w for w in (
    Workload("failure-32h", 11, "paper16", failure_chain, failure_invariants,
             failure_semantic, lambda d: [d / "series" / "rcs1_abr1.csv"]),
    Workload("attacks-3seed", 1, "paper16", attacks_chain, attacks_invariants,
             attacks_semantic, lambda d: sorted((d / "series").rglob("*.csv"))),
    Workload("capture-7d", 7, "topo35", capture_chain, capture_invariants,
             lambda d, seed: [], lambda d: sorted((d / "series" / "log").glob("*.csv"))),
)}
