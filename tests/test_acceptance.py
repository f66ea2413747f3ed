"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest with ``-s`` to see
them live).  Tolerances: integer-valued quantities match the brute-force
oracle exactly; ratios and entropies match within 1e-12; parameter
recovery and detection latency are exact-match criteria on seeded,
fully deterministic runs.
"""

import dataclasses
import functools
import json
import struct
import time

import numpy as np
import pytest

import builders
import oracle
from ospfrqa import ingest, rqa, sim
from ospfrqa.cli import main as cli_main
from ospfrqa.detect import DetectorConfig, analyze_run, detect, sliding_rqa


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kw):
            try:
                fn(*args, **kw)
            except BaseException:
                print(f"ACCEPTANCE {label}: FAIL")
                raise
            print(f"ACCEPTANCE {label}: PASS")
        return run
    return wrap


@criterion("1 rqa-oracle-equivalence")
def test_criterion_1_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(20240901)
    exact = ("l_max",)

    def compare(rm, l_min, v_min, theiler):
        got = dataclasses.asdict(rqa.rqa_measures(rm, l_min, v_min, theiler))
        want = oracle.measures(rm.astype(int).tolist(), l_min, v_min, theiler)
        for name in rqa.MEASURE_NAMES:
            if name in exact:
                assert got[name] == want[name], name
            else:
                assert got[name] == pytest.approx(want[name], abs=1e-12), name

    for _ in range(200):
        n = int(rng.integers(2, 31))
        rm = rng.random((n, n)) < rng.uniform(0.05, 0.95)
        rm |= rm.T
        np.fill_diagonal(rm, True)
        compare(rm, int(rng.integers(2, 4)), int(rng.integers(2, 4)), int(rng.integers(0, 3)))

    for _ in range(200):
        tau = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        n_s = int(rng.integers((m - 1) * tau + 3, 51))
        series = rng.normal(size=n_s)
        eps = float(rng.uniform(0.1, 1.5))
        traj = rqa.embed(series, tau, m)
        rm = rqa.recurrence_matrix(traj, eps)
        ref = oracle.recurrence(oracle.embed_points(series.tolist(), tau, m), eps, "euclidean")
        assert rm.astype(int).tolist() == ref
        compare(rm, 2, 2, 1)

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"oracle suite took {elapsed:.1f}s"


@criterion("2 parameter-recovery")
def test_criterion_2_parameter_recovery(tmp_path, capsys):
    started = time.perf_counter()
    out = tmp_path / "sim"
    assert cli_main(["simulate", "--topology", "paper16", "--scenario", "quiet",
                     "--duration", "21600", "--seed", "6", "--out", str(out)]) == 0
    series = tmp_path / "rcs1.csv"
    assert cli_main(["extract", "--log", str(out / "events_rcs1.jsonl"),
                     "--monitor", "rcs1", "--bin", "10", "--t0", "0",
                     "--t1", "21600", "--out", str(series)]) == 0
    capsys.readouterr()
    assert cli_main(["params", str(series), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tau"] == 1, f"tau={report['tau']} (expected 1)"
    assert report["m"] == 2, f"m={report['m']} (expected 2)"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"parameter recovery took {elapsed:.1f}s"


@criterion("3 detection-latency")
def test_criterion_3_detection_latency():
    topo = sim.load_topology("paper16")
    res = sim.run(topo, sim.scenario_paper_failure(), 230400, seed=11)
    flt = ingest.EventFilter(monitor="rcs1", origin=topo.router_id("abr1"))
    _, _, alerts = analyze_run(res.logs["rcs1"], flt, DetectorConfig(),
                               0, 230400 * 10**6)
    # isolated single-interface events: down/up/down/up of abr1.eth0
    for event_bin in (1440, 2880, 4320, 5760):
        window = [a.bin_index for a in alerts
                  if event_bin - 600 <= a.bin_index <= event_bin + 2]
        assert window, f"no alert near bin {event_bin}"
        first = window[0]
        assert event_bin <= first <= event_bin + 2, (
            f"first alert at {first}, event at {event_bin}"
        )
    # the joint events at 72000/86400 s carry no assertion (the paper
    # reports the simultaneous multi-interface shutdown as a miss)


@criterion("4 attack-detection")
def test_criterion_4_attack_detection():
    topo = sim.load_topology("paper16")
    scenario = sim.scenario_paper_attacks()
    cfg = DetectorConfig()
    spans = {
        topo.router_id("r9"): (2485, 2485 + 1200),
        "10.99.0.99": (5012, 5012 + 1200),
        topo.router_id("r8"): (9532, 9532 + 1200),
    }
    for seed in (1, 2, 3):
        attacked = sim.run(topo, scenario, 12000, seed=seed)
        quiet = sim.run(topo, [], 12000, seed=seed)
        for origin, (lo_s, hi_s) in spans.items():
            flt = ingest.EventFilter(monitor="rcs1", origin=origin)
            _, _, alerts = analyze_run(attacked.logs["rcs1"], flt, cfg, 0, 12000 * 10**6)
            inside = [a for a in alerts if lo_s // 10 <= a.bin_index <= hi_s // 10]
            assert inside, f"seed {seed}: no alert in [{lo_s}, {hi_s}] s for {origin}"
            _, _, quiet_alerts = analyze_run(quiet.logs["rcs1"], flt, cfg, 0, 12000 * 10**6)
            assert quiet_alerts == [], (
                f"seed {seed}: {len(quiet_alerts)} false alerts on quiet run for {origin}"
            )


@criterion("5 conservation")
def test_criterion_5_conservation():
    for seed in range(10):
        topo = builders.random_topology(
            n_transit=3 + seed, n_stub=2 + seed % 4, seed=seed,
            extra_links=seed % 4, max_degree=4 + seed % 3,
        )
        res = sim.run(topo, [], 4000, seed=1000 + seed)
        totals = sim.total_event_counts(res.rows)
        assert len(set(totals.values())) == 1, (seed, totals)
        assert min(totals.values()) > 0


@criterion("6 monotonicity-and-conventions")
def test_criterion_6_monotonicity_and_conventions():
    rng = np.random.default_rng(606)
    # rr non-decreasing in epsilon
    for _ in range(20):
        series = rng.poisson(1.0, size=int(rng.integers(30, 80))).astype(float)
        z, degenerate = rqa.znormalize(series)
        if degenerate:
            continue
        traj = rqa.embed(z, 1, 2)
        eps_grid = np.sort(rng.uniform(0.05, 2.5, size=8))
        rrs = [rqa.rqa_measures(rqa.recurrence_matrix(traj, e)).rr for e in eps_grid]
        assert all(a <= b + 1e-15 for a, b in zip(rrs, rrs[1:]))

    # degenerate windows: rr = 1, det = 1, no fault
    cfg = DetectorConfig(window_bins=50, baseline_bins=10)
    ms = sliding_rqa(ingest.CountSeries(0, 10, np.zeros(80, dtype=int)), cfg)
    assert np.all(ms.values["rr"] == 1.0)
    assert np.all(ms.values["det"] == 1.0)
    assert detect(ms, cfg) == []

    # causality and warm-up on random inputs
    for trial in range(5):
        counts = rng.poisson(0.3, size=400)
        counts[rng.integers(260, 380)] += int(rng.integers(10, 40))
        series = ingest.CountSeries(0, 10, counts)
        cfg = DetectorConfig(window_bins=60, baseline_bins=30)
        full = detect(sliding_rqa(series, cfg), cfg)
        assert all(a.bin_index >= 60 + 30 - 1 for a in full)
        cut_at = 300
        cut = detect(sliding_rqa(ingest.CountSeries(0, 10, counts[:cut_at]), cfg), cfg)
        assert [a.bin_index for a in full if a.bin_index < cut_at] == \
               [a.bin_index for a in cut], f"trial {trial}: truncation changed alerts"


@criterion("7 format-fidelity")
def test_criterion_7_format_fidelity(tmp_path):
    # hand-assembled LS Update frame: all LSA header fields recovered
    lsa = struct.pack(">HBB", 1234, 0, 3)
    lsa += bytes([192, 168, 7, 1]) + bytes([10, 1, 2, 3])
    lsa += struct.pack(">iHH", 0x7FFFFFF0, 0xBEEF, 20)
    ospf = struct.pack(">BBH", 2, 4, 24 + 4 + 20) + bytes([10, 1, 2, 3])
    ospf += struct.pack(">IHH", 0, 0, 0) + b"\x00" * 8 + struct.pack(">I", 1) + lsa
    ip = struct.pack(">BBHHHBBH4s4s", 0x45, 0, 20 + len(ospf), 0, 0, 1, 89, 0,
                     bytes([10, 1, 2, 3]), bytes([224, 0, 0, 5]))
    frame = b"\x11" * 6 + b"\x22" * 6 + b"\x08\x00" + ip + ospf

    events = ingest.parse_ospf_packet(frame, ingest.LINKTYPE_ETHERNET,
                                      ts_us=42, monitor="cap")
    assert len(events) == 1
    ev = events[0]
    assert (ev.ls_age, ev.ls_type) == (1234, 3)
    assert ev.ls_id == "192.168.7.1"
    assert ev.adv_router == "10.1.2.3"
    assert ev.ls_seq == 0x7FFFFFF0
    assert not ev.is_ack

    # and via a pcap file end to end
    pcap = struct.pack("<IHHiIII", ingest.PCAP_MAGIC, 2, 4, 0, 0, 65535, 1)
    pcap += struct.pack("<IIII", 7, 9, len(frame), len(frame)) + frame
    cap = tmp_path / "one.pcap"
    cap.write_bytes(pcap)
    from_file = list(ingest.extract_pcap_events(cap, monitor="cap"))
    assert from_file == [ingest.LsaEvent(7_000_009, "cap", 3, "10.1.2.3",
                                         "192.168.7.1", 1234, 0x7FFFFFF0, False)]

    # lossless log round-trip over 1000 random events
    rng = np.random.default_rng(7777)
    events = [
        ingest.LsaEvent(
            ts_us=int(rng.integers(0, 10**14)),
            monitor=f"m{rng.integers(0, 9)}",
            ls_type=int(rng.integers(1, 6)),
            adv_router=f"{rng.integers(1, 224)}.{rng.integers(0, 256)}."
                       f"{rng.integers(0, 256)}.{rng.integers(1, 255)}",
            ls_id=f"10.{rng.integers(0, 256)}.{rng.integers(0, 256)}.{rng.integers(0, 255)}",
            ls_age=int(rng.integers(0, 3601)),
            ls_seq=int(rng.integers(-(2**31), 2**31)),
            is_ack=bool(rng.integers(0, 2)),
        )
        for _ in range(1000)
    ]
    log = tmp_path / "events.jsonl"
    ingest.write_lsa_log(log, events)
    assert list(ingest.read_lsa_log(log)) == events
