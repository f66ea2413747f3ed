"""End-to-end command-line pipeline tests (exit codes, artifacts, determinism)."""

import hashlib
import json
import re
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import builders
import oracle
from ospfrqa import cli, detect, ingest, rqa, sim
from ospfrqa.cli import build_parser, format_setting, main
from test_sim import every_kind_scenario, ring_with_transit_tap


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def quiet_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("quiet_sim")
    code = run_cli("simulate", "--topology", "paper16", "--scenario", "quiet",
                   "--duration", "21600", "--seed", "6", "--out", out)
    assert code == 0
    return out


@pytest.fixture(scope="module")
def quiet_series(quiet_run, tmp_path_factory):
    path = tmp_path_factory.mktemp("series") / "rcs1_all.csv"
    code = run_cli("extract", "--log", quiet_run / "events_rcs1.jsonl",
                   "--monitor", "rcs1", "--bin", "10",
                   "--t0", "0", "--t1", "21600", "--out", path)
    assert code == 0
    return path


# SHA-256 prefixes of `simulate --topology topo35 --scenario quiet
# --duration 86400 --seed 7`, recorded before the simulator and the log
# writer were rewritten for speed.
PINNED_TOPO35_DAY = {
    "events_s1.jsonl": "f194aff5903d798f",
    "events_s2.jsonl": "e75dca2950c42096",
    "events_s3.jsonl": "dbb979505a5dff96",
    "events_s4.jsonl": "c3040728c3d11506",
    "events_s5.jsonl": "83a81c86bf710568",
    "events_s6.jsonl": "6ccf1856e61c99e0",
    "events_s7.jsonl": "72a87f3d52077091",
    "events_s8.jsonl": "40d865316f68f3f1",
    "events_s9.jsonl": "693f78312c047da1",
    "events_s10.jsonl": "2e2cb82ebd4af425",
    "events_s11.jsonl": "0430a3b3efa53468",
    "events_s12.jsonl": "0441ff2b67beae8b",
    "events_s13.jsonl": "3e09fd2275b0029c",
    "manifest.json": "46811ec61601978f",
}


class TestSimulate:
    def test_writes_logs_and_manifest(self, quiet_run):
        logs = sorted(p.name for p in quiet_run.glob("events_*.jsonl"))
        assert len(logs) == 8
        manifest = json.loads((quiet_run / "manifest.json").read_text())
        assert manifest["seed"] == 6
        assert set(manifest["monitor_totals"]) == {
            "rcs1", "r7", "r11", "r12", "r13", "r14", "r15", "r16"
        }
        assert len(set(manifest["monitor_totals"].values())) == 1

    def test_missing_topology_exits_2(self, tmp_path, capsys):
        assert run_cli("simulate", "--topology", tmp_path / "nope.topo",
                       "--duration", "100", "--out", tmp_path / "o") == 2
        assert "error" in capsys.readouterr().err

    def test_same_invocation_identical_bytes(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("simulate", "--topology", "paper16", "--scenario",
                           "paper-attacks", "--duration", "12000", "--seed", "3",
                           "--out", out) == 0
            outs.append(out)
        files_a = sorted(p.name for p in outs[0].iterdir())
        assert files_a == sorted(p.name for p in outs[1].iterdir())
        for name in files_a:
            if name == "run_config.cfg":
                continue  # the echo records the out dir itself
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
        echo_a = (outs[0] / "run_config.cfg").read_text().splitlines()
        echo_b = (outs[1] / "run_config.cfg").read_text().splitlines()
        assert [l for l in echo_a if not l.startswith("out")] == \
               [l for l in echo_b if not l.startswith("out")]

    def test_topo35_quiet_day_logs_pinned(self, tmp_path):
        out = tmp_path / "q"
        assert run_cli("simulate", "--topology", "topo35", "--scenario", "quiet",
                       "--duration", "86400", "--seed", "7", "--out", out) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
                   for p in out.iterdir() if p.name != "run_config.cfg"}
        assert digests == PINNED_TOPO35_DAY

    def test_logs_written_from_rows_equal_the_run_events(self, tmp_path):
        # simulate writes each log from the run's rows, never reading its
        # LsaEvent logs: writing those must give the same bytes, acks included.
        topo, scenario = tmp_path / "ring.topo", tmp_path / "every.json"
        topo.write_text(builders.topology_to_text(ring_with_transit_tap()))
        scenario.write_text(builders.scenario_to_json(every_kind_scenario()))
        out = tmp_path / "o"
        assert run_cli("simulate", "--topology", topo, "--scenario", scenario,
                       "--duration", "4000", "--seed", "13", "--out", out) == 0
        res = sim.run(sim.load_topology(topo), every_kind_scenario(), 4000, seed=13)
        assert any(is_ack for *_, is_ack in res.rows["tapa"])
        for mon, events in res.logs.items():
            ingest.write_lsa_log(tmp_path / "events.jsonl", events)
            assert ((out / f"events_{mon}.jsonl").read_bytes()
                    == (tmp_path / "events.jsonl").read_bytes()), mon
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["monitor_totals"] == {
            mon: sum(1 for row in rows if not row[ingest.LOG_FIELDS.index("is_ack")])
            for mon, rows in res.rows.items()}

    def test_env_var_default_out(self, tmp_path, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv("OSPFRQA_OUT", str(target))
        assert run_cli("simulate", "--topology", "paper16", "--duration", "100",
                       "--seed", "1") == 0
        assert (target / "manifest.json").exists()

    def test_scenario_json_file(self, tmp_path):
        scenario_path = tmp_path / "flap.json"
        scenario_path.write_text(builders.scenario_to_json([
            sim.ScenarioEvent(600.0, "iface_down", {"node": "abr1", "iface": "eth0"}),
            sim.ScenarioEvent(900.0, "iface_up", {"node": "abr1", "iface": "eth0"}),
        ]))
        out = tmp_path / "custom"
        assert run_cli("simulate", "--topology", "paper16",
                       "--scenario", scenario_path,
                       "--duration", "1200", "--seed", "2", "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["scenario"].endswith("flap.json")

    def test_bad_scenario_subject_exits_2(self, tmp_path, capsys):
        scenario_path = tmp_path / "bad.json"
        scenario_path.write_text(builders.scenario_to_json([
            sim.ScenarioEvent(600.0, "iface_down", {"node": "ghost", "iface": "eth0"}),
        ]))
        assert run_cli("simulate", "--topology", "paper16",
                       "--scenario", scenario_path,
                       "--duration", "1200", "--out", tmp_path / "x") == 2
        assert "ghost" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("change, key", [
        ({"params": {"period_s": 0}}, "period_s"),
        ({"params": {"period_s": -30}}, "period_s"),
        ({"params": {"period_s": "nan"}}, "period_s"),
        ({"params": {"period_s": float("inf")}}, "period_s"),
        ({"params": {"duration_s": -1}}, "duration_s"),
        ({"params": {"duration_s": 10**400}}, "duration_s"),
        ({"params": {"phantom_id": 5}}, "phantom_id"),
        ({"params": {"drop_links": 5}}, "drop_links"),
        ({"params": {"drop_links": ["eth0", 5]}}, "drop_links"),
        ({"params": 5}, "params"),
        ({"subject": 5}, "subject"),
        ({"subject": {"router": ["r8"]}}, "router"),
        ({"time_s": [1]}, "time_s"),
        ({"time_s": True}, "time_s"),
        ({"params": {"period_s": 1e-3}}, "period_s"),  # below MinLSArrival
        ({"params": {"period_s": 0.999}}, "period_s"),
        # Event, subject and params keys that the event or its kind does not take.
        ({"parms": {"period_s": 30}}, "parms"),
        ({"subject": {"router": "r8", "host": "host2"}}, "host"),
        ({"params": {"perod_s": 5}}, "perod_s"),
        ({"kind": "attack_disguised", "subject": {"attacker": "r8", "victim": "r9", "x": 1},
          "params": {}}, "x"),
        ({"kind": "attack_disguised", "subject": {"attacker": "r8", "victim": "r9"},
          "params": {"drop_links": []}}, "drop_links"),
        ({"kind": "attack_adjacency_spoof", "subject": {"host": "host2", "router": "r8"},
          "params": {}}, "router"),
        ({"kind": "attack_adjacency_spoof", "subject": {"host": "host2"},
          "params": {"drop_links": ["eth0"]}}, "drop_links"),
        ({"kind": "iface_down", "subject": {"node": "abr1", "iface": "eth0", "up": True},
          "params": {}}, "up"),
        ({"kind": "iface_down", "subject": {"node": "abr1", "iface": "eth0"}}, "period_s"),
        ({"kind": "iface_up", "subject": {"node": "abr1", "iface": "eth0", "peer": "r6"},
          "params": {}}, "peer"),
        ({"kind": "iface_up", "subject": {"node": "abr1", "iface": "eth0"},
          "params": {"phantom_id": "10.0.0.1"}}, "phantom_id"),
        # A phantom router id that extract --origin could never select.
        *[({"kind": "attack_adjacency_spoof", "subject": {"host": "host2"},
            "params": {"phantom_id": phantom}}, "phantom_id")
          for phantom in (5, "not-a-router", "010.99.0.99", "10.99.0.256")],
    ])
    def test_malformed_scenario_event_exits_2_naming_it(self, tmp_path, capsys, change, key):
        good = {"time_s": 10, "kind": "attack_partition", "subject": {"router": "r8"},
                "params": {"period_s": 30, "duration_s": 60, "drop_links": ["eth0"]}}
        scenario_path = tmp_path / "bad.json"
        scenario_path.write_text(json.dumps([good, {**good, "time_s": 20, **change}]))
        assert run_cli("simulate", "--topology", "paper16", "--duration", "100",
                       "--scenario", scenario_path, "--out", tmp_path / "x") == 2
        assert f"event 1: {key}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_spoof_with_a_dotted_quad_phantom_simulates(self, tmp_path):
        scenario_path = tmp_path / "spoof.json"
        scenario_path.write_text(json.dumps([{
            "time_s": 10, "kind": "attack_adjacency_spoof", "subject": {"host": "host2"},
            "params": {"period_s": 30, "duration_s": 60, "phantom_id": "10.99.0.99"}}]))
        assert run_cli("simulate", "--topology", "paper16", "--duration", "100",
                       "--scenario", scenario_path, "--out", tmp_path / "x") == 0
        log = (tmp_path / "x" / "events_rcs1.jsonl").read_text()
        assert '"adv_router":"10.99.0.99"' in log

    @pytest.mark.parametrize("file, text, message", [
        ("topology", b"[routers]\na eth0\nb eth0 \xff\n",
         "line 3: not valid UTF-8 (byte 0xff at column 8)"),
        ("scenario", b'[\n  {"time_s": 10, "kind": "\xff"}\n]\n',
         "line 2: not valid UTF-8 (byte 0xff at column 27)"),
        ("scenario", b'[\n  {"time_s": 10 "kind": "iface_down"}\n]\n',
         "line 2 column 17: scenario is not valid JSON: Expecting ',' delimiter"),
    ], ids=["topology-utf8", "scenario-utf8", "scenario-json"])
    def test_unreadable_input_file_exits_2_naming_path_and_line(self, tmp_path, capsys, file,
                                                               text, message):
        path = tmp_path / f"bad.{file}"
        path.write_bytes(text)
        files = {"topology": "paper16", "scenario": "quiet", file: path}
        assert run_cli("simulate", "--topology", files["topology"], "--scenario",
                       files["scenario"], "--duration", "100", "--out", tmp_path / "x") == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not (tmp_path / "x").exists()

    def test_scenario_event_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        scenario_path = tmp_path / "bad.json"
        scenario_path.write_text("[5]")
        assert run_cli("simulate", "--topology", "paper16", "--duration", "100",
                       "--scenario", scenario_path, "--out", tmp_path / "x") == 2
        assert "event 0: expected a JSON object" in capsys.readouterr().err


@pytest.fixture(scope="module")
def attack_capture(tmp_path_factory):
    """rcs1's event log of a paper-attacks run, and a pcap of the same events."""
    out = tmp_path_factory.mktemp("attack_sim")
    assert run_cli("simulate", "--topology", "paper16", "--scenario", "paper-attacks",
                   "--duration", "12000", "--seed", "1", "--out", out) == 0
    log = out / "events_rcs1.jsonl"
    pcap = out / "rcs1.pcap"
    pcap.write_bytes(oracle.lsa_pcap(ingest.read_lsa_log(log)))
    return log, pcap


def summary_counts(text):
    """The bin and event counts of an extract summary line, without its path."""
    return text.rsplit(" -> ", 1)[0]


class TestExtract:
    @pytest.mark.parametrize("flags", [
        [], ["--origin", "10.99.0.99"], ["--origin", "r9", "--topology", "paper16"],
        ["--ls-type", "1"], ["--ls-type", "3"], ["--include-acks"],
        ["--t0", "2000", "--t1", "5500"],
    ], ids=["monitor-only", "phantom-origin", "named-origin", "ls-type-1", "ls-type-3",
            "include-acks", "range"])
    def test_log_and_pcap_of_the_same_events_extract_alike(self, attack_capture, tmp_path,
                                                          capsys, flags):
        log, pcap = attack_capture
        common = ["--monitor", "rcs1", "--bin", "10", *flags]
        assert run_cli("extract", "--log", log, *common, "--out", tmp_path / "log.csv") == 0
        from_log = capsys.readouterr().out
        assert run_cli("extract", "--pcap", pcap, *common, "--out", tmp_path / "pcap.csv") == 0
        from_pcap = capsys.readouterr().out
        assert (tmp_path / "log.csv").read_bytes() == (tmp_path / "pcap.csv").read_bytes()
        assert summary_counts(from_log) == summary_counts(from_pcap)

    def test_origin_by_name_requires_topology(self, quiet_run, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run_cli("extract", "--log", quiet_run / "events_rcs1.jsonl",
                       "--origin", "abr1", "--out", out) == 2
        assert "topology" in capsys.readouterr().err

    # Digits that str.isdigit() takes but a router id never holds: Arabic-Indic
    # digits (which int() reads as 10) and a superscript (which int() refuses).
    @pytest.mark.parametrize("origin", ["\u0661\u0660.0.0.1", "1\u00b2.0.0.1"],
                             ids=["arabic-indic", "superscript"])
    @pytest.mark.parametrize("topology, message", [
        ((), "is not a dotted-quad router id"),
        (("--topology", "paper16"), "not present in topology"),
    ], ids=["no-topology", "topology"])
    def test_origin_with_non_ascii_digits_exits_2(self, quiet_run, tmp_path, capsys, origin,
                                                   topology, message):
        assert run_cli("extract", "--log", quiet_run / "events_rcs1.jsonl", "--origin", origin,
                       *topology, "--out", tmp_path / "x.csv") == 2
        assert f"origin {origin!r} {message}" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    # Router ids are matched as strings, so a dotted quad with a leading zero
    # would keep no event at all.
    @pytest.mark.parametrize("origin", ["010.0.0.1", "10.0.0.01"])
    @pytest.mark.parametrize("topology, message", [
        ((), "is not a dotted-quad router id"),
        (("--topology", "paper16"), "not present in topology"),
    ], ids=["no-topology", "topology"])
    def test_origin_with_leading_zeros_exits_2(self, quiet_run, tmp_path, capsys, origin,
                                               topology, message):
        assert run_cli("extract", "--log", quiet_run / "events_rcs1.jsonl", "--monitor", "rcs1",
                       "--origin", origin, *topology, "--out", tmp_path / "x.csv") == 2
        assert f"origin {origin!r} {message}" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_origin_name_resolution(self, quiet_run, tmp_path):
        out = tmp_path / "abr1.csv"
        assert run_cli("extract", "--log", quiet_run / "events_rcs1.jsonl",
                       "--monitor", "rcs1", "--origin", "abr1",
                       "--topology", "paper16", "--bin", "10",
                       "--t0", "0", "--t1", "21600", "--out", out) == 0
        series = ingest.read_series_csv(out)
        assert series.counts.sum() > 0

    def test_t0_below_int64_microseconds_bins_every_event(self, quiet_run, tmp_path):
        # t0 = -9.3e18 us lies below int64; the events lie in its second bin.
        out = tmp_path / "wide.csv"
        assert run_cli("extract", "--log", quiet_run / "events_rcs1.jsonl",
                       "--bin", "9000000000000", "--t0", "-9300000000000", "--out", out) == 0
        total = json.loads((quiet_run / "manifest.json").read_text())["monitor_totals"]["rcs1"]
        assert out.read_text().splitlines() == [
            "bin_index,t_start_s,count", "0,-9300000000000.000000,0",
            f"1,-300000000000.000000,{total}"]

    def test_ls_type_filter_and_empty_log(self, tmp_path):
        log = tmp_path / "empty.jsonl"
        log.write_text("")
        out = tmp_path / "empty.csv"
        assert run_cli("extract", "--log", log, "--bin", "10",
                       "--t0", "0", "--t1", "600", "--ls-type", "1",
                       "--out", out) == 0
        series = ingest.read_series_csv(out)
        assert series.counts.tolist() == [0] * 60

    @pytest.mark.parametrize("link_type", [1, 105])
    def test_header_only_capture(self, tmp_path, capsys, link_type):
        pcap = tmp_path / "empty.pcap"
        pcap.write_bytes(struct.pack("<IHHiIII", ingest.PCAP_MAGIC, 2, 4, 0, 0, 65535,
                                     link_type))
        out = tmp_path / "empty.csv"
        code = run_cli("extract", "--pcap", pcap, "--monitor", "m", "--bin", "10",
                       "--t0", "0", "--t1", "600", "--out", out)
        if link_type == 1:  # Ethernet: an empty capture is an all-zero series
            assert code == 0
            assert ingest.read_series_csv(out).counts.tolist() == [0] * 60
        else:
            assert code == 2 and not out.exists()
            assert f"{pcap}: unsupported link type 105" in capsys.readouterr().err

    def test_range_lands_on_the_microsecond_given(self, tmp_path, capsys):
        # 132770.186 * 1e6 is 132770185999.99998 in binary floating point; the
        # range must still start and end on whole µs 132770186000 and
        # 132790186000, so the events one µs before each edge fall outside.
        t0_us, t1_us = 132_770_186_000, 132_790_186_000
        log = tmp_path / "edges.jsonl"
        ingest.write_lsa_log(log, [
            ingest.LsaEvent(ts, "m", 1, "10.0.0.1", "10.0.0.1", 1, seq)
            for seq, ts in enumerate([t0_us - 1, t0_us, t1_us - 1, t1_us])
        ])
        out = tmp_path / "edges.csv"
        assert run_cli("extract", "--log", log, "--bin", "10", "--t0", "132770.186",
                       "--t1", "132790.186", "--out", out) == 0
        assert out.read_text().splitlines()[1:] == ["0,132770.186000,1", "1,132780.186000,1"]
        assert "2 events kept, 2 outside range" in capsys.readouterr().out

    def test_summary_accounts_for_every_event_read(self, tmp_path, capsys):
        log = tmp_path / "mixed.jsonl"
        ingest.write_lsa_log(log, [
            ingest.LsaEvent(5_000_000, "m", 1, "10.0.0.1", "10.0.0.1", 1, 7),
            ingest.LsaEvent(15_000_000, "m", 1, "10.0.0.2", "10.0.0.2", 1, 7),
            ingest.LsaEvent(25_000_000, "m", 1, "10.0.0.2", "10.0.0.2", 1, 7, is_ack=True),
            ingest.LsaEvent(35_000_000, "m", 3, "10.0.0.3", "10.0.0.9", 1, 7),
            ingest.LsaEvent(150_000_000, "m", 1, "10.0.0.1", "10.0.0.1", 1, 8),
        ])
        out = tmp_path / "m.csv"
        assert run_cli("extract", "--log", log, "--monitor", "m", "--ls-type", "1",
                       "--bin", "10", "--t0", "0", "--t1", "100", "--out", out) == 0
        assert capsys.readouterr().out == (
            f"10 bins (5 events read, 2 filtered out, 2 events kept, "
            f"1 outside range) -> {out}\n"
        )

    def test_bad_log_exits_2(self, tmp_path, capsys):
        log = tmp_path / "bad.jsonl"
        log.write_text('{"ts_us": 2}\n')
        assert run_cli("extract", "--log", log, "--out", tmp_path / "x.csv") == 2
        assert "line 1" in capsys.readouterr().err


PINNED_PARAMS = (
    '{"degenerate": false, "epsilon": 0.2, "epsilon_within_ten_percent_rule": true, '
    '"fnn": [0.078726968, 0.164983165, 0.340101523, 0.292517007, 0.227350427, '
    '0.170103093, 0.186528497, 0.230902778, 0.291448517, 0.350877193], "m": 6, '
    '"m_saturated": false, "mi": [0.019205777, 0.01591882, 0.012386718, 0.013039183, '
    '0.01722999, 0.012179632, 0.038259343, 0.022037726, 0.017346123, 0.021234931, '
    '0.020806954, 0.013593874, 0.024549526, 0.053475486, 0.028107738, 0.015255564, '
    '0.01719127, 0.157105362, 0.019593258, 0.025614129], '
    '"phase_space_diameter": 7.633181189, "tau": 3, "tau_fallback": false}'
)


class TestParams:
    def test_quiet_simulation_recovers_paper_parameters(self, quiet_series, capsys):
        assert run_cli("params", quiet_series, "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tau"] == 1
        assert report["m"] == 2
        assert report["epsilon_within_ten_percent_rule"] is True

    def test_ten_percent_rule_is_the_detect_warning(self, quiet_series, capsys):
        # 0.6 <= 0.1 * 5.999999999999999 holds, but 5.999999999999999 < 10 * 0.6
        # too: detect warns on that diameter, so params must not say it respects the rule.
        with mock.patch.object(rqa, "phase_space_diameter", return_value=5.999999999999999):
            assert run_cli("params", quiet_series, "--json", "--epsilon", "0.6") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["epsilon_within_ten_percent_rule"] is False

    def test_noisy_sine_quarter_period(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        t = np.arange(2000)
        x = np.sin(2 * np.pi * t / 20) + 0.05 * rng.normal(size=2000)
        counts = np.round(3 * (x + 2)).astype(int)
        path = tmp_path / "sine.csv"
        ingest.write_series_csv(path, ingest.CountSeries(0, 10, counts))
        assert run_cli("params", path, "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["tau"] - 5) <= 1
        assert report["m"] in (2, 3)

    def test_constant_series_degenerate_exit_0(self, tmp_path, capsys):
        path = tmp_path / "const.csv"
        ingest.write_series_csv(path, ingest.CountSeries(0, 10, np.full(400, 4)))
        assert run_cli("params", path) == 0
        assert "constant" in capsys.readouterr().out

    def test_too_short_exits_2(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        ingest.write_series_csv(path, ingest.CountSeries(0, 10, np.arange(5)))
        assert run_cli("params", path) == 2
        assert "too short" in capsys.readouterr().err

    @pytest.mark.parametrize("epsilon", ["-1", "0"])
    def test_non_positive_epsilon_exits_2_before_estimating(self, tmp_path, capsys, epsilon):
        path = write_small_series(tmp_path / "s.csv")
        with mock.patch.object(rqa, "mutual_information",
                               side_effect=AssertionError("estimation ran")):
            assert run_cli("params", path, "--epsilon", epsilon, "--json") == 2
        captured = capsys.readouterr()
        assert "epsilon must be > 0" in captured.err
        assert captured.out == ""

    def test_json_report_pinned(self, tmp_path, capsys):
        # Frozen output: MI, FNN (nearest neighbors with lowest-index ties)
        # and the diameter of a six-dimensional embedding must not drift
        # by a single digit.
        rng = np.random.default_rng(2018)
        t = np.arange(600)
        counts = rng.poisson(0.4, size=600) + 3 * (t % 18 == 0) + (t % 7 == 3)
        path = tmp_path / "pin.csv"
        ingest.write_series_csv(path, ingest.CountSeries(0, 10, counts))
        assert run_cli("params", path, "--json") == 0
        assert capsys.readouterr().out == PINNED_PARAMS + "\n"


class TestDetect:
    def test_quiet_per_origin_series_no_alerts(self, quiet_run, tmp_path):
        # per-originator monitoring is what the default floors are sized for
        series = tmp_path / "abr1.csv"
        assert run_cli("extract", "--log", quiet_run / "events_rcs1.jsonl",
                       "--monitor", "rcs1", "--origin", "abr1",
                       "--topology", "paper16", "--bin", "10",
                       "--t0", "0", "--t1", "21600", "--out", series) == 0
        out = tmp_path / "det"
        assert run_cli("detect", series, "--out", out, "--fail-on-alert") == 0
        assert (out / "measures.csv").exists()
        assert (out / "alerts.jsonl").read_text() == ""

    def test_quiet_all_origin_series_needs_scaled_floors(self, quiet_series, tmp_path):
        # unfiltered series swing harder between refresh alignments; the
        # documented answer is a floor scale-up
        assert run_cli("detect", quiet_series, "--out", tmp_path / "raw",
                       "--fail-on-alert") == 1
        assert run_cli("detect", quiet_series, "--out", tmp_path / "scaled",
                       "--floor-scale", "12", "--fail-on-alert") == 0

    def test_summary_prints_epsilon_warnings(self, tmp_path, capsys):
        # z-scored range 2 and diameter 2*sqrt(2) < 10 * 0.5: every window warns.
        path = tmp_path / "alternating.csv"
        series = ingest.CountSeries(0, 10, np.array([0, 1] * 50))
        ingest.write_series_csv(path, series)
        out = tmp_path / "d"
        assert run_cli("detect", path, "--out", out, "--window", "10",
                       "--baseline", "10", "--epsilon", "0.5") == 0
        ms = detect.sliding_rqa(series, detect.DetectorConfig(
            window_bins=10, baseline_bins=10, embed=rqa.EmbedParams(epsilon=0.5)))
        assert ms.epsilon_warnings == 91
        assert capsys.readouterr().out == (
            f"91 windows analyzed, 0 alerts (0 degenerate windows, 91 epsilon warnings)"
            f" -> {out}\n")
        assert run_cli("detect", path, "--out", out, "--window", "10",
                       "--baseline", "10") == 0
        assert "(0 degenerate windows, 0 epsilon warnings)" in capsys.readouterr().out

    def test_window_longer_than_series_exits_2(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        ingest.write_series_csv(path, ingest.CountSeries(0, 10, np.arange(50)))
        assert run_cli("detect", path, "--out", tmp_path / "d") == 2

    def test_uneven_series_exits_2(self, tmp_path, capsys):
        path = tmp_path / "uneven.csv"
        rows = [f"{i},{10 * i}.000000,{i % 3}" for i in range(300)]
        rows[250] = "250,2505.000000,1"
        path.write_text("bin_index,t_start_s,count\n" + "\n".join(rows) + "\n")
        assert run_cli("detect", path, "--out", tmp_path / "d") == 2
        assert "line 252: uneven spacing" in capsys.readouterr().err
        assert not (tmp_path / "d" / "measures.csv").exists()

    @pytest.mark.parametrize("command", ["detect", "params"])
    @pytest.mark.parametrize("count", ["-4", "9" * 30])
    def test_count_outside_int64_exits_2(self, tmp_path, capsys, command, count):
        path = tmp_path / "bad_count.csv"
        rows = [f"{i},{10 * i}.000000,{i % 3}" for i in range(300)]
        rows[50] = f"50,500.000000,{count}"
        path.write_text("bin_index,t_start_s,count\n" + "\n".join(rows) + "\n")
        out = ("--out", tmp_path / "d") if command == "detect" else ()
        assert run_cli(command, path, *out) == 2
        assert f"{path}: line 52: count {count} is outside" in capsys.readouterr().err
        assert not (tmp_path / "d" / "measures.csv").exists()

    # Fields that int() and float() read as the right value but that the
    # writer never writes: "_" separators, non-ASCII digits, signs, blanks,
    # exponents, leading zeros, and other than six decimals.
    @pytest.mark.parametrize("row", [
        "50,500.000000,1_0", "50,500.000000,٣", "50,500.000000,+1", "50,500.000000, 2",
        "٥٠,500.000000,1", "50 ,500.000000,1", "50,50_0.000000,1", "50,٥00.000000,1",
        # Times other than %.6f of the start: float() reads all of these as 500.
        "50,+500.000000,1", "50, 500.000000,1", "50,5e2,1", "50,500.,1", "50,500,1",
        "50,0500.000000,1", "50,500.0000000,1",
    ])
    def test_numbers_the_writer_never_writes_exit_2(self, tmp_path, capsys, row):
        path = tmp_path / "loose.csv"
        rows = [f"{i},{10 * i}.000000,{i % 3}" for i in range(300)]
        rows[50] = row
        path.write_text("bin_index,t_start_s,count\n" + "\n".join(rows) + "\n",
                        encoding="utf-8")
        assert run_cli("detect", path, "--out", tmp_path / "d") == 2
        assert (f"{path}: line 52: expected bin_index,t_start_s,count, got {row!r}"
                in capsys.readouterr().err)
        assert not (tmp_path / "d" / "measures.csv").exists()

    @pytest.mark.parametrize("command", ["detect", "params"])
    def test_series_not_utf8_exits_2_naming_line_and_byte(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.csv"
        rows = [f"{i},{10 * i}.000000,{i % 3}".encode() for i in range(300)]
        rows[50] = b"50,500.000000,\xff"
        path.write_bytes(b"bin_index,t_start_s,count\n" + b"\n".join(rows) + b"\n")
        out = ("--out", tmp_path / "d") if command == "detect" else ()
        assert run_cli(command, path, *out) == 2
        assert capsys.readouterr().err == \
            f"error: {path}: line 52: not valid UTF-8 (byte 0xff at column 15)\n"
        assert not (tmp_path / "d" / "measures.csv").exists()

    def test_fail_on_alert_fires(self, tmp_path):
        rng = np.random.default_rng(1)
        counts = rng.poisson(0.05, size=900)
        counts[::180] = 1
        counts[700:704] += 30
        path = tmp_path / "burst.csv"
        ingest.write_series_csv(path, ingest.CountSeries(0, 10, counts))
        out = tmp_path / "d2"
        assert run_cli("detect", path, "--out", out, "--fail-on-alert") == 1
        alerts = [json.loads(l) for l in (out / "alerts.jsonl").read_text().splitlines()]
        assert alerts
        assert all(a["severity"] >= 6.0 for a in alerts)

    def test_measure_subset_and_scale(self, quiet_series, tmp_path):
        out = tmp_path / "d3"
        assert run_cli("detect", quiet_series, "--out", out,
                       "--measures", "rr,w_entr", "--floor-scale", "2.0") == 0
        cfg = (out / "run_config.cfg").read_text()
        assert "measures = rr,w_entr" in cfg
        assert "floor_scale = 2" in cfg

    def test_repeated_measure_exits_2_naming_it(self, quiet_series, tmp_path, capsys):
        out = tmp_path / "repeated"
        assert run_cli("detect", quiet_series, "--out", out, "--measures", "rr,det,rr") == 2
        assert "measures listed more than once: ['rr']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_empty_measure_list_exits_2_naming_it(self, quiet_series, tmp_path, capsys, where):
        out = tmp_path / "empty"
        if where == "flag":
            given = ("--measures", "")
        else:
            cfg = tmp_path / "empty.cfg"
            cfg.write_text("measures =\n")
            given = ("--config", cfg)
        assert run_cli("detect", quiet_series, "--out", out, *given) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --measures '': name at least one of rr,det,")
        assert captured.out == ""
        assert not out.exists()

    def test_config_echo_round_trip(self, quiet_series, tmp_path):
        first = tmp_path / "first"
        assert run_cli("detect", quiet_series, "--out", first, "--baseline", "40") == 0
        echoed = first / "run_config.cfg"
        second = tmp_path / "second"
        assert run_cli("detect", quiet_series, "--config", echoed,
                       "--out", second) == 0
        assert (first / "measures.csv").read_bytes() == (second / "measures.csv").read_bytes()
        assert (first / "alerts.jsonl").read_bytes() == (second / "alerts.jsonl").read_bytes()

    def test_config_echo_replay_with_out_key(self, quiet_series, tmp_path):
        # The echo names the series and the output directory; replaying it
        # with no other flag rewrites the same bytes in the same place.
        out = tmp_path / "det"
        assert run_cli("detect", quiet_series, "--out", out, "--baseline", "40",
                       "--floor-scale", "12", "--fail-on-alert") == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        (out / "alerts.jsonl").unlink()
        assert run_cli("detect", quiet_series, "--config", out / "run_config.cfg") == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


class TestStrictConfig:
    @pytest.mark.parametrize("command, line", [
        ("detect", "windw = 100"),
        ("detect", "k-mad = 3"),
        ("params", "window = 100"),
        ("params", "series = x.csv"),
        ("extract", "ls_type = 1"),
        ("simulate", "dration = 100"),
    ])
    def test_unknown_key_names_file_line_and_key(self, quiet_series, tmp_path,
                                                 capsys, command, line):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("# settings\n\n" + line + "\n")
        args = {
            "detect": (quiet_series, "--out", tmp_path / "d"),
            "params": (quiet_series,),
            "extract": ("--log", tmp_path / "none.jsonl", "--out", tmp_path / "x.csv"),
            "simulate": ("--topology", "paper16", "--duration", "100",
                         "--out", tmp_path / "s"),
        }[command]
        assert run_cli(command, *args, "--config", cfg) == 2
        key = line.split("=")[0].strip()
        assert f"{cfg}:3: {key}: unknown key" in capsys.readouterr().err
        assert not (tmp_path / "d").exists() and not (tmp_path / "s").exists()

    @pytest.mark.parametrize("value", ["ture", "2", "yes please", ""])
    def test_bad_boolean_exits_2(self, quiet_series, tmp_path, capsys, value):
        cfg = tmp_path / "bool.cfg"
        cfg.write_text(f"window = 100\nfail_on_alert = {value}\n")
        assert run_cli("detect", quiet_series, "--out", tmp_path / "d", "--config", cfg) == 2
        assert f"{cfg}:2: fail_on_alert = {value!r}" in capsys.readouterr().err

    def test_bad_number_exits_2(self, quiet_series, tmp_path, capsys):
        cfg = tmp_path / "num.cfg"
        cfg.write_text("window = 2OO\n")
        assert run_cli("detect", quiet_series, "--out", tmp_path / "d", "--config", cfg) == 2
        assert f"{cfg}:1: window = '2OO'" in capsys.readouterr().err

    def test_config_not_utf8_exits_2_naming_line_and_byte(self, quiet_series, tmp_path,
                                                          capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"# r\xe9glages\r\nwindow = 100\r\nk_mad = 6\xff\r\n")
        assert run_cli("detect", quiet_series, "--out", tmp_path / "d", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert err == f"error: {cfg}:1: not valid UTF-8 (byte 0xe9 at column 4)\n"
        cfg.write_bytes(b"window = 100\rk_mad = 6\xff\n")  # a lone CR ends a line too
        assert run_cli("detect", quiet_series, "--out", tmp_path / "d", "--config", cfg) == 2
        assert f"{cfg}:2: not valid UTF-8 (byte 0xff at column 10)" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_config_with_crlf_lines_reads_as_with_lf(self, quiet_series, tmp_path):
        cfg = tmp_path / "crlf.cfg"
        cfg.write_bytes(b"# settings\r\nwindow = 100\r\nmeasures = rr,det\r\n")
        assert run_cli("detect", quiet_series, "--out", tmp_path / "d", "--config", cfg) == 0
        assert "window = 100" in (tmp_path / "d" / "run_config.cfg").read_text()

    @pytest.mark.parametrize("value, expected", [
        ("true", 1), ("On", 1), ("YES", 1), ("1", 1),
        ("false", 0), ("off", 0), ("No", 0), ("0", 0),
    ])
    def test_booleans_accepted(self, tmp_path, value, expected):
        rng = np.random.default_rng(1)
        counts = rng.poisson(0.05, size=900)
        counts[::180] = 1
        counts[700:704] += 30
        path = tmp_path / "burst.csv"
        ingest.write_series_csv(path, ingest.CountSeries(0, 10, counts))
        cfg = tmp_path / "b.cfg"
        cfg.write_text(f"fail_on_alert = {value}\n")
        assert run_cli("detect", path, "--out", tmp_path / "d", "--config", cfg) == expected


# (command, flag, value, message): values every command must reject.
OUT_OF_RANGE = [
    ("simulate", "duration", "-5", "below the minimum 0"),
    ("simulate", "duration", "nan", "not a finite number"),
    ("simulate", "jitter", "-1", "below the minimum 0"),
    ("simulate", "jitter", "inf", "not a finite number"),
    ("detect", "epsilon", "nan", "not a finite number"),
    ("detect", "k_mad", "inf", "not a finite number"),
    ("detect", "floor_scale", "nan", "not a finite number"),
    ("params", "epsilon", "inf", "not a finite number"),
    ("params", "m_max", "0", "below the minimum 1"),
    ("params", "tau_max", "0", "below the minimum 1"),
]


class TestRanges:
    def args(self, command, tmp_path):
        series = write_small_series(tmp_path / "s.csv")
        return {
            "simulate": ("--topology", "paper16", "--duration", "100", "--out", tmp_path / "o"),
            "detect": (series, "--out", tmp_path / "o"),
            "params": (series,),
        }[command]

    @pytest.mark.parametrize("command, key, value, message", OUT_OF_RANGE)
    def test_flag_out_of_range_exits_2_naming_it(self, tmp_path, capsys,
                                                 command, key, value, message):
        flag = "--" + key.replace("_", "-")
        assert run_cli(command, *self.args(command, tmp_path), flag, value) == 2
        assert f"{flag} {value}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, key, value, message", OUT_OF_RANGE)
    def test_config_out_of_range_exits_2_naming_it(self, tmp_path, capsys,
                                                   command, key, value, message):
        cfg = tmp_path / "range.cfg"
        cfg.write_text(f"{key} = {value}\n")
        assert run_cli(command, *self.args(command, tmp_path), "--config", cfg) == 2
        assert f"{cfg}:1: {key} = {value!r}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_jitter_past_the_refresh_interval_exits_2_before_writing(self, tmp_path, capsys):
        # A refresh could fall before the origination that scheduled it.
        assert run_cli("simulate", *self.args("simulate", tmp_path), "--jitter", "2500") == 2
        assert "refresh jitter 2500.0 s outside [0, 1800] s" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        assert run_cli("simulate", *self.args("simulate", tmp_path), "--jitter", "1800") == 0

    def test_minimum_itself_is_accepted(self, tmp_path):
        assert run_cli("simulate", "--topology", "paper16", "--duration", "0",
                       "--jitter", "0", "--out", tmp_path / "o") == 0
        assert run_cli("params", write_small_series(tmp_path / "s.csv"), "--m-max", "1") == 0


def write_small_series(path, bins=400):
    ingest.write_series_csv(path, ingest.CountSeries(
        0, 10, (np.arange(bins) % 7 == 0).astype(int)))
    return path


def read_echo(path):
    return dict(line.split(" = ", 1) for line in path.read_text().splitlines())


PINNED_DETECT_ECHO = """\
baseline = 60
epsilon = 0.2
fail_on_alert = false
floor_scale = 1
k_mad = 6
m = 2
measures = rr,det,l_max,l_mean,l_entr,tt,v_entr,t2,w_entr
norm = euclidean
out = {out}
series = {series}
step = 1
tau = 1
window = 200
"""

PINNED_SIMULATE_ECHO = """\
duration = 115200
jitter = 30
out = {out}
scenario = paper-failure
seed = 11
topology = paper16
"""

# Arguments that are not settings: they have no config key and no echo.
FLAG_ONLY = {"command", "config", "json", "ls_type", "series"}
# Echoed for the record and accepted, unused, from a config file.
ECHO_ONLY = {"detect": {"series"}}


class TestOptionTable:
    def test_detect_echo_at_defaults_pinned(self, tmp_path):
        series = write_small_series(tmp_path / "s.csv")
        out = tmp_path / "det"
        assert run_cli("detect", series, "--out", out) == 0
        assert (out / "run_config.cfg").read_text() == \
            PINNED_DETECT_ECHO.format(out=out, series=series)

    def test_simulate_echo_of_failure_workload_pinned(self, tmp_path):
        out = tmp_path / "sim"
        assert run_cli("simulate", "--topology", "paper16", "--scenario", "paper-failure",
                       "--duration", "115200", "--seed", "11", "--out", out) == 0
        assert (out / "run_config.cfg").read_text() == PINNED_SIMULATE_ECHO.format(out=out)

    def test_main_runs_the_cmd_function_bound_at_call_time(self, monkeypatch):
        # Tracers replace cli.cmd_* by name; the parser is built once.
        ran = []
        monkeypatch.setattr(cli, "cmd_detect", lambda args: ran.append(args.series) or 0)
        assert run_cli("detect", "a.csv") == 0
        assert run_cli("detect", "b.csv") == 0
        assert ran == ["a.csv", "b.csv"]

    @pytest.mark.parametrize("command", ["simulate", "extract", "params", "detect"])
    def test_flags_config_keys_and_echo_agree(self, tmp_path, capsys, command):
        positional = ["x.csv"] if command in ("params", "detect") else []
        dests = set(vars(build_parser().parse_args([command, *positional])))
        settings = dests - FLAG_ONLY

        with pytest.raises(SystemExit):
            run_cli(command, *positional, "--help")
        help_text = capsys.readouterr().out
        assert all("--" + name.replace("_", "-") in help_text for name in settings)

        cfg = tmp_path / "probe.cfg"
        cfg.write_text("no_such_key = 1\n")
        assert run_cli(command, *positional, "--config", cfg) == 2
        known = re.search(r"\(known: (.*)\)", capsys.readouterr().err).group(1)
        assert set(known.split(", ")) == settings | ECHO_ONLY.get(command, set())

        if command == "simulate":
            out = tmp_path / "sim"
            assert run_cli("simulate", "--topology", "paper16", "--duration", "100",
                           "--out", out) == 0
        elif command == "detect":
            out = tmp_path / "det"
            assert run_cli("detect", write_small_series(tmp_path / "s.csv"),
                           "--out", out) == 0
        else:
            return
        assert set(read_echo(out / "run_config.cfg")) == set(known.split(", "))

    def test_float_echo_replays_byte_identical(self, tmp_path):
        out = tmp_path / "sim"
        assert run_cli("simulate", "--topology", "paper16", "--duration", "1000.0001",
                       "--seed", "3", "--out", out) == 0
        assert read_echo(out / "run_config.cfg")["duration"] == "1000.0001"
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        for p in out.iterdir():
            if p.name != "run_config.cfg":
                p.unlink()
        assert run_cli("simulate", "--config", out / "run_config.cfg") == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("command, flag, value", [
        *((command, "--out", value) for command in ("simulate", "detect")
          for value in ("det#1", "det\n1", "det\r1", " det", "det ", "det\udcff")),
        ("simulate", "--topology", "paper16#x"), ("simulate", "--scenario", "quiet "),
    ])
    def test_value_the_echo_cannot_replay_exits_2_before_writing(self, tmp_path, capsys,
                                                                 monkeypatch, command, flag,
                                                                 value):
        # The config reader cuts a line at '#', splits at line breaks and
        # strips edge spaces, so the echo would replay another value; and a
        # name from a byte that is not UTF-8 cannot be written to it.
        monkeypatch.chdir(tmp_path)
        series = write_small_series(tmp_path / "s.csv")
        argv = {"simulate": ["--topology", "paper16", "--duration", "100", "--out", "o"],
                "detect": [series, "--out", "o"]}[command]
        assert run_cli(command, *argv, flag, value) == 2
        assert f"{flag} {value!r}: run_config.cfg cannot echo" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["s.csv"]

    @pytest.mark.parametrize("name", ["s\udcff.csv", "s#1.csv"])
    def test_series_the_echo_cannot_replay_exits_2_before_writing(self, tmp_path, capsys,
                                                                 monkeypatch, name):
        # The series path is echoed though it is no setting, so it is checked
        # like one: a name from a byte that is not UTF-8, or with a '#'.
        monkeypatch.chdir(tmp_path)
        write_small_series(tmp_path / name)
        assert run_cli("detect", name, "--out", "o") == 2
        assert f"series {name!r}: run_config.cfg cannot echo" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == [name]

    @pytest.mark.parametrize("command", ["simulate", "detect"])
    def test_out_from_the_environment_the_echo_cannot_replay_exits_2(self, tmp_path, capsys,
                                                                     monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("OSPFRQA_OUT", "x#y")
        series = write_small_series(tmp_path / "s.csv")
        argv = {"simulate": ["--topology", "paper16", "--duration", "100"],
                "detect": [series]}[command]
        assert run_cli(command, *argv) == 2
        assert "--out 'x#y': run_config.cfg cannot echo" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["s.csv"]

    def test_out_with_an_inner_space_replays_byte_identical(self, tmp_path):
        out = tmp_path / "det 1"
        assert run_cli("detect", write_small_series(tmp_path / "s.csv"), "--out", out,
                       "--baseline", "40") == 0
        assert read_echo(out / "run_config.cfg")["out"] == str(out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        (out / "measures.csv").unlink()
        assert run_cli("detect", tmp_path / "s.csv", "--config", out / "run_config.cfg") == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["det 1", "s.csv"]

    def test_detect_echo_parses_back_to_exact_floats(self, tmp_path):
        passed = {"epsilon": 0.12345678, "k_mad": 6.0000001, "floor_scale": 1.0000000000000002}
        out = tmp_path / "det"
        assert run_cli("detect", write_small_series(tmp_path / "s.csv"), "--out", out,
                       *(x for k, v in passed.items()
                         for x in ("--" + k.replace("_", "-"), repr(v)))) == 0
        echo = read_echo(out / "run_config.cfg")
        assert {k: float(echo[k]) for k in passed} == passed

    @given(st.floats(allow_nan=False))
    def test_float_format_round_trips(self, value):
        assert float(format_setting(value)) == value

    @pytest.mark.parametrize("bin_size", ["0", "-10"])
    def test_extract_bin_below_one_exits_2(self, tmp_path, capsys, bin_size):
        log = tmp_path / "one.jsonl"
        ingest.write_lsa_log(log, [ingest.LsaEvent(5_000_000, "m1", 1, "10.0.0.1",
                                                   "10.0.0.1", 3, 1, False)])
        out = tmp_path / "x.csv"
        assert run_cli("extract", "--log", log, "--bin", bin_size, "--out", out) == 2
        err = capsys.readouterr().err
        assert "bin" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("via_config", [False, True])
    def test_extract_bin_past_int64_microseconds_exits_2(self, tmp_path, capsys, via_config):
        log = tmp_path / "one.jsonl"
        ingest.write_lsa_log(log, [ingest.LsaEvent(5_000_000, "m1", 1, "10.0.0.1",
                                                   "10.0.0.1", 3, 1, False)])
        cfg = tmp_path / "bin.cfg"
        cfg.write_text("bin = 9223372036855\n")
        bin_args = ("--config", cfg) if via_config else ("--bin", "9223372036855")
        out = tmp_path / "x.csv"
        assert run_cli("extract", "--log", log, *bin_args, "--out", out) == 2
        err = capsys.readouterr().err
        assert "bin size 9223372036855 s is too large" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("t0, t1", [
        ("-1e300", "100"),  # past numpy's dimension limit
        ("0", "4.7e18"),  # past numpy's byte-size limit
    ])
    def test_extract_more_bins_than_an_array_holds_exits_2(self, tmp_path, capsys, t0, t1):
        t0_us, t1_us = (round(float(t) * 1e6) for t in (t0, t1))  # as extract reads them
        bins = -((t0_us - t1_us) // 10**6)
        log = tmp_path / "one.jsonl"
        ingest.write_lsa_log(log, [ingest.LsaEvent(5_000_000, "m1", 1, "10.0.0.1",
                                                   "10.0.0.1", 3, 1, False)])
        out = tmp_path / "x.csv"
        assert run_cli("extract", "--log", log, "--bin", "1", f"--t0={t0}", "--t1", t1,
                       "--out", out) == 2
        err = capsys.readouterr().err
        assert f"error: {bins} bins of 1 s over [{t0_us}, {t1_us}) us" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("t0", "-1e303"), ("t1", "1e305")])
    def test_extract_time_past_microseconds_exits_2_naming_the_flag(self, tmp_path, capsys,
                                                                     flag, value):
        log = tmp_path / "one.jsonl"
        ingest.write_lsa_log(log, [ingest.LsaEvent(5_000_000, "m1", 1, "10.0.0.1",
                                                   "10.0.0.1", 3, 1, False)])
        out = tmp_path / "x.csv"
        assert run_cli("extract", "--log", log, "--bin", "10", f"--{flag}={value}",
                       "--out", out) == 2
        assert capsys.readouterr().err == \
            f"error: --{flag} {float(value):g}: too large to count in microseconds\n"
        assert not out.exists()

    def test_detect_on_directory_exits_2(self, tmp_path, capsys):
        assert run_cli("detect", tmp_path, "--out", tmp_path / "d") == 2
        assert "error" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_duplicate_config_key_exits_2(self, tmp_path, capsys):
        series = write_small_series(tmp_path / "s.csv")
        cfg = tmp_path / "dup.cfg"
        cfg.write_text("window = 100\n# again\nwindow = 300\n")
        assert run_cli("detect", series, "--out", tmp_path / "d", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:3: window: duplicate key" in err and "line 1" in err
        assert not (tmp_path / "d").exists()
