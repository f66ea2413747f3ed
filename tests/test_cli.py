"""End-to-end command-line pipeline tests (exit codes, artifacts, determinism)."""

import json

import numpy as np
import pytest

from ospfrqa import ingest
from ospfrqa.cli import main


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

    def test_env_var_default_out(self, tmp_path, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv("OSPFRQA_OUT", str(target))
        assert run_cli("simulate", "--topology", "paper16", "--duration", "100",
                       "--seed", "1") == 0
        assert (target / "manifest.json").exists()

    def test_scenario_json_file(self, tmp_path):
        from ospfrqa import sim
        scenario_path = tmp_path / "flap.json"
        scenario_path.write_text(sim.scenario_to_json([
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
        from ospfrqa import sim
        scenario_path = tmp_path / "bad.json"
        scenario_path.write_text(sim.scenario_to_json([
            sim.ScenarioEvent(600.0, "iface_down", {"node": "ghost", "iface": "eth0"}),
        ]))
        assert run_cli("simulate", "--topology", "paper16",
                       "--scenario", scenario_path,
                       "--duration", "1200", "--out", tmp_path / "x") == 2
        assert "ghost" in capsys.readouterr().err


class TestExtract:
    def test_origin_by_name_requires_topology(self, quiet_run, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run_cli("extract", "--log", quiet_run / "events_rcs1.jsonl",
                       "--origin", "abr1", "--out", out) == 2
        assert "topology" in capsys.readouterr().err

    def test_origin_name_resolution(self, quiet_run, tmp_path):
        out = tmp_path / "abr1.csv"
        assert run_cli("extract", "--log", quiet_run / "events_rcs1.jsonl",
                       "--monitor", "rcs1", "--origin", "abr1",
                       "--topology", "paper16", "--bin", "10",
                       "--t0", "0", "--t1", "21600", "--out", out) == 0
        series = ingest.read_series_csv(out)
        assert series.counts.sum() > 0

    def test_ls_type_filter_and_empty_log(self, tmp_path):
        log = tmp_path / "empty.jsonl"
        log.write_text("")
        out = tmp_path / "empty.csv"
        assert run_cli("extract", "--log", log, "--bin", "10",
                       "--t0", "0", "--t1", "600", "--ls-type", "1",
                       "--out", out) == 0
        series = ingest.read_series_csv(out)
        assert series.counts.tolist() == [0] * 60

    def test_bad_log_exits_2(self, tmp_path, capsys):
        log = tmp_path / "bad.jsonl"
        log.write_text('{"ts_us": 2}\n')
        assert run_cli("extract", "--log", log, "--out", tmp_path / "x.csv") == 2
        assert "line 1" in capsys.readouterr().err


class TestParams:
    def test_quiet_simulation_recovers_paper_parameters(self, quiet_series, capsys):
        assert run_cli("params", quiet_series, "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tau"] == 1
        assert report["m"] == 2
        assert report["epsilon_within_ten_percent_rule"] is True

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

    def test_window_longer_than_series_exits_2(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        ingest.write_series_csv(path, ingest.CountSeries(0, 10, np.arange(50)))
        assert run_cli("detect", path, "--out", tmp_path / "d") == 2

    def test_uneven_series_exits_2(self, tmp_path, capsys):
        path = tmp_path / "uneven.csv"
        rows = [f"{i},{10 * i},{i % 3}" for i in range(300)]
        rows[250] = "250,2505,1"
        path.write_text("bin_index,t_start_s,count\n" + "\n".join(rows) + "\n")
        assert run_cli("detect", path, "--out", tmp_path / "d") == 2
        assert "line 252: uneven spacing" in capsys.readouterr().err
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

    def test_config_echo_round_trip(self, quiet_series, tmp_path):
        first = tmp_path / "first"
        assert run_cli("detect", quiet_series, "--out", first, "--baseline", "40") == 0
        echoed = first / "run_config.cfg"
        second = tmp_path / "second"
        assert run_cli("detect", quiet_series, "--config", echoed,
                       "--out", second) == 0
        assert (first / "measures.csv").read_bytes() == (second / "measures.csv").read_bytes()
        assert (first / "alerts.jsonl").read_bytes() == (second / "alerts.jsonl").read_bytes()
