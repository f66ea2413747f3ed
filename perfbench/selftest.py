"""Tests of the benchmark's own checker and tracer (kept out of the tier-1 suite).

Run from the root of a checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import child  # noqa: E402  (needs src on the path)
import layertrace  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from ospfrqa import cli, ingest  # noqa: E402


def mini_chain(seed: int, run) -> None:
    """A 2000 s quiet run: just long enough for one detection window."""
    Path("series").mkdir()
    run("simulate", ["simulate", "--topology", "paper16", "--scenario", "quiet",
                     "--duration", "2000", "--seed", str(seed), "--out", "sim"])
    run("extract", ["extract", "--log", "sim/events_rcs1.jsonl", "--monitor", "rcs1",
                    "--bin", "10", "--t0", "0", "--t1", "2000", "--out", "series/rcs1.csv"])
    run("detect", ["detect", "series/rcs1.csv", "--baseline", "10", "--out", "det"])


MINI = workloads.Workload("mini", 0, "paper16", mini_chain,
                          lambda d, s: [], lambda d, s: [],
                          lambda d: [d / "series" / "rcs1.csv"])


class TempDirCase(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.tmp = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()


class DigestCheckTest(TempDirCase):
    def test_tampered_artifact_fails_only_its_group(self):
        work = self.tmp / "mini"
        p = child.run_chain(MINI, 3, work)
        self.assertTrue(all(rc == 0 for _cmd, rc in p["exits"]))
        recorded = child.artifact_digests(work)
        self.assertEqual(set(recorded), {"alerts.jsonl", "manifest.json", "measures.csv",
                                         "run_config.cfg", "series CSVs", "simulator logs"})
        checks = child.compare_digests(child.artifact_digests(work), recorded, "recorded")
        self.assertTrue(all(ok for _label, ok in checks))

        for rel, group in [("det/measures.csv", "measures.csv"),
                           ("sim/events_r7.jsonl", "simulator logs"),
                           ("series/rcs1.csv", "series CSVs"),
                           ("det/run_config.cfg", "run_config.cfg")]:
            path = work / rel
            original = path.read_bytes()
            path.write_bytes(original[:-2] + b"9\n")
            failed = [label for label, ok in
                      child.compare_digests(child.artifact_digests(work), recorded, "recorded")
                      if not ok]
            self.assertEqual(failed, [f"{group} match recorded"], rel)
            path.write_bytes(original)

        (work / "det" / "alerts.jsonl").unlink()
        failed = [label for label, ok in
                  child.compare_digests(child.artifact_digests(work), recorded, "recorded")
                  if not ok]
        self.assertEqual(failed, ["alerts.jsonl match recorded"])

    def test_same_seed_same_digests_other_seed_differs(self):
        a = child.artifact_digests(self._run(5, "a"))
        self.assertEqual(a, child.artifact_digests(self._run(5, "b")))
        self.assertNotEqual(a["simulator logs"], child.artifact_digests(self._run(6, "c"))["simulator logs"])

    def _run(self, seed, name):
        work = self.tmp / name
        child.run_chain(MINI, seed, work)
        return work


class SemanticCheckTest(TempDirCase):
    def write_alerts(self, bins):
        det = self.tmp / "det"
        det.mkdir(exist_ok=True)
        (det / "alerts.jsonl").write_text("".join(json.dumps({"bin_index": b}) + "\n" for b in bins))

    def test_failure_latency(self):
        self.write_alerts([1440, 1500, 2881, 4322, 5760])
        self.assertTrue(all(ok for _l, ok in workloads.failure_semantic(self.tmp, 11)))
        self.write_alerts([1439, 2881, 4322, 5760])  # early alert near the first flap
        failed = [l for l, ok in workloads.failure_semantic(self.tmp, 11) if not ok]
        self.assertEqual(failed, ["first alert within +2 bins of bin 1440"])
        self.write_alerts([1440, 2883, 4322, 5760])  # late by three bins
        failed = [l for l, ok in workloads.failure_semantic(self.tmp, 11) if not ok]
        self.assertEqual(failed, ["first alert within +2 bins of bin 2880"])

    def test_capture_pcap_mismatch_and_conservation(self):
        for sub in ("series/log", "series/pcap", "sim"):
            (self.tmp / sub).mkdir(parents=True)
        for mon in ("s1", "s2"):
            for sub in ("log", "pcap"):
                (self.tmp / "series" / sub / f"{mon}.csv").write_text(
                    "bin_index,t_start_s,count\n0,0.000000,2\n1,10.000000,1\n")
        (self.tmp / "sim" / "manifest.json").write_text(
            json.dumps({"monitor_totals": {"s1": 3, "s2": 3}}))
        self.assertTrue(all(ok for _l, ok in workloads.capture_invariants(self.tmp, 7)))
        (self.tmp / "series" / "pcap" / "s2.csv").write_text(
            "bin_index,t_start_s,count\n0,0.000000,2\n1,10.000000,2\n")
        (self.tmp / "sim" / "manifest.json").write_text(
            json.dumps({"monitor_totals": {"s1": 3, "s2": 4}}))
        failed = [l for l, ok in workloads.capture_invariants(self.tmp, 7) if not ok]
        self.assertEqual(failed, ["pcap series equals log series for s2",
                                  "all monitor totals equal (conservation)"])


class PcapSynthesisTest(TempDirCase):
    def test_pcap_decodes_to_the_logged_events(self):
        events = [
            ingest.LsaEvent(1_000_001, "m", 1, "10.0.0.1", "10.0.0.1", 3, -(2**31) + 1, False),
            ingest.LsaEvent(2_500_000, "m", 5, "192.168.7.9", "172.16.0.0", 3600, 2**31 - 1, True),
            ingest.LsaEvent(9_000_000_123, "m", 3, "10.1.2.3", "10.9.0.0", 0, 7, False),
        ]
        log, pcap = self.tmp / "events_m.jsonl", self.tmp / "m.pcap"
        ingest.write_lsa_log(log, events)
        workloads.log_to_pcap(log, pcap)
        self.assertEqual(list(ingest.extract_pcap_events(pcap, "m")), events)
        self.assertEqual(child.count_input_events(["--pcap", str(pcap)]), 3)
        self.assertEqual(child.count_input_events(["--log", str(log)]), 3)


class TracerTest(unittest.TestCase):
    def test_self_time_and_generator_span(self):
        tracer = layertrace.Tracer()
        fns = {}

        def leaf():
            return sum(range(20000))

        def gen(n):
            for i in range(n):
                fns["leaf"]()
                yield i

        def outer():
            fns["leaf"]()
            return list(fns["gen"](3))

        for name, fn in (("leaf", leaf), ("gen", gen), ("outer", outer)):
            fns[name] = tracer._wrap(f"x.{name}", fn)
        self.assertEqual(fns["outer"](), [0, 1, 2])
        names = [s[0] for s in tracer.spans]
        self.assertEqual(names, ["x.outer", "x.leaf", "x.gen", "x.leaf", "x.leaf", "x.leaf"])
        parents = [s[3] for s in tracer.spans]
        self.assertEqual(parents, [-1, 0, 0, 2, 2, 2])  # leaf calls inside iteration nest under gen
        incl, self_t, calls = tracer.totals()
        self.assertEqual(calls["x.leaf"], 4)
        self.assertEqual(tracer.counts["x.gen.items"], 3)
        gen_span = tracer.spans[2]
        self.assertAlmostEqual(self_t["x.gen"] + sum(e - s for _n, s, e, p in tracer.spans if p == 2),
                               gen_span[2] - gen_span[1], places=9)
        self.assertGreaterEqual(incl["x.outer"], incl["x.gen"] + tracer.spans[1][2] - tracer.spans[1][1])

    def test_install_covers_by_name_imports_and_restores(self):
        import ospfrqa.detect
        import ospfrqa.rqa
        original = ospfrqa.detect.measures_for_series
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            self.assertIs(ospfrqa.detect.measures_for_series, ospfrqa.rqa.measures_for_series)
            self.assertIsNot(ospfrqa.detect.measures_for_series, original)
            with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
                cwd = os.getcwd()
                os.chdir(tmp)
                try:
                    mini_chain(4, lambda stage, argv: cli.main(argv))
                finally:
                    os.chdir(cwd)
        finally:
            tracer.uninstall()
        self.assertIs(ospfrqa.detect.measures_for_series, original)
        m = layertrace.layer_metrics(tracer, {"stage_s": {}, "pipeline_s": 1.0, "events_read": 0},
                                     {"stage_s": {}, "pipeline_s": 1.5, "events_read": 0})
        self.assertEqual(m["cli.calls"][0], 3)
        self.assertEqual(m["detect.windows"][0], 1)
        self.assertEqual(m["rqa.measures_for_series.calls"][0], 1)
        self.assertGreater(m["ingest.events_read"][0], 0)
        self.assertGreater(m["sim.events"][0], 0)
        self.assertEqual(m["trace.overhead_s"][0], 0.5)


class SpeedTest(unittest.TestCase):
    def test_scale_uses_the_median_sample(self):
        ref = speed.REFERENCE_S
        self.assertAlmostEqual(speed.scale(10.0, [ref, 2 * ref, ref]), 10.0)
        self.assertAlmostEqual(speed.scale(10.0, [2 * ref, 2 * ref, ref]), 5.0)
        self.assertGreater(speed.sample(), 0.0)


class DeclaredMetricsTest(TempDirCase):
    def test_reported_names_and_units_match_benchmark_json(self):
        spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
        res = {"pipeline_s": 6.0, "peak_rss_mb": 50.0}
        self.assertEqual({k: unit for k, (_v, unit) in run.end_to_end_metrics(res, 0.5).items()},
                         {m["name"]: m["unit"] for m in spec["end_to_end"]})
        work = self.tmp / "mini"
        p = child.run_chain(MINI, 3, work)
        res = {"layers": layertrace.layer_metrics(layertrace.Tracer(), p, p),
               "properties": workloads.input_properties(work, MINI)}
        self.assertEqual({k: unit for k, (_v, unit) in run.layer_metrics(res).items()},
                         {m["name"]: m["unit"] for m in spec["per_layer"]})


if __name__ == "__main__":
    unittest.main()
