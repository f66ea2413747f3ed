"""Simulator behavior: flooding semantics, determinism, scenarios, attacks."""

import dataclasses
import gc
import hashlib
import ipaddress
import json
import math
import random
from importlib.resources import files

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import builders
import oracle
from ospfrqa import ingest, sim


def two_routers_plus_stub() -> sim.Topology:
    text = """
[routers]
a eth0 eth1
b eth0 eth1
[stubs]
s1 eth0
[links]
a eth0 b eth0 2 20
b eth1 s1 eth0 2 20
[monitors]
mon s1 stub
"""
    return sim.parse_topology(text, name="tiny")


class TestTopology:
    def test_tiny_loads_and_validates(self):
        topo = two_routers_plus_stub()
        assert topo.nodes() == ["a", "b", "s1"]
        assert topo.monitors[0].stub

    def test_dangling_link_names_offender(self):
        text = "[routers]\na eth0\n[links]\na eth0 ghost eth0\n"
        with pytest.raises(sim.TopologyError, match="ghost"):
            sim.parse_topology(text)

    def test_duplicate_ids_rejected(self):
        text = "[routers]\na eth0\n[stubs]\na eth0\n"
        with pytest.raises(sim.TopologyError, match="duplicate"):
            sim.parse_topology(text)

    def test_stub_monitor_on_originating_node_rejected(self):
        text = """
[routers]
a eth0
b eth0
[links]
a eth0 b eth0
[monitors]
m a stub
"""
        with pytest.raises(sim.TopologyError, match="stub"):
            sim.parse_topology(text)

    def test_unknown_interface_named(self):
        text = "[routers]\na eth0\nb eth0\n[links]\na eth9 b eth0\n"
        with pytest.raises(sim.TopologyError, match="eth9"):
            sim.parse_topology(text)

    @pytest.mark.parametrize("text, line, message", [
        ("[routers]\na eth0\nb eth0\n[links]\na eth0 b eth0 abc 5\n", 5,
         "delays must be finite numbers with 0 <= lo <= hi, got abc 5"),
        ("[routers]\na eth0\nb eth0\n[links]\na eth0 b eth0 nan inf\n", 5,
         "delays must be finite numbers with 0 <= lo <= hi, got nan inf"),
        ("[routers]\na eth0\nb eth0\n[links]\na eth0 b eth0 1 inf\n", 5,
         "delays must be finite numbers with 0 <= lo <= hi, got 1 inf"),
        ("[routers]\na eth0\nb eth0\n[links]\na eth0 b eth0 -1 5\n", 5,
         "delays must be finite numbers with 0 <= lo <= hi, got -1 5"),
        ("[routers]\na eth0\nb eth0\n[links]\na eth0 b eth0 9 5\n", 5,
         "delays must be finite numbers with 0 <= lo <= hi, got 9 5"),
        ("[routers]\nr1 eth0 eth0\n", 2, "r1 declares an interface twice"),
        ("[routers]\na eth0\nb eth0\na eth1\n", 4, "a named twice in [routers]"),
        ("[stubs]\ns eth0\ns eth1\n", 3, "s named twice in [stubs]"),
        ("[routers]\na eth0\n[hosts]\nh a\nh a\n", 5, "h named twice in [hosts]"),
    ])
    def test_malformed_file_names_path_and_line(self, tmp_path, text, line, message):
        path = tmp_path / "bad.topo"
        path.write_text(text)
        with pytest.raises(sim.TopologyError) as err:
            sim.load_topology(path)
        assert str(err.value) == f"{path}: line {line}: {message}"

    def test_paper16_ships_expected_monitors(self):
        topo = sim.load_topology("paper16")
        assert len(topo.nodes()) >= 16
        assert {m.name for m in topo.monitors} == {
            "rcs1", "r7", "r11", "r12", "r13", "r14", "r15", "r16"
        }
        assert all(m.stub for m in topo.monitors)

    def test_generated_topologies_ship(self):
        for name, routers in (("topo20", 20), ("topo35", 35)):
            topo = sim.load_topology(name)
            assert len(topo.routers) + len(topo.stubs) == routers

    def test_topo20_is_the_text_of_a_random_topology(self):
        shipped = files("ospfrqa.topologies").joinpath("topo20.topo").read_text()
        topo = builders.random_topology(12, 8, 20, extra_links=4, name="topo20")
        assert builders.topology_to_text(topo) == shipped

    def test_text_round_trip(self):
        topo = two_routers_plus_stub()
        back = sim.parse_topology(builders.topology_to_text(topo), name="tiny")
        assert back.routers == topo.routers
        assert back.stubs == topo.stubs
        assert [l.key() for l in back.links] == [l.key() for l in topo.links]

    def test_router_ids_stay_dotted_quads_past_255_nodes(self):
        topo = builders.random_topology(300, 2, 1)
        ids = [topo.router_id(n) for n in topo.nodes()]
        assert len({ipaddress.IPv4Address(rid) for rid in ids}) == len(ids) == 302
        # The first 255 keep the ids every shipped topology has always had.
        assert ids[:256] == [f"10.0.0.{i}" for i in range(1, 256)] + ["10.0.1.0"]


class TestScenarios:
    def test_failure_script_shape(self):
        events = sim.scenario_paper_failure()
        assert events[0].time_s == 14400.0
        assert events[0].kind == "iface_down"
        assert events[0].subject == {"node": "abr1", "iface": "eth0"}
        assert [e.time_s for e in events] == sorted(e.time_s for e in events)
        joint_down = [e for e in events if e.time_s == 72000.0]
        assert {(e.subject["node"], e.subject["iface"]) for e in joint_down} == {
            ("abr1", "eth0"), ("r6", "eth1")
        }
        assert events[-1].time_s == 86400.0 and events[-1].kind == "iface_up"

    def test_attack_script_times(self):
        events = sim.scenario_paper_attacks()
        assert [e.time_s for e in events] == [2485.0, 5012.0, 9532.0]
        assert [e.kind for e in events] == [
            "attack_disguised", "attack_adjacency_spoof", "attack_partition"
        ]
        assert [e.time_s for e in events] == sorted(e.time_s for e in events)

    def test_json_round_trip(self):
        events = sim.scenario_paper_attacks()
        back = sim.scenario_from_json(builders.scenario_to_json(events))
        assert back == events

    def test_validation_rejects_unknown_subject(self):
        topo = two_routers_plus_stub()
        bad = [sim.ScenarioEvent(10.0, "iface_down", {"node": "a", "iface": "eth7"})]
        with pytest.raises(sim.ScenarioError, match="eth7"):
            sim.validate_scenario(bad, topo, 100.0)

    def test_unknown_keys_named_in_the_event_order(self):
        # The keys are neither sorted nor in set order: as the event lists them.
        topo = sim.load_topology("paper16")
        bad = [
            sim.ScenarioEvent(10.0, "attack_disguised",
                              {"victim": "r9", "zz": 1, "attacker": "r8", "aa": 2},
                              {"perod_s": 5, "duration_s": 60, "drop_links": []}),
            sim.ScenarioEvent(20.0, "iface_down", {"node": "abr1", "iface": "eth0"},
                              {"drop_links": ["eth0"]}),
        ]
        with pytest.raises(sim.ScenarioError) as err:
            sim.validate_scenario(bad, topo, 100.0)
        assert str(err.value) == "; ".join([
            "event 0: zz: not a subject key of attack_disguised",
            "event 0: aa: not a subject key of attack_disguised",
            "event 0: perod_s: not a params key of attack_disguised",
            "event 0: drop_links: not a params key of attack_disguised",
            "event 1: drop_links: not a params key of iface_down",
        ])

    def test_negative_duration_rejected(self):
        with pytest.raises(sim.ScenarioError, match="negative"):
            sim.run(two_routers_plus_stub(), [], -1.0, seed=0)

    @pytest.mark.parametrize("jitter", [-1.0, 1800.5, 2500.0, math.nan])
    def test_refresh_jitter_outside_the_interval_rejected(self, jitter):
        # Past the 1800 s refresh interval a refresh could be scheduled
        # before the origination that set it, running the clock backwards.
        with pytest.raises(ValueError, match="refresh jitter"):
            sim.run(sim.load_topology("paper16"), [], 20000, seed=3, refresh_jitter_s=jitter)

    def test_validation_rejects_out_of_range_time(self):
        topo = two_routers_plus_stub()
        bad = [sim.ScenarioEvent(500.0, "iface_down", {"node": "a", "iface": "eth0"})]
        with pytest.raises(sim.ScenarioError, match="outside"):
            sim.validate_scenario(bad, topo, 100.0)


def serialize(logs):
    return json.dumps(
        {m: [e._asdict() for e in evs] for m, evs in logs.items()}, sort_keys=True
    )


PAPER16 = sim.load_topology("paper16")
# (kind, subject, params) of every scenario kind on paper16.
PAPER16_EVENTS = [
    ("iface_down", {"node": "abr1", "iface": "eth0"}, {}),
    ("iface_up", {"node": "abr1", "iface": "eth0"}, {}),
    ("iface_down", {"node": "r6", "iface": "eth1"}, {}),
    ("iface_up", {"node": "r6", "iface": "eth1"}, {}),
    ("attack_disguised", {"attacker": "r8", "victim": "r9"},
     {"period_s": 30.0, "duration_s": 300.0}),
    ("attack_adjacency_spoof", {"host": "host2"}, {"period_s": 20.0, "duration_s": 200.0}),
    ("attack_partition", {"router": "r8"},
     {"period_s": 60.0, "duration_s": 300.0, "drop_links": ["eth0"]}),
]


class TestRun:
    def test_two_router_stub_sees_four_type1_events(self):
        # Boot origination at t=0 and one refresh near t=1800 for each
        # router; the stub tap records each instance exactly once.  The
        # duration stops short of 2 * 1800 - jitter so the second refresh
        # cycle stays out for every seed.
        topo = two_routers_plus_stub()
        res = sim.run(topo, [], 3500, seed=5)
        events = [e for e in res.logs["mon"] if not e.is_ack]
        assert len(events) == 4
        assert all(e.ls_type == 1 for e in events)
        by_origin = {}
        for e in events:
            by_origin.setdefault(e.adv_router, []).append(e.ts_us / 1e6)
        assert set(by_origin) == {topo.router_id("a"), topo.router_id("b")}
        for times in by_origin.values():
            assert times[0] < 1.0  # boot origination floods immediately
            assert 1770.0 <= times[1] - times[0] <= 1830.0
        seqs = [e.ls_seq for e in sorted(events, key=lambda e: e.ts_us)
                if e.adv_router == topo.router_id("b")]
        assert seqs == [sim.INITIAL_SEQ, sim.INITIAL_SEQ + 1]

    @pytest.mark.parametrize("scenario", list(sim.CANNED_SCENARIOS))
    def test_a_run_leaves_no_cycles(self, scenario):
        # Everything a run makes is freed by reference counting once its
        # result is dropped: garbage in a cycle would keep the rows alive
        # until the cyclic collector runs, and raise the peak memory.
        gc.collect()
        gc.disable()
        try:
            sim.run(PAPER16, sim.CANNED_SCENARIOS[scenario](), 100000, seed=1)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_deterministic(self):
        topo = sim.load_topology("paper16")
        a = sim.run(topo, sim.scenario_paper_attacks(), 12000, seed=9)
        b = sim.run(topo, sim.scenario_paper_attacks(), 12000, seed=9)
        assert serialize(a.logs) == serialize(b.logs)

    def test_seed_changes_timing(self):
        topo = two_routers_plus_stub()
        a = sim.run(topo, [], 3600, seed=1)
        b = sim.run(topo, [], 3600, seed=2)
        assert serialize(a.logs) != serialize(b.logs)

    def test_quiet_conservation_paper16(self):
        topo = sim.load_topology("paper16")
        res = sim.run(topo, [], 7200, seed=3)
        totals = sim.total_event_counts(res.rows)
        assert len(set(totals.values())) == 1
        assert totals["rcs1"] > 0

    @pytest.mark.parametrize("state", [{"up": False}, {"forming_until_us": 10**15}])
    def test_links_start_fresh_whatever_state_they_carry(self, state):
        topo = sim.load_topology("paper16")
        links = [dataclasses.replace(topo.links[0], **state), *topo.links[1:]]
        carried = sim.run(dataclasses.replace(topo, links=links), [], 7200, seed=1)
        assert carried.rows == sim.run(topo, [], 7200, seed=1).rows

    def test_quiet_conservation_random_topologies(self):
        for seed in range(5):
            topo = builders.random_topology(
                n_transit=4 + seed, n_stub=3, seed=seed, extra_links=seed % 3
            )
            res = sim.run(topo, [], 4000, seed=seed + 100)
            totals = sim.total_event_counts(res.rows)
            assert len(set(totals.values())) == 1, (seed, totals)

    def test_age_at_least_hop_count(self):
        topo = two_routers_plus_stub()
        res = sim.run(topo, [], 2000, seed=8)
        # s1 is two hops from a, one hop from b
        rid_a, rid_b = topo.router_id("a"), topo.router_id("b")
        for e in res.logs["mon"]:
            if e.is_ack:
                continue
            expected = 2 if e.adv_router == rid_a else 1
            assert e.ls_age >= expected

    def test_stub_nodes_never_originate(self):
        topo = sim.load_topology("paper16")
        res = sim.run(topo, sim.scenario_paper_failure(), 100000, seed=2)
        stub_ids = {topo.router_id(s) for s in topo.stubs}
        for events in res.logs.values():
            for e in events:
                if not e.is_ack:
                    assert e.adv_router not in stub_ids

    def test_already_down_is_warned_noop(self):
        topo = two_routers_plus_stub()
        scenario = [
            sim.ScenarioEvent(100.0, "iface_down", {"node": "a", "iface": "eth0"}),
            sim.ScenarioEvent(200.0, "iface_down", {"node": "a", "iface": "eth0"}),
        ]
        res = sim.run(topo, scenario, 1000, seed=1)
        assert any("already down" in w for w in res.warnings)

    def test_equal_instance_age_race_on_cycle(self):
        # A ring delivers each instance to the far node via two paths: the
        # second copy has equal seq and larger age and must be discarded,
        # but the tap still records both arrivals.
        text = """
[routers]
a eth0 eth1
b eth0 eth1
c eth0 eth1
[links]
a eth0 b eth0 2 20
b eth1 c eth0 2 20
c eth1 a eth1 2 20
[monitors]
tapc c transit
"""
        topo = sim.parse_topology(text)
        res = sim.run(topo, [], 100, seed=4)
        rid_a = topo.router_id("a")
        arrivals = [e for e in res.logs["tapc"]
                    if not e.is_ack and e.adv_router == rid_a and e.ls_seq == sim.INITIAL_SEQ]
        assert len(arrivals) == 2
        assert sorted(e.ls_age for e in arrivals) == [1, 2]

    @given(seed=st.integers(0, 2**32), jitter=st.floats(0.0, sim.REFRESH_INTERVAL_S),
           scenario=st.lists(st.tuples(st.floats(0.0, 3000.0), st.sampled_from(PAPER16_EVENTS)),
                             max_size=6))
    @example(seed=3, jitter=sim.REFRESH_INTERVAL_S, scenario=[])
    @settings(max_examples=40, deadline=None)
    def test_logs_are_time_ordered_router_lsas(self, seed, jitter, scenario):
        # Every instance is a router-LSA whose link state ID is its
        # advertising router, so (origin, seq) identifies it; and with the
        # jitter within the refresh interval no monitor's clock runs back.
        events = [sim.ScenarioEvent(t, *ev) for t, ev in sorted(scenario, key=lambda e: e[0])]
        res = sim.run(PAPER16, events, 4000, seed, refresh_jitter_s=jitter)
        for mon, log in res.logs.items():
            ts = [e.ts_us for e in log]
            assert ts == sorted(ts), mon
            assert all(e.ls_type == 1 and e.ls_id == e.adv_router for e in log), mon
            assert all(e.ls_age <= ingest.MAX_AGE for e in log), mon


class TestFloodDelayDraw:
    @given(seed=st.integers(0, 2**64), lo_ms=st.integers(0, 50), rounds=st.integers(1, 3),
           widths=st.lists(st.one_of(st.sampled_from([1, 2, 4, 8, 256, 2048, 2**16, 2**20]),
                                     st.integers(1, 10**6)), min_size=1, max_size=5))
    @example(seed=0, lo_ms=2, rounds=2, widths=[1, 2, 2**16, 1])
    @settings(max_examples=150, deadline=None)
    def test_inlined_draw_equals_randrange(self, seed, lo_ms, rounds, widths):
        # A router flooding to stubs draws one delay per link, in link order,
        # exactly as Random.randrange over the link's microsecond range.
        links = [sim.Link("c", f"eth{i}", f"s{i}", "eth0", lo_ms, lo_ms + (w - 1) / 1000)
                 for i, w in enumerate(widths)]
        ranges = [(int(l.delay_lo_ms * 1000), int(l.delay_hi_ms * 1000) + 1) for l in links]
        assume([stop - start for start, stop in ranges] == widths)
        topo = sim.Topology(routers={"c": [l.iface_a for l in links]},
                            stubs={l.node_b: ["eth0"] for l in links}, links=links)
        engine = sim._Engine(topo, seed, 10.0)
        for _ in range(rounds):
            engine.flood("c", 0, "10.0.0.1", 1)
        drawn = [entry[0] for entry in sorted(engine.heap, key=lambda entry: entry[2])]
        ref = random.Random(seed)
        assert drawn == [ref.randrange(start, stop) for _ in range(rounds)
                         for start, stop in ranges]
        assert engine.rng.getstate() == ref.getstate()


def triangle_with_taps() -> sim.Topology:
    """Three routers on a triangle with fixed delays, a-b and b-c 1 ms and
    a-c 5 ms, and a transit tap on each, so that every copy's fate shows."""
    text = """
[routers]
a eth0 eth1
b eth0 eth1
c eth0 eth1
[links]
a eth0 b eth0 1 1
b eth1 c eth0 1 1
a eth1 c eth1 5 5
[monitors]
ta a transit
tb b transit
tc c transit
"""
    return sim.parse_topology(text, name="triangle")


def square_with_taps() -> sim.Topology:
    """Four routers on a square with fixed delays, a-b and b-d 1 ms, a-c and
    c-d 2 ms, and a transit tap on each."""
    text = """
[routers]
a eth0 eth1
b eth0 eth1
c eth0 eth1
d eth0 eth1
[links]
a eth0 b eth0 1 1
b eth1 d eth0 1 1
a eth1 c eth0 2 2
c eth1 d eth1 2 2
[monitors]
ta a transit
tb b transit
tc c transit
td d transit
"""
    return sim.parse_topology(text, name="square")


def tap_rows(res: sim.RunResult) -> dict[str, list[tuple]]:
    """Each tap's events as (time, origin, seq, age, is_ack)."""
    return {mon: [(e.ts_us, e.adv_router, e.ls_seq, e.ls_age, e.is_ack) for e in log]
            for mon, log in res.logs.items()}


class TestDeliverBranches:
    """Each outcome of an arrival, derived by hand: with fixed delays a copy
    over a-c arrives 3 ms after the copy over a-b-c, and an accepted copy is
    acknowledged back over its link, where the sender's tap records it."""

    A, B = "10.0.0.1", "10.0.0.2"  # routers a and b
    S = sim.INITIAL_SEQ
    T = 1_000_000  # c forges a's LSA at 1 s, as seq S+1, then S+2 150 ms later

    @pytest.fixture(scope="class")
    def logs(self):
        forge = sim.ScenarioEvent(1.0, "attack_disguised", {"attacker": "c", "victim": "a"},
                                  {"period_s": 60.0, "duration_s": 1.0})
        return tap_rows(sim.run(triangle_with_taps(), [forge], 3.0, seed=0))

    def test_younger_copy_is_accepted_and_acked(self, logs):
        # a's boot LSA reaches c over a-b-c at 2 ms (age 2), then straight
        # over a-c at 5 ms (age 1): the younger copy replaces the first, and
        # its ack reaches a 5 ms later; an accepted copy of a known instance
        # is not flooded on (b would see it at 6 ms).
        A, S = self.A, self.S
        tc = logs["tc"]
        assert tc.index((2000, A, S, 2, False)) < tc.index((5000, A, S, 1, False))
        assert (10000, A, S, 1, True) in logs["ta"]
        assert (6000, A, S, 2, False) not in logs["tb"]

    def test_older_copy_is_dropped_without_an_ack(self, logs):
        # b's boot LSA reaches c straight at 1 ms (age 1), then over b-a-c
        # at 6 ms (age 2): the older copy is dropped, so a, which sent it,
        # records no ack for b's LSA, and c floods it nowhere.
        B, S = self.B, self.S
        tc = logs["tc"]
        assert tc.index((1000, B, S, 1, False)) < tc.index((6000, B, S, 2, False))
        assert [row for row in logs["ta"] if row[1] == B and row[4]] == []
        assert logs["tb"].count((2000, B, S, 1, True)) == 2  # a and c each ack the copy b sent
        assert [row for row in logs["tb"] if row[0] > 6000 and row[1] == B] == []

    def test_fight_back_reoriginates(self, logs):
        # The forged S+1 reaches a over c-b-a at T+2 ms: a re-originates its
        # LSA as S+2 at once (age 0), acks nothing, and floods S+2 to b.
        A, S, T = self.A, self.S, self.T
        ta = logs["ta"]
        assert ta.index((T + 2000, A, S + 1, 2, False)) + 1 == ta.index((T + 2000, A, S + 2, 0,
                                                                         False))
        assert (T + 3000, A, S + 1, 2, True) not in logs["tb"]
        assert (T + 3000, A, S + 2, 1, False) in logs["tb"]

    def test_lower_sequence_number_is_dropped(self, logs):
        # The forged S+1 also reaches a straight over c-a at T+5 ms, after a
        # holds S+2: it is dropped, so c records no ack for it and b never
        # sees it from a.
        A, S, T = self.A, self.S, self.T
        assert (T + 5000, A, S + 1, 1, False) in logs["ta"]
        assert [row for row in logs["tc"] if row[2] == S + 1 and row[4]] == [
            (T + 2000, A, S + 1, 1, True)]  # b's ack of the forgery, and only that
        assert [row for row in logs["tb"] if row[0] > T + 5000 and row[2] == S + 1] == []

    def test_equal_age_copy_is_dropped_without_an_ack(self):
        # On the square, a's boot LSA reaches d over a-b-d at 2 ms and over
        # a-c-d at 4 ms, both at age 2.  The held copy has not aged a whole
        # second, so the second copy is no younger: it is dropped, and c,
        # which sent it, records no ack for a's LSA, while b's copy was acked.
        A, S = self.A, self.S
        logs = tap_rows(sim.run(square_with_taps(), [], 1.0, seed=0))
        td = logs["td"]
        assert td.index((2000, A, S, 2, False)) < td.index((4000, A, S, 2, False))
        assert (3000, A, S, 2, True) in logs["tb"]
        assert [row for row in logs["tc"] if row[1] == A and row[4]] == []


class TestIsolation:
    def test_r14_outage_and_resync_burst(self):
        topo = sim.load_topology("paper16")
        res = sim.run(topo, sim.scenario_paper_failure(), 100000, seed=11)
        r14 = [e for e in res.logs["r14"] if not e.is_ack]
        during = [e for e in r14 if 72_001_000_000 <= e.ts_us < 86_402_000_000]
        assert during == []
        # restore at 86400: both re-originations from r6 plus one
        # request-driven update per entry that went stale while isolated
        burst = [e for e in r14 if 86_400_000_000 <= e.ts_us <= 86_420_000_000]
        assert len(burst) >= len(topo.routers)
        stale_origins = {e.adv_router for e in burst}
        assert topo.router_id("abr1") in stale_origins

    def test_non_isolated_monitors_keep_receiving(self):
        topo = sim.load_topology("paper16")
        res = sim.run(topo, sim.scenario_paper_failure(), 100000, seed=11)
        for mon in ("rcs1", "r7", "r11"):
            during = [e for e in res.logs[mon]
                      if not e.is_ack and 72_001_000_000 <= e.ts_us < 86_402_000_000]
            assert during


class TestAttacks:
    def test_fight_back_reaches_all_monitors(self):
        # The forged trigger is suppressed at the victim and loses the
        # flooding race elsewhere, but the victim's fresh higher-seq
        # instance must reach every monitor promptly.
        topo = sim.load_topology("paper16")
        scenario = [sim.ScenarioEvent(
            1000.0, "attack_disguised", {"attacker": "r8", "victim": "r9"},
            {"period_s": 60.0, "duration_s": 60.0},
        )]
        res = sim.run(topo, scenario, 3000, seed=6)
        r9 = topo.router_id("r9")
        fight_back_seq = max(
            e.ls_seq for e in res.logs["rcs1"]
            if not e.is_ack and e.adv_router == r9 and e.ts_us < 1_010_000_000
        )
        for mon, events in res.logs.items():
            arrived = [e for e in events
                       if not e.is_ack and e.adv_router == r9
                       and e.ls_seq == fight_back_seq
                       and 1_000_000_000 <= e.ts_us < 1_001_000_000]
            assert arrived, mon

    def test_victim_fights_back_once_per_injection(self):
        topo = sim.load_topology("paper16")
        n_inj = 600 // 30
        quiet = sim.run(topo, [], 4000, seed=6)
        attack = sim.run(topo, [sim.ScenarioEvent(
            1000.0, "attack_disguised", {"attacker": "r8", "victim": "r9"},
            {"period_s": 30.0, "duration_s": 600.0},
        )], 4000, seed=6)
        r9 = topo.router_id("r9")
        def count(res):
            return sum(1 for e in res.logs["rcs1"] if not e.is_ack and e.adv_router == r9)
        def top_seq_before(res, t_s):
            return max(e.ls_seq for e in res.logs["rcs1"]
                       if e.adv_router == r9 and e.ts_us < t_s * 10**6)
        # one extra monitored instance per injection (the fight-back); the
        # fight-back originations also reset r9's refresh timer, which can
        # push one regular refresh past the horizon
        assert count(attack) >= count(quiet) + n_inj - 1
        # the seq space advances by exactly trigger+fight-back per injection
        assert top_seq_before(attack, 1620) == top_seq_before(attack, 1000) + 2 * n_inj

    def test_spoof_injects_phantom_origin(self):
        topo = sim.load_topology("paper16")
        scenario = [sim.ScenarioEvent(
            500.0, "attack_adjacency_spoof", {"host": "host2"},
            {"period_s": 30.0, "duration_s": 300.0, "phantom_id": "10.99.0.99"},
        )]
        res = sim.run(topo, scenario, 2000, seed=6)
        for mon in ("rcs1", "r14"):
            phantom = [e for e in res.logs[mon] if e.adv_router == "10.99.0.99"]
            assert len(phantom) == 10

    def test_partition_floods_falsified_self_lsa_without_fight_back(self):
        topo = sim.load_topology("paper16")
        scenario = [sim.ScenarioEvent(
            500.0, "attack_partition", {"router": "r8"},
            {"period_s": 60.0, "duration_s": 300.0, "drop_links": ["eth0"]},
        )]
        res = sim.run(topo, scenario, 2000, seed=6)
        r8 = topo.router_id("r8")
        in_attack = {e.ls_seq for e in res.logs["rcs1"]
                     if e.adv_router == r8 and not e.is_ack
                     and 500_000_000 <= e.ts_us < 800_000_000}
        # one falsified self-instance per injection period, flooded normally
        assert len(in_attack) == 5
        # the compromised router is the legitimate originator: no router
        # ever answers with a fresher instance during the attack window
        top = max(e.ls_seq for e in res.logs["rcs1"]
                  if e.adv_router == r8 and e.ts_us < 800_000_000)
        assert top == max(in_attack)

    def test_partition_drop_links_changes_no_traffic(self):
        # LSA content is not modelled: the dropped links label the attack.
        def logs(drop_links):
            scenario = [sim.ScenarioEvent(
                500.0, "attack_partition", {"router": "r8"},
                {"period_s": 60.0, "duration_s": 300.0, "drop_links": drop_links},
            )]
            return serialize(sim.run(PAPER16, scenario, 2000, seed=6).logs)
        assert logs([]) == logs(["eth0"]) == logs(["eth0", "eth1", "eth2"])


class TestTotals:
    def test_empty_logs(self):
        assert sim.total_event_counts({}) == {}
        assert sim.total_event_counts({"m": []}) == {"m": 0}

    def test_isolated_monitor_counts_less(self):
        topo = sim.load_topology("paper16")
        res = sim.run(topo, sim.scenario_paper_failure(), 100000, seed=11)
        totals = sim.total_event_counts(res.rows)
        others = {m: c for m, c in totals.items() if m != "r14"}
        assert totals["r14"] < min(others.values())


def ring_with_transit_tap() -> sim.Topology:
    """Four routers on a ring with a chord, a stub, a host, and a transit
    tap on a flooding router, so that the logs hold acknowledgments."""
    text = """
[routers]
a eth0 eth1 eth2
b eth0 eth1 eth2
c eth0 eth1
d eth0 eth1 eth2
[stubs]
s1 eth0
[hosts]
h1 a
[links]
a eth0 b eth0 2 20
b eth1 c eth0 1 7
c eth1 d eth0 3 40
d eth1 a eth1 2 20
a eth2 d eth2 5 5
b eth2 s1 eth0 2 20
[monitors]
tapa a transit
taps s1 stub
"""
    return sim.parse_topology(text, name="ring")


def every_kind_scenario() -> list[sim.ScenarioEvent]:
    return [
        sim.ScenarioEvent(300.0, "iface_down", {"node": "a", "iface": "eth0"}),
        sim.ScenarioEvent(600.0, "iface_up", {"node": "a", "iface": "eth0"}),
        sim.ScenarioEvent(900.0, "attack_disguised", {"attacker": "c", "victim": "d"},
                          {"period_s": 30.0, "duration_s": 120.0}),
        sim.ScenarioEvent(1200.0, "attack_adjacency_spoof", {"host": "h1"},
                          {"period_s": 20.0, "duration_s": 100.0}),
        sim.ScenarioEvent(1500.0, "attack_partition", {"router": "b"},
                          {"period_s": 60.0, "duration_s": 180.0, "drop_links": ["eth1"]}),
    ]


def log_digests(logs) -> dict[str, str]:
    """SHA-256 prefix of each monitor's log, as one json.dumps per event."""
    return {mon: hashlib.sha256(oracle.lsa_log(events).encode()).hexdigest()[:16]
            for mon, events in logs.items()}


# Digests of logs from the simulator before its flood and ack fast paths.
PINNED_RING_ACKS = {'tapa': '078eb520ad5c4270', 'taps': '640a80fd9b712b1c'}
PINNED_PAPER16_FAILURE = {
    'rcs1': 'f853709c0a70c4da', 'r7': '26e8de836ec7ad3b', 'r11': '084fcb6544bea54c',
    'r12': 'f23f3a879487c76b', 'r13': '216e18dfc32aec6f', 'r14': 'f0eb12c1de9b027a',
    'r15': 'f0c64aa9627cae4a', 'r16': 'fa69482cd06cdfd9',
}
PINNED_PAPER16_ATTACKS = {
    'rcs1': '9776b91438cef208', 'r7': '8c09b32ec8414747', 'r11': '7b7c93e994e805a1',
    'r12': '74e9efcbb2574ed3', 'r13': 'bc36b4136fe142be', 'r14': '292a858bc9b6a10a',
    'r15': '75cf1155595465a7', 'r16': '19c0faaf31ee6c93',
}
# Taken from the simulator that still scheduled strikes past the run's end.
PINNED_PAPER16_PAST_THE_END = {
    'rcs1': '3b5ce755620f50e6', 'r7': '862484f83fd97496', 'r11': '8ee71e8f8dccccb1',
    'r12': '53cf25c4123c38cf', 'r13': 'a5edbd55c271a85e', 'r14': '16a032b34e03c9af',
    'r15': '9ddeb68428aa3c85', 'r16': '11f7369d9d15c250',
}

# Taken from the simulator whose heap entries carried event-kind strings
# and lapse flags.
PINNED_PAPER16_END_OF_RUN_1200 = {
    'rcs1': '59d85cd2c38c0186', 'r7': 'fdd7eb538c7b55e8', 'r11': '3eadf9897fb01111',
    'r12': '00e498aa53e34222', 'r13': '37b7f6d63d7a5671', 'r14': '579f3ae2e9b3dbdc',
    'r15': '3d94f3315f9f88d6', 'r16': '023a4a6e506514fc',
}
PINNED_PAPER16_END_OF_RUN_1201 = {
    'rcs1': '06ecabae416240b1', 'r7': 'c0df8432d08fdd50', 'r11': 'c3a66f6893dd68ee',
    'r12': 'b31115edb2004aa1', 'r13': 'b79040d60beba49d', 'r14': '579f3ae2e9b3dbdc',
    'r15': '0e617ba9e7db3c9f', 'r16': 'fd1c023b0958d14d',
}


class TestPinnedLogs:
    def test_ring_with_transit_tap_records_acks(self):
        res = sim.run(ring_with_transit_tap(), every_kind_scenario(), 4000, seed=13)
        assert sum(e.is_ack for e in res.logs["tapa"]) > 0
        assert log_digests(res.logs) == PINNED_RING_ACKS

    def test_paper16_failure_short(self):
        scenario = sim.scenario_paper_failure(start_s=600.0, spacing_s=600.0)
        res = sim.run(sim.load_topology("paper16"), scenario, 4200, seed=11)
        assert log_digests(res.logs) == PINNED_PAPER16_FAILURE

    def test_paper16_attacks_short(self):
        scenario = sim.scenario_paper_attacks(duration_each_s=300.0)
        res = sim.run(sim.load_topology("paper16"), scenario, 10000, seed=2)
        assert log_digests(res.logs) == PINNED_PAPER16_ATTACKS

    @pytest.mark.parametrize("duration_s, pinned", [
        (1200.0, PINNED_PAPER16_END_OF_RUN_1200), (1201.0, PINNED_PAPER16_END_OF_RUN_1201)])
    def test_events_at_the_end_of_the_run(self, duration_s, pinned):
        # Interface changes in the run's last 10 s, whose 10 s follow-up
        # originations fall past the end (at 1201 s one lands on it), and
        # every attack kind striking each second through the end.
        strikes = {"period_s": 1.0, "duration_s": 100.0}
        scenario = [
            sim.ScenarioEvent(1150.0, "attack_disguised", {"attacker": "r8", "victim": "r9"},
                              strikes),
            sim.ScenarioEvent(1160.0, "attack_adjacency_spoof", {"host": "host2"}, strikes),
            sim.ScenarioEvent(1170.0, "attack_partition", {"router": "r8"},
                              {**strikes, "drop_links": ["eth0"]}),
            sim.ScenarioEvent(1191.0, "iface_down", {"node": "abr1", "iface": "eth0"}),
            sim.ScenarioEvent(1195.0, "iface_up", {"node": "abr1", "iface": "eth0"}),
            sim.ScenarioEvent(1200.0, "iface_down", {"node": "r6", "iface": "eth1"}),
        ]
        res = sim.run(sim.load_topology("paper16"), scenario, duration_s, seed=4)
        assert log_digests(res.logs) == pinned

    @pytest.mark.parametrize("attack_s", [500.0, 1e12])
    def test_attacks_striking_past_the_end(self, attack_s):
        # Strikes after the run's 100 s lapse unrun, so an attack lasting
        # 500 s and one lasting 1e12 s (1e12 strikes) leave the same logs.
        params = {"period_s": 1.0, "duration_s": attack_s}
        scenario = [
            sim.ScenarioEvent(10.0, "attack_disguised", {"attacker": "r8", "victim": "r9"},
                              params),
            sim.ScenarioEvent(20.0, "attack_adjacency_spoof", {"host": "host2"}, params),
            sim.ScenarioEvent(30.0, "attack_partition", {"router": "r8"},
                              {**params, "drop_links": ["eth0"]}),
        ]
        res = sim.run(sim.load_topology("paper16"), scenario, 100, seed=5)
        assert log_digests(res.logs) == PINNED_PAPER16_PAST_THE_END


# Delay ranges (ms) for generated links: fixed ones make copies race in at
# equal ages and equal times, wide ones spread them.
ORACLE_DELAYS_MS = [(0, 0), (1, 1), (5, 5), (0, 3), (1, 7), (2, 20)]


@st.composite
def oracle_runs(draw):
    """A random topology with a host and a transit tap, a scenario of
    random events of every kind (strikes may fall on the run's end), a
    duration, a seed and a refresh jitter."""
    base = builders.random_topology(draw(st.integers(2, 6)), draw(st.integers(1, 3)),
                                    seed=draw(st.integers(0, 2**16)),
                                    extra_links=draw(st.integers(0, 3)))
    routers = list(base.routers)
    links = [dataclasses.replace(l, delay_lo_ms=lo, delay_hi_ms=hi) for l, (lo, hi) in
             zip(base.links, draw(st.lists(st.sampled_from(ORACLE_DELAYS_MS),
                                           min_size=len(base.links),
                                           max_size=len(base.links))))]
    topo = sim.Topology(name=base.name, routers=base.routers, stubs=base.stubs,
                        hosts={"h1": draw(st.sampled_from(routers))}, links=links,
                        monitors=[*base.monitors,
                                  sim.Monitor("tap", draw(st.sampled_from(routers)), False)])
    duration_s = draw(st.integers(1, 4000))
    time_s = st.one_of(st.just(float(duration_s)), st.floats(0.0, float(duration_s)))
    router = st.sampled_from(routers)

    def strikes():
        period_s = draw(st.sampled_from([1.0, 2.5, 30.0, 60.0]))
        strikes_s = period_s * draw(st.integers(0, 12)) + draw(st.sampled_from([0, 0.5]))
        return {"period_s": period_s, "duration_s": strikes_s}

    downs = []  # (time, link end) of each iface_down not yet brought back up

    def event(kind):
        link = draw(st.sampled_from([links[0], links[-1]]))  # a transit link and a stub's
        end = draw(st.sampled_from([(link.node_a, link.iface_a), (link.node_b, link.iface_b)]))
        t_s = draw(time_s)
        if kind == "iface_up" and downs:  # bring a downed link back up, so that it resyncs
            t_down, end = downs.pop()
            t_s = draw(st.floats(t_down, float(duration_s)))
        elif kind == "iface_down":
            downs.append((t_s, end))
        subject = {
            "iface_down": {"node": end[0], "iface": end[1]},
            "iface_up": {"node": end[0], "iface": end[1]},
            "attack_disguised": {"attacker": draw(router), "victim": draw(router)},
            "attack_adjacency_spoof": {"host": "h1"},
            "attack_partition": {"router": draw(router)},
        }[kind]
        params = strikes() if kind.startswith("attack") and draw(st.booleans()) else {}
        if kind == "attack_adjacency_spoof" and draw(st.booleans()):
            # A phantom may take a real router's id, which that router fights.
            params["phantom_id"] = topo.router_id(draw(router))
        return sim.ScenarioEvent(t_s, kind, subject, params)

    kinds = draw(st.lists(st.sampled_from(list(sim.SCENARIO_KINDS)), max_size=6))
    scenario = sorted((event(kind) for kind in kinds), key=lambda ev: ev.time_s)
    jitter = draw(st.one_of(st.sampled_from([0.0, 30.0, sim.REFRESH_INTERVAL_S]),
                            st.floats(0.0, sim.REFRESH_INTERVAL_S)))
    return topo, scenario, duration_s, draw(st.integers(0, 2**32)), jitter


FORGE_AT_1S = sim.ScenarioEvent(1.0, "attack_disguised", {"attacker": "c", "victim": "a"},
                                {"period_s": 60.0, "duration_s": 1.0})


class TestAgainstOracle:
    @given(run=oracle_runs())
    @example(run=(ring_with_transit_tap(), every_kind_scenario(), 4000, 13, 30.0))
    @example(run=(PAPER16, sim.scenario_paper_failure(600.0, 600.0), 4200, 11, 30.0))
    @example(run=(triangle_with_taps(), [FORGE_AT_1S], 3.0, 0, 30.0))
    @example(run=(square_with_taps(), [], 1.0, 0, 30.0))
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_the_reference_simulator(self, run):
        # Every row of every monitor, byte for byte, against the plain
        # event-by-event simulator in the oracle.
        topo, scenario, duration_s, seed, jitter = run
        res = sim.run(topo, scenario, duration_s, seed, refresh_jitter_s=jitter)
        assert ({mon: oracle.lsa_log(log) for mon, log in res.logs.items()}
                == oracle.simulate(topo, scenario, duration_s, seed, jitter))
