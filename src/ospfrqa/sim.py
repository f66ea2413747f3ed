"""Deterministic discrete-event simulation of OSPF LSA flooding.

The model is traffic-focused: routers originate type-1 LSAs at boot, on a
refresh timer, and on interface state changes, and flood them reliably
over point-to-point links with per-message sampled delays.  SPF and the
forwarding plane are not modeled; failures and attacks matter only through
the LSA update patterns they create, which is exactly what the detector
consumes.

Node roles:

* transit routers originate their own LSA and forward floods;
* stub nodes are OSPF speakers that receive floods, acknowledge, and
  originate nothing (they model the paper's stub-network monitoring
  points: a single-homed attachment sees each flooded instance once);
* hosts sit outside OSPF entirely and exist as attack injection points.

Monitors are passive taps on a node.  They record every LS Update arrival
at the node, the node's own originations, and arriving acknowledgments
(flagged ``is_ack``).  Runs are reproducible: one seeded generator is
consumed in event order, times are integer microseconds, and heap ties
break on (node order, scheduling sequence).

State changes emit two instances per endpoint (at the event instant and
shortly after), mirroring the paired LSDB transitions a real interface
flap produces (link reachability first, adjacency state a moment later).
An interface coming back up also triggers a database exchange: each side
sends the peer one copy of every entry the peer holds stale, which is
what repopulates an isolated region and produces the request-driven
arrivals at its monitors.
"""

from __future__ import annotations

import heapq
import json
import random
import sys
from dataclasses import dataclass, field, replace

from .ingest import LsaEvent

REFRESH_INTERVAL_S = 1800.0
REFRESH_JITTER_S = 30.0
REORIGINATION_FOLLOWUP_S = 10.0
RESYNC_DELAY_S = 2.5
DISGUISED_LAG_S = 0.15
DEFAULT_DELAY_RANGE_MS = (2, 20)
INITIAL_SEQ = -(2**31) + 1  # 0x80000001 as a signed 32-bit value
# Shortest attack strike period: RFC 2328's MinLSArrival, the least spacing
# at which a router accepts new instances of one LSA.  Each strike is a heap
# entry, so this bounds an attack to one strike per second of its duration.
MIN_STRIKE_PERIOD_S = 1.0

SCENARIO_KINDS = (
    "iface_down", "iface_up",
    "attack_disguised", "attack_adjacency_spoof", "attack_partition",
)


class TopologyError(ValueError):
    """Topology file failed validation; message lists the offenders."""


class ScenarioError(ValueError):
    """Scenario event list failed validation."""


@dataclass
class Link:
    node_a: str
    iface_a: str
    node_b: str
    iface_b: str
    delay_lo_ms: float = DEFAULT_DELAY_RANGE_MS[0]
    delay_hi_ms: float = DEFAULT_DELAY_RANGE_MS[1]
    up: bool = True
    forming_until_us: int = 0  # restored links carry no floods until the
                               # adjacency re-forms and databases resync

    def other(self, node: str) -> str:
        return self.node_b if node == self.node_a else self.node_a

    def key(self) -> tuple:
        return (self.node_a, self.iface_a, self.node_b, self.iface_b)


@dataclass
class Monitor:
    name: str
    node: str
    stub: bool = True


@dataclass
class Topology:
    name: str = "unnamed"
    routers: dict[str, list[str]] = field(default_factory=dict)
    stubs: dict[str, list[str]] = field(default_factory=dict)
    hosts: dict[str, str] = field(default_factory=dict)
    links: list[Link] = field(default_factory=list)
    monitors: list[Monitor] = field(default_factory=list)

    def __post_init__(self):
        order = list(self.routers) + list(self.stubs) + list(self.hosts)
        self._order = {name: i for i, name in enumerate(order)}
        self._ids = {name: f"10.0.0.{i + 1}" for i, name in enumerate(order)}

    def nodes(self) -> list[str]:
        return list(self._order)

    def router_id(self, name: str) -> str:
        return self._ids[name]

    def originates(self, name: str) -> bool:
        return name in self.routers

    def find_link(self, node: str, iface: str) -> Link | None:
        for l in self.links:
            if (l.node_a, l.iface_a) == (node, iface) or (l.node_b, l.iface_b) == (node, iface):
                return l
        return None

    def validate(self) -> None:
        problems: list[str] = []
        seen: set[str] = set()
        for name in list(self.routers) + list(self.stubs) + list(self.hosts):
            if name in seen:
                problems.append(f"duplicate node id {name!r}")
            seen.add(name)
        used_ifaces: set[tuple[str, str]] = set()
        for l in self.links:
            for node, iface in ((l.node_a, l.iface_a), (l.node_b, l.iface_b)):
                declared = self.routers.get(node) or self.stubs.get(node)
                if declared is None:
                    problems.append(f"link {l.key()} references unknown node {node!r}")
                elif iface not in declared:
                    problems.append(f"link {l.key()} references unknown interface {node}.{iface}")
                if (node, iface) in used_ifaces:
                    problems.append(f"interface {node}.{iface} used by more than one link")
                used_ifaces.add((node, iface))
            if l.delay_lo_ms < 0 or l.delay_hi_ms < l.delay_lo_ms:
                problems.append(f"link {l.key()} has a bad delay range")
        for host, router in self.hosts.items():
            if router not in self.routers:
                problems.append(f"host {host!r} attached to unknown router {router!r}")
        for m in self.monitors:
            if m.node not in self._order or m.node in self.hosts:
                problems.append(f"monitor {m.name!r} attached to unknown node {m.node!r}")
            elif m.stub and self.originates(m.node):
                problems.append(
                    f"monitor {m.name!r} is marked stub but node {m.node!r} originates LSAs"
                )
        if len({m.name for m in self.monitors}) != len(self.monitors):
            problems.append("duplicate monitor ids")
        if problems:
            raise TopologyError("; ".join(problems))


def parse_topology(text: str, name: str = "unnamed") -> Topology:
    """Parse the key/value + table topology format.

    Sections: ``[routers]`` (name followed by its interfaces), ``[stubs]``
    (non-originating OSPF speakers, same shape), ``[hosts]`` (name and
    attachment router), ``[links]`` (endpoints plus an optional delay
    range in ms), ``[monitors]`` (name, node, ``stub`` or ``transit``).
    ``#`` starts a comment.
    """
    parts = {"routers": {}, "stubs": {}, "hosts": {}, "links": [], "monitors": []}
    section = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in parts:
                raise TopologyError(f"line {line_no}: unknown section [{section}]")
            continue
        fields = line.split()
        if section in ("routers", "stubs"):
            parts[section][fields[0]] = fields[1:]
        elif section == "hosts":
            if len(fields) != 2:
                raise TopologyError(f"line {line_no}: hosts rows are '<host> <router>'")
            parts["hosts"][fields[0]] = fields[1]
        elif section == "links":
            if len(fields) not in (4, 6):
                raise TopologyError(
                    f"line {line_no}: links rows are '<a> <ifa> <b> <ifb> [lo_ms hi_ms]'"
                )
            delays = (float(fields[4]), float(fields[5])) if len(fields) == 6 else DEFAULT_DELAY_RANGE_MS
            parts["links"].append(Link(fields[0], fields[1], fields[2], fields[3], *delays))
        elif section == "monitors":
            if len(fields) != 3 or fields[2] not in ("stub", "transit"):
                raise TopologyError(
                    f"line {line_no}: monitors rows are '<name> <node> stub|transit'"
                )
            parts["monitors"].append(Monitor(fields[0], fields[1], fields[2] == "stub"))
        else:
            raise TopologyError(f"line {line_no}: content before any section header")
    topo = Topology(name=name, **parts)
    topo.validate()
    return topo


def topology_to_text(topo: Topology) -> str:
    out = [f"# topology {topo.name}", "", "[routers]"]
    out += [f"{name} {' '.join(ifaces)}" for name, ifaces in topo.routers.items()]
    out += ["", "[stubs]"]
    out += [f"{name} {' '.join(ifaces)}" for name, ifaces in topo.stubs.items()]
    out += ["", "[hosts]"]
    out += [f"{host} {router}" for host, router in topo.hosts.items()]
    out += ["", "[links]"]
    out += [
        f"{l.node_a} {l.iface_a} {l.node_b} {l.iface_b} {l.delay_lo_ms:g} {l.delay_hi_ms:g}"
        for l in topo.links
    ]
    out += ["", "[monitors]"]
    out += [f"{m.name} {m.node} {'stub' if m.stub else 'transit'}" for m in topo.monitors]
    return "\n".join(out) + "\n"


def load_topology(path) -> Topology:
    """Load and validate a topology file; canned names resolve to shipped files."""
    from importlib.resources import files

    text_path = str(path)
    if text_path in ("paper16", "topo20", "topo35"):
        text = files("ospfrqa.topologies").joinpath(f"{text_path}.topo").read_text()
        return parse_topology(text, name=text_path)
    with open(text_path, encoding="utf-8") as f:
        return parse_topology(f.read(), name=text_path)


# --- scenarios --------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioEvent:
    time_s: float
    kind: str
    subject: dict
    params: dict = field(default_factory=dict)


def scenario_to_json(events: list[ScenarioEvent]) -> str:
    return json.dumps(
        [{"time_s": e.time_s, "kind": e.kind, "subject": e.subject, "params": e.params}
         for e in events],
        indent=2, sort_keys=True,
    ) + "\n"


def scenario_from_json(text: str) -> list[ScenarioEvent]:
    """Events from a JSON list of ``{time_s, kind, subject, params}``
    objects; :func:`validate_scenario` checks their values."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioError(f"scenario is not valid JSON: {e.msg}") from None
    if not isinstance(raw, list):
        raise ScenarioError("scenario must be a JSON list of events")
    events = []
    for i, rec in enumerate(raw):
        if not isinstance(rec, dict):
            raise ScenarioError(f"event {i}: expected a JSON object, got {rec!r}")
        missing = {"time_s", "kind", "subject"} - set(rec)
        if missing:
            raise ScenarioError(f"event {i}: missing {sorted(missing)}")
        events.append(ScenarioEvent(rec["time_s"], rec["kind"], rec["subject"],
                                    rec.get("params", {})))
    return events


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_scenario(events: list[ScenarioEvent], topo: Topology, duration_s: float) -> None:
    """Raise ScenarioError naming each bad event and key.  Events need a
    known kind, a number ``time_s`` in [0, duration_s] in sorted order, a
    ``subject`` object naming an existing link or node, and a ``params``
    object: ``period_s`` finite and at least ``MIN_STRIKE_PERIOD_S``,
    ``duration_s`` finite and >= 0,
    ``phantom_id`` a string, ``drop_links`` a list of strings."""
    problems = []
    last_t = -1.0
    for i, ev in enumerate(events):
        if ev.kind not in SCENARIO_KINDS:
            problems.append(f"event {i}: unknown kind {ev.kind!r}")
            continue
        if not (_is_number(ev.time_s) and 0 <= ev.time_s <= duration_s):
            problems.append(f"event {i}: time_s: {ev.time_s!r} outside [0, {duration_s}]")
        elif ev.time_s < last_t:
            problems.append(f"event {i}: events must be sorted by time")
        else:
            last_t = ev.time_s
        if not (isinstance(ev.subject, dict) and isinstance(ev.params, dict)):
            key = "params" if isinstance(ev.subject, dict) else "subject"
            problems.append(f"event {i}: {key}: expected an object, got {getattr(ev, key)!r}")
            continue
        # Subjects name nodes, so they must be strings (and hashable).
        names = {k: v for k, v in ev.subject.items() if isinstance(v, str)}
        if ev.kind in ("iface_down", "iface_up"):
            node, iface = ev.subject.get("node"), ev.subject.get("iface")
            if topo.find_link(node, iface) is None:
                problems.append(f"event {i}: no link at {node}.{iface}")
        elif ev.kind == "attack_disguised":
            for role in ("attacker", "victim"):
                if names.get(role) not in topo.routers:
                    problems.append(f"event {i}: {role} {ev.subject.get(role)!r} is not a router")
        elif ev.kind == "attack_adjacency_spoof":
            if names.get("host") not in topo.hosts:
                problems.append(f"event {i}: host {ev.subject.get('host')!r} unknown")
        elif ev.kind == "attack_partition":
            if names.get("router") not in topo.routers:
                problems.append(f"event {i}: router {ev.subject.get('router')!r} is not a router")
        period, duration = ev.params.get("period_s", 1.0), ev.params.get("duration_s", 0.0)
        if not (_is_number(period) and MIN_STRIKE_PERIOD_S <= period <= sys.float_info.max):
            problems.append(f"event {i}: period_s: expected a finite number of at least "
                            f"{MIN_STRIKE_PERIOD_S:g} s (MinLSArrival), got {period!r}")
        if not (_is_number(duration) and 0 <= duration <= sys.float_info.max):
            problems.append(f"event {i}: duration_s: expected a finite number >= 0, "
                            f"got {duration!r}")
        if not isinstance(ev.params.get("phantom_id", ""), str):
            problems.append(f"event {i}: phantom_id: expected a string, "
                            f"got {ev.params['phantom_id']!r}")
        links = ev.params.get("drop_links", [])
        if not (isinstance(links, list) and all(isinstance(l, str) for l in links)):
            problems.append(f"event {i}: drop_links: expected a list of strings, got {links!r}")
    if problems:
        raise ScenarioError("; ".join(problems))


def scenario_paper_failure(start_s: float = 14400.0, spacing_s: float = 14400.0) -> list[ScenarioEvent]:
    """The hardware-failure script: alternating flaps of abr1.eth0 4 hours
    apart, a joint shutdown of abr1.eth0 and r6.eth1 (isolating r14), and a
    closing joint restore of both."""
    t = [start_s + k * spacing_s for k in range(6)]
    abr1 = {"node": "abr1", "iface": "eth0"}
    r6 = {"node": "r6", "iface": "eth1"}
    return [
        ScenarioEvent(t[0], "iface_down", abr1),
        ScenarioEvent(t[1], "iface_up", abr1),
        ScenarioEvent(t[2], "iface_down", abr1),
        ScenarioEvent(t[3], "iface_up", abr1),
        ScenarioEvent(t[4], "iface_down", abr1),
        ScenarioEvent(t[4], "iface_down", r6),
        ScenarioEvent(t[5], "iface_up", abr1),
        ScenarioEvent(t[5], "iface_up", r6),
    ]


def scenario_paper_attacks(duration_each_s: float = 1200.0) -> list[ScenarioEvent]:
    """The three falsification attacks: disguised (r8 forging r9), adjacency
    spoofing from host2, and a partition attack from r8."""
    return [
        ScenarioEvent(2485.0, "attack_disguised",
                      {"attacker": "r8", "victim": "r9"},
                      {"period_s": 60.0, "duration_s": duration_each_s}),
        ScenarioEvent(5012.0, "attack_adjacency_spoof",
                      {"host": "host2"},
                      {"period_s": 30.0, "duration_s": duration_each_s,
                       "phantom_id": "10.99.0.99"}),
        ScenarioEvent(9532.0, "attack_partition",
                      {"router": "r8"},
                      {"period_s": 60.0, "duration_s": duration_each_s,
                       "drop_links": ["eth0"]}),
    ]


# Attack kind -> (subject key naming the node that strikes, default period
# in seconds, the arguments of each strike drawn from the scenario event).
# Every attack strikes once per period for ``duration_s`` (default 1200 s).
ATTACK_SCHEDULES = {
    "attack_disguised": ("attacker", 60.0, lambda ev: (ev.subject["victim"],)),
    "attack_adjacency_spoof": ("host", 30.0,
                               lambda ev: (ev.params.get("phantom_id", "10.99.0.99"),)),
    "attack_partition": ("router", 60.0,
                         lambda ev: (list(ev.params.get("drop_links", [])),)),
}

CANNED_SCENARIOS = {
    "quiet": lambda: [],
    "paper-failure": scenario_paper_failure,
    "paper-attacks": scenario_paper_attacks,
}


# --- engine -----------------------------------------------------------------


@dataclass
class _DbEntry:
    seq: int
    age_at_install: int
    installed_us: int
    digest: str


@dataclass(frozen=True)
class _Instance:
    origin: str      # advertising router id (dotted quad)
    ls_type: int
    ls_id: str
    seq: int
    digest: str


@dataclass
class RunResult:
    logs: dict[str, list[LsaEvent]]
    warnings: list[str]


class _Engine:
    def __init__(self, topo: Topology, seed: int, duration_s: float,
                 refresh_jitter_s: float = REFRESH_JITTER_S):
        self.topo = topo
        self.rng = random.Random(seed)
        self.duration_us = int(duration_s * 1e6)
        self.jitter_us = int(refresh_jitter_s * 1e6)
        self.heap: list[tuple] = []
        self.counter = 0
        self.warnings: list[str] = []
        self.db: dict[str, dict[tuple, _DbEntry]] = {n: {} for n in topo.nodes()}
        self.own_seq: dict[str, int] = {n: INITIAL_SEQ - 1 for n in topo.routers}
        self.refresh_epoch: dict[str, int] = {n: 0 for n in topo.routers}
        self.phantom_seq: dict[str, int] = {}
        self.taps: dict[str, list[str]] = {}
        for m in topo.monitors:
            self.taps.setdefault(m.node, []).append(m.name)
        self.logs: dict[str, list[LsaEvent]] = {m.name: [] for m in topo.monitors}
        self.rids = {n: topo.router_id(n) for n in topo.routers}
        self.speakers = set(topo._order).difference(topo.hosts)
        # id(link) -> (lowest delay in microseconds, number of possible
        # delays, bits per draw); delays span [lo, hi] whole microseconds.
        self.delay_draw = {}
        for l in topo.links:
            lo = int(l.delay_lo_ms * 1000)
            width = int(l.delay_hi_ms * 1000) + 1 - lo
            self.delay_draw[id(l)] = (lo, width, width.bit_length())
        # Each node's (link, peer) in topology link order, the order in which
        # a flood draws its delays.
        self.neighbors = {n: [(l, l.other(n)) for l in topo.links if n in (l.node_a, l.node_b)]
                          for n in topo.nodes()}
        # The same without hosts, as (link, peer, peer's heap order,
        # *delay_draw): what ``flood`` needs to push without calling ``push``
        # or ``link_delay_us``.
        self.flood_targets = {
            n: [(link, peer, topo._order[peer], *self.delay_draw[id(link)])
                for link, peer in adj if peer not in topo.hosts]
            for n, adj in self.neighbors.items()
        }

    # -- scheduling helpers --

    def push(self, t_us: int, node: str, kind: str, payload: tuple):
        self.counter += 1
        order = self.topo._order.get(node, len(self.topo._order))
        heapq.heappush(self.heap, (t_us, order, self.counter, kind, node, payload))

    def link_delay_us(self, link: Link) -> int:
        """A delay drawn uniformly from the link's range, as ``randrange(lo,
        hi + 1)`` draws it: the same getrandbits rejection loop, without the
        argument checks.  The generator stream is the same."""
        lo, width, bits = self.delay_draw[id(link)]
        getrandbits = self.rng.getrandbits
        r = getrandbits(bits)
        while r >= width:
            r = getrandbits(bits)
        return lo + r

    def record(self, node: str, ts_us: int, inst: _Instance, age: int, is_ack: bool):
        for tap in self.taps.get(node, ()):
            self.logs[tap].append(LsaEvent(
                ts_us=ts_us, monitor=tap, ls_type=inst.ls_type,
                adv_router=inst.origin, ls_id=inst.ls_id,
                ls_age=min(age, 3600), ls_seq=inst.seq, is_ack=is_ack,
            ))

    def entry_age(self, entry: _DbEntry, now_us: int) -> int:
        return min(entry.age_at_install + (now_us - entry.installed_us) // 1_000_000, 3600)

    # -- protocol actions --

    def flood(self, node: str, t_us: int, inst: _Instance, age: int, skip_link: Link | None):
        # ``push`` and ``link_delay_us`` inlined.
        getrandbits, heap = self.rng.getrandbits, self.heap
        for link, peer, order, lo, width, bits in self.flood_targets[node]:
            if link.up and t_us >= link.forming_until_us and link is not skip_link:
                r = getrandbits(bits)
                while r >= width:
                    r = getrandbits(bits)
                self.counter += 1
                heapq.heappush(heap, (t_us + lo + r, order, self.counter, "deliver", peer,
                                      (node, inst, age, link)))

    def refresh(self, node: str, t_us: int, epoch: int):
        # A refresh timer lapses once a newer origination has restarted it.
        if epoch == self.refresh_epoch[node]:
            self.originate(node, t_us)

    def originate(self, node: str, t_us: int, digest: str | None = None):
        if node not in self.topo.routers:
            return
        self.own_seq[node] += 1
        rid = self.rids[node]
        inst = _Instance(rid, 1, rid, self.own_seq[node], digest or self.link_digest(node))
        self.db[node][(inst.ls_type, inst.ls_id, inst.origin)] = _DbEntry(inst.seq, 0, t_us, inst.digest)
        self.record(node, t_us, inst, 0, is_ack=False)
        self.flood(node, t_us, inst, age=1, skip_link=None)
        self.refresh_epoch[node] += 1
        interval_us = int(REFRESH_INTERVAL_S * 1e6)
        refresh_at = t_us + interval_us + self.rng.randint(-self.jitter_us, self.jitter_us)
        if refresh_at <= self.duration_us:
            self.push(refresh_at, node, "refresh", (self.refresh_epoch[node],))

    def link_digest(self, node: str) -> str:
        up = sorted(peer for link, peer in self.neighbors[node] if link.up)
        return f"{node}:{','.join(up)}"

    def deliver(self, node: str, t_us: int, sender: str, inst: _Instance, age: int, via: Link):
        if node in self.taps:
            self.record(node, t_us, inst, age, is_ack=False)
        # Fight-back: an originator seeing a fresher instance of its own LSA
        # immediately advertises a newer one that cancels it.
        if inst.origin == self.rids.get(node):
            if inst.seq > self.own_seq[node]:
                self.own_seq[node] = inst.seq
                self.originate(node, t_us)
                return
        key = (inst.ls_type, inst.ls_id, inst.origin)
        entry = self.db[node].get(key)
        if entry is None or inst.seq > entry.seq:
            self.db[node][key] = _DbEntry(inst.seq, age, t_us, inst.digest)
            self.send_ack(node, sender, t_us, inst, age, via)
            self.flood(node, t_us, inst, age=age + 1, skip_link=via)
        elif inst.seq == entry.seq:
            # Same instance racing in from both sides: the copy with the
            # smaller age is accepted and acknowledged, the other discarded.
            if age < self.entry_age(entry, t_us):
                self.db[node][key] = _DbEntry(inst.seq, age, t_us, inst.digest)
                self.send_ack(node, sender, t_us, inst, age, via)
        # Older instances are silently dropped; the fight-back path already
        # covers falsification freshness, so no flood-back is modeled.

    def send_ack(self, node: str, sender: str, t_us: int, inst: _Instance, age: int, via: Link):
        """Acknowledge an accepted instance back to the OSPF speaker that sent it.

        An ack only matters where a tap records it, so it is scheduled only
        when the sender is tapped.  Its link delay is drawn either way: the
        generator stream, and so every later delay, stays the same as when
        every ack was scheduled.  Skipped pushes keep the relative heap
        order of the rest, since the scheduling counter only grows.
        """
        if sender not in self.speakers:
            return
        arrival_us = t_us + self.link_delay_us(via)
        if sender in self.taps:
            self.push(arrival_us, sender, "ack", (inst, age, True))

    def set_iface(self, node: str, t_us: int, iface: str, up: bool):
        link = self.topo.find_link(node, iface)
        if link.up == up:
            self.warnings.append(
                f"t={t_us / 1e6:.3f}s: {node}.{iface} already {'up' if up else 'down'}; no-op"
            )
            return
        link.up = up
        if up:
            link.forming_until_us = t_us + int(RESYNC_DELAY_S * 1e6)
            self.push(link.forming_until_us, link.node_a, "resync", (link,))
        for end in (link.node_a, link.node_b):
            if end in self.topo.routers:
                self.push(t_us, end, "originate", (None,))
                self.push(t_us + int(REORIGINATION_FOLLOWUP_S * 1e6), end, "originate", (None,))

    def resync(self, node: str, t_us: int, link: Link):
        """Database exchange after an adjacency forms: each side requests the
        entries its peer holds newer, producing one update per stale entry."""
        if not link.up:
            return
        for src, dst in ((link.node_a, link.node_b), (link.node_b, link.node_a)):
            if src in self.topo.hosts or dst in self.topo.hosts:
                continue
            for key, entry in sorted(self.db[src].items()):
                peer_entry = self.db[dst].get(key)
                if peer_entry is None or entry.seq > peer_entry.seq:
                    inst = _Instance(key[2], key[0], key[1], entry.seq, entry.digest)
                    age = self.entry_age(entry, t_us) + 1
                    self.push(t_us + self.link_delay_us(link), dst, "deliver",
                              (src, inst, age, link))

    # -- attacks --

    def attack_disguised(self, attacker: str, t_us: int, victim: str):
        vid = self.topo.router_id(victim)
        base_seq = self.own_seq[victim]
        trigger = _Instance(vid, 1, vid, base_seq + 1, "forged-trigger")
        disguised = _Instance(vid, 1, vid, base_seq + 2, "forged-disguised")
        self.push(t_us, attacker, "inject", (trigger,))
        self.push(t_us + int(DISGUISED_LAG_S * 1e6), attacker, "inject", (disguised,))

    def do_inject(self, node: str, t_us: int, inst: _Instance):
        """Install a crafted instance at the compromised node and flood it."""
        key = (inst.ls_type, inst.ls_id, inst.origin)
        entry = self.db[node].get(key)
        if entry is None or inst.seq > entry.seq:
            self.db[node][key] = _DbEntry(inst.seq, 0, t_us, inst.digest)
        self.record(node, t_us, inst, 0, is_ack=False)
        self.flood(node, t_us, inst, age=1, skip_link=None)

    def attack_adjacency_spoof(self, host: str, t_us: int, phantom_id: str):
        # host attachments are implicit links; sample the default delay range
        router = self.topo.hosts[host]
        self.phantom_seq[phantom_id] = self.phantom_seq.get(phantom_id, INITIAL_SEQ - 1) + 1
        inst = _Instance(phantom_id, 1, phantom_id, self.phantom_seq[phantom_id], "phantom")
        lo, hi = DEFAULT_DELAY_RANGE_MS
        delay = self.rng.randint(int(lo * 1000), int(hi * 1000))
        self.push(t_us + delay, router, "deliver", (host, inst, 1, None))

    def attack_partition(self, router: str, t_us: int, drop_links: list[str]):
        digest = f"{router}:falsified(-{','.join(sorted(drop_links))})"
        self.push(t_us, router, "originate", (digest,))

    # -- main loop --

    def schedule_scenario(self, events: list[ScenarioEvent]):
        for ev in events:
            t_us = int(ev.time_s * 1e6)
            if ev.kind in ("iface_down", "iface_up"):
                self.push(t_us, ev.subject["node"], "iface", (ev.subject["iface"], ev.kind == "iface_up"))
                continue
            subject_key, default_period_s, strike_args = ATTACK_SCHEDULES[ev.kind]
            period = float(ev.params.get("period_s", default_period_s))
            duration = float(ev.params.get("duration_s", 1200.0))
            args = strike_args(ev)
            for k in range(max(int(duration / period), 1)):
                strike_us = t_us + int(k * period * 1e6)
                if strike_us > self.duration_us:
                    break  # it would lapse unrun, as attack events do after the end
                self.push(strike_us, ev.subject[subject_key], ev.kind, args)

    def run(self) -> None:
        # Event kind -> (handler called as handler(node, t_us, *payload),
        # whether the event lapses once the run's duration has passed).
        handlers = {
            "originate": (self.originate, True),
            "refresh": (self.refresh, True),
            "deliver": (self.deliver, False),
            "ack": (self.record, False),
            "iface": (self.set_iface, True),
            "resync": (self.resync, False),
            "inject": (self.do_inject, False),
            "attack_disguised": (self.attack_disguised, True),
            "attack_adjacency_spoof": (self.attack_adjacency_spoof, True),
            "attack_partition": (self.attack_partition, True),
        }
        for node in self.topo.routers:
            self.push(0, node, "originate", (None,))
        heap, end_us = self.heap, self.duration_us
        while heap:
            t_us, _order, _c, kind, node, payload = heapq.heappop(heap)
            handler, lapses = handlers[kind]
            if t_us <= end_us or not lapses:
                handler(node, t_us, *payload)


def run(topology: Topology, scenario: list[ScenarioEvent], duration_s: float,
        seed: int, refresh_jitter_s: float = REFRESH_JITTER_S) -> RunResult:
    """Simulate the topology under a scenario; returns per-monitor event logs.

    Identical arguments produce byte-identical logs.  Origination stops at
    ``duration_s`` but in-flight floods drain fully, so per-monitor totals
    of a quiet run conserve exactly.
    """
    # Shallow copy whose links carry fresh state.
    topo = replace(topology, links=[replace(l, up=True) for l in topology.links])
    validate_scenario(scenario, topo, duration_s)
    engine = _Engine(topo, seed, duration_s, refresh_jitter_s)
    engine.schedule_scenario(scenario)
    engine.run()
    return RunResult(logs=engine.logs, warnings=engine.warnings)


def total_event_counts(logs: dict[str, list[LsaEvent]]) -> dict[str, int]:
    """Per-monitor totals of non-ack LSA events."""
    return {mon: sum(1 for e in events if not e.is_ack) for mon, events in logs.items()}


# --- generated topologies ---------------------------------------------------


def random_topology(n_transit: int, n_stub: int, seed: int,
                    extra_links: int = 2, max_degree: int = 4,
                    name: str | None = None) -> Topology:
    """Random connected topology: a degree-capped transit tree plus chords,
    with single-homed stub monitor nodes hung off the transit core."""
    rng = random.Random(seed)
    routers = [f"t{i + 1}" for i in range(n_transit)]
    stubs = [f"s{i + 1}" for i in range(n_stub)]
    degree = {r: 0 for r in routers}
    links: list[tuple[str, str]] = []

    def connect(a: str, b: str):
        links.append((a, b))
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1

    for i in range(1, n_transit):
        candidates = [r for r in routers[:i] if degree[r] < max_degree - 1]
        parent = rng.choice(candidates or routers[:i])
        connect(routers[i], parent)
    attempts = 0
    added = 0
    existing = {frozenset(l) for l in links}
    while added < extra_links and attempts < 50 * (extra_links + 1):
        attempts += 1
        a, b = rng.sample(routers, 2) if n_transit > 1 else (routers[0], routers[0])
        if a == b or frozenset((a, b)) in existing:
            continue
        if degree[a] >= max_degree - 1 or degree[b] >= max_degree - 1:
            continue
        existing.add(frozenset((a, b)))
        connect(a, b)
        added += 1
    stub_home = {}
    for s in stubs:
        candidates = [r for r in routers if degree[r] < max_degree]
        home = rng.choice(candidates or routers)
        stub_home[s] = home
        connect(home, s)

    ifaces = {n: [] for n in routers + stubs}
    topo_links = []
    for a, b in links:
        ifa = f"eth{len(ifaces[a])}"
        ifaces[a].append(ifa)
        ifb = f"eth{len(ifaces[b])}"
        ifaces[b].append(ifb)
        topo_links.append(Link(a, ifa, b, ifb))
    topo = Topology(
        name=name or f"random-{n_transit}x{n_stub}-{seed}",
        routers={r: ifaces[r] for r in routers},
        stubs={s: ifaces[s] for s in stubs},
        links=topo_links,
        monitors=[Monitor(s, s, stub=True) for s in stubs],
    )
    topo.validate()
    return topo
