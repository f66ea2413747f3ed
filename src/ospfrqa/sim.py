"""Deterministic discrete-event simulation of OSPF LSA flooding.

The model is traffic-focused: routers originate type-1 router-LSAs at
boot, on a refresh timer (every REFRESH_INTERVAL_S, plus or minus a
jitter of at most that interval), and on interface state changes, and
flood them reliably over point-to-point links with per-message sampled
delays.  SPF, the forwarding plane and LSA content are not modeled;
failures and attacks matter only through the LSA update patterns they
create, which is exactly what the detector consumes.  Every instance,
forged or phantom ones included, is a router-LSA whose link state ID is
its advertising router, so it is identified by (origin, sequence number)
and each LSDB is keyed by origin.  A partition attack's ``drop_links``
therefore labels the attack and changes no traffic.

Node roles:

* transit routers originate their own LSA and forward floods;
* stub nodes are OSPF speakers that receive floods, acknowledge, and
  originate nothing (they model the paper's stub-network monitoring
  points: a single-homed attachment sees each flooded instance once);
* hosts sit outside OSPF entirely and exist as attack injection points.

Monitors are passive taps on a node.  They record every LS Update arrival
at the node, the node's own originations, and arriving acknowledgments
(flagged ``is_ack``), each as a row, a plain tuple shaped as an ``LsaEvent``.
Runs are reproducible: one seeded generator is consumed in event order,
times are integer microseconds, and each heap entry is ``(time, node
order, push count, handler, node, *args)``, so ties break on node order,
then push order.  An LS Update arrival has no handler: the loop runs it,
and its args are ``(origin, seq, age, port)``.  The port is the receiving
link end, precomputed: the link's delay draw for the ack, the node's
other links to reflood over, and the node's LSDB, router id and taps.

State changes emit two instances per endpoint (at the event instant and
shortly after), mirroring the paired LSDB transitions a real interface
flap produces (link reachability first, adjacency state a moment later).
An interface coming back up also triggers a database exchange: each side
sends the peer one copy of every entry the peer holds stale, which is
what repopulates an isolated region and produces the request-driven
arrivals at its monitors.
"""

from __future__ import annotations

import functools
import heapq
import ipaddress
import json
import math
import random
import sys
from dataclasses import dataclass, field, replace

from .ingest import MAX_AGE, LsaEvent, _read_text

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
_SHIPPED_TOPOLOGIES = ("paper16", "topo20", "topo35")  # in src/ospfrqa/topologies

# Scenario kind -> (subject key -> what it names, params key -> default).
# A subject key names a router, a host, or, as ``node`` and ``iface``
# together, the end of a link; the first one names the node the event
# strikes at.  An attack strikes once per ``period_s`` for ``duration_s``;
# an interface event, which takes neither, strikes once.
SCENARIO_KINDS = {
    "iface_down": ({"node": "link end", "iface": "link end"}, {}),
    "iface_up": ({"node": "link end", "iface": "link end"}, {}),
    "attack_disguised": ({"attacker": "router", "victim": "router"},
                         {"period_s": 60.0, "duration_s": 1200.0}),
    "attack_adjacency_spoof": ({"host": "host"}, {"period_s": 30.0, "duration_s": 1200.0,
                                                  "phantom_id": "10.99.0.99"}),
    "attack_partition": ({"router": "router"}, {"period_s": 60.0, "duration_s": 1200.0,
                                                "drop_links": ()}),
}


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
        # Consecutive IPv4 addresses from 10.0.0.1: the 256th node is 10.0.1.0.
        first = ipaddress.IPv4Address("10.0.0.1")
        self._ids = {name: str(first + i) for i, name in enumerate(order)}

    def nodes(self) -> list[str]:
        return list(self._order)

    def router_id(self, name: str) -> str:
        return self._ids[name]

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
        for host, router in self.hosts.items():
            if router not in self.routers:
                problems.append(f"host {host!r} attached to unknown router {router!r}")
        for m in self.monitors:
            if m.node not in self._order or m.node in self.hosts:
                problems.append(f"monitor {m.name!r} attached to unknown node {m.node!r}")
            elif m.stub and m.node in self.routers:
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
    range in ms, finite with 0 <= lo <= hi), ``[monitors]`` (name, node,
    ``stub`` or ``transit``).  ``#`` starts a comment.  A node named twice
    in a section, or an interface twice in a row, is an error.
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
        if section in ("routers", "stubs", "hosts") and fields[0] in parts[section]:
            raise TopologyError(f"line {line_no}: {fields[0]} named twice in [{section}]")
        if section in ("routers", "stubs"):
            if len(set(fields[1:])) < len(fields) - 1:
                raise TopologyError(f"line {line_no}: {fields[0]} declares an interface twice")
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
            try:
                lo, hi = map(float, fields[4:]) if fields[4:] else DEFAULT_DELAY_RANGE_MS
            except ValueError:
                lo = hi = math.nan
            if not 0 <= lo <= hi < math.inf:
                raise TopologyError(f"line {line_no}: delays must be finite numbers with "
                                    f"0 <= lo <= hi, got {' '.join(fields[4:])}")
            parts["links"].append(Link(*fields[:4], lo, hi))
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


def load_topology(path) -> Topology:
    """Load and validate a topology file (a shipped one by name); errors name it."""
    from importlib.resources import files

    text_path = str(path)
    if text_path in _SHIPPED_TOPOLOGIES:
        text = files("ospfrqa.topologies").joinpath(f"{text_path}.topo").read_text()
    else:
        text = _read_text(text_path)
    try:
        return parse_topology(text, name=text_path)
    except TopologyError as e:
        raise TopologyError(f"{text_path}: {e}") from None


# --- scenarios --------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioEvent:
    time_s: float
    kind: str
    subject: dict
    params: dict = field(default_factory=dict)


def scenario_from_json(text: str) -> list[ScenarioEvent]:
    """Events from a JSON list of ``{time_s, kind, subject, params}``
    objects and no other keys; :func:`validate_scenario` checks their values."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioError(f"line {e.lineno} column {e.colno}: scenario is not valid JSON: "
                            f"{e.msg}") from None
    if not isinstance(raw, list):
        raise ScenarioError("scenario must be a JSON list of events")
    events = []
    for i, rec in enumerate(raw):
        if not isinstance(rec, dict):
            raise ScenarioError(f"event {i}: expected a JSON object, got {rec!r}")
        missing = {"time_s", "kind", "subject"} - set(rec)
        extra = [k for k in rec if k not in ("time_s", "kind", "subject", "params")]
        if missing or extra:
            raise ScenarioError(f"event {i}: missing {sorted(missing)}" if missing
                                else f"event {i}: {extra[0]}: not an event key")
        events.append(ScenarioEvent(**rec))
    return events


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_router_id(value) -> bool:
    """Whether ``value`` is an IPv4 address string in the canonical dotted
    form, the only form ``extract --origin`` selects and a pcap carries."""
    try:
        return isinstance(value, str) and str(ipaddress.IPv4Address(value)) == value
    except ValueError:
        return False


# Params key -> (test of a value given for it, what the value must be).
_PARAM_CHECKS = {
    "period_s": (lambda v: _is_number(v) and MIN_STRIKE_PERIOD_S <= v <= sys.float_info.max,
                 f"a finite number of at least {MIN_STRIKE_PERIOD_S:g} s (MinLSArrival)"),
    "duration_s": (lambda v: _is_number(v) and 0 <= v <= sys.float_info.max,
                   "a finite number >= 0"),
    "phantom_id": (_is_router_id, "a dotted-quad router id such as 10.99.0.99"),
    "drop_links": (lambda v: isinstance(v, list) and all(isinstance(l, str) for l in v),
                   "a list of strings"),
}


def validate_scenario(events: list[ScenarioEvent], topo: Topology, duration_s: float) -> None:
    """Raise ScenarioError naming each bad event and key.  Each event needs
    a kind of ``SCENARIO_KINDS``, a number ``time_s`` in [0, duration_s] in
    sorted order, a ``subject`` object naming what the kind's entry asks
    for, and a ``params`` object of keys of that entry whose values pass
    ``_PARAM_CHECKS``.  Keys the kind does not take are named in the
    event's own key order."""
    problems = [] if duration_s >= 0 else [f"duration_s: {duration_s!r} is negative"]
    last_t = -1.0
    names = {"router": topo.routers, "host": topo.hosts}
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
        subjects, defaults = SCENARIO_KINDS[ev.kind]
        problems += [f"event {i}: {key}: not a subject key of {ev.kind}"
                     for key in ev.subject if key not in subjects]
        for key, what in subjects.items():
            value = ev.subject.get(key)
            # Subjects name nodes, so they must be strings (and hashable).
            if what in names and not (isinstance(value, str) and value in names[what]):
                problems.append(f"event {i}: {key} {value!r} is not a {what}")
        ends = [ev.subject.get(key) for key, what in subjects.items() if what == "link end"]
        if ends and topo.find_link(*ends) is None:
            problems.append(f"event {i}: no link at {'.'.join(map(str, ends))}")
        for key, value in ev.params.items():
            if key not in defaults:
                problems.append(f"event {i}: {key}: not a params key of {ev.kind}")
            elif not _PARAM_CHECKS[key][0](value):
                problems.append(f"event {i}: {key}: expected {_PARAM_CHECKS[key][1]}, "
                                f"got {value!r}")
    if problems:
        raise ScenarioError("; ".join(problems))


def scenario_paper_failure(start_s: float = 14400.0, spacing_s: float = 14400.0) -> list[ScenarioEvent]:
    """The hardware-failure script: alternating flaps of abr1.eth0 4 hours
    apart, a joint shutdown of abr1.eth0 and r6.eth1 (isolating r14), and a
    closing joint restore of both."""
    t = [start_s + k * spacing_s for k in range(6)]
    abr1, r6 = {"node": "abr1", "iface": "eth0"}, {"node": "r6", "iface": "eth1"}
    script = [(0, "iface_down", abr1), (1, "iface_up", abr1), (2, "iface_down", abr1),
              (3, "iface_up", abr1), (4, "iface_down", abr1), (4, "iface_down", r6),
              (5, "iface_up", abr1), (5, "iface_up", r6)]
    return [ScenarioEvent(t[k], kind, subject) for k, kind, subject in script]


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


CANNED_SCENARIOS = {
    "quiet": lambda: [],
    "paper-failure": scenario_paper_failure,
    "paper-attacks": scenario_paper_attacks,
}


# --- engine -----------------------------------------------------------------


@dataclass
class RunResult:
    rows: dict[str, list[tuple]]  # monitor -> its rows, tuples shaped as LsaEvents
    warnings: list[str]

    @functools.cached_property
    def logs(self) -> dict[str, list[LsaEvent]]:
        """Each monitor's rows named as LsaEvents, built on the first read."""
        return {mon: list(map(LsaEvent._make, rows)) for mon, rows in self.rows.items()}


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
        # Each node's LSDB: advertising router id -> (seq, age, install time).
        self.db: dict[str, dict[str, tuple]] = {n: {} for n in topo.nodes()}
        self.own_seq: dict[str, int] = {n: INITIAL_SEQ - 1 for n in topo.routers}
        self.refresh_epoch: dict[str, int] = {n: 0 for n in topo.routers}
        self.phantom_seq: dict[str, int] = {}
        self.taps: dict[str, list[str]] = {}
        for m in topo.monitors:
            self.taps.setdefault(m.node, []).append(m.name)
        self.rows: dict[str, list[tuple]] = {m.name: [] for m in topo.monitors}
        self.rids = {n: topo.router_id(n) for n in topo.routers}
        # One port per receiving link end, and one per OSPF speaker for what it
        # floods itself or hears from a host (no link): what an LS Update arrival
        # reads that is fixed for where it comes in, as (ack draw, flood targets,
        # LSDB, router id, (tap, rows) pairs).  The ack draw is the link's (lo,
        # width, bits, sender if tapped), or None with no link; a delay is drawn
        # as ``randrange(lo, lo + width)`` draws it, by the same getrandbits loop
        # without the argument checks.  A target, (link, peer, peer's heap order,
        # lo, width, bits, peer's port), comes in topology link order, the order
        # of a flood's draws.  It names the port by its index in ``ports``: ports
        # naming each other would form cycles, which keep each run's rows alive
        # until the cyclic collector runs.
        ends = [(n, None) for n in topo.nodes() if n not in topo.hosts]
        ends += [(n, l) for l in topo.links for n in (l.node_a, l.node_b)]
        self.port_at = {(n, id(l) if l else None): i for i, (n, l) in enumerate(ends)}

        def draw(l: Link) -> tuple:
            lo = int(l.delay_lo_ms * 1000)
            width = int(l.delay_hi_ms * 1000) + 1 - lo
            return lo, width, width.bit_length()

        def port(node: str, via: Link | None) -> tuple:
            sender = via and via.other(node)
            targets = [(l, l.other(node), topo._order[l.other(node)], *draw(l),
                        self.port_at[l.other(node), id(l)])
                       for l in topo.links if node in (l.node_a, l.node_b)
                       and l is not via and l.other(node) not in topo.hosts]
            return (via and (*draw(via), sender if sender in self.taps else None), targets,
                    self.db[node], self.rids.get(node),
                    tuple((tap, self.rows[tap]) for tap in self.taps.get(node, ())))

        self.ports = [port(n, l) for n, l in ends]

    # -- scheduling helpers --

    def push(self, t_us: int, node: str, handler, *args):
        """Schedule ``handler(node, t_us, *args)`` or, with no handler, an LS
        Update arriving at ``node``: args ``(origin, seq, age, port)``."""
        self.counter += 1
        heapq.heappush(self.heap, (t_us, self.topo._order[node], self.counter, handler, node,
                                   *args))

    def record(self, node: str, ts_us: int, origin: str, seq: int, age: int, is_ack: bool):
        for tap in self.taps.get(node, ()):
            self.rows[tap].append((ts_us, tap, 1, origin, origin, min(age, MAX_AGE), seq, is_ack))

    # -- protocol actions --

    def flood(self, node: str, t_us: int, origin: str, seq: int):
        # Over every link of ``node``; ``push`` inlined, the push count kept local.
        getrandbits, heap, n, ports = self.rng.getrandbits, self.heap, self.counter, self.ports
        for link, peer, order, lo, width, bits, peer_port in ports[self.port_at[node, None]][1]:
            if link.up and t_us >= link.forming_until_us:
                r = getrandbits(bits)
                while r >= width:
                    r = getrandbits(bits)
                n += 1
                heapq.heappush(heap, (t_us + lo + r, order, n, None, peer, origin, seq, 1,
                                      ports[peer_port]))
        self.counter = n

    def refresh(self, node: str, t_us: int, epoch: int):
        # A refresh timer lapses once a newer origination has restarted it.
        if epoch == self.refresh_epoch[node]:
            self.originate(node, t_us)

    def originate(self, node: str, t_us: int):
        self.own_seq[node] += 1
        rid, seq = self.rids[node], self.own_seq[node]
        self.db[node][rid] = (seq, 0, t_us)
        self.record(node, t_us, rid, seq, 0, is_ack=False)
        self.flood(node, t_us, rid, seq)
        self.refresh_epoch[node] += 1
        interval_us = int(REFRESH_INTERVAL_S * 1e6)
        refresh_at = t_us + interval_us + self.rng.randint(-self.jitter_us, self.jitter_us)
        if refresh_at <= self.duration_us:
            self.push(refresh_at, node, self.refresh, self.refresh_epoch[node])

    def set_iface(self, node: str, t_us: int, ev: ScenarioEvent):
        iface, up = ev.subject["iface"], ev.kind == "iface_up"
        link = self.topo.find_link(node, iface)
        if link.up == up:
            self.warnings.append(
                f"t={t_us / 1e6:.3f}s: {node}.{iface} already {'up' if up else 'down'}; no-op"
            )
            return
        link.up = up
        if up:
            link.forming_until_us = t_us + int(RESYNC_DELAY_S * 1e6)
            self.push(link.forming_until_us, link.node_a, self.resync, link)
        followup_us = t_us + int(REORIGINATION_FOLLOWUP_S * 1e6)
        for end in (link.node_a, link.node_b):
            if end in self.topo.routers:
                self.push(t_us, end, self.originate)
                if followup_us <= self.duration_us:  # originations stop at the end
                    self.push(followup_us, end, self.originate)

    iface_down = iface_up = set_iface

    def resync(self, node: str, t_us: int, link: Link):
        """Database exchange after an adjacency forms: each side requests the
        entries its peer holds newer, producing one update per stale entry."""
        if not link.up:
            return
        for src, dst in ((link.node_a, link.node_b), (link.node_b, link.node_a)):
            if src in self.topo.hosts or dst in self.topo.hosts:
                continue
            for origin, (seq, age, installed_us) in sorted(self.db[src].items()):
                peer_entry = self.db[dst].get(origin)
                if peer_entry is None or seq > peer_entry[0]:
                    age = min(age + (t_us - installed_us) // 1_000_000, MAX_AGE) + 1
                    port = self.ports[self.port_at[dst, id(link)]]
                    lo, width = port[0][:2]
                    self.push(t_us + self.rng.randrange(lo, lo + width), dst, None, origin, seq,
                              age, port)

    # -- attacks --

    def attack_disguised(self, attacker: str, t_us: int, ev: ScenarioEvent):
        victim = ev.subject["victim"]
        vid = self.topo.router_id(victim)
        base_seq = self.own_seq[victim]
        self.push(t_us, attacker, self.do_inject, vid, base_seq + 1)
        self.push(t_us + int(DISGUISED_LAG_S * 1e6), attacker, self.do_inject, vid, base_seq + 2)

    def do_inject(self, node: str, t_us: int, origin: str, seq: int):
        """Install a crafted instance at the compromised node and flood it."""
        entry = self.db[node].get(origin)
        if entry is None or seq > entry[0]:
            self.db[node][origin] = (seq, 0, t_us)
        self.record(node, t_us, origin, seq, 0, is_ack=False)
        self.flood(node, t_us, origin, seq)

    def attack_adjacency_spoof(self, host: str, t_us: int, ev: ScenarioEvent):
        # host attachments are implicit links; sample the default delay range
        router, phantom_id = self.topo.hosts[host], ev.params["phantom_id"]
        self.phantom_seq[phantom_id] = self.phantom_seq.get(phantom_id, INITIAL_SEQ - 1) + 1
        lo, hi = DEFAULT_DELAY_RANGE_MS
        delay = self.rng.randint(int(lo * 1000), int(hi * 1000))
        self.push(t_us + delay, router, None, phantom_id, self.phantom_seq[phantom_id], 1,
                  self.ports[self.port_at[router, None]])

    def attack_partition(self, router: str, t_us: int, ev: ScenarioEvent):
        # The falsified instance differs only in content, which is not
        # modelled: each strike is one re-origination.
        self.push(t_us, router, self.originate)

    # -- main loop --

    def schedule_scenario(self, events: list[ScenarioEvent]):
        """Push each event's strikes, up to the run's end, to the engine
        method named by its kind, with the kind's defaults merged in."""
        for ev in events:
            subjects, defaults = SCENARIO_KINDS[ev.kind]
            ev = replace(ev, params={**defaults, **ev.params})
            node, strike = ev.subject[next(iter(subjects))], getattr(self, ev.kind)
            period = float(ev.params.get("period_s", MIN_STRIKE_PERIOD_S))
            t_us = int(ev.time_s * 1e6)
            for k in range(max(int(ev.params.get("duration_s", 0.0) / period), 1)):
                strike_us = t_us + int(k * period * 1e6)
                if strike_us > self.duration_us:
                    break  # attacks stop at the end
                self.push(strike_us, node, strike, ev)

    def run(self) -> None:
        for node in self.topo.routers:
            self.push(0, node, self.originate)
        heap, heappop, heappush, ports = self.heap, heapq.heappop, heapq.heappush, self.ports
        own_seq, push, getrandbits = self.own_seq, self.push, self.rng.getrandbits
        while heap:
            entry = heappop(heap)
            if entry[3] is not None:
                entry[3](entry[4], entry[0], *entry[5:])
                continue
            t_us, _order, _n, _, node, origin, seq, age, port = entry  # an arrival
            ack, targets, node_db, rid, taps = port
            for tap, rows in taps:  # ``record`` inlined
                rows.append((t_us, tap, 1, origin, origin, min(age, MAX_AGE), seq, False))
            # Fight-back: an originator seeing a fresher instance of its own LSA
            # immediately advertises a newer one that cancels it.
            if origin == rid and seq > own_seq[node]:
                own_seq[node] = seq
                self.originate(node, t_us)
                continue
            held = node_db.get(origin)
            reflood = held is None or seq > held[0]
            # Same instance racing in from both sides: the copy with the smaller
            # age is accepted and acknowledged, the other discarded.  Older
            # instances are silently dropped; the fight-back path already covers
            # falsification freshness, so no flood-back is modeled.
            if not (reflood or seq == held[0]
                    and age < min(held[1] + (t_us - held[2]) // 1_000_000, MAX_AGE)):
                continue
            node_db[origin] = (seq, age, t_us)
            # The ack goes back over the port's link to the OSPF speaker that sent
            # the instance; a host sends over no link.  An ack only matters where
            # a tap records it, so it is scheduled only when the sender is tapped.
            # Its link delay is drawn either way: the generator stream, and so
            # every later delay, stays as when every ack was scheduled.  Skipped
            # pushes keep the heap order of the rest: the counter only grows.
            if ack is not None:
                lo, width, bits, tapped_sender = ack
                r = getrandbits(bits)
                while r >= width:
                    r = getrandbits(bits)
                if tapped_sender is not None:
                    push(t_us + lo + r, tapped_sender, self.record, origin, seq, age, True)
            if reflood and targets:  # ``flood`` inlined, over every link but the port's
                age, n = age + 1, self.counter
                for link, peer, order, lo, width, bits, peer_port in targets:
                    if link.up and t_us >= link.forming_until_us:
                        r = getrandbits(bits)
                        while r >= width:
                            r = getrandbits(bits)
                        n += 1
                        heappush(heap, (t_us + lo + r, order, n, None, peer, origin, seq, age,
                                        ports[peer_port]))
                self.counter = n


def run(topology: Topology, scenario: list[ScenarioEvent], duration_s: float,
        seed: int, refresh_jitter_s: float = REFRESH_JITTER_S) -> RunResult:
    """Simulate the topology under a scenario; returns per-monitor event rows.

    Identical arguments produce byte-identical logs.  Origination stops at
    ``duration_s`` but in-flight floods drain fully, so per-monitor totals
    of a quiet run conserve exactly.  A refresh jitter outside [0,
    REFRESH_INTERVAL_S] raises ValueError: a refresh could then fall
    before the origination that scheduled it.
    """
    if not 0 <= refresh_jitter_s <= REFRESH_INTERVAL_S:
        raise ValueError(f"refresh jitter {refresh_jitter_s!r} s outside "
                         f"[0, {REFRESH_INTERVAL_S:g}] s")
    # Shallow copy whose links carry fresh state.
    topo = replace(topology, links=[replace(l, up=True, forming_until_us=0)
                                    for l in topology.links])
    validate_scenario(scenario, topo, duration_s)
    engine = _Engine(topo, seed, duration_s, refresh_jitter_s)
    engine.schedule_scenario(scenario)
    engine.run()
    return RunResult(rows=engine.rows, warnings=engine.warnings)


def total_event_counts(rows: dict[str, list[tuple]]) -> dict[str, int]:
    """Per-monitor totals of non-ack LSA events, from ``RunResult.rows``
    (or its ``logs``, which name the same tuples)."""
    return {mon: sum(not row[-1] for row in log) for mon, log in rows.items()}  # [-1]: is_ack
