"""Simulator inputs built for the tests: random topologies, and the text
and JSON forms that ``sim.parse_topology`` and ``sim.scenario_from_json``
read back.  The shipped topo20 is ``topology_to_text`` of
``random_topology(12, 8, 20, extra_links=4, name="topo20")``."""

from __future__ import annotations

import json
import random

from ospfrqa.sim import Link, Monitor, ScenarioEvent, Topology


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


def scenario_to_json(events: list[ScenarioEvent]) -> str:
    return json.dumps(
        [{"time_s": e.time_s, "kind": e.kind, "subject": e.subject, "params": e.params}
         for e in events],
        indent=2, sort_keys=True,
    ) + "\n"


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
    attempts = added = 0
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
    for s in stubs:
        candidates = [r for r in routers if degree[r] < max_degree]
        connect(rng.choice(candidates or routers), s)

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
