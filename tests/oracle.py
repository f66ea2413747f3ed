"""Brute-force references for the recurrence measures, the scoring, the
alert collapse, the binning, the file formats and the flooding simulator.

Everything here is deliberately naive: explicit python loops over matrix
cells, diagonals, columns, baseline windows and events, and plain ``math`` and
``statistics`` arithmetic; files are written one row and read one record
at a time, and the simulator runs one event record at a time.  It shares
no code with the package's vectorized and bulk implementations so the two
can check each other.
"""

import heapq
import json
import math
import random
import statistics
import struct


def embed_points(series, tau, m):
    n = len(series) - (m - 1) * tau
    return [[series[i + k * tau] for k in range(m)] for i in range(n)]


def distance(p, q, norm):
    """Coordinate differences accumulated in coordinate order."""
    if norm == "euclidean":
        return math.sqrt(sum((a - b) * (a - b) for a, b in zip(p, q)))
    if norm == "maximum":
        return max(abs(a - b) for a, b in zip(p, q))
    raise ValueError(norm)


def recurrence(points, eps, norm):
    n = len(points)
    return [[1 if distance(points[i], points[j], norm) <= eps else 0 for j in range(n)]
            for i in range(n)]


def diameter(points, norm):
    return max(distance(p, q, norm) for p in points for q in points)


def nearest_neighbors(points):
    """Each point's euclidean nearest neighbor, self excluded; ties go to
    the lowest index."""
    out = []
    for i, p in enumerate(points):
        best, best_j = math.inf, None
        for j, q in enumerate(points):
            if j != i and distance(p, q, "euclidean") < best:
                best, best_j = distance(p, q, "euclidean"), j
        out.append(best_j)
    return out


def recurrence_count(rm):
    return sum(rm[i][j] for i in range(len(rm)) for j in range(len(rm)))


def _runs_of(seq, target):
    lengths = []
    run = 0
    for v in seq:
        if v == target:
            run += 1
        else:
            if run:
                lengths.append(run)
            run = 0
    if run:
        lengths.append(run)
    return lengths


def diagonal_lengths(rm, theiler):
    n = len(rm)
    w = max(theiler, 1)
    out = []
    for k in range(-(n - 1), n):
        if abs(k) < w:
            continue
        if k >= 0:
            seq = [rm[i][i + k] for i in range(n - k)]
        else:
            seq = [rm[i - k][i] for i in range(n + k)]
        out.extend(_runs_of(seq, 1))
    return out


def vertical_lengths(rm):
    n = len(rm)
    out = []
    for j in range(n):
        out.extend(_runs_of([rm[i][j] for i in range(n)], 1))
    return out


def white_lengths(rm):
    """Interior runs of zeros per column; border-touching runs dropped."""
    n = len(rm)
    out = []
    for j in range(n):
        col = [rm[i][j] for i in range(n)]
        i = 0
        while i < n:
            if col[i] == 0:
                start = i
                while i < n and col[i] == 0:
                    i += 1
                if start > 0 and i < n:
                    out.append(i - start)
            else:
                i += 1
    return out


def histogram(lengths):
    h = {}
    for length in lengths:
        h[length] = h.get(length, 0) + 1
    return h


def entropy(lengths):
    if not lengths:
        return 0.0
    h = histogram(lengths)
    total = sum(h.values())
    ent = 0.0
    for length in sorted(h):
        p = h[length] / total
        ent -= p * math.log(p)
    return ent


def measures(rm, l_min=2, v_min=2, theiler=1):
    n = len(rm)
    diag = diagonal_lengths(rm, theiler)
    vert = vertical_lengths(rm)
    white = white_lengths(rm)

    rr = recurrence_count(rm) / (n * n)

    diag_total = sum(diag)
    diag_long = [l for l in diag if l >= l_min]
    det = sum(diag_long) / diag_total if diag_total else 0.0
    l_max = float(max(diag)) if diag else 0.0
    l_mean = sum(diag_long) / len(diag_long) if diag_long else 0.0
    l_entr = entropy(diag_long)

    vert_long = [v for v in vert if v >= v_min]
    tt = sum(vert_long) / len(vert_long) if vert_long else 0.0
    v_entr = entropy(vert_long)

    t2 = sum(white) / len(white) if white else 0.0
    w_entr = entropy(white)

    return {
        "rr": rr, "det": det, "l_max": l_max, "l_mean": l_mean, "l_entr": l_entr,
        "tt": tt, "v_entr": v_entr, "t2": t2, "w_entr": w_entr,
    }


def deviation_scores(values, baseline_bins, floor, floor_scale=1.0):
    """One measure's scores and baseline medians, one window at a time.

    Window i >= baseline_bins is scored against the ``baseline_bins``
    values before it: |v[i] - median| / max(MAD, floor * floor_scale, 1e-6).
    Earlier windows score 0 with median 0.  A zero median is +0.0, never
    -0.0, the convention the written alerts already hold.
    """
    v = [float(x) for x in values]
    scores = [0.0] * len(v)
    medians = [0.0] * len(v)
    for i in range(baseline_bins, len(v)):
        base = v[i - baseline_bins : i]
        med = statistics.median(base) + 0.0  # -0.0 + 0.0 is +0.0
        mad = statistics.median([abs(x - med) for x in base])
        medians[i] = med
        scores[i] = abs(v[i] - med) / max(mad, floor * floor_scale, 1e-6)
    return scores, medians


def alerts(measures, scores, medians, baseline_bins, k_mad):
    """Alert collapse as a scan over windows that tracks whether a deviant run
    is open, given each enabled measure's scores and baseline medians.

    ``measures`` is read as a ``MeasureSeries``: its length, ``values``,
    ``window_end_bins`` and ``time_s(i)``.  Each alert is a tuple shaped as
    an ``Alert``: (bin index, time, ((name, value, baseline median, score)
    of each measure that fired), severity).
    """
    n, b = len(measures), baseline_bins
    if n <= b:
        return []
    found, in_run = [], False
    for i in range(b, n):
        fired = [name for name in scores if scores[name][i] >= k_mad]
        if fired and not in_run:
            triggered = tuple(
                (name, float(measures.values[name][i]), float(medians[name][i]),
                 float(scores[name][i]))
                for name in fired
            )
            found.append((int(measures.window_end_bins[i]), measures.time_s(i), triggered,
                          max(t[3] for t in triggered)))
            in_run = True
        elif not fired:
            in_run = False
    return found


def series_csv(start_us, bin_size_s, counts):
    """The text of a count-series CSV, formatted one bin at a time."""
    rows = ["bin_index,t_start_s,count"]
    start_s = start_us / 1e6
    for i, c in enumerate(counts):
        rows.append(f"{i},{start_s + i * bin_size_s:.6f},{int(c)}")
    return "\n".join(rows) + "\n"


def lsa_log(events):
    """The text of a JSON-lines event log, one ``json.dumps`` per event."""
    return "".join(json.dumps({
        "ts_us": e.ts_us, "monitor": e.monitor, "ls_type": e.ls_type,
        "adv_router": e.adv_router, "ls_id": e.ls_id, "ls_age": e.ls_age,
        "ls_seq": e.ls_seq, "is_ack": e.is_ack,
    }, separators=(",", ":")) + "\n" for e in events)


def read_alerts_jsonl(path):
    """The records of an alerts file, one ``json.loads`` per non-blank line."""
    records = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                records.append(json.loads(line))
    return records


def pcap_records(blob):
    """Read a classic pcap held in memory one record at a time.

    Returns the ``(ts_us, data, snaplen_cut)`` of every whole record and
    whether the bytes ended inside a record.
    """
    endian = "<" if struct.unpack("<I", blob[:4])[0] == 0xA1B2C3D4 else ">"
    records, off = [], 24
    while off < len(blob):
        if off + 16 > len(blob):
            return records, True
        ts_sec, ts_usec, incl_len, orig_len = struct.unpack(endian + "IIII", blob[off:off + 16])
        if off + 16 + incl_len > len(blob):
            return records, True
        records.append((ts_sec * 1_000_000 + ts_usec, blob[off + 16:off + 16 + incl_len],
                        incl_len < orig_len))
        off += 16 + incl_len
    return records, False


def lsa_pcap(events):
    """A little-endian Ethernet pcap holding, per event, one frame: an LS
    Update with that one LSA header, or an LS Ack for an ack event."""
    out = [struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)]
    for e in events:
        lsa = struct.pack(">HBB4s4siHH", e.ls_age, 0, e.ls_type, _ip(e.ls_id),
                          _ip(e.adv_router), e.ls_seq, 0, 20)
        ptype, body = (5, lsa) if e.is_ack else (4, struct.pack(">I", 1) + lsa)
        ospf = struct.pack(">BBH4s4sHH8s", 2, ptype, 24 + len(body), _ip(e.adv_router),
                           bytes(4), 0, 0, bytes(8)) + body
        ip = struct.pack(">BBHHHBBH4s4s", 0x45, 0, 20 + len(ospf), 0, 0, 1, 89, 0,
                         bytes([10, 0, 0, 1]), bytes([224, 0, 0, 5])) + ospf
        frame = b"\x01\x00\x5e\x00\x00\x05" + b"\x02" * 6 + b"\x08\x00" + ip
        out.append(struct.pack("<IIII", e.ts_us // 1_000_000, e.ts_us % 1_000_000,
                               len(frame), len(frame)) + frame)
    return b"".join(out)


def _ip(dotted):
    return bytes(int(part) for part in dotted.split("."))


def bin_series(events, flt, bin_size_s, t0_us, t1_us):
    """Count the events that ``flt`` selects into half-open bins from t0,
    one event at a time: ``(counts, dropped)``, where ``dropped`` counts the
    selected events outside [t0, t1)."""
    bin_us = bin_size_s * 1_000_000
    counts = [0] * -((t0_us - t1_us) // bin_us)
    dropped = 0
    for ev in events:
        if not ((flt.include_acks or not ev.is_ack)
                and (flt.monitor is None or ev.monitor == flt.monitor)
                and (flt.origin is None or ev.adv_router == flt.origin)
                and (flt.ls_types is None or ev.ls_type in flt.ls_types)):
            continue
        if not t0_us <= ev.ts_us < t1_us:
            dropped += 1
            continue
        counts[(ev.ts_us - t0_us) // bin_us] += 1
    return counts, dropped


# --- reference simulator ----------------------------------------------------
#
# The model's constants, as the simulator states them: MaxAge (RFC 2328
# appendix B), the first sequence number 0x80000001, the refresh interval,
# the lags of resync, re-origination follow-ups and the second forged copy,
# the delay range of a host's implicit link, and each attack's defaults.
MAX_AGE_S = 3600
FIRST_SEQ = -(2**31) + 1
REFRESH_S = 1800.0
RESYNC_S = 2.5
FOLLOWUP_S = 10.0
FORGE_LAG_S = 0.15
HOST_DELAY_MS = (2, 20)
ATTACK_DEFAULTS = {
    "attack_disguised": {"period_s": 60.0, "duration_s": 1200.0},
    "attack_adjacency_spoof": {"period_s": 30.0, "duration_s": 1200.0,
                               "phantom_id": "10.99.0.99"},
    "attack_partition": {"period_s": 60.0, "duration_s": 1200.0},
}
# The subject key that names the node each kind of event strikes at.
STRIKE_AT = {"iface_down": "node", "iface_up": "node", "attack_disguised": "attacker",
             "attack_adjacency_spoof": "host", "attack_partition": "router"}


class _Event:
    """A plain event record; ``kind`` names what happens at ``node``."""

    def __init__(self, kind, node, **args):
        self.kind, self.node, self.args = kind, node, args


class _Row:
    def __init__(self, ts_us, monitor, origin, age, seq, is_ack):
        self.ts_us, self.monitor, self.ls_type = ts_us, monitor, 1
        self.adv_router = self.ls_id = origin
        self.ls_age, self.ls_seq, self.is_ack = age, seq, is_ack


def simulate(topology, scenario, duration_s, seed, jitter):
    """Each monitor's event log text, from a plain event-by-event run of
    the flooding model that ``ospfrqa.sim`` describes (RFC 2328 §13).

    One heap holds every event as ``(time, node order, sequence, event)``.
    Each router originates at 0 s and on a refresh timer, which lapses once
    a newer origination restarts it.  An arrival is recorded at the node's
    taps; a router seeing a newer copy of its own LSA advertises a newer
    one at once; otherwise a copy is accepted when it is a newer instance,
    or the same instance with a smaller age than the held one has now, and
    then acknowledged over its link (the ack is its own event, recorded at
    the sender's taps) and, if newer, flooded on every other up link.  Each
    link delay is ``randrange(lo, hi + 1)`` microseconds."""
    rng = random.Random(seed)
    end_us = int(duration_s * 1e6)
    jitter_us = int(jitter * 1e6)
    names = list(topology.routers) + list(topology.stubs) + list(topology.hosts)
    order = {name: i for i, name in enumerate(names)}
    first_id = int.from_bytes(_ip("10.0.0.1"), "big")
    rid = {name: ".".join(str(b) for b in (first_id + i).to_bytes(4, "big"))
           for i, name in enumerate(names)}
    taps = {name: [m.name for m in topology.monitors if m.node == name] for name in names}
    rows = {m.name: [] for m in topology.monitors}
    links = [{"a": l.node_a, "ia": l.iface_a, "b": l.node_b, "ib": l.iface_b,
              "lo": int(l.delay_lo_ms * 1000), "hi": int(l.delay_hi_ms * 1000),
              "up": True, "forming_until": 0} for l in topology.links]
    lsdb = {name: {} for name in names}  # origin -> {"seq", "age", "installed"}
    own_seq = {r: FIRST_SEQ - 1 for r in topology.routers}
    timer = {r: 0 for r in topology.routers}  # the live refresh timer's number
    phantom_seq = {}
    heap = []
    pushed = [0]

    def push(t_us, event):
        pushed[0] += 1
        heapq.heappush(heap, (t_us, order[event.node], pushed[0], event))

    def age_now(entry, t_us):
        return min(entry["age"] + (t_us - entry["installed"]) // 1_000_000, MAX_AGE_S)

    def record(node, t_us, origin, seq, age, is_ack):
        for tap in taps[node]:
            rows[tap].append(_Row(t_us, tap, origin, min(age, MAX_AGE_S), seq, is_ack))

    def delay(link):
        return rng.randrange(link["lo"], link["hi"] + 1)

    def flood(node, t_us, origin, seq, age, skip):
        for link in links:
            if node not in (link["a"], link["b"]) or link is skip:
                continue
            if link["up"] and t_us >= link["forming_until"]:
                peer = link["b"] if node == link["a"] else link["a"]
                push(t_us + delay(link), _Event("arrive", peer, sender=node, origin=origin,
                                                seq=seq, age=age, link=link))

    def originate(node, t_us):
        own_seq[node] += 1
        seq = own_seq[node]
        lsdb[node][rid[node]] = {"seq": seq, "age": 0, "installed": t_us}
        record(node, t_us, rid[node], seq, 0, False)
        flood(node, t_us, rid[node], seq, 1, None)
        timer[node] += 1
        due = t_us + int(REFRESH_S * 1e6) + rng.randint(-jitter_us, jitter_us)
        if due <= end_us:
            push(due, _Event("refresh", node, timer=timer[node]))

    def arrive(node, t_us, sender, origin, seq, age, link):
        record(node, t_us, origin, seq, age, False)
        if node in own_seq and origin == rid[node] and seq > own_seq[node]:
            own_seq[node] = seq  # fight back past the forged number
            originate(node, t_us)
            return
        held = lsdb[node].get(origin)
        newer = held is None or seq > held["seq"]
        if not newer and not (seq == held["seq"] and age < age_now(held, t_us)):
            return
        lsdb[node][origin] = {"seq": seq, "age": age, "installed": t_us}
        if link is not None:
            push(t_us + delay(link), _Event("ack", sender, origin=origin, seq=seq, age=age))
        if newer:
            flood(node, t_us, origin, seq, age + 1, link)

    def set_link(node, t_us, iface, up):
        link = next(l for l in links if (l["a"], l["ia"]) == (node, iface)
                    or (l["b"], l["ib"]) == (node, iface))
        if link["up"] == up:
            return
        link["up"] = up
        if up:
            link["forming_until"] = t_us + int(RESYNC_S * 1e6)
            push(link["forming_until"], _Event("resync", link["a"], link=link))
        for end in (link["a"], link["b"]):
            if end in topology.routers:
                push(t_us, _Event("originate", end))
                if t_us + int(FOLLOWUP_S * 1e6) <= end_us:
                    push(t_us + int(FOLLOWUP_S * 1e6), _Event("originate", end))

    def resync(t_us, link):
        if not link["up"]:
            return
        for src, dst in ((link["a"], link["b"]), (link["b"], link["a"])):
            for origin in sorted(lsdb[src]):
                entry, peer = lsdb[src][origin], lsdb[dst].get(origin)
                if peer is None or entry["seq"] > peer["seq"]:
                    push(t_us + delay(link),
                         _Event("arrive", dst, sender=src, origin=origin, seq=entry["seq"],
                                age=age_now(entry, t_us) + 1, link=link))

    def strike(node, t_us, ev, params):
        if ev.kind in ("iface_down", "iface_up"):
            set_link(node, t_us, ev.subject["iface"], ev.kind == "iface_up")
        elif ev.kind == "attack_disguised":
            victim_seq = own_seq[ev.subject["victim"]]
            victim_id = rid[ev.subject["victim"]]
            push(t_us, _Event("inject", node, origin=victim_id, seq=victim_seq + 1))
            push(t_us + int(FORGE_LAG_S * 1e6),
                 _Event("inject", node, origin=victim_id, seq=victim_seq + 2))
        elif ev.kind == "attack_adjacency_spoof":
            phantom = params["phantom_id"]
            phantom_seq[phantom] = phantom_seq.get(phantom, FIRST_SEQ - 1) + 1
            lo, hi = HOST_DELAY_MS
            push(t_us + rng.randrange(lo * 1000, hi * 1000 + 1),
                 _Event("arrive", topology.hosts[node], sender=node, origin=phantom,
                        seq=phantom_seq[phantom], age=1, link=None))
        else:  # attack_partition: a re-origination with falsified content
            push(t_us, _Event("originate", node))

    def inject(node, t_us, origin, seq):
        held = lsdb[node].get(origin)
        if held is None or seq > held["seq"]:
            lsdb[node][origin] = {"seq": seq, "age": 0, "installed": t_us}
        record(node, t_us, origin, seq, 0, False)
        flood(node, t_us, origin, seq, 1, None)

    for ev in scenario:
        params = {**ATTACK_DEFAULTS.get(ev.kind, {}), **ev.params}
        period = float(params.get("period_s", 1.0))
        strikes = max(int(params.get("duration_s", 0.0) / period), 1)
        for k in range(strikes):
            t_us = int(ev.time_s * 1e6) + int(k * period * 1e6)
            if t_us > end_us:
                break
            push(t_us, _Event("strike", ev.subject[STRIKE_AT[ev.kind]], ev=ev, params=params))
    for router in topology.routers:
        push(0, _Event("originate", router))

    while heap:
        t_us, _, _, event = heapq.heappop(heap)
        node, args = event.node, event.args
        if event.kind == "arrive":
            arrive(node, t_us, **args)
        elif event.kind == "ack":
            record(node, t_us, args["origin"], args["seq"], args["age"], True)
        elif event.kind == "originate":
            originate(node, t_us)
        elif event.kind == "refresh":
            if args["timer"] == timer[node]:
                originate(node, t_us)
        elif event.kind == "resync":
            resync(t_us, args["link"])
        elif event.kind == "inject":
            inject(node, t_us, **args)
        else:
            strike(node, t_us, **args)
    return {mon: lsa_log(log) for mon, log in rows.items()}
