"""Brute-force references for the recurrence measures, the scoring, the
binning and the file formats.

Everything here is deliberately naive: explicit python loops over matrix
cells, diagonals, columns, baseline windows and events, and plain ``math`` and
``statistics`` arithmetic; files are written one row and read one record
at a time.  It shares no code with the package's vectorized and bulk
implementations so the two can check each other.
"""

import json
import math
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
