"""Brute-force references for the recurrence measures and the scoring.

Everything here is deliberately naive: explicit python loops over matrix
cells, diagonals, columns and baseline windows, and plain ``math`` and
``statistics`` arithmetic.  It shares no code with the package's vectorized
implementation so the two can check each other.
"""

import math
import statistics


def embed_points(series, tau, m):
    n = len(series) - (m - 1) * tau
    return [[series[i + k * tau] for k in range(m)] for i in range(n)]


def distance(p, q, norm):
    if norm == "euclidean":
        return math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))
    if norm == "maximum":
        return max(abs(a - b) for a, b in zip(p, q))
    raise ValueError(norm)


def recurrence(points, eps, norm):
    n = len(points)
    return [[1 if distance(points[i], points[j], norm) <= eps else 0 for j in range(n)]
            for i in range(n)]


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
    Earlier windows score 0 with median 0.
    """
    v = [float(x) for x in values]
    scores = [0.0] * len(v)
    medians = [0.0] * len(v)
    for i in range(baseline_bins, len(v)):
        base = v[i - baseline_bins : i]
        med = statistics.median(base)
        mad = statistics.median([abs(x - med) for x in base])
        medians[i] = med
        scores[i] = abs(v[i] - med) / max(mad, floor * floor_scale, 1e-6)
    return scores, medians
