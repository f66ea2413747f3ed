"""Run one workload in this process and print its measurements as one JSON line.

Started by ``run.py`` in a child process of its own (so that its peak
resident set belongs to the workload alone) with ``src`` on the import
path.  The chain runs in ``.perfbench_work/<workload>/`` under the
checkout, in at least two passes and more until ``--seconds`` have
passed.  The reference computation of ``speed`` is timed before the first
pass and after every pass; ``pipeline_s`` is the median pass scaled to
the reference speed by the median of those samples (the raw pass times
are reported too).  Every pass is checked: each command must
exit 0, and the artifacts must match the digests that digests.json
records for this seed or, for a held-out seed with none recorded, the
artifacts of the first pass.  With ``--trace 1`` exactly two passes run:
the first untraced, as the reference for ``trace.overhead_s``, and the
second traced.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import struct
import sys
from collections import defaultdict
from importlib.metadata import version
from pathlib import Path
from time import perf_counter

import ospfrqa.cli

import layertrace
import speed
import workloads

DIGESTS = Path(__file__).with_name("digests.json")
WORK_DIR = ".perfbench_work"


def run_chain(wl: workloads.Workload, seed: int, work: Path) -> dict:
    """One pass of the workload's command chain; returns timings and exit codes."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    stage_s: dict[str, float] = defaultdict(float)
    exits = []
    events_read = 0

    def run(stage: str, argv: list) -> None:
        nonlocal events_read
        with contextlib.redirect_stdout(io.StringIO()):
            start = perf_counter()
            rc = ospfrqa.cli.main(argv)
            stage_s[stage] += perf_counter() - start
        exits.append((" ".join(argv), rc))
        if stage == "extract":
            events_read += count_input_events(argv)

    home = Path.cwd()
    os.chdir(work)
    try:
        wl.chain(seed, run)
    finally:
        os.chdir(home)
    return {"stage_s": dict(stage_s), "pipeline_s": sum(stage_s.values()),
            "exits": exits, "events_read": events_read}


def count_input_events(argv: list) -> int:
    """Events an extract call reads: log lines, or pcap records (one event each)."""
    if "--log" in argv:
        return Path(argv[argv.index("--log") + 1]).read_bytes().count(b"\n")
    data = Path(argv[argv.index("--pcap") + 1]).read_bytes()
    n, off = 0, 24
    while off < len(data):
        off += 16 + struct.unpack_from("<I", data, off + 8)[0]
        n += 1
    return n


def artifact_group(rel: Path) -> str | None:
    """Digest group of an artifact; None for the benchmark's own synthesized inputs."""
    if rel.parts[0] == "pcap":
        return None
    if rel.parts[0] == "series":
        return "series CSVs"
    if rel.name.startswith("events_"):
        return "simulator logs"
    return rel.name  # manifest.json, measures.csv, alerts.jsonl, run_config.cfg


def artifact_digests(work: Path) -> dict:
    """One SHA-256 per artifact group over the sorted (path, file digest) pairs."""
    groups: dict[str, list] = defaultdict(list)
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        rel = path.relative_to(work)
        group = artifact_group(rel)
        if group is not None:
            groups[group].append(f"{rel.as_posix()} {hashlib.sha256(path.read_bytes()).hexdigest()}")
    return {g: hashlib.sha256("\n".join(lines).encode()).hexdigest()
            for g, lines in sorted(groups.items())}


def compare_digests(got: dict, want: dict, against: str) -> list:
    return [(f"{group} match {against}", got.get(group) == want.get(group))
            for group in sorted(set(got) | set(want))]


def recorded_digests(workload: str, seed: int) -> dict | None:
    table = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    return table.get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    work = Path(WORK_DIR, wl.name).resolve()
    recorded = recorded_digests(wl.name, args.seed)
    tracer = None
    passes, checks = [], []
    properties: dict = {}
    started = perf_counter()
    samples = [speed.sample()]
    while True:
        if args.trace and len(passes) == 1:
            tracer = layertrace.Tracer()
            tracer.install()
        try:
            p = run_chain(wl, args.seed, work)
        finally:
            if tracer is not None:
                tracer.uninstall()
        samples.append(speed.sample())
        checks += [(f"exit code 0: {cmd}", rc == 0) for cmd, rc in p["exits"]]
        p["digests"] = artifact_digests(work)
        if recorded:
            checks += compare_digests(p["digests"], recorded, "recorded digests")
        elif passes:
            checks += compare_digests(p["digests"], passes[0]["digests"], "first pass")
        if not passes:
            checks += wl.invariants(work, args.seed)
            if args.seed == wl.seed:
                checks += wl.semantic(work, args.seed)
            properties = workloads.input_properties(work, wl)
        passes.append(p)
        if args.trace:
            if tracer is not None:
                break
        elif len(passes) >= 2 and perf_counter() - started >= args.seconds:
            break

    timed = passes[:1] if args.trace else passes
    result = {
        "passes": [round(p["pipeline_s"], 3) for p in passes],
        "speed_samples": [round(x, 4) for x in samples],
        "pipeline_s": speed.scale(statistics.median(p["pipeline_s"] for p in timed), samples),
        "checks": checks,
        "properties": properties,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # Read from package metadata: importing scipy here would add to the
        # child's resident set even when the program does not use it.
        "versions": {"python": sys.version.split()[0], "numpy": version("numpy"),
                     "scipy": version("scipy")},
    }
    if tracer is not None:
        result["layers"] = layertrace.layer_metrics(tracer, passes[0], passes[1])
        tracer.write(Path(WORK_DIR, f"{wl.name}.spans.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
