"""ospfrqa benchmark: run one workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload failure-32h --seed 11 --seconds 20 --trace 0

Prints the environment, then every metric by name with its unit, then as
the last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` the per-layer ones.  See README.md here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
TIME_LIMIT_S = 170.0
# Set-up as every CLI invocation pays it: a fresh interpreter importing the
# CLI and loading the workload's topology.
SETUP_CODE = (
    "import time; t = time.perf_counter(); import ospfrqa.cli, ospfrqa.sim; "
    "ospfrqa.sim.load_topology({topology!r}); print(time.perf_counter() - t)"
)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(HERE)])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env.pop("OSPFRQA_OUT", None)
    return env


def measure_setup(root: Path, env: dict, topology: str) -> float:
    """Median set-up time, scaled to the reference speed."""
    samples = [speed.sample()]
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE.format(topology=topology)],
                             cwd=root, env=env, capture_output=True, text=True,
                             timeout=60, check=True)
        times.append(float(out.stdout.strip()))
        samples.append(speed.sample())
    return speed.scale(statistics.median(times), samples)


def environment(root: Path, versions: dict) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": sha, **versions, "nproc": os.cpu_count(), "cpu": cpu}


def end_to_end_metrics(res: dict, setup_s: float) -> dict:
    return {
        "pipeline_s": (res["pipeline_s"], "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def layer_metrics(res: dict) -> dict:
    return {**res["layers"], **res["properties"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "ospfrqa" / "cli.py").is_file():
        print(f"error: {root} holds no ospfrqa sources (src/ospfrqa); "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    env = child_env(root)
    setup_s = None if args.trace else measure_setup(root, env, WORKLOADS[args.workload].topology)

    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        child = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                               timeout=TIME_LIMIT_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired:
        print(f"error: workload {args.workload} did not finish in time", file=sys.stderr)
        return 1
    sys.stderr.write(child.stderr)
    if child.returncode != 0:
        print(f"error: workload child exited with {child.returncode}", file=sys.stderr)
        return 1
    res = json.loads(child.stdout.strip().splitlines()[-1])

    env_record = environment(root, res["versions"])
    print("environment: " + json.dumps(env_record, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: passes of {res['passes']} s "
          f"(reference computation {res['speed_samples']} s), "
          "input properties " + ", ".join(f"{k}={v[0]:.6g}" for k, v in res["properties"].items()))
    metrics = layer_metrics(res) if args.trace else end_to_end_metrics(res, setup_s)
    failed = [label for label, ok in res["checks"] if not ok]
    for label in failed:
        print(f"check FAILED: {label}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"checks: {len(res['checks']) - len(failed)}/{len(res['checks'])} passed")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(res["checks"]),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
