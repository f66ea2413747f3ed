"""Record the artifact digests that the benchmark checks each workload against.

Run from the root of a checkout whose outputs are known to be right (the
digests in digests.json were recorded at commit 388d103):

    python3 perfbench/record.py failure-32h 0-20
    python3 perfbench/record.py attacks-3seed 0-20
    python3 perfbench/record.py capture-7d 0-20

Each call runs the workload's chain once for each given seed (a number or
an inclusive range) and updates that workload's entries in digests.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import child  # noqa: E402  (needs src on the path)
import workloads  # noqa: E402


def main(argv: list) -> int:
    if len(argv) < 2 or argv[0] not in workloads.WORKLOADS:
        print(__doc__, file=sys.stderr)
        return 2
    name, seeds = argv[0], []
    for arg in argv[1:]:
        lo, _, hi = arg.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    wl = workloads.WORKLOADS[name]
    work = Path(child.WORK_DIR, f"record-{name}").resolve()
    found = {}
    for seed in seeds:
        p = child.run_chain(wl, seed, work)
        bad = [cmd for cmd, rc in p["exits"] if rc != 0]
        if bad:
            print(f"error: {name} seed {seed}: commands failed: {bad}", file=sys.stderr)
            return 1
        found[str(seed)] = child.artifact_digests(work)
    table = json.loads(child.DIGESTS.read_text()) if child.DIGESTS.exists() else {}
    table.setdefault(name, {}).update(found)
    child.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {name} seeds {seeds}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
