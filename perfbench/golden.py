"""Recompute golden.json, the digest of every catalog entry's document.

    python3 perfbench/golden.py [workload ...]

Run it only when the catalog itself changes: the digests pin the bytes the
current solver produces, so a later change to the solver must reproduce
them rather than regenerate them.
"""

from __future__ import annotations

import json
import sys

import workloads
from run import GOLDEN, import_lexflow, run_once
from tracer import Stopwatch


def main(names: list[str]) -> int:
    api = import_lexflow()
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for workload in names or sorted(workloads.GENERATORS):
        digests = []
        for c in range(workloads.CATALOG[workload]):
            run = run_once(api, workload, workloads.GENERATORS[workload](c), Stopwatch())
            if run.outcome is None or not run.outcome.ok:
                print(f"{workload} entry {c} failed; golden.json not written", file=sys.stderr)
                return 1
            digests.append(run.outcome.digest)
        golden[workload] = digests
        print(f"{workload}: {len(digests)} digests", file=sys.stderr)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
