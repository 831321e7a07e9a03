"""Record the reference outputs that run.py checks every pass against.

    python3 perfbench/record_references.py

For each workload and each of the SEEDS corpus seeds, runs one untraced
pass at the workload's default size and stores its output rows.  A run
with --seed s uses corpus seed s modulo the recorded count.  Re-record
only when a change is meant to alter the numbers, and say so.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import WORKLOADS


SEEDS = 64


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    doc = {"seeds": SEEDS, "source_sha256": run.source_digest(), "workloads": {}}
    for name, w in WORKLOADS.items():
        table = {}
        for seed in range(SEEDS):
            rec, rows = run.run_pass(w, seed, w.size, traced=False)
            if rows is None:
                print(rec["error"], file=sys.stderr)
                return 1
            table[str(seed)] = rows
            print(f"{name} seed {seed}: {len(rows)} rows in {rec['run_s']:.2f} s", flush=True)
        doc["workloads"][name] = table
    run.REFERENCES.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
