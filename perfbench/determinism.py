#!/usr/bin/env python3
"""Check that the traced counts are a function of the seed alone.

    python3 perfbench/determinism.py

For each workload, runs ``run.py --trace 1`` for six seconds twice with
seed 1 and once with seed 2.  Every count (each ``.calls``, ``lp_core.rows``,
``cols``, ``nonzeros``, ``propagation.solves``, ``edges_per_solve`` and the
other non-time counts) must repeat exactly under the same seed and must
change under the other seed.  The exceptions are ``alldiff_hard``, whose
items are relabellings of one instance, and ``satisfaction_avg``, whose
items all have the same size and edge count and come in a fixed order of
inconsistent-edge counts, so the LPs they build have the same shapes under
every seed.  Their counts must not change at all.  Exits 1 when any of this
fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

# per-layer metrics that are times or host readings, not counts
NOT_COUNTS = ("trace.overhead_frac", "host.fraction_ref_ms")
SEED_INVARIANT = {"alldiff_hard", "satisfaction_avg"}
SECONDS = 6
SEEDS = (1, 2)


def counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "1"],
        capture_output=True, text=True, check=True,
    )
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {
        name: metrics[name]["value"]
        for name, _ in tracing.PER_LAYER
        if not name.endswith(".self_s") and name not in NOT_COUNTS
    }


def main() -> int:
    a, b = SEEDS
    ok = True
    for w in workloads.NAMES:
        first, again, other = (counts(w, s) for s in (a, a, b))
        unstable = sorted(k for k in first if first[k] != again[k])
        changed = sorted(k for k in first if first[k] != other[k])
        print(f"{w}: {len(first)} counts; same seed differs on {unstable or 'none'}; "
              f"seed {b} changes {len(changed)}: {', '.join(changed) or 'none'}")
        if unstable:
            ok = False
        if (w in SEED_INVARIANT) != (not changed):
            print(f"  FAIL: expected counts to {'stay' if w in SEED_INVARIANT else 'change'}")
            ok = False
    print("deterministic" if ok else "NOT deterministic")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
