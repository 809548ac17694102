#!/usr/bin/env python3
"""Sweep the hard alldifferent family and check its dual counts.

For each n the instance has n+1 variables and a designated cycle of edges
whose exact reduced costs no single dual solution can certify two at a time,
so a complete filtering run needs one dual per variable.  The sweep prints
the measured counts next to that bound, plus wall time, and exits 1 if any
run builds other than n+1 duals or any dual is exact on two cycle edges.

Usage: python3 scripts/family_scaling.py [max_n]
"""

import sys
import time

from rcfilter.duality import reduced_cost
from rcfilter.formulations import worst_case_alldiff
from rcfilter.propagation import ac_by_lp


def run(n):
    inst, cycle = worst_case_alldiff(n)
    start = time.perf_counter()
    result = ac_by_lp(inst)
    elapsed = time.perf_counter() - start
    per_dual = [
        sum(1 for e in cycle if d.w + reduced_cost(inst, d, e) == 1)
        for _, d in result.duals()
    ]
    return inst, result, elapsed, per_dual


def main(argv):
    max_n = int(argv[1]) if len(argv) > 1 else 8
    print(f"{'n':>3} {'vars':>5} {'edges':>6} {'duals':>7} {'bound':>6} "
          f"{'exact/dual':>11} {'seconds':>8}")
    failed = []
    for n in range(2, max_n + 1):
        inst, result, elapsed, per_dual = run(n)
        print(
            f"{n:>3} {inst.n_vars:>5} {len(inst.edges):>6} "
            f"{result.solves:>7} {n + 1:>6} "
            f"{max(per_dual):>11} {elapsed:>8.3f}"
        )
        if result.solves != n + 1 or max(per_dual) > 1:
            failed.append(n)
    if failed:
        print(f"error: n={failed} break the n+1-dual bound", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
