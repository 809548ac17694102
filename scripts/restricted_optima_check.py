#!/usr/bin/env python3
"""Check the combinatorial restricted optima against one-edge LP solves.

Above the enumeration cap no oracle can vouch for
``formulations.restricted_optima``, so this compares it with the family dual
LP instead: for a seeded sample of edges, the one-edge family dual of the set
{e} gives e's restricted optimum as w + r_e.  The instances are three seeded
unions of n/2 permutations with n variables (costs 0-9) and a layered DAG of
about 9n arcs.  Prints one line per instance and exits 1 on any mismatch.

Usage: PYTHONPATH=src python3 scripts/restricted_optima_check.py [n_vars]
"""

import random
import sys
import time
from pathlib import Path

from rcfilter.duality import reduced_cost, solve_family_dual
from rcfilter.formulations import restricted_optima

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from corpus import layered_dag, permutation_alldiff  # noqa: E402

SAMPLED_EDGES = 8


def check(inst, rng):
    start = time.perf_counter()
    optima = restricted_optima(inst)
    pass_s = time.perf_counter() - start
    wrong = []
    for e in rng.sample(inst.edges, SAMPLED_EDGES):
        d = solve_family_dual(inst, (e,))
        if d.w + reduced_cost(inst, d, e) != optima[e]:
            wrong.append(e)
    return pass_s, wrong


def main(argv):
    n = int(argv[1]) if len(argv) > 1 else 40
    rng = random.Random(n)
    instances = [permutation_alldiff(n, seed) for seed in (1, 2, 3)]
    instances.append(layered_dag(max(2, n // 2), seed=1))
    print(f"{'kind':>8} {'vertices':>9} {'edges':>6} {'sampled':>8} "
          f"{'pass s':>7} {'wrong':>6}")
    failed = False
    for inst in instances:
        pass_s, wrong = check(inst, rng)
        print(f"{inst.kind:>8} {len(inst.values):>9} {len(inst.edges):>6} "
              f"{SAMPLED_EDGES:>8} {pass_s:>7.3f} {len(wrong):>6}")
        if wrong:
            print(f"error: the pass and the LP disagree on {wrong}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
