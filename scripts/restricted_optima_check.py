#!/usr/bin/env python3
"""Check the combinatorial pass, and the duals built from it, against LP solves.

Above the enumeration cap no oracle can vouch for the restricted optima of
``formulations.combinatorial_pass``, so this compares them with the family dual
LP instead: for a seeded sample of edges, the one-edge family dual of the set
{e} gives e's restricted optimum as w + r_e, and so must ``shifted_cost_dual``
(built from the pass, with w = z*), and the pass's ``z_star`` must equal
the support LP's optimum from ``solve_primal``.  Under that shifted dual,
``exactness_certificate`` must return a witness through e that costs e's
restricted optimum, and for one other sampled edge f a witness exactly when
w + r_f is f's restricted optimum.  Every set of
each family (``domains``, and ``layers`` on the DAG) gets its dual from
``duality.pass_family_dual``, as the filter does: it must be feasible, with
w = z*, and w + r_e must be the pass's restricted optimum on every member;
on a seeded sample of sets, also ``solve_family_dual``'s w + r_e.  The
instances are three seeded unions of n/2 permutations with n variables
(costs 0-9) and a layered DAG of about 9n arcs.  ``model.validate`` reports
the same pass's ``unsupported`` as the edges on no support, so each instance must also validate to ``[]``, and a copy with one
planted edge on no support must be named for exactly that edge: alldiff gets
two new variables sharing two new values and a third new variable with an
edge into one of them; the DAG gets a new vertex, reached from the source,
that reaches nothing.  Last, ``averaged_satisfaction_dual`` runs on three
seeded satisfaction instances of n/2 to n variables, each with a planted
tight set of variables (they share as many values) that makes the edges of
other variables into those values inconsistent.  Its dual must be feasible
with w = 0 and a positive reduced cost exactly on the edges through which
``formulations.find_support`` finds no matching of original edges.  Prints
one line per instance and exits 1 on any mismatch.

Usage: PYTHONPATH=src python3 scripts/restricted_optima_check.py [n_vars]
"""

import random
import sys
import time
from pathlib import Path

from rcfilter.duality import (
    averaged_satisfaction_dual,
    exactness_certificate,
    is_dual_feasible,
    pass_family_dual,
    reduced_cost,
    shifted_cost_dual,
    solve_family_dual,
    solve_primal,
)
from rcfilter.formulations import combinatorial_pass, family, find_support
from rcfilter.model import EdgeId, validate, weighted_instance

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from corpus import layered_dag, permutation_alldiff, tight_satisfaction  # noqa: E402

SAMPLED_EDGES = 8  # per instance, or every edge of a smaller one
SAMPLED_SETS = 4  # per family, or every set of a smaller one: each LP solve is full size


def check(inst, rng):
    start = time.perf_counter()
    run = combinatorial_pass(inst)
    pass_s = time.perf_counter() - start
    wrong = []
    sampled = rng.sample(inst.edges, min(SAMPLED_EDGES, len(inst.edges)))
    for k, e in enumerate(sampled):
        d = solve_family_dual(inst, (e,))
        shifted = shifted_cost_dual(inst, e)
        lp_bound = d.w + reduced_cost(inst, d, e)
        witness = exactness_certificate(inst, shifted, e)
        f = sampled[k - 1]  # another sampled edge, unless the sample has one
        exact_f = shifted.w + reduced_cost(inst, shifted, f) == run.optima[run.index[f]]
        if lp_bound != run.optima[run.index[e]] or shifted.w != run.z_star or (
            shifted.w + reduced_cost(inst, shifted, e) != lp_bound
        ) or witness is None or witness.cost != lp_bound or (
            (exactness_certificate(inst, shifted, f) is not None) != exact_f
        ):
            wrong.append(e)
    return pass_s, len(sampled), wrong, run.z_star, solve_primal(inst)[0]


def check_duals(inst, rng):
    """The number of sets, and the (family, set index) whose pass-built dual fails."""
    run = combinatorial_pass(inst)
    count, wrong = 0, []
    for strategy in ("domains", "layers") if inst.kind == "path" else ("domains",):
        sets = family(inst, strategy)
        sampled = set(rng.sample(range(len(sets)), min(SAMPLED_SETS, len(sets))))
        for k, edge_set in enumerate(sets):
            d = pass_family_dual(inst, edge_set)
            bounds = [d.w + reduced_cost(inst, d, e) for e in edge_set]
            ok = is_dual_feasible(inst, d) and d.w == run.z_star
            ok = ok and bounds == [run.optima[run.index[e]] for e in edge_set]
            if k in sampled:
                lp = solve_family_dual(inst, edge_set)
                ok = ok and bounds == [lp.w + reduced_cost(inst, lp, e) for e in edge_set]
            if not ok:
                wrong.append((strategy, k))
        count += len(sets)
    return count, wrong


def planted(inst):
    """A copy of inst with new vertices and edges, one on no support, and that edge."""
    triples = [(e.i, e.j, c) for e, c in inst.cost.items()]
    top = max(inst.values) + 1
    if inst.kind == "alldiff":
        n = inst.n_vars
        a, b, c = top, top + 1, top + 2
        triples += [(n, a, 0), (n, b, 0), (n + 1, a, 0), (n + 1, b, 0), (n + 2, c, 0)]
        bad = EdgeId(n + 2, a)
        triples.append((*bad, 0))
        copy = weighted_instance(
            "alldiff", n + 3, inst.values + (a, b, c), triples, inst.z_max
        )
        return copy, bad
    meta = inst.path
    bad = EdgeId(meta.source, top)
    triples.append((*bad, 0))
    copy = weighted_instance(
        "path", inst.n_vars + 1, inst.values + (top,), triples, inst.z_max,
        source=meta.source, sink=meta.sink,
    )
    return copy, bad


def check_averaged(sat):
    """Inconsistent edges found by support search, and the edges the averaged dual gets wrong."""
    encoded, d = averaged_satisfaction_dual(sat)
    if not is_dual_feasible(encoded, d) or d.w != 0:
        return None, ["the dual is infeasible or not optimal"]
    inconsistent, wrong = 0, []
    for e in sat.edges:
        consistent = find_support(encoded, sat.edges, forced=e) is not None
        inconsistent += not consistent
        if (reduced_cost(encoded, d, e) > 0) == consistent:
            wrong.append(e)
    return inconsistent, wrong


def validate_problems(inst):
    """Problems of validate on inst and on its planted copy, if any."""
    problems = []
    found = validate(inst)
    if found:
        problems.append(f"validate rejects the instance: {found[:3]}")
    copy, bad = planted(inst)
    found = validate(copy)
    if found != [f"edge {bad} lies on no support"]:
        problems.append(f"validate on the copy planting {bad} gives {found[:3]}")
    return problems


def main(argv):
    n = int(argv[1]) if len(argv) > 1 else 40
    rng = random.Random(n)
    instances = [permutation_alldiff(n, seed) for seed in (1, 2, 3)]
    instances.append(layered_dag(max(2, n // 2), seed=1))
    print(f"{'kind':>8} {'vertices':>9} {'edges':>6} {'sampled':>8} "
          f"{'pass s':>7} {'wrong':>6} {'z*':>6} {'validate':>9} {'sets':>5} "
          f"{'duals wrong':>12}")
    failed = False
    for inst in instances:
        pass_s, sampled, wrong, z_pass, z_lp = check(inst, rng)
        problems = validate_problems(inst)
        sets, wrong_duals = check_duals(inst, rng)
        print(f"{inst.kind:>8} {len(inst.values):>9} {len(inst.edges):>6} "
              f"{sampled:>8} {pass_s:>7.3f} {len(wrong):>6} "
              f"{'ok' if z_pass == z_lp else 'wrong':>6} "
              f"{'ok' if not problems else 'wrong':>9} {sets:>5} {len(wrong_duals):>12}")
        if wrong:
            print(f"error: the pass, shifted_cost_dual or exactness_certificate and the LP"
                  f" disagree on {wrong}",
                  file=sys.stderr)
            failed = True
        if wrong_duals:
            print(f"error: pass-built duals fail on sets {wrong_duals}", file=sys.stderr)
            failed = True
        if z_pass != z_lp:
            print(f"error: the pass's z_star is {z_pass}, the support LP's {z_lp}",
                  file=sys.stderr)
            failed = True
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
            failed = True
    print(f"{'satisfaction':>12} {'vars':>5} {'edges':>6} {'inconsistent':>13} "
          f"{'wrong':>6}")
    for size in sorted({max(2, n // 2), max(2, 3 * n // 4), max(2, n)}):
        sat = tight_satisfaction(size, rng)
        inconsistent, wrong = check_averaged(sat)
        print(f"{'averaged':>12} {size:>5} {len(sat.edges):>6} "
              f"{inconsistent if inconsistent is not None else '-':>13} {len(wrong):>6}")
        if wrong or not inconsistent:
            print(f"error: the averaged dual fails on {wrong[:3] or 'no inconsistent edge'}",
                  file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
