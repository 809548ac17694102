"""Seeded workload generators and the independent reference checks.

Every generator takes the workload seed and returns plain JSON-able items, so
the same seed always gives the same inputs and nothing here depends on the
test suite.  Sizes are fixed per workload and only structure, labels and
costs are drawn, so different seeds give inputs of the same cost class.
Where sizes vary inside a workload they are stratified and interleaved, so
any prefix of the item list has the same size mix.

The checks never trust the program for the answer: path instances are
checked against DAG shortest paths computed here, the rest against
``rcfilter.oracle`` (exhaustive enumeration, never timed).
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

# One sentence per workload: why it is in the benchmark.  BENCHMARK.json gates
# corpus_small and satisfaction_avg only: host speed drifts by up to 2x over
# seconds, so runs must be ~55 s long and cycle their items many times,
# and the run budget holds two workloads at that length.  alldiff_hard and
# dag_deep are run by name.
WHY = {
    "alldiff_hard": (
        "the paper's hard family, n+1 forced solves; isolates exact pivoting "
        "and bypasses parse, validate and report"
    ),
    "corpus_small": (
        "many tiny LPs through the CLI, half infeasible, so per-call fixed "
        "costs (parse, validate, LP build, certificate, report) show"
    ),
    "dag_deep": (
        "deep layered DAGs through the CLI with the layers family; the "
        "exponential support search in validate weighs as much as the LPs"
    ),
    "satisfaction_avg": (
        "averaged satisfaction duals: the only per-edge duality path, "
        "equality-row primals where phase one does the work"
    ),
}

# alldiff_hard: worst_case_alldiff(n) has n+1 variables and needs n+1 solves.
# n=6 keeps a relabelled call near one second (n=7 takes 2-5 s), so a run
# holds about twenty-five calls.
HARD_N = 6
HARD_ITEMS = 24

# corpus_small: a call's cost is set mostly by the kind, the size, the edge
# count and whether the instance is feasible (a feasible alldiff with 16
# edges costs ~40x a one-arc path).  So every draw has the same count of
# items in each (kind, variables, edges) cell, and exactly half of each cell
# is infeasible (exit 3).  The counts are the shares of a 60,000-instance
# unconstrained draw (sizes cycling as in the test corpus) rounded to pairs.
# Without the cells, draws of 300 items differed by ~10% in cost; with them,
# the pivot work of 200-item draws differs by ~3% between seeds.  200 items
# keep a pass near 1.5 s, so a run times each item some thirty times spread
# over the whole run, and its fastest call escapes the host's slow
# stretches; passes of ~8 s, with 1200 items, let a 45-s slow stretch shift
# a run's figures by 30%.
CORPUS_CELLS = {
    # (kind, variables, edges): items
    ("alldiff", 2, 2): 8, ("alldiff", 2, 4): 18,
    ("alldiff", 3, 3): 2, ("alldiff", 3, 5): 8, ("alldiff", 3, 6): 4, ("alldiff", 3, 7): 8,
    ("alldiff", 3, 8): 2, ("alldiff", 3, 9): 2,
    ("alldiff", 4, 6): 2, ("alldiff", 4, 7): 4, ("alldiff", 4, 8): 6, ("alldiff", 4, 9): 4,
    ("alldiff", 4, 10): 4, ("alldiff", 4, 11): 2, ("alldiff", 4, 12): 2,
    ("alldiff", 5, 8): 2, ("alldiff", 5, 9): 4, ("alldiff", 5, 10): 4, ("alldiff", 5, 11): 2,
    ("alldiff", 5, 12): 2, ("alldiff", 5, 13): 4, ("alldiff", 5, 14): 4, ("alldiff", 5, 15): 2,
    ("alldiff", 5, 16): 2,
    ("path", 1, 1): 12, ("path", 2, 2): 12, ("path", 2, 3): 12,
    ("path", 3, 3): 8, ("path", 3, 4): 10, ("path", 3, 5): 2,
    ("path", 4, 4): 4, ("path", 4, 5): 6, ("path", 4, 6): 4,
    ("path", 5, 5): 4, ("path", 5, 6): 4, ("path", 5, 7): 4, ("path", 5, 8): 2,
    ("path", 6, 6): 2, ("path", 6, 7): 2, ("path", 6, 8): 2, ("path", 6, 9): 2,
    ("path", 7, 8): 2, ("path", 7, 9): 2, ("path", 7, 10): 2,
}

# dag_deep: width-2 layers with full links between neighbouring layers plus
# a few arcs skipping one layer.  Depth 18 makes the support search in
# validate cost about as much as one dual solve.  Uncapped filtering takes
# ~8 s at this depth, so the CLI call is capped at DAG_BUDGET dual solves to
# keep a call near one second.
DAG_DEPTH = 18
DAG_SKIPS = 6
DAG_BUDGET = 2
DAG_ITEMS = 24

# satisfaction_avg: one size inside the oracle cap with a fixed edge count,
# since a call's cost grows steeply with both; mixed sizes made the cost of
# a draw, and its median call, swing by 20% between seeds.  Three variables
# keep a call near 50 ms, so a pass over the 24 items takes ~1.3-2.4 s and
# a run times each item 20-40 times, spread over the whole run: the host
# is fast only in stretches of 1-3 s, and with four variables (0.2-0.3 s a
# call, ten calls of an item a run) many items missed all of them, so runs
# differed by up to 40%.  Every draw has the same count of items with each
# number of inconsistent edges, near the shares an unconstrained draw gives,
# as a call's cost grows with that number.
SAT_N = 3
SAT_EXTRA_EDGES = 3  # beyond the planted permutation: 6 of 9 pairs
SAT_ITEMS_BY_INCONSISTENT = {0: 2, 1: 15, 3: 7}

# instances of the traced prefix whose counts must repeat exactly
COUNT_PREFIX = {
    "alldiff_hard": 3,
    "corpus_small": sum(CORPUS_CELLS.values()),
    "dag_deep": 4,
    "satisfaction_avg": sum(SAT_ITEMS_BY_INCONSISTENT.values()),
}

NAMES = tuple(WHY)


def generate(workload: str, seed: int) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    return {
        "alldiff_hard": _alldiff_hard,
        "corpus_small": _corpus_small,
        "dag_deep": _dag_deep,
        "satisfaction_avg": _satisfaction_avg,
    }[workload](rng)


# ---------------------------------------------------------------------------
# generators


def _alldiff_hard(rng: random.Random) -> list[dict]:
    # worst_case_alldiff(n): cost 0 on and below the diagonal, 1 above, z_max 1.
    # Relabelling variables and values and shuffling the edge order keeps the
    # instance isomorphic but changes Bland's pivot order.
    size = HARD_N + 1
    items = []
    for _ in range(HARD_ITEMS):
        var = list(range(size))
        val = list(range(size))
        rng.shuffle(var)
        rng.shuffle(val)
        edges = [
            [var[i], val[j], 0 if i >= j else 1]
            for i in range(size)
            for j in range(size)
        ]
        rng.shuffle(edges)
        items.append(
            {"kind": "alldiff", "n_vars": size, "values": list(range(size)),
             "edges": edges, "z_max": 1}
        )
    return items


def _corpus_small(rng: random.Random) -> list[dict]:
    # the cells interleaved, feasible and infeasible alternating in each,
    # so every prefix has about the same mix
    order = sorted(((k + 0.5) / count, cell, k % 2 == 1)
                   for cell, count in CORPUS_CELLS.items()
                   for k in range(count))
    items = []
    for _, (kind, n_vars, n_edges), infeasible in order:
        while True:
            if kind == "alldiff":
                inst = _small_alldiff(rng, n_vars)
            else:
                inst = _small_path(rng, n_vars + 1)
            if inst["n_vars"] != n_vars or len(inst["edges"]) != n_edges:
                continue
            z = min_cost(inst)
            if not infeasible:
                inst["z_max"] = z + rng.randint(0, 4)
                break
            if z > 0:
                inst["z_max"] = rng.randint(max(0, z - 4), z - 1)
                break
        items.append(inst)
    return items


def _small_alldiff(rng: random.Random, n: int) -> dict:
    # a union of permutations: every edge lies on a support
    perms = set()
    for _ in range(rng.randint(2, 4)):
        p = list(range(n))
        rng.shuffle(p)
        perms.add(tuple(p))
    edges = sorted({(i, p[i]) for p in perms for i in range(n)})
    return {"kind": "alldiff", "n_vars": n, "values": list(range(n)),
            "edges": [[i, j, rng.randint(0, 9)] for i, j in edges]}


def _small_path(rng: random.Random, m: int) -> dict:
    # a union of monotone source-sink walks over m vertices: acyclic, and
    # every arc lies on a path
    arcs = set()
    for _ in range(rng.randint(1, 3)):
        inner = sorted(rng.sample(range(1, m - 1), rng.randint(0, m - 2)))
        walk = [0] + inner + [m - 1]
        arcs.update(zip(walk, walk[1:]))
    used = sorted({v for a in arcs for v in a})
    index = {v: k for k, v in enumerate(used)}
    return {"kind": "path", "n_vars": len(used) - 1, "values": list(range(len(used))),
            "edges": [[index[i], index[j], rng.randint(0, 9)] for i, j in sorted(arcs)],
            "path": {"source": 0, "sink": len(used) - 1}}


def _dag_deep(rng: random.Random) -> list[dict]:
    layers = [[0]] + [[1 + 2 * k, 2 + 2 * k] for k in range(DAG_DEPTH)]
    sink = 2 * DAG_DEPTH + 1
    layers.append([sink])
    items = []
    for _ in range(DAG_ITEMS):
        arcs = {(u, v) for a, b in zip(layers, layers[1:]) for u in a for v in b}
        skips = [
            (u, v)
            for a, b in zip(layers, layers[2:])
            for u in a
            for v in b
        ]
        arcs.update(rng.sample(skips, DAG_SKIPS))
        # deepest head first: the support search tries the far branches first
        ordered = sorted(arcs, key=lambda a: (a[0], -a[1]))
        inst = {"kind": "path", "n_vars": sink, "values": list(range(sink + 1)),
                "edges": [[i, j, rng.randint(0, 9)] for i, j in ordered],
                "path": {"source": 0, "sink": sink}}
        inst["z_max"] = min_cost(inst) + rng.randint(1, 4)
        items.append(inst)
    return items


def _satisfaction_avg(rng: random.Random) -> list[dict]:
    n = SAT_N
    # the strata interleaved, so every prefix has about the same mix
    order = sorted(((k + 0.5) / count, bad)
                   for bad, count in SAT_ITEMS_BY_INCONSISTENT.items()
                   for k in range(count))
    items = []
    for _, want in order:
        while True:
            base = list(range(n))
            rng.shuffle(base)
            edges = {(i, base[i]) for i in range(n)}  # keeps it satisfiable
            others = [(i, j) for i in range(n) for j in range(n) if (i, j) not in edges]
            edges.update(rng.sample(others, SAT_EXTRA_EDGES))
            if len(edges - _matched_pairs(n, edges)) == want:
                break
        items.append({"n_vars": n, "values": list(range(n)),
                      "edges": [list(e) for e in sorted(edges)]})
    return items


def _matched_pairs(n: int, edges: set) -> set:
    """The edges of some perfect matching: the consistent ones."""
    return {
        (i, p[i])
        for p in itertools.permutations(range(n))
        if all((i, p[i]) in edges for i in range(n))
        for i in range(n)
    }


# ---------------------------------------------------------------------------
# independent references


def min_cost(inst: dict) -> int:
    """Cheapest support: brute force for alldiff, DAG shortest path otherwise."""
    if inst["kind"] == "alldiff":
        cost = {(i, j): c for i, j, c in inst["edges"]}
        best = None
        for p in itertools.permutations(inst["values"]):
            if all((i, p[i]) in cost for i in range(inst["n_vars"])):
                c = sum(cost[i, p[i]] for i in range(inst["n_vars"]))
                best = c if best is None else min(best, c)
        return best
    d_from, _ = dag_distances(inst)
    return d_from[inst["path"]["sink"]]


def dag_distances(inst: dict) -> tuple[dict, dict]:
    """d(s, v) and d(v, t) for every vertex; vertex ids are topologically sorted."""
    src, sink = inst["path"]["source"], inst["path"]["sink"]
    arcs = sorted(inst["edges"])  # tails ascending, so a forward sweep is valid
    d_from = {src: 0}
    for i, j, c in arcs:
        if i in d_from and d_from[i] + c < d_from.get(j, float("inf")):
            d_from[j] = d_from[i] + c
    d_to = {sink: 0}
    for i, j, c in sorted(arcs, reverse=True):
        if j in d_to and d_to[j] + c < d_to.get(i, float("inf")):
            d_to[i] = d_to[j] + c
    return d_from, d_to


def references(workload: str, items: list[dict]) -> list:
    """What each item's output must show, computed without the filter."""
    if workload == "alldiff_hard":
        return [None] * len(items)
    if workload == "dag_deep":
        return [_dag_reference(inst) for inst in items]
    from rcfilter import model, oracle  # the oracle is only ever the reference

    if workload == "corpus_small":
        out = []
        for inst in items:
            report = oracle.enumerate(model.instance_from_dict(inst))
            ac = {(e.i, e.j) for e in report.ac_set}
            out.append({"z_star": report.z_star,
                        "marks": {(i, j): (i, j) in ac for i, j, _ in inst["edges"]}})
        return out
    out = []
    for sat in items:
        zero_cost = model.weighted_instance(
            "alldiff", sat["n_vars"], sat["values"],
            [(i, j, 0) for i, j in sat["edges"]], z_max=0)
        report = oracle.enumerate(zero_cost)
        out.append({(e.i, e.j): report.z_restricted[e] is not None
                    for e in zero_cost.edges})
    return out


def _dag_reference(inst: dict) -> dict:
    d_from, d_to = dag_distances(inst)
    z_max = inst["z_max"]
    return {"z_star": d_from[inst["path"]["sink"]],
            "marks": {(i, j): d_from[i] + c + d_to[j] <= z_max
                      for i, j, c in inst["edges"]}}


def check(workload: str, inst: dict, ref, out: dict) -> str | None:
    """None when the output agrees with the reference, else the first problem."""
    if "error" in out:
        return out["error"]
    if workload == "alldiff_hard":
        return _check_hard(inst, out)
    if workload == "satisfaction_avg":
        return _check_satisfaction(inst, ref, out)
    return _check_filter_report(workload, inst, ref, out)


def _check_hard(inst: dict, out: dict) -> str | None:
    if out["solves"] != inst["n_vars"]:
        return f"{out['solves']} solves, expected {inst['n_vars']}"
    if out["z_lb"] != "0":
        return f"z_lb {out['z_lb']}, expected 0"
    if not out["complete"] or set(out["marks"].values()) != {"consistent"}:
        return "an edge is not marked consistent"
    return None


def _check_filter_report(workload: str, inst: dict, ref: dict, out: dict) -> str | None:
    z_star, z_max = ref["z_star"], inst["z_max"]
    try:
        report = json.loads(out["stdout"])
    except ValueError:
        return f"exit {out['exit']} with unparsable report"
    if z_star > z_max:
        if out["exit"] != 3 or report.get("status") != "infeasible":
            return f"infeasible instance gave exit {out['exit']}"
        z_lb = report["z_lb"]
        if z_lb is not None and not z_max < Fraction(z_lb) <= z_star:
            return f"infeasible with z_lb {z_lb}, z* = {z_star}"
        return None
    if out["exit"] != 0:
        return f"feasible instance gave exit {out['exit']}"
    if report["z_lb"] is not None and Fraction(report["z_lb"]) != z_star:
        return f"z_lb {report['z_lb']}, z* = {z_star}"
    budget = DAG_BUDGET if workload == "dag_deep" else None
    if budget is not None and report["solves"] > budget:
        return f"{report['solves']} solves over the budget {budget}"
    unmarked = 0
    for m in report["marks"]:
        edge, mark = tuple(m["edge"]), m["mark"]
        if mark == "unmarked" and budget is not None:
            unmarked += 1
            continue
        if mark != ("consistent" if ref["marks"][edge] else "inconsistent"):
            return f"edge {edge} marked {mark}"
    if len(report["marks"]) != len(inst["edges"]) or report["complete"] != (unmarked == 0):
        return "marks do not cover the edges or 'complete' is wrong"
    return None


def _check_satisfaction(sat: dict, consistent: dict, out: dict) -> str | None:
    n, values = sat["n_vars"], sat["values"]
    original = {tuple(e) for e in sat["edges"]}
    expected = {(i, j, 0 if (i, j) in original else 1) for i in range(n) for j in values}
    if {tuple(e) for e in out["encoded"]} != expected:
        return "encoded instance is not the 0/1 completion"
    u = {int(k): Fraction(x) for k, x in out["u"].items()}
    v = {int(k): Fraction(x) for k, x in out["v"].items()}
    if sum(u.values()) + sum(v.values()) != 0 or Fraction(out["w"]) != 0:
        return f"dual objective {out['w']}, expected 0"
    for i, j, c in expected:
        r = c - u[i] - v[j]
        if r < 0:
            return f"dual infeasible on edge {(i, j)}"
        if (i, j) in original and (r > 0) == consistent[i, j]:
            return f"edge {(i, j)} has reduced cost {r}"
    return None
