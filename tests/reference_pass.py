"""The dict-keyed combinatorial pass, kept as the reference for ``formulations``'s list pass.

The same algorithms as ``formulations.combinatorial_pass``, keyed by label:
an optimal assignment by successive shortest paths, with heap entries
``(distance, value)``, then one residual Dijkstra per variable; or forward
and backward DAG distances.  ``reference_pass(instance)`` returns its fields
as a dict: ``optima`` and ``by_tail`` always, then ``value_of``, ``holder``
and ``v`` (by value), ``u`` (by variable) and ``dists`` (one map per
variable) for alldiff, or ``down`` and ``up`` (by vertex) for paths.  It
checks nothing; the tests compare it with the list pass field by field.
"""

from __future__ import annotations

import heapq

from rcfilter.model import ALLDIFF


def reference_pass(instance) -> dict:
    if instance.kind == ALLDIFF:
        return _assignment_pass(instance)
    return _path_pass(instance)


def _assignment_pass(instance) -> dict:
    n, cost = instance.n_vars, instance.cost
    v = dict.fromkeys(instance.values, 0)
    by_var = [[] for _ in range(n)]
    adj = [[] for _ in range(n)]  # (value, cost) by variable
    for e, c in cost.items():
        i, j = e
        if not (0 <= i < n and j in v):
            raise ValueError(f"edge {e} meets no row of the support LP")
        by_var[i].append(e)
        adj[i].append((j, c))
    fields = {
        "optima": dict.fromkeys(cost),
        "by_tail": {i: tuple(es) for i, es in enumerate(by_var) if es},
    }
    if len(v) != n:  # no matching covers both sides
        return fields
    u = [min((c for _, c in pairs), default=0) for pairs in adj]
    value_of, holder = {}, {}
    for root in range(n):
        dist, via, free = _alternating_distances(adj, u, v, holder, root, True)
        if free is None:  # no perfect matching
            return fields
        far = dist[free]
        for j, d in dist.items():
            v[j] += d - far
            if j in holder:
                u[holder[j]] -= d - far
        u[root] += far
        j = free
        while j is not None:
            i = via[j]
            holder[j], value_of[i], j = i, j, value_of.get(i)
    z_star = sum(cost[i, j] for i, j in value_of.items())
    reduced = [[] for _ in range(n)]
    rs = []
    for e, c in cost.items():
        r = c - u[e.i] - v[e.j]
        rs.append(r)
        reduced[e.i].append((e.j, r))
    zero_u, zero_v = [0] * n, dict.fromkeys(v, 0)
    dists = [
        _alternating_distances(reduced, zero_u, zero_v, holder, k, False)[0]
        for k in range(n)
    ]
    optima = {}
    for e, r in zip(cost, rs):
        i, j = e
        if value_of[i] == j:
            optima[e] = z_star
        else:
            d = dists[holder[j]].get(value_of[i])
            optima[e] = None if d is None else z_star + r + d
    fields.update(optima=optima, value_of=value_of, holder=holder, u=tuple(u), v=v, dists=dists)
    return fields


def _alternating_distances(adj, u, v, holder, root, stop):
    dist, via, best, heap = {}, {}, {}, []

    def scan(i, d):
        d -= u[i]
        for j, c in adj[i]:
            if j not in dist:
                nd = d + c - v[j]
                if j not in best or nd < best[j]:
                    best[j] = nd
                    via[j] = i
                    heapq.heappush(heap, (nd, j))

    scan(root, 0)
    while heap:
        d, j = heapq.heappop(heap)
        if j in dist:
            continue
        dist[j] = d
        if j not in holder:
            if stop:
                return dist, via, j
        else:
            scan(holder[j], d)
    return dist, via, None


def _path_pass(instance) -> dict:
    meta, cost = instance.path, instance.cost
    grouped = {}
    for e in instance.edges:
        grouped.setdefault(e.i, []).append(e)
    out = {k: tuple(arcs) for k, arcs in grouped.items()}
    down = {meta.source: 0}
    for v in instance.topo_order:
        if v not in down:
            continue
        for e in out.get(v, ()):
            d = down[v] + cost[e]
            if e.j not in down or d < down[e.j]:
                down[e.j] = d
    up = {meta.sink: 0}
    for v in reversed(instance.topo_order):
        for e in out.get(v, ()):
            if e.j in up and (v not in up or cost[e] + up[e.j] < up[v]):
                up[v] = cost[e] + up[e.j]
    optima = {
        e: down[e.i] + cost[e] + up[e.j] if e.i in down and e.j in up else None
        for e in instance.edges
    }
    return {"optima": optima, "by_tail": out, "down": down, "up": up}
