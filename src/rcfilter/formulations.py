"""The support LP, the edge families, and combinatorial support search.

Row tags are shared across the package: ``("u", i)`` for the per-variable
rows (alldiff) or per-vertex flow rows (path, sink excluded), ``("v", j)``
for the per-value rows (alldiff only).  Columns of the support LP
(``primal_program``) are the edges themselves.  ``row_rhs`` and
``edge_column`` define it, and ``duality.family_dual_program`` its dual.

Every combinatorial support query (``find_support``) is one iterative
depth-first search, ``_search``, fed by a small step function per kind.
Both kinds search one map of the allowed arcs by tail (alldiff: edges by
variable), built once per ``find_support`` call.

Every edge's restricted optimum, the cheapest support through it, comes from
one pass per instance with no LP (``combinatorial_pass``): an optimal
assignment with potentials and one Dijkstra per variable in its residual
graph, whose rows are shared within a zero-cost component, or forward and
backward shortest paths over a DAG's topological order.
The pass runs on int positions (values by sorted label, path vertices in
topological order) and keeps, as tuples by position, each edge's tail, head,
cost and restricted optimum, the edge positions by tail, from which
``family`` builds its sets, and those potentials and distances, with a
path's end positions, from which ``duality`` builds and checks the filter's
duals.  Each edge's position and each position's label are its only maps
between labels and positions.  It also keeps z*, the least optimum, which
``duality.lower_bound`` reads with its guards, and the edges without one,
which ``model.validate`` reports as the edges on no support: the package
reads either nowhere else (``oracle`` and the LP solves are references that
tests and cross-checks compare with it).
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable, Mapping, Optional

from .model import (
    ALLDIFF,
    PATH,
    EdgeId,
    SatisfactionInstance,
    WeightedInstance,
    _integer,
    exact,
    weighted_instance,
)

if TYPE_CHECKING:
    from .lp_core import LinearProgram


class Support(namedtuple("Support", "edges cost")):
    """Edges of one feasible solution: a perfect matching or an s-t path."""

    __slots__ = ()


def row_rhs(instance: WeightedInstance) -> dict:
    """Right-hand side of every support-LP row, keyed by row tag, in row order."""
    if instance.kind == ALLDIFF:
        rhs = {("u", i): 1 for i in range(instance.n_vars)}
        rhs.update({("v", j): 1 for j in instance.values})
        return rhs
    if instance.kind == PATH:
        meta = instance.path
        assert meta is not None
        # outflow 1 at s, conservation elsewhere
        return {("u", v): int(v == meta.source) for v in instance.variables()}
    raise ValueError(f"unknown kind {instance.kind!r}")


def last_instance_memo(build: Callable[[WeightedInstance], Any]) -> Callable:
    """``build(instance)``, kept for the last instance passed, matched by ``is``.

    It keeps the combinatorial pass, the package's one per-instance record,
    so every exact reduced cost and every dual the filter builds for one
    instance come from one pass.  The memo holds the instance itself, so its
    identity cannot be reused, and instances are immutable:
    ``WeightedInstance`` makes its ``cost`` map read-only, so a kept result
    never goes stale.
    """
    last: tuple = (None, None)

    def cached(instance: WeightedInstance) -> Any:
        nonlocal last
        if last[0] is not instance:
            last = (instance, build(instance))
        return last[1]

    return cached


def primal_program(instance: WeightedInstance, cost: Mapping) -> LinearProgram:
    """Min-cost support LP: rows force one value per variable / unit s-t flow.

    ``cost`` is the objective by edge: ``instance.cost``, or a shifted copy.
    """
    from . import lp_core  # the LP stack loads on its first use

    rhs = row_rhs(instance)
    coeffs: dict = {tag: {} for tag in rhs}
    for e in instance.edges:
        for tag, a in edge_column(instance, e).items():
            if tag not in coeffs:
                raise ValueError(f"edge {e} meets no row of the support LP")
            coeffs[tag][e] = a
    return lp_core.LinearProgram(
        sense=lp_core.MIN,
        columns=tuple(instance.edges),
        objective=cost,
        rows=tuple(lp_core.Row(coeffs[t], lp_core.EQ, b, t) for t, b in rhs.items()),
    )


def edge_column(instance: WeightedInstance, e: EdgeId) -> dict:
    """Row coefficients of edge e's primal column, keyed by row tag."""
    if instance.kind == ALLDIFF:
        return {("u", e.i): 1, ("v", e.j): 1}
    meta = instance.path
    assert meta is not None
    col = {("u", e.i): 1}
    if e.j != meta.sink:
        col[("u", e.j)] = -1  # no flow row (and no dual) for the sink
    return col


# ---------------------------------------------------------------------------
# incompatible-edge families


def family(
    instance: WeightedInstance, strategy: str = "domains"
) -> tuple[tuple[EdgeId, ...], ...]:
    """Ordered edge sets for the filtering loop: each pairwise incompatible, all of E together.

    ``domains``: one set per variable (alldiff) or per non-sink vertex (path).
    ``layers`` (path only): arcs grouped by the longest-path depth of their
    tail; depth strictly increases along any path, hence incompatibility.
    Both read the edge positions by tail that ``combinatorial_pass`` keeps.
    ValueError for any other strategy, or for ``layers`` off a path.
    """
    edges = instance.edges
    return tuple(tuple([edges[k] for k in ks]) for ks in _position_sets(instance, strategy))


def _position_sets(instance: WeightedInstance, strategy: str) -> tuple[tuple[int, ...], ...]:
    """``family``'s sets as edge positions, in the same order; the filtering loop runs on them."""
    if strategy not in ("domains", "layers"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "layers" and instance.kind != PATH:
        raise ValueError("the layers strategy only applies to path instances")
    run = combinatorial_pass(instance)
    if strategy == "domains":
        # tail positions follow ``variables()``, a path's sink aside; an
        # isolated path vertex, which validate allows, has no set
        return tuple(ks for p, ks in enumerate(run.out) if ks and p != run.sink)
    depth: list = [None] * len(run.labels)
    depth[run.source] = 0
    for x, ks in enumerate(run.out):  # in topological order
        if depth[x] is not None:
            for k in ks:
                h = run.heads[k]
                if depth[h] is None or depth[h] <= depth[x]:
                    depth[h] = depth[x] + 1
    grouped: dict[int, list[int]] = {}
    for k, t in enumerate(run.tails):
        if depth[t] is None:
            raise ValueError(f"arc {instance.edges[k]} leaves a vertex the source cannot reach")
        grouped.setdefault(depth[t], []).append(k)
    return tuple(tuple(grouped[d]) for d in sorted(grouped))


def _edges_by_tail(instance: WeightedInstance, allowed: Iterable[EdgeId]) -> dict:
    """Allowed edges by variable (alldiff) or tail (path), in instance order."""
    allowed_set = {EdgeId(*e) for e in allowed}
    stray = allowed_set.difference(instance.cost)
    if stray:
        raise ValueError(f"edge {min(stray)} not in the instance")
    out: dict[int, list[EdgeId]] = {}
    for e in instance.edges:
        if e in allowed_set:
            out.setdefault(e.i, []).append(e)
    return out


# ---------------------------------------------------------------------------
# combinatorial support search


def find_support(
    instance: WeightedInstance,
    allowed: Iterable[EdgeId],
    forced: Optional[EdgeId] = None,
) -> Optional[Support]:
    """A support using only ``allowed`` edges and containing ``forced``, or None.

    Both kinds run ``_search`` on the allowed edges by tail. alldiff: one
    augmenting path per variable, from variable through value to the
    value's holder; path: source-tail and head-sink arc paths around the
    forced arc.  Both are exact and deterministic in the edge order.
    """
    out = _edges_by_tail(instance, allowed)
    if forced is not None:
        forced = EdgeId(*forced)
        if forced not in out.get(forced.i, ()):
            raise ValueError("the forced edge must be allowed")
    search = _matching_support if instance.kind == ALLDIFF else _path_support
    edges = search(instance, out, forced)
    if edges is None:
        return None
    return Support(edges=edges, cost=sum(instance.cost[e] for e in edges))


def _matching_support(
    instance: WeightedInstance, out: dict, forced: Optional[EdgeId]
) -> Optional[tuple[EdgeId, ...]]:
    holder: dict[int, int] = {}  # value -> the variable matched to it
    forced_i = forced_j = None
    if forced is not None:
        forced_i, forced_j = forced
        holder[forced_j] = forced_i

    def steps(i: int):
        # a variable is entered only through the one value it holds; a free
        # value ends the augmenting path, and the forced value never moves
        for e in out.get(i, ()):
            if e.j != forced_j:
                yield e.j, holder.get(e.j)

    for i in range(instance.n_vars):
        if i == forced_i:
            continue
        values = _search(i, steps)
        if values is None:
            return None
        var: Optional[int] = i
        for j in values:  # each variable on the path moves to the next value
            holder[j], var = var, holder.get(j)
    return tuple(sorted(EdgeId(i, j) for j, i in holder.items()))


def _path_support(
    instance: WeightedInstance, out: dict, forced: Optional[EdgeId]
) -> Optional[tuple[EdgeId, ...]]:
    meta = instance.path
    assert meta is not None
    if forced is None:
        p = _arcs_between(out, meta.source, meta.sink)
        return None if p is None else tuple(p)
    # in a DAG a source->tail path and a head->sink path cannot share a vertex
    head = _arcs_between(out, meta.source, forced.i)
    tail = None if head is None else _arcs_between(out, forced.j, meta.sink)
    return None if tail is None else tuple(head + [forced] + tail)


def _arcs_between(
    out: dict[int, list[EdgeId]], start: int, goal: int
) -> Optional[list[EdgeId]]:
    """Arcs of a start-goal path over ``out`` (arcs by tail), or None."""
    if start == goal:
        return []

    def steps(v: int):
        for e in out.get(v, ()):
            yield e, (None if e.j == goal else e.j)

    return _search(start, steps)


def _search(root: Hashable, steps: Callable) -> Optional[list]:
    """Steps of a depth-first walk from ``root`` to a goal, or None.

    ``steps(node)`` yields ``(step, next_node)`` pairs in search order, with
    ``next_node`` None when the step reaches a goal.  Each node is entered at
    most once, on an explicit stack, so long paths need no recursion.
    """
    entered = {root}
    stack = [steps(root)]
    path: list = []  # path[k] is the step into the node of stack[k + 1]
    while stack:
        for step, node in stack[-1]:
            if node is None:
                return path + [step]
            if node not in entered:
                entered.add(node)
                stack.append(steps(node))
                path.append(step)
                break
        else:
            stack.pop()
            if path:
                path.pop()
    return None


# ---------------------------------------------------------------------------
# restricted optima: one combinatorial pass per instance


class CombinatorialPass(
    namedtuple(
        "CombinatorialPass",
        "optima z_star unsupported index tails heads costs labels out"
        " value_of holder u v dists source sink down up",
        defaults=(None,) * 9,
    )
):
    """What the one pass per instance computes, kept read-only for every reader.

    A position is a value's rank among the sorted value labels (alldiff) or
    a vertex's place in ``instance.topo_order`` (path), and ``labels`` gives
    the label at each; ``index`` gives each edge's position in instance
    order.  These two are the only maps between labels and positions.

    ``optima``: each edge's cheapest support through it, by edge position,
    or None when it lies on no support.  ``z_star``: z*, the least of them
    (an optimal support's edges have it, and none is lower), or None when no
    support exists.  ``unsupported``: the edges whose entry is None, in
    instance order.  ``tails``, ``heads`` and ``costs``: each edge's
    variable (or tail position), head position and cost, by edge position.
    ``out``: the positions of the edges of each variable (alldiff) or
    leaving each tail position (path), in instance order; ``family`` reads
    its sets from it.

    The kind's own fields, None on the other kind, are tuples by position,
    with None where a value or vertex is not reached.  alldiff, left None
    when no perfect matching exists: the optimal assignment M (``value_of``,
    the value position by variable, and ``holder``, the variable by value
    position), its potentials ``u`` (by variable) and ``v`` (by value
    position), with every reduced cost >= 0 and 0 on M, and ``dists[k]``,
    the residual distance from variable k to each value position.  Variables
    that reach each other at distance 0, a zero-cost component of the
    residual graph, have equal rows, and ``dists`` holds one shared tuple for
    them.  path: the distances ``down`` (d(s, v)) and ``up`` (d(v, t)).
    """

    __slots__ = ()


@last_instance_memo
def combinatorial_pass(instance: WeightedInstance) -> CombinatorialPass:
    """Each edge's cheapest support through it, and what the pass found on the way.

    alldiff: an optimal assignment M with potentials u, v (successive
    shortest paths), then one Dijkstra per variable over the residual graph
    on reduced costs r; an edge (i, j) outside M costs
    z* + r_ij + dist(M^-1(j) -> M(i)) (Sellmann, CP 2002).  Variables that
    reach each other at distance 0 share one row, found by the later one's
    search.  Values are numbered by sorted label, so heap ties break by
    label.  path: forward and backward shortest paths in topological order
    give d(s, i) + c_ij + d(j, t).  Costs of either sign are allowed.
    Before it returns, the pass checks its own certificate and raises
    AssertionError if it fails: r >= 0 on every edge, 0 on M and
    sum(u) + sum(v) = z*; or each distance list's inequalities, tight along
    its shortest-path tree.  The result is shared while the instance stays
    the same, so it is read-only.
    """
    return _assignment_pass(instance) if instance.kind == ALLDIFF else _path_pass(instance)


def _positions_by_tail(tails: tuple, size: int) -> tuple:
    # the edge positions with each tail, in instance order; a tail with none
    # shares the empty tuple, so an unused variable costs one slot
    grouped: dict[int, list[int]] = {}
    for k, t in enumerate(tails):
        grouped.setdefault(t, []).append(k)
    return tuple([tuple(grouped.get(t, ())) for t in range(size)])


def _least_and_unsupported(edges: tuple, optima: tuple) -> tuple:
    # z*, the least optimum or None when no edge has one, and the edges on no
    # support, in instance order
    if None not in optima:
        return exact(min(optima)) if optima else None, ()
    found = [z for z in optima if z is not None]
    unsupported = tuple([e for e, z in zip(edges, optima) if z is None])
    return exact(min(found)) if found else None, unsupported


def _assignment_pass(instance: WeightedInstance) -> CombinatorialPass:
    n, edges = instance.n_vars, instance.edges
    labels = tuple(sorted(set(instance.values)))
    rank = dict(zip(labels, range(len(labels))))
    tails, values = zip(*edges) if edges else ((), ())
    heads = tuple(map(rank.get, values))
    if None in heads or (edges and not 0 <= min(tails) <= max(tails) < n):
        for e, t, h in zip(edges, tails, heads):
            if h is None or not 0 <= t < n:
                raise ValueError(f"edge {e} meets no row of the support LP")
    costs = tuple(instance.cost.values())
    out = _positions_by_tail(tails, n)
    index = MappingProxyType(dict(zip(edges, range(len(edges)))))
    # no matching covers both sides unless they are the same size
    matched = _optimal_assignment(out, heads, costs) if len(labels) == n else None
    if matched is None:
        return CombinatorialPass(
            optima=(None,) * len(edges), z_star=None, unsupported=edges, index=index,
            tails=tails, heads=heads, costs=costs, labels=labels, out=out,
        )
    u, v, value_of, holder = matched
    # one reduced cost per edge serves the certificate, the residual rows
    # and the edge's optimum
    rs: list = []
    z_star = 0
    for t, h, c in zip(tails, heads, costs):
        rs.append(c - u[t] - v[h])
        if value_of[t] == h:
            z_star += c
    if sum(u) + sum(v) != z_star:
        raise AssertionError("assignment potentials do not sum to the optimum")
    if rs and min(rs) < 0:  # else r = 0 on M, as the potentials sum to z*
        for k, (t, h, r) in enumerate(zip(tails, heads, rs)):
            if r < 0 or (r != 0 and value_of[t] == h):
                raise AssertionError(f"assignment potentials fail on edge {edges[k]}")
    rows: list = []
    for k in range(n):
        rows.append(_residual_row(out, heads, rs, value_of, holder, rows, k))
    # an edge of M has r = 0 and distance 0 from its own variable
    optima = tuple([
        None if (d := rows[holder[h]][value_of[t]]) is None else z_star + r + d
        for t, h, r in zip(tails, heads, rs)
    ])
    least, unsupported = _least_and_unsupported(edges, optima)
    return CombinatorialPass(
        optima=optima, z_star=least, unsupported=unsupported, index=index,
        tails=tails, heads=heads, costs=costs, labels=labels, out=out,
        value_of=tuple(value_of), holder=tuple(holder), u=tuple(u), v=tuple(v),
        dists=tuple(rows),
    )


def _optimal_assignment(out: tuple, heads: tuple, costs: tuple) -> Optional[tuple]:
    # successive shortest paths (see _alternating_distances): the potentials
    # u and v, and M as value_of and holder, or None when no perfect
    # matching exists
    n = len(out)
    adj = [[(heads[k], costs[k]) for k in ks] for ks in out]  # (value position, cost) by variable
    # u_i = min_j c_ij and v = 0 leave no reduced cost negative, whatever the signs
    u = [min([c for _, c in pairs]) if pairs else 0 for pairs in adj]
    v = [0] * n
    value_of: list = [None] * n  # variable -> its value position in M
    holder: list = [None] * n  # value position -> its variable in M
    for root in range(n):
        dist, via, free = _alternating_distances(adj, u, v, holder, root)
        if free is None:
            return None
        far = dist[free]
        # potentials shifted by (distance - far) on the settled part keep
        # every reduced cost >= 0 and make the augmenting path tight
        for j, d in enumerate(dist):
            if d is not None:
                v[j] += d - far
                if holder[j] is not None:
                    u[holder[j]] -= d - far
        u[root] += far
        j = free
        while j is not None:
            i = via[j]
            holder[j], value_of[i], j = i, j, value_of[i]
    return u, v, value_of, holder


def _alternating_distances(
    adj: list, u: list, v: list, holder: list, root: int
) -> tuple[list, list, Optional[int]]:
    """Dijkstra from variable ``root`` to the values, along alternating paths.

    Values are positions ``0 .. len(holder) - 1``, and ``holder[j]`` is the
    variable holding value j, or None.  ``adj[i]`` holds variable i's
    ``(value, cost)`` pairs in instance order.  A variable steps to a value
    by one of them (length cost - u_i - v_j >= 0), a value to its holder by
    its matching edge (length 0), so a variable's distance is that of its
    value.  Heap entries are ``(distance, value)``.  Returns the settled
    values' distances and the variable each was reached from, as lists by
    value with None elsewhere, and the first free value settled, where the
    search stops (None when every value is held).
    """
    size = len(holder)
    dist: list = [None] * size
    via: list = [None] * size
    best: list = [None] * size
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    i, d = root, 0
    while True:
        if i is not None:  # scan variable i, reached at distance d
            d -= u[i]  # the potential of the scanned variable, read once
            for j, c in adj[i]:
                if dist[j] is None:
                    nd = d + c - v[j]
                    if best[j] is None or nd < best[j]:
                        best[j] = nd
                        via[j] = i
                        push(heap, (nd, j))
        while heap:
            d, j = pop(heap)
            if dist[j] is None:
                break
        else:
            return dist, via, None
        dist[j] = d
        i = holder[j]
        if i is None:
            return dist, via, j


def _residual_row(
    out: tuple, heads: tuple, rs: list, value_of: list, holder: list, rows: list, k: int
) -> tuple:
    """Residual distances from variable ``k`` to each value position, None where unreached.

    ``_alternating_distances``'s Dijkstra over the optimal assignment, where
    every value is held: a variable i at distance d steps to value
    ``heads[e]`` by each edge position e of ``out[i]``, with length d + r_e
    (``rs[e]``, the edge's reduced cost).  The root is scanned once, not
    again when its own value settles.  ``rows`` holds the rows of the
    variables before k.  When a value settles at 0 and its holder h < k
    reaches k's value at 0, k and h reach each other at no cost, so their
    rows are equal, and ``rows[h]`` itself is returned.
    """
    size = len(holder)
    dist: list = [None] * size
    best: list = [None] * size
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    mine = value_of[k]
    i, d = k, 0
    while True:
        if i is not None:  # scan variable i, reached at distance d
            for e in out[i]:
                j = heads[e]
                if dist[j] is None:
                    nd = d + rs[e]
                    if best[j] is None or nd < best[j]:
                        best[j] = nd
                        push(heap, (nd, j))
        while heap:
            d, j = pop(heap)
            if dist[j] is None:
                break
        else:
            return tuple(dist)
        dist[j] = d
        i = holder[j]
        if i == k:  # the root, scanned first
            i = None
        elif d == 0 and i < k and rows[i][mine] == 0:
            return rows[i]


def _path_pass(instance: WeightedInstance) -> CombinatorialPass:
    # positions follow the topological order, so every arc runs to a higher position
    meta = instance.path
    assert meta is not None
    labels, edges = instance.topo_order, instance.edges
    position = dict(zip(labels, range(len(labels))))
    source, sink = position.get(meta.source), position.get(meta.sink)
    if source is None or sink is None:
        raise ValueError("source or sink not among the vertices")
    ends = zip(*edges) if edges else ((), ())
    tails, heads = (tuple(map(position.__getitem__, side)) for side in ends)
    costs = tuple(instance.cost.values())
    out = _positions_by_tail(tails, len(labels))
    down: list = [None] * len(labels)  # d(s, v)
    down[source] = 0
    for x, ks in enumerate(out):
        if down[x] is not None:
            for k in ks:
                h, d = heads[k], down[x] + costs[k]
                if down[h] is None or d < down[h]:
                    down[h] = d
    up: list = [None] * len(labels)  # d(v, t)
    up[sink] = 0
    for x in reversed(range(len(labels))):
        for k in out[x]:
            h = heads[k]
            if up[h] is not None and (up[x] is None or costs[k] + up[h] < up[x]):
                up[x] = costs[k] + up[h]
    _assert_distances(down, source, zip(tails, heads, costs))
    _assert_distances(up, sink, zip(heads, tails, costs))
    optima = tuple([
        down[t] + c + up[h] if down[t] is not None and up[h] is not None else None
        for t, h, c in zip(tails, heads, costs)
    ])
    z_star, unsupported = _least_and_unsupported(edges, optima)
    return CombinatorialPass(
        optima=optima, z_star=z_star, unsupported=unsupported,
        index=MappingProxyType(dict(zip(edges, range(len(edges))))),
        tails=tails, heads=heads, costs=costs, labels=labels, out=out,
        source=source, sink=sink, down=tuple(down), up=tuple(up),
    )


def _assert_distances(dist: list, root: int, arcs: Iterable[tuple]) -> None:
    # dist[b] <= dist[a] + c on every arc (a, b, c) leaving a reached
    # position, and every reached position but the root at 0 has a tight
    # arc into it
    tight = {root} if dist[root] == 0 else set()
    for a, b, c in arcs:
        if dist[a] is not None:
            if dist[b] is None or dist[b] > dist[a] + c:
                raise AssertionError(f"shortest-path distances fail on arc {(a, b)}")
            if dist[b] == dist[a] + c:
                tight.add(b)
    if tight != {p for p, d in enumerate(dist) if d is not None}:
        raise AssertionError("shortest-path distances are not tight on a tree")


# ---------------------------------------------------------------------------
# constructions


def bg01_encode(sat: SatisfactionInstance) -> WeightedInstance:
    """Complete 0/1-cost graph: original edges cost 0, missing ones cost 1, bound 0.

    An original edge is consistent for the cost-free constraint exactly when
    it lies on a zero-cost support of the encoding.  The n^2 costs are built
    straight into the instance: only ``n_vars``, ``values`` and the edges'
    endpoints are checked.  A non-integer among them, a repeated value, a
    non-square instance, an edge outside the n^2 pairs or a repeated edge
    raises ValueError, as ``weighted_instance`` does; an edge may be a plain
    ``(i, j)`` pair.
    """
    n = _integer(sat.n_vars, "n_vars")
    values = tuple(_integer(x, "value") for x in sat.values)
    if len(values) != n:
        raise ValueError("satisfaction instances must be square to encode")
    if len(set(values)) != n:
        raise ValueError("duplicate values")
    cost = {EdgeId(i, j): 1 for i in range(n) for j in values}
    for e in sat.edges:
        i, j = e
        if type(i) is not int or type(j) is not int:  # checked, never coerced
            for x in e:
                _integer(x, "edge {} endpoint", e)
        c = cost.get(e)  # 1 until the edge is set, None outside the n^2 pairs
        if c != 1:
            e = EdgeId(*e)
            raise ValueError(f"duplicate edge {e}" if c == 0 else f"edge {e} not in the instance")
        cost[e] = 0  # the key stays the EdgeId already there
    return WeightedInstance(ALLDIFF, n, values, cost, z_max=0)


def worst_case_alldiff(n: int) -> tuple[WeightedInstance, tuple[EdgeId, ...]]:
    """Complete (n+1)-variable instance needing one dual solution per variable.

    Costs are 0 on and below the diagonal, 1 above it; the identity is the
    only zero-cost assignment.  The returned cycle of edges just below the
    diagonal (closed by (0, n)) is a support of cost 1, and no dual solution
    can give the exact reduced cost of two of its edges at once.
    """
    if n < 2:
        raise ValueError("needs n >= 2")
    size = n + 1
    triples = [
        (i, j, 0 if i >= j else 1) for i in range(size) for j in range(size)
    ]
    instance = weighted_instance(ALLDIFF, size, range(size), triples, z_max=1)
    cycle = tuple(EdgeId(i, i - 1) for i in range(1, size)) + (EdgeId(0, n),)
    return instance, cycle
