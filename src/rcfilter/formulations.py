"""Builders for the assignment/path linear programs and their edge families.

Row tags are shared across the package: ``("u", i)`` for the per-variable
rows (alldiff) or per-vertex flow rows (path, sink excluded), ``("v", j)``
for the per-value rows (alldiff only).  Columns of the primal programs are
the edges themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

from . import lp_core
from .lp_core import LinearProgram, Row
from .model import (
    ALLDIFF,
    PATH,
    EdgeId,
    SatisfactionInstance,
    WeightedInstance,
    weighted_instance,
)

Instance = Union[WeightedInstance, SatisfactionInstance]


@dataclass(frozen=True)
class Support:
    """Edges of one feasible solution: a perfect matching or an s-t path."""

    edges: tuple[EdgeId, ...]
    cost: Fraction


@dataclass(frozen=True)
class IncompatibleFamily:
    """Ordered edge sets, each pairwise incompatible, covering all of E together.

    A set is flagged covering when every support of the constraint uses one of
    its edges; only those sets may drive lower-bound updates.
    """

    sets: tuple[tuple[EdgeId, ...], ...]
    covering: tuple[bool, ...]
    strategy: str


def primal_program(instance: WeightedInstance) -> LinearProgram:
    """Min-cost support LP: rows force one value per variable / unit s-t flow.

    One pass over the edges; ``edge_column`` defines every coefficient.
    """
    if instance.kind == ALLDIFF:
        rhs = {("u", i): 1 for i in range(instance.n_vars)}
        rhs.update({("v", j): 1 for j in instance.values})
    elif instance.kind == PATH:
        meta = instance.path
        assert meta is not None
        # outflow 1 at s, conservation elsewhere
        rhs = {("u", v): int(v == meta.source) for v in instance.variables()}
    else:
        raise ValueError(f"unknown kind {instance.kind!r}")
    coeffs: dict = {tag: {} for tag in rhs}
    for e in instance.edges:
        for tag, a in edge_column(instance, e).items():
            if tag not in coeffs:
                raise ValueError(f"edge {e} meets no row of the support LP")
            coeffs[tag][e] = a
    return LinearProgram(
        sense=lp_core.MIN,
        columns=tuple(instance.edges),
        objective=instance.cost,
        rows=tuple(Row(coeffs[t], lp_core.EQ, b, t) for t, b in rhs.items()),
    )


def edge_column(instance: WeightedInstance, e: EdgeId) -> dict:
    """Row coefficients of edge e's primal column, keyed by row tag."""
    if instance.kind == ALLDIFF:
        return {("u", e.i): Fraction(1), ("v", e.j): Fraction(1)}
    meta = instance.path
    assert meta is not None
    col = {("u", e.i): Fraction(1)}
    if e.j != meta.sink:
        col[("u", e.j)] = Fraction(-1)  # no flow row (and no dual) for the sink
    return col


def dual_program(instance: WeightedInstance) -> LinearProgram:
    """Exact dual of the primal: one free column per row, one row per edge."""
    primal = primal_program(instance)
    col_tags = tuple(r.tag for r in primal.rows)
    rows = []
    for e in instance.edges:
        rows.append(Row(edge_column(instance, e), lp_core.LE, instance.cost[e], e))
    return LinearProgram(
        sense=lp_core.MAX,
        columns=col_tags,
        objective={r.tag: r.rhs for r in primal.rows},
        rows=tuple(rows),
        free=frozenset(col_tags),
    )


def restricted_program(instance: WeightedInstance, kl: EdgeId) -> LinearProgram:
    """The primal with edge kl forced into the solution (extra equality row)."""
    kl = EdgeId(*kl)
    if kl not in instance.cost:
        raise ValueError(f"edge {kl} not in the instance")
    primal = primal_program(instance)
    forced = Row({kl: 1}, lp_core.EQ, 1, ("fix", kl))
    return LinearProgram(
        sense=primal.sense,
        columns=primal.columns,
        objective=primal.objective,
        rows=primal.rows + (forced,),
    )


# ---------------------------------------------------------------------------
# incompatible-edge families


def family(instance: WeightedInstance, strategy: str = "domains") -> IncompatibleFamily:
    """Build the edge family driving the filtering loop.

    ``domains``: one set per variable (alldiff) or per non-sink vertex (path).
    ``layers`` (path only): arcs grouped by the longest-path depth of their
    tail; depth strictly increases along any path, hence incompatibility.
    """
    if strategy == "domains":
        out = _edges_by_tail(instance.edges)
        sets = []
        covering = []
        for k in instance.variables():
            if k not in out:
                continue  # cannot happen on a valid instance
            sets.append(tuple(out[k]))
            if instance.kind == ALLDIFF:
                covering.append(True)  # every assignment gives each variable a value
            else:
                covering.append(_on_every_path(instance, k))
        return IncompatibleFamily(tuple(sets), tuple(covering), "domains")
    if strategy == "layers":
        if instance.kind != PATH:
            raise ValueError("the layers strategy only applies to path instances")
        depth = _longest_path_depths(instance)
        grouped: dict[int, list[EdgeId]] = {}
        for e in instance.edges:
            grouped.setdefault(depth[e.i], []).append(e)
        depths = sorted(grouped)
        sets = tuple(tuple(grouped[d]) for d in depths)
        covering = tuple(d == 0 for d in depths)  # every path starts with a depth-0 arc
        return IncompatibleFamily(sets, covering, "layers")
    raise ValueError(f"unknown strategy {strategy!r}")


def _edges_by_tail(edges: Iterable[EdgeId]) -> dict[int, list[EdgeId]]:
    """Edges grouped by variable (alldiff) or tail (path), edge order kept."""
    out: dict[int, list[EdgeId]] = {}
    for e in edges:
        out.setdefault(e.i, []).append(e)
    return out


def _longest_path_depths(instance: WeightedInstance) -> dict[int, int]:
    meta = instance.path
    assert meta is not None
    out = _edges_by_tail(instance.edges)
    depth = {meta.source: 0}
    for v in meta.topo_order:
        if v not in depth:
            continue
        for e in out.get(v, ()):
            if depth.get(e.j, -1) < depth[v] + 1:
                depth[e.j] = depth[v] + 1
    return depth


def _on_every_path(instance: WeightedInstance, k: int) -> bool:
    # vertex k is unavoidable iff the graph minus k has no s-t path
    meta = instance.path
    assert meta is not None
    if k == meta.source:
        return True
    out: dict[int, list[int]] = {}
    for e in instance.edges:
        if e.i != k and e.j != k:
            out.setdefault(e.i, []).append(e.j)
    seen = {meta.source}
    stack = [meta.source]
    while stack:
        v = stack.pop()
        for w in out.get(v, ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return meta.sink not in seen


# ---------------------------------------------------------------------------
# combinatorial support search


def find_support(
    instance: Instance,
    allowed: Iterable[EdgeId],
    forced: Optional[EdgeId] = None,
) -> Optional[Support]:
    """A support using only ``allowed`` edges and containing ``forced``, or None.

    alldiff: augmenting-path matching; path: depth-first s-t search through
    the forced arc.  Both are exact and deterministic in the edge order.
    """
    allowed_set = {EdgeId(*e) for e in allowed}
    if forced is not None:
        forced = EdgeId(*forced)
        if forced not in allowed_set:
            raise ValueError("the forced edge must be allowed")
    kind = getattr(instance, "kind", ALLDIFF)
    if kind == ALLDIFF:
        edges = _matching_support(instance, allowed_set, forced)
    else:
        edges = _path_support(instance, allowed_set, forced)
    if edges is None:
        return None
    if isinstance(instance, WeightedInstance):
        cost = Fraction(sum(instance.cost[e] for e in edges))
    else:
        cost = Fraction(0)
    return Support(edges=edges, cost=cost)


def _matching_support(
    instance: Instance, allowed: set[EdgeId], forced: Optional[EdgeId]
) -> Optional[tuple[EdgeId, ...]]:
    adj: dict[int, list[int]] = {i: [] for i in range(instance.n_vars)}
    for e in instance.edges:
        if e in allowed:
            adj[e.i].append(e.j)
    match_of_value: dict[int, int] = {}
    assigned: dict[int, int] = {}
    forced_i = forced_j = None
    if forced is not None:
        forced_i, forced_j = forced
        assigned[forced_i] = forced_j
        match_of_value[forced_j] = forced_i

    def augment(root: int) -> bool:
        # explicit stack of (variable, value iterator); taken[k] is the value
        # stack[k]'s variable moves to, held so far by stack[k + 1]'s variable
        visited: set[int] = set()
        stack = [(root, iter(adj[root]))]
        taken: list[int] = []
        while stack:
            _, values = stack[-1]
            for j in values:
                if j in visited or j == forced_j:
                    continue
                visited.add(j)
                holder = match_of_value.get(j)
                if holder is None:
                    taken.append(j)
                    for (var, _), val in zip(stack, taken):
                        match_of_value[val] = var
                        assigned[var] = val
                    return True
                if holder != forced_i:
                    taken.append(j)
                    stack.append((holder, iter(adj[holder])))
                    break
            else:
                stack.pop()
                if taken:
                    taken.pop()
        return False

    for i in range(instance.n_vars):
        if i == forced_i:
            continue
        if not augment(i):
            return None
    return tuple(EdgeId(i, assigned[i]) for i in sorted(assigned))


def _path_support(
    instance: Instance, allowed: set[EdgeId], forced: Optional[EdgeId]
) -> Optional[tuple[EdgeId, ...]]:
    assert isinstance(instance, WeightedInstance) and instance.path is not None
    meta = instance.path
    out = _edges_by_tail(e for e in instance.edges if e in allowed)

    def dfs(start: int, goal: int) -> Optional[list[EdgeId]]:
        # explicit stack of out-arc iterators, path[k] the arc into the
        # vertex of stack[k + 1]; dead holds vertices already known not to
        # reach goal, so each is left once
        if start == goal:
            return []
        dead: set[int] = set()
        stack = [iter(out.get(start, ()))]
        path: list[EdgeId] = []
        while stack:
            for e in stack[-1]:
                if e.j == goal:
                    return path + [e]
                if e.j not in dead:
                    stack.append(iter(out.get(e.j, ())))
                    path.append(e)
                    break
            else:
                stack.pop()
                dead.add(path.pop().j if path else start)
        return None

    if forced is None:
        p = dfs(meta.source, meta.sink)
        return None if p is None else tuple(p)
    # in a DAG a source->tail path and a head->sink path cannot share a vertex
    head = dfs(meta.source, forced.i)
    if head is None:
        return None
    tail = dfs(forced.j, meta.sink)
    if tail is None:
        return None
    return tuple(head) + (forced,) + tuple(tail)


# ---------------------------------------------------------------------------
# constructions


def bg01_encode(sat: SatisfactionInstance) -> WeightedInstance:
    """Complete 0/1-cost graph: original edges cost 0, missing ones cost 1, bound 0.

    An original edge is consistent for the cost-free constraint exactly when
    it lies on a zero-cost support of the encoding.
    """
    if len(sat.values) != sat.n_vars:
        raise ValueError("satisfaction instances must be square to encode")
    original = set(sat.edges)
    triples = [
        (i, j, 0 if EdgeId(i, j) in original else 1)
        for i in range(sat.n_vars)
        for j in sat.values
    ]
    return weighted_instance(ALLDIFF, sat.n_vars, sat.values, triples, z_max=0)


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
