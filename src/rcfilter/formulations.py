"""The support LP, the edge families, and combinatorial support search.

Row tags are shared across the package: ``("u", i)`` for the per-variable
rows (alldiff) or per-vertex flow rows (path, sink excluded), ``("v", j)``
for the per-value rows (alldiff only).  Columns of the support LP
(``primal_program``) are the edges themselves.  ``row_rhs`` and
``edge_column`` define it, and ``duality.family_dual_program`` its dual.

Every combinatorial support query (``find_support``, ``unsupported_edges``
and the covering flags of the ``domains`` family) is one iterative
depth-first search, ``_search``, fed by a small step function per kind.  Both
kinds search one map of the allowed arcs by tail (alldiff: edges by variable),
built once per ``find_support`` call and once per ``unsupported_edges`` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping, Optional

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


@dataclass(frozen=True)
class Support:
    """Edges of one feasible solution: a perfect matching or an s-t path."""

    edges: tuple[EdgeId, ...]
    cost: lp_core.Number


@dataclass(frozen=True)
class IncompatibleFamily:
    """Ordered edge sets, each pairwise incompatible, covering all of E together.

    A set is flagged covering when every support of the constraint uses one of
    its edges; only those sets may drive lower-bound updates.
    """

    sets: tuple[tuple[EdgeId, ...], ...]
    covering: tuple[bool, ...]
    strategy: str


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


def last_instance_memo(build: Callable[[WeightedInstance], tuple]) -> Callable:
    """``build(instance)``, kept for the last instance passed, matched by ``is``.

    For the rows of a program kind, which depend only on the instance: the
    programs built for one instance then share one ``rows`` tuple.  The
    memo holds the instance itself, so its identity cannot be reused, and
    relies on instances being immutable, their ``cost`` maps included.
    """
    last: tuple = (None, ())

    def cached(instance: WeightedInstance) -> tuple:
        nonlocal last
        if last[0] is not instance:
            last = (instance, build(instance))
        return last[1]

    return cached


@last_instance_memo
def _support_rows(instance: WeightedInstance) -> tuple[Row, ...]:
    # one pass over the edges; ``edge_column`` defines every coefficient
    rhs = row_rhs(instance)
    coeffs: dict = {tag: {} for tag in rhs}
    for e in instance.edges:
        for tag, a in edge_column(instance, e).items():
            if tag not in coeffs:
                raise ValueError(f"edge {e} meets no row of the support LP")
            coeffs[tag][e] = a
    return tuple(Row(coeffs[t], lp_core.EQ, b, t) for t, b in rhs.items())


def primal_program(instance: WeightedInstance, cost: Mapping) -> LinearProgram:
    """Min-cost support LP: rows force one value per variable / unit s-t flow.

    ``cost`` is the objective by edge: ``instance.cost``, or a shifted copy.
    The rows do not depend on it, so the programs of one instance share them.
    """
    return LinearProgram(
        sense=lp_core.MIN,
        columns=tuple(instance.edges),
        objective=cost,
        rows=_support_rows(instance),
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


def family(instance: WeightedInstance, strategy: str = "domains") -> IncompatibleFamily:
    """Build the edge family driving the filtering loop.

    ``domains``: one set per variable (alldiff) or per non-sink vertex (path).
    ``layers`` (path only): arcs grouped by the longest-path depth of their
    tail; depth strictly increases along any path, hence incompatibility.
    """
    out = _edges_by_tail(instance, instance.edges)
    if strategy == "domains":
        meta = instance.path
        sets = []
        covering = []
        for k in instance.variables():
            if k not in out:
                continue  # an isolated path vertex, which validate allows
            sets.append(tuple(out[k]))
            if instance.kind == ALLDIFF:
                covering.append(True)  # every assignment gives each variable a value
            else:
                # k is on every path iff no source-sink path avoids it
                covering.append(
                    _arcs_between(out, meta.source, meta.sink, avoid=k) is None
                )
        return IncompatibleFamily(tuple(sets), tuple(covering), "domains")
    if strategy == "layers":
        if instance.kind != PATH:
            raise ValueError("the layers strategy only applies to path instances")
        depth = _longest_path_depths(instance, out)
        grouped: dict[int, list[EdgeId]] = {}
        for e in instance.edges:
            if e.i not in depth:
                raise ValueError(f"arc {e} leaves a vertex the source cannot reach")
            grouped.setdefault(depth[e.i], []).append(e)
        depths = sorted(grouped)
        sets = tuple(tuple(grouped[d]) for d in depths)
        covering = tuple(d == 0 for d in depths)  # every path starts with a depth-0 arc
        return IncompatibleFamily(sets, covering, "layers")
    raise ValueError(f"unknown strategy {strategy!r}")


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


def _longest_path_depths(instance: WeightedInstance, out: dict) -> dict[int, int]:
    meta = instance.path
    assert meta is not None
    depth = {meta.source: 0}
    for v in meta.topo_order:
        if v not in depth:
            continue
        for e in out.get(v, ()):
            if depth.get(e.j, -1) < depth[v] + 1:
                depth[e.j] = depth[v] + 1
    return depth


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


def unsupported_edges(
    instance: WeightedInstance, allowed: Iterable[EdgeId]
) -> list[EdgeId]:
    """The edges of ``allowed``, in order, on no support inside ``allowed``.

    An edge on a support already found needs no search of its own, so a
    single search can settle every edge of an instance.
    """
    allowed = tuple(EdgeId(*e) for e in allowed)
    out = _edges_by_tail(instance, allowed)
    search = _matching_support if instance.kind == ALLDIFF else _path_support
    covered: set[EdgeId] = set()
    unsupported = []
    for e in allowed:
        if e in covered:
            continue
        edges = search(instance, out, e)
        if edges is None:
            unsupported.append(e)
        else:
            covered.update(edges)
    return unsupported


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
    out: dict[int, list[EdgeId]], start: int, goal: int, avoid: Optional[int] = None
) -> Optional[list[EdgeId]]:
    """Arcs of a start-goal path over ``out`` (arcs by tail) not through ``avoid``."""
    if start == goal:
        return []

    def steps(v: int):
        if v != avoid:  # a path entering avoid can go no further
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
