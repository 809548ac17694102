"""Problem instances and the variable-value graph shared by every other module.

Two constraint kinds are supported:

* ``alldiff``: variables X_0..X_{n-1} must take pairwise distinct values,
  one per variable.  The instance is a bipartite variable-value graph and a
  support is a perfect matching.  Equality on both sides of the assignment
  LP forces square instances (as many values as variables).
* ``path``: vertices of a DAG carry successor variables; a support is an
  s-t path.  Edges are the arcs, ``i`` the tail and ``j`` the head.

Domains are extensional: the edge set IS the domains, removing a value
means removing an edge.  Costs are non-negative integers, every derived
quantity downstream is an exact rational, so no tolerances exist anywhere.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union

ALLDIFF = "alldiff"
PATH = "path"


class EdgeId(NamedTuple):
    """Edge of the variable-value graph: variable i takes value j (or arc i->j)."""

    i: int
    j: int


class InfeasibleConstraintError(Exception):
    """The constraint admits no support within the cost bound (or none at all)."""

    def __init__(self, message: str, z_lb=None):
        super().__init__(message)
        self.z_lb = z_lb


@dataclass(frozen=True)
class PathMeta:
    """Source, sink and a fixed topological order of the DAG's vertices."""

    source: int
    sink: int
    topo_order: tuple[int, ...]


@dataclass(frozen=True)
class WeightedInstance:
    """A weighted constraint: graph, assignment costs and the cost bound z_max."""

    kind: str
    n_vars: int
    values: tuple[int, ...]
    edges: tuple[EdgeId, ...]
    cost: Mapping[EdgeId, int]
    z_max: int
    path: Optional[PathMeta] = None

    def variables(self) -> tuple[int, ...]:
        # alldiff: variable indices; path: every vertex except the sink,
        # in topological order (each carries a successor variable).
        if self.kind == ALLDIFF:
            return tuple(range(self.n_vars))
        assert self.path is not None
        return tuple(v for v in self.path.topo_order if v != self.path.sink)


@dataclass(frozen=True)
class SatisfactionInstance:
    """A cost-free alldiff constraint: just the variable-value graph."""

    n_vars: int
    values: tuple[int, ...]
    edges: tuple[EdgeId, ...] = field(default=())


def _integer(x, what: str) -> int:
    # booleans, floats and strings are rejected, never coerced
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def weighted_instance(
    kind: str,
    n_vars: int,
    values: Iterable[int],
    edges: Iterable[tuple[int, int, int]],
    z_max: int,
    source: Optional[int] = None,
    sink: Optional[int] = None,
) -> WeightedInstance:
    """Normalizing constructor: edge triples (i, j, cost), deterministic order kept.

    Every number must be an integer; anything else raises ValueError.
    """
    values_t = tuple(_integer(x, "value") for x in values)
    edge_ids = []
    cost: dict[EdgeId, int] = {}
    for i, j, c in edges:
        e = EdgeId(_integer(i, "edge endpoint"), _integer(j, "edge endpoint"))
        if e in cost:
            raise ValueError(f"duplicate edge {e}")
        edge_ids.append(e)
        cost[e] = _integer(c, f"cost of edge {e}")
    meta = None
    if kind == PATH:
        if source is None or sink is None:
            raise ValueError("path instances need a source and a sink")
        topo = topological_order(values_t, tuple(edge_ids))
        meta = PathMeta(
            source=_integer(source, "source"),
            sink=_integer(sink, "sink"),
            topo_order=topo,
        )
    elif kind != ALLDIFF:
        raise ValueError(f"unknown kind {kind!r}")
    return WeightedInstance(
        kind=kind,
        n_vars=_integer(n_vars, "n_vars"),
        values=values_t,
        edges=tuple(edge_ids),
        cost=cost,
        z_max=_integer(z_max, "z_max"),
        path=meta,
    )


def topological_order(vertices: Sequence[int], arcs: Sequence[EdgeId]) -> tuple[int, ...]:
    """Kahn's algorithm with smallest-vertex tie-break; raises on duplicates and cycles."""
    if len(set(vertices)) != len(vertices):
        raise ValueError("duplicate vertices")
    indeg = {v: 0 for v in vertices}
    out: dict[int, list[int]] = {v: [] for v in vertices}
    for a in arcs:
        if a.i not in indeg or a.j not in indeg:
            raise ValueError(f"arc {a} uses a vertex outside the vertex list")
        indeg[a.j] += 1
        out[a.i].append(a.j)
    ready = sorted(v for v, d in indeg.items() if d == 0)  # a sorted list is a heap
    order: list[int] = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    if len(order) != len(vertices):
        raise ValueError("arc set contains a cycle")
    return tuple(order)


def validate(instance: WeightedInstance) -> list[str]:
    """Every violated invariant, as human-readable strings; empty means valid.

    Beyond structural checks this verifies the arc-consistency precondition of
    the cost-free constraint: each edge must lie on at least one support when
    costs are ignored.
    """
    v: list[str] = []
    if instance.kind not in (ALLDIFF, PATH):
        return [f"unknown kind {instance.kind!r}"]
    if instance.n_vars < 1:
        v.append("n_vars must be >= 1")
    if instance.z_max < 0:
        v.append("z_max must be >= 0")
    if len(set(instance.values)) != len(instance.values):
        v.append("duplicate values")
    for e in instance.edges:
        if instance.cost[e] < 0:
            v.append(f"edge {e}: cost must be a non-negative integer")

    if instance.kind == ALLDIFF:
        if len(instance.values) != instance.n_vars:
            # equality rows on both sides of the assignment LP need a square graph
            v.append("alldiff instances must have exactly n_vars values")
        value_set = set(instance.values)
        for e in instance.edges:
            if not (0 <= e.i < instance.n_vars):
                v.append(f"edge {e}: variable index out of range")
            if e.j not in value_set:
                v.append(f"edge {e}: value not in the value list")
        tails = {e.i for e in instance.edges}
        for k in range(instance.n_vars):
            if k not in tails:
                v.append(f"variable {k} has an empty domain")
    else:
        meta = instance.path
        if meta is None:
            return v + ["path instance without source/sink metadata"]
        vertex_set = set(instance.values)
        if meta.source not in vertex_set or meta.sink not in vertex_set:
            v.append("source or sink not among the vertices")
        if meta.source == meta.sink:
            v.append("source equals sink")
        if instance.n_vars != len(instance.values) - 1:
            # one successor variable per vertex except the sink
            v.append("path instances must have n_vars = number of vertices - 1")
        for e in instance.edges:
            if e.i not in vertex_set or e.j not in vertex_set:
                v.append(f"arc {e}: endpoint outside the vertex list")
            if e.i == e.j:
                v.append(f"arc {e}: self-loops are not part of the arc set")
        try:
            topological_order(instance.values, instance.edges)
        except ValueError as exc:
            v.append(str(exc))
            return v

    if v:
        return v

    # structural AC: every edge on at least one support, costs ignored
    from . import formulations  # local import, formulations depends on model

    for e in formulations.unsupported_edges(instance, instance.edges):
        v.append(f"edge {e} lies on no support")
    return v


# ---------------------------------------------------------------------------
# instance files: UTF-8 JSON


def instance_to_dict(instance: WeightedInstance) -> dict:
    d: dict = {
        "kind": instance.kind,
        "n_vars": instance.n_vars,
        "values": list(instance.values),
        "edges": [[e.i, e.j, instance.cost[e]] for e in instance.edges],
        "z_max": instance.z_max,
    }
    if instance.path is not None:
        d["path"] = {"source": instance.path.source, "sink": instance.path.sink}
    return d


def instance_from_dict(d: Mapping) -> WeightedInstance:
    try:
        kind = d["kind"]
        path = d.get("path")
        return weighted_instance(
            kind=kind,
            n_vars=d["n_vars"],
            values=d["values"],
            edges=[(e[0], e[1], e[2]) for e in d["edges"]],
            z_max=d["z_max"],
            source=None if path is None else path["source"],
            sink=None if path is None else path["sink"],
        )
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"malformed instance: {exc}") from exc


def load_instance(path: Union[str, Path]) -> WeightedInstance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"not valid JSON: {exc}") from exc
    return instance_from_dict(raw)


def save_instance(instance: WeightedInstance, path: Union[str, Path]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(instance), fh, indent=2)
        fh.write("\n")
