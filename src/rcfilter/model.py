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
An instance derives its edge list and a path's topological order on every build.

The package's one exact-number form is defined here (``exact``,
``_quotient``): an integral value is an ``int``, any other a ``Fraction``.
``fractions`` is imported by the first value that is not integral, so a run
on integer data never loads it.  ``NormalizingRecord`` is the base of every
record that normalizes and checks its fields when built.
"""

from __future__ import annotations

import heapq
import json
from collections import namedtuple
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence, Union

ALLDIFF = "alldiff"
PATH = "path"


# exact: an int when integral, else a Fraction; at run time Fraction is a
# forward reference, so that importing this module does not import fractions
if TYPE_CHECKING:
    from fractions import Fraction

    Number = Union[int, Fraction]
else:
    Number = Union[int, "Fraction"]


def _fraction(*args):
    """``Fraction(*args)``; the first call imports ``fractions`` and rebinds this name.

    After that first call ``_fraction`` is the ``Fraction`` class itself, so
    a later call costs one global lookup, not an import.
    """
    global _fraction
    from fractions import Fraction as _fraction

    return _fraction(*args)


def exact(x) -> Number:
    """x as an exact number: an ``int`` when it is integral, else a ``Fraction``."""
    if type(x) is int:
        return x
    x = _fraction(x)
    return x.numerator if x.denominator == 1 else x


def _quotient(n: int, d: int) -> Number:
    """n / d as an exact number, for integers n and d != 0 of either sign."""
    q, r = divmod(n, d)
    return q if r == 0 else _fraction(n, d)


class NormalizingRecord:
    """Base of a ``collections.namedtuple`` record that ``__new__`` normalizes and checks.

    The fields named in ``_derived`` are computed by ``__new__``, never given
    to it.  ``_make``, ``_replace``, ``repr`` and copying go through the
    other fields, the constructor's arguments, so such a record is
    normalized, derived and checked again, as a new one is.  (namedtuple's
    own ``_make`` and ``_replace`` skip ``__new__``.)

    Every record of the package is a namedtuple subclass with empty
    ``__slots__``, so immutable, rather than a frozen dataclass, whose
    module loads ``inspect`` and whose decorator execs each class's methods
    at import: together about two thirds of the package's import time.
    """

    __slots__ = ()
    _derived: tuple = ()

    def _arguments(self) -> dict:
        return {f: getattr(self, f) for f in self._fields if f not in self._derived}

    @classmethod
    def _make(cls, iterable):
        fields = zip(cls._fields, iterable, strict=True)
        return cls(**{f: x for f, x in fields if f not in cls._derived})

    def _replace(self, **changes):
        refused = [f for f in self._derived if f in changes]
        if refused:
            raise ValueError(f"{refused[0]} is derived on every build and cannot be replaced")
        return type(self)(**{**self._arguments(), **changes})

    def __getnewargs__(self) -> tuple:
        return tuple(self._arguments().values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={x!r}" for f, x in self._arguments().items())
        return f"{type(self).__name__}({fields})"


class EdgeId(namedtuple("EdgeId", "i j")):
    """Edge of the variable-value graph: variable i takes value j (or arc i->j)."""

    __slots__ = ()


class InfeasibleConstraintError(Exception):
    """The constraint admits no support within the cost bound (or none at all)."""

    def __init__(self, message: str, z_lb=None):
        super().__init__(message)
        self.z_lb = z_lb


class PathMeta(namedtuple("PathMeta", "source sink")):
    """Source and sink of the DAG."""

    __slots__ = ()


class WeightedInstance(
    NormalizingRecord,
    namedtuple("WeightedInstance", "kind n_vars values edges cost z_max path topo_order"),
):
    """A weighted constraint: graph, assignment costs and the cost bound z_max.

    ``cost`` is a read-only view of a copy of the map given, keyed by EdgeId,
    so what is built once per instance (``formulations.last_instance_memo``)
    stays true to it.  Every build, ``_replace`` too, derives ``edges`` (its
    keys, in LP column order) and a path's ``topo_order``, or raises ValueError.
    """

    __slots__ = ()
    _derived = ("edges", "topo_order")

    def __new__(
        cls,
        kind: str,
        n_vars: int,
        values: tuple[int, ...],
        cost: Mapping[EdgeId, int],
        z_max: int,
        path: Optional[PathMeta] = None,
    ):
        cost = dict(cost)
        if not all(type(e) is EdgeId for e in cost):
            cost = {EdgeId(*e): c for e, c in cost.items()}
        edges = tuple(cost)
        topo = topological_order(values, edges) if kind == PATH else ()
        return super().__new__(
            cls, kind, n_vars, values, edges, MappingProxyType(cost), z_max, path, topo
        )

    def variables(self) -> tuple[int, ...]:
        # alldiff: variable indices; path: every vertex except the sink,
        # in topological order (each carries a successor variable).
        if self.kind == ALLDIFF:
            return tuple(range(self.n_vars))
        assert self.path is not None
        return tuple(v for v in self.topo_order if v != self.path.sink)


class SatisfactionInstance(
    namedtuple("SatisfactionInstance", "n_vars values edges", defaults=((),))
):
    """A cost-free alldiff constraint: just the variable-value graph."""

    __slots__ = ()


def _integer(x, what: str, *args) -> int:
    # booleans, floats and strings are rejected, never coerced; ``what`` is
    # formatted with ``args`` only then
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{what.format(*args)} must be an integer, got {x!r}")
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
    cost: dict[EdgeId, int] = {}
    for i, j, c in edges:
        if not (type(i) is int and type(j) is int and type(c) is int):
            # _integer raises on the first number that is not an integer:
            # the endpoints, then the cost, after a repeated edge is reported
            e = EdgeId(_integer(i, "edge endpoint"), _integer(j, "edge endpoint"))
            if e not in cost:
                _integer(c, "cost of edge {}", e)
        e = EdgeId(i, j)
        if e in cost:
            raise ValueError(f"duplicate edge {e}")
        cost[e] = c
    meta = None
    if kind == PATH:
        if source is None or sink is None:
            raise ValueError("path instances need a source and a sink")
        meta = PathMeta(source=_integer(source, "source"), sink=_integer(sink, "sink"))
    elif kind != ALLDIFF:
        raise ValueError(f"unknown kind {kind!r}")
    return WeightedInstance(
        kind=kind,
        n_vars=_integer(n_vars, "n_vars"),
        values=values_t,
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
    costs are ignored.  That is read from the instance's one combinatorial
    pass, ``formulations.combinatorial_pass``: an edge on no support has no
    restricted optimum.
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
    for e, c in instance.cost.items():
        if c < 0:
            v.append(f"edge {e}: cost must be a non-negative integer")

    if instance.kind == ALLDIFF:
        square = len(instance.values) == instance.n_vars
        if not square:
            # equality rows on both sides of the assignment LP need a square graph
            v.append("alldiff instances must have exactly n_vars values")
        value_set = set(instance.values)
        for e in instance.edges:
            if not (0 <= e.i < instance.n_vars):
                v.append(f"edge {e}: variable index out of range")
            if e.j not in value_set:
                v.append(f"edge {e}: value not in the value list")
        # only a square instance's n_vars is bounded by the file's size
        if square:
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

    if v:
        return v

    # structural AC: every edge on at least one support, costs ignored
    from . import formulations  # local import, formulations depends on model

    unsupported = formulations.combinatorial_pass(instance).unsupported
    return [f"edge {e} lies on no support" for e in unsupported]


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


def _edge_triple(e):
    if len(e) != 3:
        raise ValueError(f"edge {e!r} is not [i, j, cost]")
    return e


def instance_from_dict(d: Mapping) -> WeightedInstance:
    if not isinstance(d, Mapping):
        raise ValueError(f"an instance must be a JSON object, not {type(d).__name__}")
    try:
        kind = d["kind"]
        path = d.get("path")
        if path is not None and kind != PATH:
            raise ValueError('"path" is only for path instances')
        return weighted_instance(
            kind=kind,
            n_vars=d["n_vars"],
            values=d["values"],
            edges=[_edge_triple(e) for e in d["edges"]],
            z_max=d["z_max"],
            source=None if path is None else path["source"],
            sink=None if path is None else path["sink"],
        )
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"malformed instance: {exc}") from exc


def _json_object(pairs: list) -> dict:
    # json.load alone would keep the last of a repeated key
    d = {}
    for k, v in pairs:
        if k in d:
            raise ValueError(f"duplicate key {k!r}")
        d[k] = v
    return d


# one decoder for every file; ``json.loads`` would build a new one per call
_DECODER = json.JSONDecoder(object_pairs_hook=_json_object)


def load_instance(path: Union[str, Path]) -> WeightedInstance:
    """Read an instance file: OSError if unreadable, ValueError if malformed or a key repeats.

    The file is read as bytes and decoded as UTF-8 in one call.  A ``\\r\\n``
    or lone ``\\r`` becomes ``\\n`` first, as a text-mode read would make it,
    so a JSON error names the same line, column and character offset.  The
    text goes to one module-level ``JSONDecoder``, after the byte-order-mark
    check that ``json.loads`` makes and ``decode`` does not.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        if text.startswith("\ufeff"):
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        raw = _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"not UTF-8: {exc}") from exc
    except RecursionError as exc:
        raise ValueError("JSON nested too deeply") from exc
    return instance_from_dict(raw)


def save_instance(instance: WeightedInstance, path: Union[str, Path]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(instance), fh, indent=2)
        fh.write("\n")
