"""Brute-force ground truth for desk-scale instances.

Everything here is deliberately dumb: enumerate every support, take minima.
The rest of the package is tested against these numbers, so no pruning or
cleverness is allowed to creep in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .lp_core import Number, exact
from .model import (
    ALLDIFF,
    PATH,
    EdgeId,
    InfeasibleConstraintError,
    WeightedInstance,
)

# enumeration stays exhaustive, so sizes are capped hard
MAX_ALLDIFF_VARS = 8
MAX_PATH_VERTICES = 12


class SizeGuardError(Exception):
    """Instance too large for exhaustive enumeration."""


@dataclass(frozen=True)
class OracleReport:
    """Exhaustive enumeration results; the reference for every other module.

    ``z_restricted[e]`` is the cheapest support through e, or None when e lies
    on no support at all (an explicit sentinel, never a large number).  Every
    value is exact, in the package's one form: an ``int`` when integral.
    """

    supports: tuple[tuple[tuple[EdgeId, ...], Number], ...]
    z_star: Number
    z_restricted: dict[EdgeId, Optional[Number]]
    exact_rc: dict[EdgeId, Optional[Number]]
    ac_set: tuple[EdgeId, ...]
    z_max: int

    def classification(self) -> dict[EdgeId, str]:
        """Edge -> 'consistent' / 'inconsistent' under the instance's bound."""
        ac = set(self.ac_set)
        return {
            e: ("consistent" if e in ac else "inconsistent")
            for e in self.z_restricted
        }


def _guard(instance: WeightedInstance) -> None:
    if instance.kind == ALLDIFF and instance.n_vars > MAX_ALLDIFF_VARS:
        raise SizeGuardError(
            f"alldiff enumeration capped at {MAX_ALLDIFF_VARS} variables, "
            f"got {instance.n_vars}"
        )
    if instance.kind == PATH and len(instance.values) > MAX_PATH_VERTICES:
        raise SizeGuardError(
            f"path enumeration capped at {MAX_PATH_VERTICES} vertices, "
            f"got {len(instance.values)}"
        )


def all_supports(instance: WeightedInstance) -> list[tuple[EdgeId, ...]]:
    """Every support, in a deterministic order derived from the edge order."""
    _guard(instance)
    if instance.kind == ALLDIFF:
        return _all_assignments(instance)
    return _all_paths(instance)


def _all_assignments(instance: WeightedInstance) -> list[tuple[EdgeId, ...]]:
    by_var: list[list[EdgeId]] = [[] for _ in range(instance.n_vars)]
    for e in instance.edges:
        by_var[e.i].append(e)
    out: list[tuple[EdgeId, ...]] = []
    chosen: list[EdgeId] = []
    used: set[int] = set()

    def extend(k: int) -> None:
        if k == instance.n_vars:
            out.append(tuple(chosen))
            return
        for e in by_var[k]:
            if e.j in used:
                continue
            used.add(e.j)
            chosen.append(e)
            extend(k + 1)
            chosen.pop()
            used.remove(e.j)

    extend(0)
    return out


def _all_paths(instance: WeightedInstance) -> list[tuple[EdgeId, ...]]:
    meta = instance.path
    assert meta is not None
    out_arcs: dict[int, list[EdgeId]] = {v: [] for v in instance.values}
    for e in instance.edges:
        out_arcs[e.i].append(e)
    found: list[tuple[EdgeId, ...]] = []
    walk: list[EdgeId] = []

    def extend(v: int) -> None:
        if v == meta.sink:
            found.append(tuple(walk))
            return
        for e in out_arcs[v]:
            walk.append(e)
            extend(e.j)  # the graph is a DAG, vertices cannot repeat
            walk.pop()

    extend(meta.source)
    return found


def enumerate(instance: WeightedInstance) -> OracleReport:
    """Exhaustive report: all supports, z*, per-edge restricted optima and AC set."""
    supports = all_supports(instance)
    if not supports:
        raise InfeasibleConstraintError("no support exists")
    costed = tuple(
        (s, exact(sum(instance.cost[e] for e in s))) for s in supports
    )
    z_star = min(c for _, c in costed)
    z_restricted: dict[EdgeId, Optional[Number]] = {e: None for e in instance.edges}
    for s, c in costed:
        for e in s:
            prev = z_restricted[e]
            if prev is None or c < prev:
                z_restricted[e] = c
    exact_rc = {
        e: (None if zr is None else exact(zr - z_star))
        for e, zr in z_restricted.items()
    }
    ac_set = tuple(
        e
        for e in instance.edges
        if z_restricted[e] is not None and z_restricted[e] <= instance.z_max
    )
    return OracleReport(
        supports=costed,
        z_star=z_star,
        z_restricted=z_restricted,
        exact_rc=exact_rc,
        ac_set=ac_set,
        z_max=instance.z_max,
    )


def check_incompatible(instance: WeightedInstance, edge_set: Iterable[EdgeId]) -> bool:
    """True iff no support contains two edges of the set."""
    edges = set(EdgeId(*e) for e in edge_set)
    for s in all_supports(instance):
        if len(edges.intersection(s)) >= 2:
            return False
    return True
