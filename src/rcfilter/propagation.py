"""The filtering loop: arc consistency by a sequence of dual solves.

One dual solve per incompatible set classifies every edge of that set exactly
and may knock out arbitrary other edges along the way.  A set is picked only
while it has an unmarked edge, and its solve marks all of them, so no set is
solved twice.  Requires every edge to lie on at least one support
(``model.validate`` enforces this).
The sets come from ``formulations.family``, by strategy name: only its sets
are known to be pairwise incompatible and flagged covering truthfully.
The first covering set picked takes z* from the instance's one combinatorial
pass (``formulations.optimum``; ``validate`` reads the same pass) before its
solve, so a bound below z* is refuted with that solve unspent.  ``lower_bound``
reads z* the same way and solves nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from . import duality, formulations, lp_core
from .duality import DualSolution
from .model import EdgeId, InfeasibleConstraintError, WeightedInstance

UNMARKED = "unmarked"
CONSISTENT = "consistent"
INCONSISTENT = "inconsistent"

@dataclass(frozen=True)
class FilterResult:
    """Outcome of the filtering loop.

    ``marks`` classifies every edge.  ``z_lb`` is the optimum read for the
    first covering set solved, None if no covering set was solved.
    ``duals_used`` records (edge set, dual solution) per solve, in order.
    """

    marks: Mapping[EdgeId, str]
    z_lb: Optional[lp_core.Number]
    duals_used: tuple[tuple[tuple[EdgeId, ...], DualSolution], ...]

    @property
    def solves(self) -> int:
        return len(self.duals_used)

    @property
    def complete(self) -> bool:
        """No edge left unmarked (only possible under a solve budget)."""
        return all(m != UNMARKED for m in self.marks.values())

    def consistent_edges(self) -> tuple[EdgeId, ...]:
        return tuple(e for e, m in self.marks.items() if m == CONSISTENT)

    def inconsistent_edges(self) -> tuple[EdgeId, ...]:
        return tuple(e for e, m in self.marks.items() if m == INCONSISTENT)


def _pick_next(
    family: formulations.IncompatibleFamily, marks: Mapping[EdgeId, str]
) -> Optional[int]:
    best = None
    best_count = 0
    for idx, edge_set in enumerate(family.sets):
        count = sum(1 for e in edge_set if marks[e] == UNMARKED)
        if count > best_count:
            best, best_count = idx, count
    return best


def ac_by_lp(
    instance: WeightedInstance,
    strategy: str = "domains",
    budget: Optional[int] = None,
) -> FilterResult:
    """Classify every edge as consistent or inconsistent with the cost bound.

    Walks the sets of ``formulations.family(instance, strategy)`` (largest
    unmarked count first, recomputed per pick), solving one dual program per
    set.  The solve's reduced costs are exact on the set, classifying all of
    its unmarked edges, and any edge anywhere whose bound exceeds the
    threshold is marked inconsistent immediately.  ``budget`` caps the number of dual solves.

    Raises InfeasibleConstraintError when a covering set proves the optimum
    exceeds the cost bound, when every edge ends up inconsistent, or when
    the instance has no edge.  The first covering set picked gives ``z_lb``
    as ``formulations.optimum``, which its solve would recover; it is read
    before that solve, so a z* above the bound raises with the solve unspent
    (with none at all when that set is the first picked).
    Raises ValueError for a budget that is not a non-negative ``int`` (a
    float or a bool is never rounded), a strategy ``formulations.family``
    rejects, or an instance ``model.validate`` rejects, as the pass and
    ``duality.solve_family_dual`` do.
    """
    if budget is not None:
        if isinstance(budget, bool) or not isinstance(budget, int):
            raise ValueError(f"budget must be an integer, got {budget!r}")
        if budget < 0:
            raise ValueError(f"budget must be >= 0, got {budget}")
    family = formulations.family(instance, strategy)
    z_max = instance.z_max
    marks: dict[EdgeId, str] = {e: UNMARKED for e in instance.edges}
    duals_used: list[tuple[tuple[EdgeId, ...], DualSolution]] = []
    z_lb: Optional[lp_core.Number] = None

    while True:
        if budget is not None and len(duals_used) >= budget:
            break
        idx = _pick_next(family, marks)
        if idx is None:
            break
        edge_set = family.sets[idx]
        if z_lb is None and family.covering[idx]:
            z_lb = _covering_optimum(instance, edge_set)
            if z_lb is not None and z_lb > z_max:  # None: the solve below rejects the set
                raise InfeasibleConstraintError(
                    f"optimum {z_lb} exceeds the cost bound {z_max}", z_lb=z_lb
                )
        dual = duality.solve_family_dual(instance, edge_set)
        duals_used.append((edge_set, dual))
        w = dual.w
        members = set(edge_set)
        for kl in instance.edges:
            if marks[kl] != UNMARKED:
                continue
            bound = w + duality.reduced_cost(instance, dual, kl)
            if bound > z_max:
                marks[kl] = INCONSISTENT
            elif kl in members:
                marks[kl] = CONSISTENT

    if all(m == INCONSISTENT for m in marks.values()):
        # a full wipe proves no support lies within the bound: any edge of an
        # optimal support has restricted optimum equal to z*; an instance
        # without edges has no support at all
        raise InfeasibleConstraintError(
            f"no support within the cost bound {z_max}", z_lb=z_lb
        )
    return FilterResult(marks=marks, z_lb=z_lb, duals_used=tuple(duals_used))


def _covering_optimum(instance: WeightedInstance, edge_set) -> Optional[lp_core.Number]:
    """z* as a covering set's family dual recovers it; None where that dual is unbounded."""
    optima = formulations.restricted_optima(instance)
    if any(optima[e] is None for e in edge_set):  # a member lies on no support
        return None
    return formulations.optimum(instance)


def lower_bound(instance: WeightedInstance, strategy: str = "domains") -> lp_core.Number:
    """z* for the family's first covering set, read from the pass with no LP solve.

    ValueError as in ``ac_by_lp``, and when a member of that set lies on no
    support.  An instance without edges has no support:
    InfeasibleConstraintError.
    """
    family = formulations.family(instance, strategy)
    if not instance.edges:
        raise InfeasibleConstraintError("no support: the instance has no edge")
    z_star = _covering_optimum(instance, family.sets[family.covering.index(True)])
    if z_star is None:
        raise ValueError("an edge of the first covering set lies on no support")
    return z_star
