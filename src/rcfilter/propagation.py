"""The filtering loop: arc consistency by a sequence of dual solves.

One dual solve per incompatible set classifies every edge of that set exactly
and may knock out arbitrary other edges along the way.  A set is picked only
while it has an unmarked edge, and its solve marks all of them, so no set is
solved twice.  Requires every edge to lie on at least one support
(``model.validate`` enforces this).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from . import duality, formulations
from .duality import DualSolution
from .formulations import IncompatibleFamily
from .model import EdgeId, InfeasibleConstraintError, WeightedInstance

UNMARKED = "unmarked"
CONSISTENT = "consistent"
INCONSISTENT = "inconsistent"

@dataclass(frozen=True)
class FilterResult:
    """Outcome of the filtering loop.

    ``marks`` classifies every edge; ``complete`` says whether any edge was
    left unmarked (only possible under a solve budget).  ``z_lb`` is the optimum
    recovered from the first covering set solved, None if no covering set was
    solved.
    ``duals_used`` records (edge set, dual solution) per solve, in order.
    """

    marks: Mapping[EdgeId, str]
    z_lb: Optional[Fraction]
    duals_used: tuple[tuple[tuple[EdgeId, ...], DualSolution], ...]
    complete: bool

    @property
    def solves(self) -> int:
        return len(self.duals_used)

    def consistent_edges(self) -> tuple[EdgeId, ...]:
        return tuple(e for e, m in self.marks.items() if m == CONSISTENT)

    def inconsistent_edges(self) -> tuple[EdgeId, ...]:
        return tuple(e for e, m in self.marks.items() if m == INCONSISTENT)


def _pick_next(
    family: IncompatibleFamily, marks: Mapping[EdgeId, str]
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
    family: Optional[IncompatibleFamily] = None,
    budget: Optional[int] = None,
) -> FilterResult:
    """Classify every edge as consistent or inconsistent with the cost bound.

    Walks the incompatible sets (largest unmarked count first, recomputed
    per pick), solving one dual program per set.  The solve's
    reduced costs are exact on the set, classifying all of its unmarked
    edges, and any edge anywhere whose bound exceeds the threshold is marked
    inconsistent immediately.  ``budget`` caps the number of dual solves.

    Raises InfeasibleConstraintError when a covering set proves the optimum
    exceeds the cost bound, when every edge ends up inconsistent, or when
    the instance has no edge.  Raises ValueError on an instance
    ``model.validate`` rejects, as ``duality.solve_family_dual`` does.
    """
    if family is None:
        family = formulations.family(instance, "domains")
    for edge_set in family.sets:
        for e in edge_set:
            if e not in instance.cost:
                raise ValueError(f"family edge {e} not in the instance")
    z_max = Fraction(instance.z_max)
    marks: dict[EdgeId, str] = {e: UNMARKED for e in instance.edges}
    duals_used: list[tuple[tuple[EdgeId, ...], DualSolution]] = []
    z_lb: Optional[Fraction] = None

    while True:
        if budget is not None and len(duals_used) >= budget:
            break
        idx = _pick_next(family, marks)
        if idx is None:
            break
        edge_set = family.sets[idx]
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
        if z_lb is None and family.covering[idx]:
            # every covering set's dual recovers z* exactly, so the first suffices
            z_lb = duality.zstar_from_family_dual(instance, edge_set, dual)
            if z_lb > z_max:
                raise InfeasibleConstraintError(
                    f"optimum {z_lb} exceeds the cost bound {z_max}", z_lb=z_lb
                )

    if all(m == INCONSISTENT for m in marks.values()):
        # a full wipe proves no support lies within the bound: any edge of an
        # optimal support has restricted optimum equal to z*; an instance
        # without edges has no support at all
        raise InfeasibleConstraintError(
            f"no support within the cost bound {z_max}", z_lb=z_lb
        )
    complete = all(m != UNMARKED for m in marks.values())
    return FilterResult(
        marks=marks, z_lb=z_lb, duals_used=tuple(duals_used), complete=complete
    )


def lower_bound(
    instance: WeightedInstance, family: Optional[IncompatibleFamily] = None
) -> Fraction:
    """The optimum of the support LP, recovered from one covering set's dual.

    An instance without edges has no support: InfeasibleConstraintError.
    """
    if not instance.edges:
        raise InfeasibleConstraintError("no support: the instance has no edge")
    if family is None:
        family = formulations.family(instance, "domains")
    for edge_set, covering in zip(family.sets, family.covering):
        if covering and edge_set:
            dual = duality.solve_family_dual(instance, edge_set)
            return duality.zstar_from_family_dual(instance, edge_set, dual)
    raise ValueError("family has no covering set")
