"""The filtering loop: arc consistency by a sequence of family duals.

One dual per incompatible set classifies every edge of that set exactly and
may knock out arbitrary other edges along the way.  A set is picked only
while it has an unmarked edge, and its dual marks all of them, so no set is
used twice.  The loop runs on edge positions, the family's sets as
``formulations._position_sets`` gives them: each dual is a pair of potential
lists built from the instance's one combinatorial pass
(``duality._pass_potentials``), with no LP solve, and checked in exact
arithmetic over the pass's per-edge tuples by ``duality._checked_potentials``,
whose bounds by position it marks from.  No dual is kept: the run records
its sets, and ``FilterResult.duals`` builds each dual again on demand
(``duality.pass_family_dual``): the dual the run checked, built again
deterministically and not checked again.  The LP route,
``duality.solve_family_dual``, stays as the reference that tests compare
with.  Requires every edge to lie on at least one support
(``model.validate`` enforces this, and ``lower_bound`` raises otherwise).
The sets come from ``formulations.family``, by strategy name: only its sets
are known to be pairwise incompatible.  Every dual is optimal (the check
asserts w = z*), so before the first one is built the run takes z* from
``duality.lower_bound`` (``validate`` reads the same pass), and a bound
below z* is refuted with no dual built.  z* takes no family.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterator, Optional

from . import duality, formulations
from .duality import DualSolution, lower_bound
from .model import EdgeId, InfeasibleConstraintError, WeightedInstance

UNMARKED = "unmarked"
CONSISTENT = "consistent"
INCONSISTENT = "inconsistent"


class FilterResult(namedtuple("FilterResult", "marks z_lb sets_used instance")):
    """Outcome of the filtering loop.

    ``marks`` classifies every edge.  ``z_lb`` is z*, read from the pass
    before the first dual is built, None if no dual was built (budget 0).
    ``sets_used`` records the edge set of each dual built, in order, and
    ``solves`` counts them.  ``instance`` is the instance filtered, from
    whose pass ``duals()`` builds the duals again.
    """

    __slots__ = ()

    @property
    def solves(self) -> int:
        return len(self.sets_used)

    @property
    def complete(self) -> bool:
        """No edge left unmarked (only possible under a solve budget)."""
        return all(m != UNMARKED for m in self.marks.values())

    def duals(self) -> Iterator[tuple[tuple[EdgeId, ...], DualSolution]]:
        """Yield (edge set, dual solution) per dual built, in order.

        Each dual is built again by ``duality.pass_family_dual``: a function of
        the instance's pass and the set, it equals the dual the run marked from.
        """
        for edge_set in self.sets_used:
            yield edge_set, duality.pass_family_dual(self.instance, edge_set)

    def consistent_edges(self) -> tuple[EdgeId, ...]:
        return tuple(e for e, m in self.marks.items() if m == CONSISTENT)

    def inconsistent_edges(self) -> tuple[EdgeId, ...]:
        return tuple(e for e, m in self.marks.items() if m == INCONSISTENT)


def _pick_next(unmarked: list[int]) -> Optional[int]:
    """The set with the most unmarked edges, the lowest index on a tie; None if none has any."""
    best = max(range(len(unmarked)), key=unmarked.__getitem__, default=None)
    return best if best is not None and unmarked[best] else None


def ac_by_lp(
    instance: WeightedInstance,
    strategy: str = "domains",
    budget: Optional[int] = None,
) -> FilterResult:
    """Classify every edge as consistent or inconsistent with the cost bound.

    Walks the sets of ``formulations.family(instance, strategy)``, as edge
    positions (``formulations._position_sets``), largest unmarked count
    first (the sets partition the edges, so each set's count drops as its
    edges are marked), building one dual per set from the
    instance's combinatorial pass (``duality._pass_potentials``), with no LP
    solve.  Each dual is optimal and its reduced costs are exact
    on the set, classifying all of its unmarked edges, and any edge anywhere
    whose bound exceeds the threshold is marked inconsistent immediately.
    ``duality._checked_potentials`` checks each dual and gives every edge's
    bound ``w + r_e`` by position, which the marks are read from.  The
    result records the sets, not the duals.  ``budget`` caps the number of
    duals built.

    Raises InfeasibleConstraintError when the instance has no edge, or when
    a dual is about to be built and z* exceeds the cost bound: the run sets
    ``z_lb`` to z* before its first dual, whichever set is picked, and
    raises with no dual built.  Every dual built is optimal, so every edge
    of an optimal support keeps a bound of z* and no dual wipes every edge.
    Raises ValueError for a budget that is not a non-negative ``int`` (a
    float or a bool is never rounded), a strategy ``formulations.family``
    rejects, or an instance with an edge on no support, which
    ``model.validate`` rejects too.
    """
    if budget is not None:
        if isinstance(budget, bool) or not isinstance(budget, int):
            raise ValueError(f"budget must be an integer, got {budget!r}")
        if budget < 0:
            raise ValueError(f"budget must be >= 0, got {budget}")
    sets = formulations._position_sets(instance, strategy)
    z_star = lower_bound(instance)
    z_max = instance.z_max
    # the first pick builds a dual unless the budget is 0: the sets cover the edges
    z_lb = None if budget == 0 else z_star
    if z_lb is not None and z_lb > z_max:
        raise InfeasibleConstraintError(
            f"optimum {z_lb} exceeds the cost bound {z_max}", z_lb=z_lb
        )
    # the loop runs on edge positions: the pass's per-edge tuples
    edges = instance.edges
    set_of = [0] * len(edges)
    for idx, members in enumerate(sets):
        for k in members:
            set_of[k] = idx
    marks = [UNMARKED] * len(edges)
    unmarked = [len(members) for members in sets]
    live = list(range(len(edges)))  # the unmarked positions
    used: list[int] = []

    while budget is None or len(used) < budget:
        idx = _pick_next(unmarked)
        if idx is None:
            break
        used.append(idx)
        members = sets[idx]
        bounds = duality._checked_potentials(
            instance, members, *duality._pass_potentials(instance, members)
        )
        # any edge above the bound is inconsistent, a member within it consistent
        for k in [k for k in live if bounds[k] > z_max]:
            marks[k] = INCONSISTENT
            unmarked[set_of[k]] -= 1
        for k in members:
            if marks[k] == UNMARKED:
                marks[k] = CONSISTENT
                unmarked[idx] -= 1
        live = [k for k in live if marks[k] == UNMARKED]
    return FilterResult(
        marks=dict(zip(edges, marks)),
        z_lb=z_lb,
        sets_used=tuple(tuple([edges[k] for k in sets[idx]]) for idx in used),
        instance=instance,
    )

