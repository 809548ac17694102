"""Reduced-cost arithmetic on dual solutions and the family dual program.

A dual solution assigns an exact potential to every variable row (and value
row, for alldiff), and every value computed from it is exact: an ``int``
when integral, else a ``Fraction`` (``lp_core.exact``).  The reduced cost of
an edge is the slack of its dual constraint; the exact reduced cost is the
true increase of the optimum when the edge is forced.  The operations here
produce dual solutions whose reduced costs are exact on whole sets of
pairwise-incompatible edges at once, which is what the filtering loop consumes.

LP solves happen only where a new dual or optimum is needed: the support LP
(``solve_primal``, the only solve of that LP; callers pass its z* down, and
``propagation`` recovers z* from a covering set's family dual instead), the
shifted LP of ``shifted_cost_dual`` (its one solve) and the one family dual
program (``solve_family_dual``).  An averaged satisfaction dual makes one
solve when no original edge is inconsistent and one per inconsistent edge
otherwise: z* = 0 is known without a solve then.  Questions with a
combinatorial answer need no LP.  ``formulations.restricted_optima`` gives
every edge's restricted optimum in one pass per instance, which answers
``exact_reduced_cost`` and which satisfaction edges lie on no solution.
``formulations.find_support`` decides whether a dual is optimal
(complementary slackness) and whether a reduced cost is exact.

Which optimal dual a solve returns is fixed by the column numbering, since
Bland's rule enters the lowest-numbered column (see ``lp_core``).  The
support LP's columns are the edges in instance order, and its "=" rows, one
per primal row tag, each get an artificial column.  The family dual
program's columns are the primal row tags, ``("u", i)`` then ``("v", j)``,
each free and so split into a pair; its "<=" rows, one per edge in instance
order, each get a slack column.  Each program is built once, with its final
(shifted) objective, from ``formulations.row_rhs`` and ``edge_column``, and
is integral: the family dual's objective is scaled by |S| to integers.  The
rows of either program depend only on the instance, and are reused while
the instance stays the same (``formulations.last_instance_memo``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from . import formulations, lp_core
from .formulations import Support, edge_column
from .lp_core import Number, exact
from .model import (
    ALLDIFF,
    EdgeId,
    InfeasibleConstraintError,
    SatisfactionInstance,
    WeightedInstance,
)


@dataclass(frozen=True)
class DualSolution:
    """Potentials per variable (u) and per value (v; empty for path instances).

    For path instances ``u`` covers every vertex, the sink pinned to 0 since
    its flow row does not exist.  ``w`` is the dual objective.  Every value
    is exact, an ``int`` when it is integral.
    """

    u: Mapping[int, Number]
    v: Mapping[int, Number]
    w: Number


def dual_solution(
    instance: WeightedInstance,
    u: Mapping[int, Number],
    v: Optional[Mapping[int, Number]] = None,
) -> DualSolution:
    """Package potentials, made exact, computing the dual objective from the components."""
    u = {k: exact(x) for k, x in u.items()}
    v = {} if v is None else {k: exact(x) for k, x in v.items()}
    if instance.kind == ALLDIFF:
        w = sum(u.values()) + sum(v.values())
    else:
        meta = instance.path
        assert meta is not None
        # the sink has no flow row, so its potential is fixed at zero
        if u.setdefault(meta.sink, 0) != 0:
            raise ValueError(f"sink potential must be 0, got {u[meta.sink]}")
        w = u[meta.source]
    return DualSolution(u=u, v=v, w=exact(w))


def from_row_duals(
    instance: WeightedInstance, row_duals: Mapping
) -> DualSolution:
    """Build a DualSolution from values keyed by primal row tag.

    These are the row duals of a primal solve or the column values of a
    family dual solve.
    """
    u: dict[int, Number] = {}
    v: dict[int, Number] = {}
    for tag, value in row_duals.items():
        if tag[0] == "u":
            u[tag[1]] = value
        elif tag[0] == "v":
            v[tag[1]] = value
    return dual_solution(instance, u, v)


def is_dual_feasible(instance: WeightedInstance, dual: DualSolution) -> bool:
    """Exact feasibility of the potentials for the dual of the support LP.

    The support LP has only "=" rows and non-negative columns, so its dual is
    feasible exactly when no edge has a negative reduced cost.
    """
    return all(reduced_cost(instance, dual, e) >= 0 for e in instance.edges)


def reduced_cost(instance: WeightedInstance, dual: DualSolution, ij: EdgeId) -> Number:
    """Slack of edge ij's dual constraint: c - u_i - v_j, or c - u_i + u_j on arcs."""
    ij = EdgeId(*ij)
    if ij not in instance.cost:
        raise ValueError(f"edge {ij} not in the instance")
    c = instance.cost[ij]
    if instance.kind == ALLDIFF:
        return exact(c - dual.u[ij.i] - dual.v[ij.j])
    return exact(c - dual.u[ij.i] + dual.u[ij.j])


def solve_primal(instance: WeightedInstance):
    """Solve the support LP; returns (z*, primal values, optimal DualSolution)."""
    sol = lp_core.solve(formulations.primal_program(instance, instance.cost))
    if sol.status != lp_core.OPTIMAL:
        raise InfeasibleConstraintError(f"support LP is {sol.status}")
    return sol.objective, sol.primal, from_row_duals(instance, sol.dual)


def exact_reduced_cost(
    instance: WeightedInstance, ij: EdgeId, z_star: Number
) -> Number:
    """True cost increase of forcing edge ij: its restricted optimum minus z*.

    The restricted optimum comes from ``formulations.restricted_optima``,
    one combinatorial pass per instance and no LP solve.  ``z_star`` is the
    optimum of the support LP, as ``solve_primal`` returns it.  Raises
    ValueError when ij is not an edge of the instance or lies on no support.
    """
    ij = EdgeId(*ij)
    if ij not in instance.cost:
        raise ValueError(f"edge {ij} not in the instance")
    optimum = formulations.restricted_optima(instance)[ij]
    if optimum is None:
        raise ValueError(f"edge {ij} lies on no support")
    return exact(optimum - z_star)


def exactness_certificate(
    instance: WeightedInstance, dual: DualSolution, kl: EdgeId
) -> Optional[Support]:
    """The witness that kl's reduced cost under an optimal dual is exact, or None.

    Both tests are support searches in the subgraph of zero-reduced-cost
    edges.  By complementary slackness a feasible dual is optimal iff some
    support lies inside that subgraph; the support then costs w.  A support
    through kl inside the subgraph plus kl is the witness that r_kl is
    exact; its cost then equals w + r_kl by construction, which is checked.
    """
    kl = EdgeId(*kl)
    if not is_dual_feasible(instance, dual):
        raise ValueError("dual solution is not feasible")
    zero = {e for e in instance.edges if reduced_cost(instance, dual, e) == 0}
    optimal = formulations.find_support(instance, zero)
    if optimal is None:
        if formulations.find_support(instance, instance.edges) is None:
            raise InfeasibleConstraintError(f"support LP is {lp_core.INFEASIBLE}")
        raise ValueError("dual solution is not optimal")
    # cost = w + sum of member reduced costs, and all of them vanish
    assert optimal.cost == dual.w
    witness = formulations.find_support(instance, zero | {kl}, forced=kl)
    if witness is not None:
        # cost = w + sum of member reduced costs, and all but kl's vanish
        assert witness.cost == dual.w + reduced_cost(instance, dual, kl)
    return witness


def shifted_cost_dual(
    instance: WeightedInstance, kl: EdgeId, z_star: Number
) -> DualSolution:
    """An optimal dual whose reduced cost on kl is exact.

    Obtained by re-solving the support LP with kl's cost lowered by its exact
    reduced cost, the one LP solve here; any optimal dual of that program is
    optimal for the original dual and pins kl's reduced cost to the exact
    value.  ``z_star`` is the optimum of the support LP, which the shifted
    program shares.  ValueError is raised when the shifted solve disagrees
    with it (a ``z_star`` above the optimum) or when
    ``exactness_certificate`` finds the dual not optimal or kl's reduced
    cost not exact (a ``z_star`` below it).
    """
    kl = EdgeId(*kl)
    R = exact_reduced_cost(instance, kl, z_star)
    cost = dict(instance.cost)
    cost[kl] -= R
    sol = lp_core.solve(formulations.primal_program(instance, cost))
    if sol.status != lp_core.OPTIMAL:
        raise InfeasibleConstraintError(f"support LP is {sol.status}")
    if sol.objective != z_star:
        raise ValueError(f"z_star {z_star} is not the support LP optimum")
    dual = from_row_duals(instance, sol.dual)
    if (exactness_certificate(instance, dual, kl) is None
            or reduced_cost(instance, dual, kl) != R):
        raise ValueError(f"shifted dual does not carry the exact reduced cost of {kl}")
    return dual


# ---------------------------------------------------------------------------
# one dual solution per incompatible set


def family_dual_program(
    instance: WeightedInstance, edge_set: Sequence[EdgeId]
) -> lp_core.LinearProgram:
    """The dual program whose optima carry exact reduced costs on the whole set.

    The dual of the support LP with its objective raised by the average
    reduced cost over the set, less the mean edge cost: a constant, which
    moves no optimum.  By LP duality the program is bounded exactly when
    every member of the set lies on some support, which ``model.validate``
    requires of every edge.  Built in one pass, with the objective
    ``|S| * b - sum of A_e over e in S`` (b the support LP's rhs), which is
    |S| times ``b - (1/|S|) * sum of A_e``: integral, with the same optima
    and pivots.
    """
    edges = tuple(EdgeId(*e) for e in edge_set)
    if not edges:
        raise ValueError("empty edge set")
    rhs = formulations.row_rhs(instance)
    objective = {tag: len(edges) * b for tag, b in rhs.items()}
    for e in edges:
        if e not in instance.cost:
            raise ValueError(f"edge {e} not in the instance")
        for tag, a in edge_column(instance, e).items():
            objective[tag] -= a
    return lp_core.LinearProgram(
        sense=lp_core.MAX,
        columns=tuple(rhs),
        objective=objective,
        rows=_family_dual_rows(instance),
        free=frozenset(rhs),
    )


@formulations.last_instance_memo
def _family_dual_rows(instance: WeightedInstance) -> tuple[lp_core.Row, ...]:
    # one "<=" row per edge, the same for every set: the sets of one
    # ``ac_by_lp`` run share them
    return tuple(
        lp_core.Row(edge_column(instance, e), lp_core.LE, instance.cost[e], e)
        for e in instance.edges
    )


def solve_family_dual(
    instance: WeightedInstance, edge_set: Sequence[EdgeId]
) -> DualSolution:
    """A dual solution with w + r_e equal to the restricted optimum for every e in the set.

    Raises ValueError when a member of the set lies on no support (``validate``
    rejects it; the program is unbounded).  Never infeasible: no cycle builds,
    and an assignment or a DAG has feasible potentials under any costs.
    """
    sol = lp_core.solve(family_dual_program(instance, edge_set))
    if sol.status != lp_core.OPTIMAL:
        raise ValueError(
            f"family dual program is {sol.status}: an edge of the set lies on no support"
        )
    return from_row_duals(instance, sol.primal)


def zstar_from_family_dual(
    instance: WeightedInstance,
    edge_set: Sequence[EdgeId],
    dual: DualSolution,
) -> Number:
    """z* recovered from a covering set's dual: w plus the smallest reduced cost.

    Only sound for a covering set (every support uses one of its edges), as
    flagged in ``IncompatibleFamily.covering``.
    """
    edges = tuple(EdgeId(*e) for e in edge_set)
    return exact(dual.w + min(reduced_cost(instance, dual, e) for e in edges))


# ---------------------------------------------------------------------------
# satisfaction constraints through the 0/1-cost encoding


def averaged_satisfaction_dual(
    sat: SatisfactionInstance,
) -> tuple[WeightedInstance, DualSolution]:
    """One optimal dual of the 0/1-cost encoding separating all inconsistent edges.

    Averages one exactness-carrying dual per inconsistent original edge; the
    average is still optimal and keeps every one of those reduced costs
    strictly positive, while consistent original edges stay at zero.  One
    pass of ``formulations.restricted_optima`` over the encoding decides
    which edges are inconsistent and gives every shifted dual its exact
    reduced cost, so each inconsistent edge costs one LP solve.  The
    support LP is solved only when its dual is the answer (no original edge
    is inconsistent) or its optimum is (none is consistent: the constraint
    has no support, and ``InfeasibleConstraintError`` carries z*).
    """
    encoded = formulations.bg01_encode(sat)
    # an original edge is inconsistent iff no perfect matching of original
    # edges uses it, i.e. its restricted optimum in the encoding is positive
    optima = formulations.restricted_optima(encoded)
    stray = set(sat.edges).difference(optima)
    if stray:
        raise ValueError(f"edge {min(stray)} not in the instance")
    inconsistent = [e for e in sat.edges if optima[e] > 0]
    if inconsistent and len(inconsistent) < len(sat.edges):
        # a consistent edge lies on a perfect matching of original edges,
        # which costs 0, and no cost is negative: z* = 0 with no solve
        parts = [shifted_cost_dual(encoded, e, 0) for e in inconsistent]
        k = Fraction(1, len(parts))
        u = {
            i: k * sum(p.u[i] for p in parts) for i in range(encoded.n_vars)
        }
        v = {
            j: k * sum(p.v[j] for p in parts) for j in encoded.values
        }
        return encoded, dual_solution(encoded, u, v)
    z_star, _, base = solve_primal(encoded)
    if z_star != 0:
        # every completion uses a non-edge: the constraint itself has no support
        raise InfeasibleConstraintError("no support exists", z_lb=z_star)
    return encoded, base
