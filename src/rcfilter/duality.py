"""Reduced-cost arithmetic on dual solutions and the family dual program.

A dual solution assigns an exact potential to every variable row (and value
row, for alldiff), and every value computed from it is exact: an ``int``
when integral, else a ``Fraction`` (``lp_core.exact``).  The reduced cost of
an edge is the slack of its dual constraint; the exact reduced cost is the
true increase of the optimum when the edge is forced.  The operations here
produce dual solutions whose reduced costs are exact on whole sets of
pairwise-incompatible edges at once, which is what the filtering loop consumes.

Every dual the package returns comes from the one combinatorial pass per
instance, with no LP (``pass_family_dual``), and passes one exact check
(``checked_bounds``): the filter's, ``shifted_cost_dual``'s and each part of
``averaged_satisfaction_dual``.  LP solves happen only where a caller asks
for one by name: the support LP (``solve_primal``) and the family dual
program (``solve_family_dual``), the paper's generic route, kept as the
reference that tests, criteria and scripts compare the pass-built duals
with.  z* is never solved for: it is the pass's ``z_star``, the least of
the edges' restricted optima.  The pass answers
``exact_reduced_cost``, whether a feasible dual is optimal (w = z*) and
which satisfaction edges lie on no solution; ``formulations.find_support``
decides whether a reduced cost is exact.

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

from collections import namedtuple
from typing import Mapping, Optional, Sequence

from . import formulations, lp_core
from .formulations import Support, edge_column
from .lp_core import Number, _quotient, exact
from .model import (
    ALLDIFF,
    EdgeId,
    InfeasibleConstraintError,
    SatisfactionInstance,
    WeightedInstance,
)


class DualSolution(namedtuple("DualSolution", "u v w")):
    """Potentials per variable (u) and per value (v; empty for path instances).

    For path instances ``u`` covers every vertex, the sink pinned to 0 since
    its flow row does not exist.  ``w`` is the dual objective.  Every value
    is exact, an ``int`` when it is integral.
    """

    __slots__ = ()


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


def exact_reduced_cost(instance: WeightedInstance, ij: EdgeId) -> Number:
    """True cost increase of forcing edge ij: its restricted optimum minus z*.

    Both come from one combinatorial pass per instance and no LP solve
    (``formulations.combinatorial_pass``).  Raises ValueError when ij is not
    an edge of the instance or lies on no support.
    """
    ij = EdgeId(*ij)
    if ij not in instance.cost:
        raise ValueError(f"edge {ij} not in the instance")
    run = formulations.combinatorial_pass(instance)
    if run.optima[ij] is None:
        raise ValueError(f"edge {ij} lies on no support")
    return exact(run.optima[ij] - run.z_star)


def exactness_certificate(
    instance: WeightedInstance, dual: DualSolution, kl: EdgeId
) -> Optional[Support]:
    """The witness that kl's reduced cost under an optimal dual is exact, or None.

    A feasible dual is optimal iff w = z* (the pass's ``z_star``);
    InfeasibleConstraintError when no support exists.  A support through kl
    inside the zero-reduced-cost edges plus kl, one support search, is the
    witness that r_kl is exact; its cost then equals w + r_kl by
    construction, which is checked.
    """
    kl = EdgeId(*kl)
    r = {e: reduced_cost(instance, dual, e) for e in instance.edges}
    if any(x < 0 for x in r.values()):
        raise ValueError("dual solution is not feasible")
    z_star = formulations.combinatorial_pass(instance).z_star
    if z_star is None:
        raise InfeasibleConstraintError(f"support LP is {lp_core.INFEASIBLE}")
    if dual.w != z_star:
        raise ValueError("dual solution is not optimal")
    zero = {e for e, x in r.items() if x == 0}
    witness = formulations.find_support(instance, zero | {kl}, forced=kl)
    if witness is not None:
        # cost = w + sum of member reduced costs, and all but kl's vanish
        assert witness.cost == dual.w + r[kl]
    return witness


def shifted_cost_dual(instance: WeightedInstance, kl: EdgeId) -> DualSolution:
    """An optimal dual whose reduced cost on kl is exact, with no LP solve.

    The pass-built dual of the set {kl} (``pass_family_dual``; for alldiff
    the dual of kl's variable, exact on all of its edges), checked by
    ``checked_bounds``.  ValueError when kl is not an edge of the instance
    or some edge lies on no support, as ``model.validate`` reports.
    """
    kl = EdgeId(*kl)
    if kl not in instance.cost:
        raise ValueError(f"edge {kl} not in the instance")
    dual = pass_family_dual(instance, (kl,))
    checked_bounds(instance, (kl,), dual)
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


def pass_family_dual(
    instance: WeightedInstance, edge_set: Sequence[EdgeId]
) -> DualSolution:
    """An optimal dual exact on one set of ``formulations.family``, with no LP solve.

    Built from ``formulations.combinatorial_pass`` (``claus2020wad``; Sellmann,
    CP 2002); ValueError when an edge lies on no support
    (``supported_optimum``).  alldiff,
    the set of variable i: with d_k the pass's residual distance from
    variable k to M(i), capped at the largest finite one, ``u'_k = u_k + d_k``
    and ``v'_j = v_j - d_{M^-1(j)}``.  Every reduced cost stays >= 0 by the
    triangle inequality, w = z* because M pairs each variable with one
    value, and member (i, j) gets ``w + r' = z* + r_ij + dist(M^-1(j) -> M(i))``,
    its restricted optimum.  path, any set S: with A the vertices reachable
    from the heads of S, the potential is d(v, t) on A, z* - d(s, v) elsewhere
    and 0 on an isolated vertex.  No arc leaves A; an arc entering A gets
    reduced cost (its restricted optimum) - z* >= 0, and every member of S
    enters A, as S is pairwise incompatible.  z* is the least restricted
    optimum over the arcs entering A, since every s-t path enters A.  The
    values are not trusted: every caller checks the dual with ``checked_bounds``.
    """
    z_star = supported_optimum(instance)
    run = formulations.combinatorial_pass(instance)
    if instance.kind == ALLDIFF:
        target = run.value_of[edge_set[0].i]
        dist = [d.get(target) for d in run.dists]
        cap = max(d for d in dist if d is not None)
        dist = [cap if d is None else d for d in dist]
        u = {k: x + d for k, (x, d) in enumerate(zip(run.u, dist))}
        v = {j: x - dist[run.holder[j]] for j, x in run.v.items()}
        return DualSolution(u=u, v=v, w=sum(u.values()) + sum(v.values()))
    reach = {e.j for e in edge_set}
    stack = list(reach)
    while stack:
        for _, b in run.by_tail.get(stack.pop(), ()):
            if b not in reach:
                reach.add(b)
                stack.append(b)
    down, up = run.down, run.up
    u = {
        x: up[x] if x in reach else z_star - down[x] if x in down else 0
        for x in instance.values
    }
    return DualSolution(u=u, v={}, w=u[instance.path.source])


def supported_optimum(instance: WeightedInstance) -> Optional[Number]:
    """The pass's ``z_star``; ValueError naming its first ``unsupported`` edge, if any.

    The guard of every pass-built dual: its constructions need a support on every edge.
    """
    run = formulations.combinatorial_pass(instance)
    if run.unsupported:
        raise ValueError(f"edge {run.unsupported[0]} lies on no support")
    return run.z_star


def checked_bounds(
    instance: WeightedInstance, edge_set: Sequence[EdgeId], dual: DualSolution
) -> dict[EdgeId, Number]:
    """Every edge's bound ``w + r_e`` under a pass-built dual, checked against the pass.

    The one check of the duals the package builds without an LP, in exact
    arithmetic, standing in for the LP's certificate: the sink's potential
    is 0, ``dual.w`` is the dual objective of the potentials and equals
    the pass's ``z_star``, no reduced cost is negative, and ``w + r_e``
    is the pass's restricted optimum for every member e of the set.
    AssertionError if any fails.
    """
    u = dual.u
    if instance.kind == ALLDIFF:
        head = dual.v  # r = c - u_i - v_j
        w = sum(u.values()) + sum(head.values())
    else:
        meta = instance.path
        if u[meta.sink] != 0:
            raise AssertionError(f"the sink's potential is {u[meta.sink]}, not 0")
        head = {k: -x for k, x in u.items()}  # r = c - u_i + u_j
        w = u[meta.source]
    run = formulations.combinatorial_pass(instance)
    if w != dual.w or w != run.z_star:
        raise AssertionError(
            f"dual objective {dual.w} ({w} by its potentials) is not z* = {run.z_star}"
        )
    bounds = {}
    for e, c in instance.cost.items():
        r = c - u[e.i] - head[e.j]
        if r < 0:
            raise AssertionError(f"the dual has reduced cost {r} on edge {e}")
        bounds[e] = w + r
    for e in edge_set:
        if e not in bounds:
            raise AssertionError(f"member {e} of the set is not an edge of the instance")
        if bounds[e] != run.optima[e]:
            raise AssertionError(
                f"the dual bounds member {e} by {bounds[e]}, not by its optimum {run.optima[e]}"
            )
    return bounds


# ---------------------------------------------------------------------------
# satisfaction constraints through the 0/1-cost encoding


def averaged_satisfaction_dual(
    sat: SatisfactionInstance,
) -> tuple[WeightedInstance, DualSolution]:
    """One optimal dual of the 0/1-cost encoding separating all inconsistent edges.

    An original edge is inconsistent iff no perfect matching of original
    edges uses it, i.e. its restricted optimum in the encoding is positive:
    one pass of ``formulations.combinatorial_pass`` decides it, and no LP is
    solved.  When no edge is consistent, ``InfeasibleConstraintError``
    carries the pass's z*.  Otherwise z* = 0, and the answer averages the
    pass-built dual of each variable holding an inconsistent edge
    (``pass_family_dual`` on the variable's edges, read from the pass's
    ``by_tail``, exact on all of them, each checked by ``checked_bounds``).
    Each part is optimal, so a consistent edge keeps reduced cost 0 under
    all of them, and an inconsistent one is positive under its own
    variable's part.  The parts' potentials are integers: each average is
    their sum divided once by the number of parts (``lp_core._quotient``),
    an ``int`` when integral, and so is ``w``.  With no inconsistent edge
    the answer is the pass's own potentials, checked too.
    """
    encoded = formulations.bg01_encode(sat)
    run = formulations.combinatorial_pass(encoded)
    if run.z_star != 0:
        # every completion uses a non-edge: the constraint itself has no support
        raise InfeasibleConstraintError("no support exists", z_lb=run.z_star)
    # the original edges are the encoding's zero-cost ones
    variables = sorted({e.i for e, c in encoded.cost.items() if c == 0 and run.optima[e] > 0})
    if not variables:
        dual = dual_solution(encoded, dict(enumerate(run.u)), run.v)
        checked_bounds(encoded, (), dual)
        return encoded, dual
    parts = []
    for i in variables:
        edge_set = run.by_tail[i]
        parts.append(pass_family_dual(encoded, edge_set))
        checked_bounds(encoded, edge_set, parts[-1])
    m = len(parts)
    u = {i: _quotient(sum(p.u[i] for p in parts), m) for i in range(encoded.n_vars)}
    v = {j: _quotient(sum(p.v[j] for p in parts), m) for j in encoded.values}
    w = _quotient(sum(p.w for p in parts), m)
    return encoded, DualSolution(u=u, v=v, w=w)
