"""Reduced-cost arithmetic on dual solutions and the family dual program.

A dual solution assigns an exact potential to every variable row (and value
row, for alldiff), and every value computed from it is exact: an ``int``
when integral, else a ``Fraction`` (``model.exact``).  The reduced cost of
an edge is the slack of its dual constraint; the exact reduced cost is the
true increase of the optimum when the edge is forced.  The operations here
produce dual solutions whose reduced costs are exact on whole sets of
pairwise-incompatible edges at once, which is what the filtering loop consumes.

Every dual the package builds comes from the one combinatorial pass per
instance, with no LP: one builder (``_pass_potentials``) gives a set's
potentials as lists by tail and head position, and one routine
(``_checked_potentials``) checks them exactly over the pass's per-edge
tuples.  The filter's duals, ``shifted_cost_dual``'s and each part of
``averaged_satisfaction_dual`` all pass it; ``pass_family_dual`` keys the
potentials by label, and ``checked_bounds`` reads a labelled dual back into
the routine; the duals ``FilterResult.duals`` rebuilds are the filter's,
built again deterministically, and are not checked again.  LP solves happen
only where a caller asks for one by name: the support LP (``solve_primal``)
and the family dual program (``solve_family_dual``), the paper's generic
route, kept as the reference that tests, criteria and scripts compare the
pass-built duals with.  Those functions import ``lp_core`` on their first
call and read it by module attribute (``lp_core.solve``), so a wrapper set
on the module sees every solve; nothing else here needs it.  z* is never
solved for: it is the pass's ``z_star``, the least of the edges' restricted
optima, read with its guards by ``lower_bound``.  The pass answers
``exact_reduced_cost``, whether a feasible dual is optimal (w = z*) and
which satisfaction edges lie on no solution; ``formulations.find_support``
decides whether a reduced cost is exact.

Which optimal dual a solve returns is fixed by the column numbering, since
Bland's rule enters the lowest-numbered column (see ``lp_core``).  The
support LP's columns are the edges in instance order, and its "=" rows, one
per primal row tag, each get an artificial column.  The family dual
program's columns are the primal row tags, ``("u", i)`` then ``("v", j)``,
each free and so split into a pair; its "<=" rows, one per edge in instance
order, each get a slack column.  Each program is built once, rows and final
(shifted) objective alike, from ``formulations.row_rhs`` and
``edge_column``, and is integral: the family dual's objective is scaled by
|S| to integers.
"""

from __future__ import annotations

from collections import namedtuple
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

from . import formulations
from .formulations import Support, edge_column
from .model import (
    ALLDIFF,
    EdgeId,
    InfeasibleConstraintError,
    Number,
    SatisfactionInstance,
    WeightedInstance,
    _quotient,
    exact,
)

if TYPE_CHECKING:
    from . import lp_core


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
    from . import lp_core  # the LP stack loads on its first use

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
    run = formulations.combinatorial_pass(instance)
    k = run.index.get(ij)
    if k is None:
        raise ValueError(f"edge {ij} not in the instance")
    if run.optima[k] is None:
        raise ValueError(f"edge {ij} lies on no support")
    return exact(run.optima[k] - run.z_star)


def exactness_certificate(
    instance: WeightedInstance, dual: DualSolution, kl: EdgeId
) -> Optional[Support]:
    """The witness that kl's reduced cost under an optimal dual is exact, or None.

    The dual is read by position, as ``checked_bounds`` reads it: ValueError
    if it lacks a variable's, value's or vertex's potential, or unless a
    path's sink potential is 0, w is the potentials' objective and
    no reduced cost is negative.  Such a dual is optimal iff w = z* (the
    pass's ``z_star``), else ValueError; InfeasibleConstraintError when no
    support exists.  A support through kl inside the zero-reduced-cost edges
    plus kl, one support search, is the witness that r_kl is exact; its cost
    then equals w + r_kl by construction, which is checked.
    """
    kl = EdgeId(*kl)
    run = formulations.combinatorial_pass(instance)
    a, b = _by_position(instance, dual)
    if run.sink is not None and a[run.sink] != 0:
        raise ValueError(f"sink potential must be 0, got {a[run.sink]}")
    objective = sum(a) + sum(b) if run.source is None else a[run.source]
    if dual.w != objective:
        raise ValueError(
            f"dual solution is not optimal: w = {dual.w}, but its potentials give {objective}"
        )
    r = [c - a[t] - b[h] for t, h, c in zip(run.tails, run.heads, run.costs)]
    if r and min(r) < 0:
        raise ValueError("dual solution is not feasible")
    if run.z_star is None:
        raise InfeasibleConstraintError("support LP is infeasible")
    if dual.w != run.z_star:
        raise ValueError("dual solution is not optimal")
    zero = {e for e, x in zip(instance.edges, r) if x == 0}
    witness = formulations.find_support(instance, zero | {kl}, forced=kl)
    if witness is not None:
        # cost = w + sum of member reduced costs, and all but kl's vanish
        assert witness.cost == dual.w + r[run.index[kl]]
    return witness


def shifted_cost_dual(instance: WeightedInstance, kl: EdgeId) -> DualSolution:
    """An optimal dual whose reduced cost on kl is exact, with no LP solve.

    The pass-built dual of the set {kl} (``pass_family_dual``; for alldiff
    the dual of kl's variable, exact on all of its edges), checked by
    ``checked_bounds``.  ValueError when kl is not an edge of the instance
    or some edge lies on no support, as ``model.validate`` reports.
    """
    kl = EdgeId(*kl)
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
    from . import lp_core

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
        rows=tuple(  # one "<=" row per edge
            lp_core.Row(edge_column(instance, e), lp_core.LE, instance.cost[e], e)
            for e in instance.edges
        ),
        free=frozenset(rhs),
    )


def solve_family_dual(
    instance: WeightedInstance, edge_set: Sequence[EdgeId]
) -> DualSolution:
    """A dual solution with w + r_e equal to the restricted optimum for every e in the set.

    Raises ValueError when a member of the set lies on no support (``validate``
    rejects it; the program is unbounded).  Never infeasible: no cycle builds,
    and an assignment or a DAG has feasible potentials under any costs.
    """
    from . import lp_core

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

    The potentials of ``_pass_potentials``, keyed by label.  Each edge may
    be a plain ``(i, j)`` pair.  ValueError for an empty set, an edge not in
    the instance, an alldiff set on two variables, or an instance with an
    edge on no support (``lower_bound``).  The values are deterministic and
    not checked here: the dual rebuilt for a set the filter used
    (``FilterResult.duals``) is the one the filter checked, and is not
    checked again.  The replay test ``test_pick_order_matches_a_recount``
    checks every rebuilt dual with ``checked_bounds`` on both corpora and
    the 714-arc DAG.
    """
    run = formulations.combinatorial_pass(instance)
    members = _positions(run, edge_set)
    if None in members:
        raise ValueError(f"edge {EdgeId(*edge_set[members.index(None)])} not in the instance")
    if not members:
        raise ValueError("empty edge set")
    if instance.kind == ALLDIFF and len({run.tails[k] for k in members}) > 1:
        raise ValueError("an alldiff set must lie on one variable")
    lower_bound(instance)
    return _labelled(instance, *_pass_potentials(instance, members))


def _positions(run: formulations.CombinatorialPass, edge_set: Sequence[EdgeId]) -> list:
    # each edge's position in instance order, or None for an edge outside it;
    # an edge may be a plain (i, j) pair
    return [run.index.get(EdgeId(*e)) for e in edge_set]


def _labelled(instance: WeightedInstance, a: Sequence, b: Sequence, w: Number) -> DualSolution:
    # potentials by position, keyed by variable and value label again; a
    # path's vertices keep the order of ``instance.values``
    labels = formulations.combinatorial_pass(instance).labels
    if instance.kind == ALLDIFF:
        return DualSolution(u=dict(enumerate(a)), v=dict(zip(labels, b)), w=w)
    u = dict(zip(labels, a))
    return DualSolution(u={x: u[x] for x in instance.values}, v={}, w=w)


def _pass_potentials(instance: WeightedInstance, members: Sequence[int]) -> tuple:
    """``(a, b, w)``: the pass-built optimal dual of a set, given by edge positions.

    ``a`` is by tail position and ``b`` by head position, so an edge's
    reduced cost is ``c - a[t] - b[h]``; ``w`` is the dual objective.  Built
    from ``formulations.combinatorial_pass`` (``claus2020wad``; Sellmann,
    CP 2002), for a set whose edges all lie on supports.  alldiff, the set
    of variable i: with d_k the pass's residual distance from variable k to
    M(i), capped at the largest finite one, ``a_k = u_k + d_k`` and
    ``b_j = v_j - d_{M^-1(j)}``.  Every reduced cost stays >= 0 by the
    triangle inequality, w = z* because M pairs each variable with one
    value, and member (i, j) gets ``w + r' = z* + r_ij + dist(M^-1(j) -> M(i))``,
    its restricted optimum.  path, any set S: with A the vertices reachable
    from the heads of S, the potential is d(v, t) on A, z* - d(s, v)
    elsewhere and 0 on an isolated vertex, and ``b = -a``.  No arc leaves A;
    an arc entering A gets reduced cost (its restricted optimum) - z* >= 0,
    and every member of S enters A, as S is pairwise incompatible.  z* is
    the least restricted optimum over the arcs entering A, since every s-t
    path enters A.  Checked by ``_checked_potentials`` wherever it is used.
    """
    run = formulations.combinatorial_pass(instance)
    if instance.kind == ALLDIFF:
        target = run.value_of[run.tails[members[0]]]
        dist = [d[target] for d in run.dists]
        if None in dist:
            cap = max(d for d in dist if d is not None)
            dist = [cap if d is None else d for d in dist]
        a = [x + d for x, d in zip(run.u, dist)]
        b = [x - dist[k] for x, k in zip(run.v, run.holder)]
        return a, b, sum(a) + sum(b)
    # positions follow the topological order: one forward sweep from the
    # least member head reaches A
    heads, reach = run.heads, [False] * len(run.labels)
    for k in members:
        reach[heads[k]] = True
    for x in range(min([heads[k] for k in members]), len(reach)):
        if reach[x]:
            for k in run.out[x]:
                reach[heads[k]] = True
    z_star = run.z_star
    a = [
        y if reached else 0 if x is None else z_star - x
        for reached, x, y in zip(reach, run.down, run.up)
    ]
    return a, [-x for x in a], a[run.source]


def lower_bound(instance: WeightedInstance) -> Number:
    """z*, the pass's ``z_star``, with no family built and no LP solve.

    The guard of every pass-built dual, whose constructions need a support
    on every edge: ValueError naming the pass's first ``unsupported`` edge.
    Then no support exists only without edges: InfeasibleConstraintError.
    """
    run = formulations.combinatorial_pass(instance)
    if run.unsupported:
        raise ValueError(f"edge {run.unsupported[0]} lies on no support")
    if run.z_star is None:
        raise InfeasibleConstraintError("no support: the instance has no edge")
    return run.z_star


def checked_bounds(
    instance: WeightedInstance, edge_set: Sequence[EdgeId], dual: DualSolution
) -> dict[EdgeId, Number]:
    """Every edge's bound ``w + r_e`` under a pass-built dual, checked against the pass.

    The dual's potentials, read by position, go through ``_checked_potentials``:
    AssertionError if any of its checks fails, or if a member of the set
    (which may be a plain ``(i, j)`` pair) is not an edge of the instance;
    ValueError if the dual lacks a variable's, value's or vertex's potential.
    """
    run = formulations.combinatorial_pass(instance)
    members = _positions(run, edge_set)
    if None in members:
        stray = EdgeId(*edge_set[members.index(None)])
        raise AssertionError(f"member {stray} of the set is not an edge of the instance")
    bounds = _checked_potentials(instance, members, *_by_position(instance, dual), dual.w)
    return dict(zip(instance.edges, bounds))


def _by_position(instance: WeightedInstance, dual: DualSolution) -> tuple:
    # a labelled dual's potentials as lists by tail and head position, as
    # ``_pass_potentials`` gives them; ValueError names a missing potential
    run = formulations.combinatorial_pass(instance)
    if instance.kind == ALLDIFF:
        return (_potentials(dual.u, range(instance.n_vars), "variable"),
                _potentials(dual.v, run.labels, "value"))
    a = _potentials(dual.u, run.labels, "vertex")
    return a, [-x for x in a]


def _potentials(potential: Mapping, keys: Iterable, what: str) -> list:
    try:
        return [potential[k] for k in keys]
    except KeyError as exc:
        raise ValueError(f"the dual has no potential for {what} {exc.args[0]}") from None


def _checked_potentials(
    instance: WeightedInstance, members: Sequence[int], a: Sequence, b: Sequence, w: Number
) -> list:
    """Every edge's bound ``w + r_e`` by position, after the one exact check of a dual.

    The check of the duals the package builds without an LP, standing in for
    the LP's certificate: a path's sink has potential 0; ``w`` is the dual
    objective of the potentials (``sum(a) + sum(b)``, or the source's
    potential) and equals the pass's ``z_star``; every reduced cost
    ``c - a[t] - b[h]`` is recomputed from the costs and none is negative;
    and ``w + r_e`` is the pass's restricted optimum for every member, given
    by edge position.  AssertionError if any fails.
    """
    run = formulations.combinatorial_pass(instance)
    if run.sink is not None and a[run.sink] != 0:
        raise AssertionError(f"the sink's potential is {a[run.sink]}, not 0")
    objective = sum(a) + sum(b) if run.source is None else a[run.source]
    if objective != w or w != run.z_star:
        raise AssertionError(
            f"dual objective {w} ({objective} by its potentials) is not z* = {run.z_star}"
        )
    bounds = [w + c - a[t] - b[h] for t, h, c in zip(run.tails, run.heads, run.costs)]
    if bounds and min(bounds) < w:
        k = next(k for k, x in enumerate(bounds) if x < w)
        raise AssertionError(
            f"the dual has reduced cost {bounds[k] - w} on edge {instance.edges[k]}"
        )
    for k in members:
        optimum = run.optima[k]
        if bounds[k] != optimum:
            raise AssertionError(
                f"the dual bounds member {instance.edges[k]} by {bounds[k]},"
                f" not by its optimum {optimum}"
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
    (``_pass_potentials`` on the variable's edges, read from the pass's
    ``out``, exact on all of them, each checked by ``_checked_potentials``).
    Each part is optimal, so a consistent edge keeps reduced cost 0 under
    all of them, and an inconsistent one is positive under its own
    variable's part.  The parts' potentials are integer lists by position:
    each average is their sum divided once by the number of parts
    (``model._quotient``), an ``int`` when integral, and so is ``w``.  With
    no inconsistent edge the answer is the pass's own potentials, checked too.
    """
    encoded = formulations.bg01_encode(sat)
    run = formulations.combinatorial_pass(encoded)
    if run.z_star != 0:
        # every completion uses a non-edge: the constraint itself has no support
        raise InfeasibleConstraintError("no support exists", z_lb=run.z_star)
    # the original edges are the encoding's zero-cost ones
    variables = sorted({
        t for t, c, z in zip(run.tails, run.costs, run.optima) if c == 0 and z > 0
    })
    if not variables:
        a, b = run.u, run.v
        w = sum(a) + sum(b)
        _checked_potentials(encoded, (), a, b, w)
        return encoded, _labelled(encoded, a, b, w)
    parts = []
    for i in variables:
        members = run.out[i]
        parts.append(_pass_potentials(encoded, members))
        _checked_potentials(encoded, members, *parts[-1])
    a, b, w = parts[0]
    m = len(parts)
    if m > 1:  # else each average is the one part's integer itself
        a = [_quotient(sum(xs), m) for xs in zip(*(p[0] for p in parts))]
        b = [_quotient(sum(xs), m) for xs in zip(*(p[1] for p in parts))]
        w = _quotient(sum(p[2] for p in parts), m)
    return encoded, _labelled(encoded, a, b, w)
