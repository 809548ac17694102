"""Exact-arithmetic linear programming: the only place pivoting happens.

No runtime path solves an LP, so importing the package does not import this
module: the reference functions that build or solve a program
(``formulations.primal_program``, ``duality.family_dual_program``,
``solve_primal`` and ``solve_family_dual``) import it on their first call.
The exact-number helpers ``exact``, ``_quotient`` and ``Number`` and the
``NormalizingRecord`` base live in ``model`` and are importable from here too.

A two-phase simplex with Bland's rule, so every solve terminates and
identical inputs give identical pivots, identical solutions and identical
duals.  Equality rows are handled natively through phase-one artificials;
their duals stay attached to the row tag.  Free columns are split
internally, which does not affect row duals.

The tableau is integer and fraction-free (Edmonds; Bareiss): an integer
matrix M over one common denominator d > 0, standing for M / d, with d = 1
at the start.  Each row's coefficients and right-hand side are multiplied by
its ``scale`` s, negated when the right-hand side is negative; its slack,
surplus and artificial keep the entries 1 and -1.  That is the scaled
program: the same constraints, with those three measured in units of 1/|s|.
Phase one costs every artificial 1; phase two costs the objective times its
``cost_scale`` C (negated for max) times d.  Both scales are fixed once,
when the program is built (see ``Row`` and ``LinearProgram``).

Every basic column of M holds d in its row, so M / d is the tableau of the
scaled program, its phase-two reduced costs times C.  Hence Bland's entering
test M[m][j] < 0, the ratio test compared crosswise over integers and the
phase-one test M[m][ncols] < 0 take the same signs as in a ``Fraction``
simplex on the scaled program, and every pivot and tie-break is the same.
Every program the package builds is integral (s = C = 1), so there the
scaled program is the program itself.  A primal value is M[i][ncols] / d,
and the duals and the objective are read off the reduced costs and scaled
back.  A pivot equal to d touches only the columns where the pivot row is
non-zero; that is every pivot on the package's network programs, where d
stays 1, so there every answer is an integer.

A program's data are made exact and checked when it is built (see ``Row``
and ``LinearProgram``), and its answers take the same form (``model.exact``):
an integral value is an ``int``, any other a ``Fraction``, and both compare
and print alike.  The solver and the certificate check read only their
``numerator`` and ``denominator`` and trust them as they stand.  The
certificate check compares integers only (see ``_assert_certificates``).

Tableau columns are numbered in one pass: the program's columns in order,
each free column followed by its negated copy; then, row by row (after a row
with a negative right-hand side is negated), a surplus column for a ">="
row and one unit column per row, a slack for "<=" and an artificial for "="
and ">=".  A row's dual is read off the final reduced cost of its unit
column.  Bland's rule enters the lowest-numbered column, so this numbering
fixes every pivot.

The reduced costs of the current phase are the last tableau row, updated by
the same pivot as every other row; each phase prices out its starting basis
with that pivot, on each basic column whose cost is non-zero.

Dual value conventions, used by ``dual_feasible`` and asserted after every
solve (y indexed by row tag, A_t the column of variable t, c the objective):

* min problems:  "<=" rows y <= 0, ">=" rows y >= 0, "=" rows free;
  y . A_t <= c_t for every non-negative column, equality for free columns.
* max problems:  "<=" rows y >= 0, ">=" rows y <= 0, "=" rows free;
  y . A_t >= c_t for every non-negative column, equality for free columns.

In both senses b . y equals the optimal objective (strong duality) and
complementary slackness holds exactly, row by row and column by column.
"""

from __future__ import annotations

from collections import namedtuple
from math import lcm
from typing import Container, Hashable, Mapping, Optional

from .model import Number, NormalizingRecord, _quotient, exact

MIN = "min"
MAX = "max"
LE = "<="
EQ = "="
GE = ">="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_MAX_PIVOTS = 200_000  # Bland's rule terminates; this is a tripwire, not a tuning knob


class Row(NormalizingRecord, namedtuple("Row", "coeffs rel rhs tag scale")):
    """One tagged constraint; exact, with zero coefficients dropped, once built.

    ``scale``, the lcm of the data's denominators, is derived.
    """

    __slots__ = ()
    _derived = ("scale",)

    def __new__(cls, coeffs: Mapping[Hashable, Number], rel: str, rhs: Number, tag: Hashable):
        if rel not in (LE, EQ, GE):
            raise ValueError(f"bad relation {rel!r}")
        coeffs = {t: exact(a) for t, a in coeffs.items()}
        coeffs = {t: a for t, a in coeffs.items() if a != 0}
        rhs = exact(rhs)
        scale = lcm(rhs.denominator, *(a.denominator for a in coeffs.values()))
        return super().__new__(cls, coeffs, rel, rhs, tag, scale)


class LinearProgram(
    NormalizingRecord,
    namedtuple("LinearProgram", "sense columns objective rows free cost_scale"),
):
    """min/max c.x subject to tagged rows; columns are >= 0 unless free.

    Once built, ``objective`` holds an exact coefficient for every column,
    and no row or objective names an unknown column.  ``cost_scale``, the
    lcm of c's denominators, is derived.
    """

    __slots__ = ()
    _derived = ("cost_scale",)

    def __new__(
        cls,
        sense: str,
        columns: tuple[Hashable, ...],
        objective: Mapping[Hashable, Number],
        rows: tuple[Row, ...],
        free: frozenset = frozenset(),
    ):
        if sense not in (MIN, MAX):
            raise ValueError(f"bad sense {sense!r}")
        if len(set(columns)) != len(columns):
            raise ValueError("duplicate column tags")
        tags = [r.tag for r in rows]
        if len(set(tags)) != len(tags):
            raise ValueError("duplicate row tags")
        known = set(columns)
        for r in rows:
            if not known.issuperset(r.coeffs):
                raise ValueError(f"row {r.tag!r} references unknown column(s)")
        if not known.issuperset(objective):
            raise ValueError("objective references unknown column(s)")
        objective = {t: exact(objective.get(t, 0)) for t in columns}
        cost_scale = lcm(*(c.denominator for c in objective.values()))
        return super().__new__(cls, sense, columns, objective, rows, free, cost_scale)


class LpSolution(namedtuple("LpSolution", "status primal dual objective")):
    __slots__ = ()


def solve(lp: LinearProgram) -> LpSolution:
    """Optimal primal and dual with exact certificates, or infeasible/unbounded."""
    sol = _solve_std(lp)
    if sol.status == OPTIMAL:
        _assert_certificates(lp, sol)
    return sol


def _solve_std(lp: LinearProgram) -> LpSolution:
    # the program's columns first, a free column's negated copy right after it
    col: dict = {}
    n_std = 0
    for t in lp.columns:
        col[t] = n_std
        n_std += 2 if t in lp.free else 1

    flip = {LE: GE, GE: LE, EQ: EQ}
    rels = [flip[r.rel] if r.rhs < 0 else r.rel for r in lp.rows]
    m = len(lp.rows)
    ncols = n_std + sum(2 if rel == GE else 1 for rel in rels)

    def dense(coeffs: Mapping[Hashable, Number], rhs: Number, scale: int) -> list:
        # ``scale`` times a tableau row over the program's columns; every
        # denominator divides ``scale``, so the row is integral
        row = [0] * (ncols + 1)
        for t, a in coeffs.items():
            a = a.numerator * (scale // a.denominator)
            row[col[t]] = a
            if t in lp.free:
                row[col[t] + 1] = -a
        row[ncols] = rhs.numerator * (scale // rhs.denominator)
        return row

    # one pass, each row scaled to integers (negated when its rhs is
    # negative); columns as in the docstring
    M: list[list[int]] = []
    scales: list[int] = []
    unit: list[int] = []
    artificials: set[int] = set()
    k = n_std
    for r, rel in zip(lp.rows, rels):
        s = -r.scale if r.rhs < 0 else r.scale
        t_row = dense(r.coeffs, r.rhs, s)
        if rel == GE:
            t_row[k] = -1
            k += 1
        t_row[k] = 1
        if rel != LE:
            artificials.add(k)
        unit.append(k)
        scales.append(s)
        k += 1
        M.append(t_row)
    M.append([])  # the reduced-cost row M[m], set by each phase
    basis = list(unit)
    d = 1  # the common denominator: the tableau is M / d

    def run_phase(costs: list[int], barred: Container[int]) -> str:
        # M[m][j] is a positive multiple of the unscaled program's
        # c_j - c_B B^-1 A_j and M[m][ncols] of -c_B B^-1 b, kept current by
        # every pivot; optimal when all eligible M[m][j] >= 0.  Pivoting on a basic unit column
        # prices it out; a zero cost needs none.
        nonlocal d
        M[m] = costs
        for i in range(m):
            if M[m][basis[i]] != 0:
                d = _pivot(M, basis, i, basis[i], d)
        for pivots in range(_MAX_PIVOTS + 1):
            z = M[m]
            enter = -1
            for j in range(ncols):
                if j not in barred and z[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL
            # the least ratio M[i][ncols] / M[i][enter], compared crosswise
            leave, num, den = -1, 0, 1
            for i in range(m):
                a = M[i][enter]
                if a > 0:
                    b = M[i][ncols]
                    if leave < 0 or b * den < num * a or (
                        b * den == num * a and basis[i] < basis[leave]
                    ):
                        leave, num, den = i, b, a
            if leave < 0:
                return UNBOUNDED
            if pivots == _MAX_PIVOTS:  # one more pivot needed, none allowed
                break
            d = _pivot(M, basis, leave, enter, d)
        raise RuntimeError("pivot limit hit; anti-cycling rule violated")

    # phase 1: drive the artificials to zero, each costed 1
    c1 = [int(j in artificials) for j in range(ncols + 1)]
    status = run_phase(c1, barred=set())
    assert status == OPTIMAL, "phase one objective is bounded below by zero"
    if M[m][ncols] < 0:  # the phase-one optimum is -M[m][ncols] / d
        return LpSolution(status=INFEASIBLE, primal={}, dual={}, objective=None)

    # pivot leftover artificials out where the row allows it
    for i in range(m):
        if basis[i] in artificials:
            for j in range(ncols):
                if j not in artificials and M[i][j] != 0:
                    d = _pivot(M, basis, i, j, d)  # M[m] is set anew for phase 2
                    break
            # an all-zero row is redundant; its artificial stays basic at zero

    # phase 2 minimizes cost_scale * c.x: the objective made integral, negated for max
    cost_scale = -lp.cost_scale if lp.sense == MAX else lp.cost_scale
    status = run_phase(dense(lp.objective, 0, cost_scale * d), barred=artificials)
    if status == UNBOUNDED:
        return LpSolution(status=UNBOUNDED, primal={}, dual={}, objective=None)

    std_val = [0] * ncols
    for i in range(m):
        std_val[basis[i]] = M[i][ncols]
    primal: dict = {}
    for t in lp.columns:
        v = std_val[col[t]]
        if t in lp.free:
            v -= std_val[col[t] + 1]
        primal[t] = _quotient(v, d)

    # a row's dual scales back by its own scale; the objective by the cost's
    z = M[m]  # the phase-2 reduced costs, times d * cost_scale
    dual = {
        r.tag: _quotient(-z[k] * s, d * cost_scale)
        for r, k, s in zip(lp.rows, unit, scales)
    }
    return LpSolution(
        status=OPTIMAL, primal=primal, dual=dual, objective=_quotient(-z[ncols], d * cost_scale)
    )


def _pivot(M: list, basis: list, r: int, enter: int, d: int) -> int:
    """Pivot the integer tableau M / d on (r, enter); return the new denominator.

    A negative pivot first negates row r, so the pivot p and the denominator
    stay positive.  Row r itself is kept as it is.  Every other row, the
    reduced costs included, becomes (p * a - f * b) / d, with a its entry, f
    its entry in column ``enter`` and b the pivot row's entry; the new
    denominator is p.  The division is exact (Bareiss): started from integer
    rows with d = 1, every entry of M is, up to sign, a minor of the scaled
    program matrix (bordered by the cost row) and d the minor of the current
    basis.

    * p == d: each other row changes only where the pivot row is non-zero, by
      f * b / d, in place.  That is safe because no two rows share a list:
      every row is built fresh (by ``dense``, as the phase-one costs or in
      this function), and the pivot row is only read.  On totally unimodular
      programs, the package's networks, every pivot takes this branch.
    * p != d: every other row is rebuilt.
    """
    p = M[r][enter]
    if p < 0:
        M[r] = [-b for b in M[r]]
        p = -p
    Mr = M[r]
    if p == d:
        nonzero = [(j, b) for j, b in enumerate(Mr) if b]
        for i, Mi in enumerate(M):
            f = Mi[enter]
            if i != r and f:
                for j, b in nonzero:
                    Mi[j] -= f * b // d
    else:
        for i, Mi in enumerate(M):
            if i != r:
                f = Mi[enter]
                M[i] = [(p * a - f * b) // d for a, b in zip(Mi, Mr)]
    basis[r] = enter
    return p


def _over_one_denominator(values: Mapping[Hashable, Number]) -> tuple[dict, int]:
    """Exact values as integers over their least common denominator, and that denominator."""
    den = lcm(*(v.denominator for v in values.values()))
    return {k: v.numerator * (den // v.denominator) for k, v in values.items()}, den


def _feasible_sums(lp: LinearProgram, y: Mapping[Hashable, int], den: int) -> Optional[dict]:
    """A positive multiple of y . A_t - c_t per column t if the duals are feasible, else None.

    Integers throughout: the duals are y_r / den, with den > 0.  The rows with
    a non-zero dual are scaled by S, the lcm of their ``scale``s, and the
    objective by C, its ``cost_scale``.  The value for column t is
    S * C * den times y . A_t - c_t, so it has that sign and is zero exactly
    when that is.  The sums come from one pass over each row's
    nonzeros with a non-zero dual.
    """
    tags = {r.tag for r in lp.rows}
    given = set(y)
    if tags != given:
        raise ValueError(
            f"dual vector does not match the rows: missing {tags - given}, "
            f"extra {given - tags}"
        )
    minimize = lp.sense == MIN
    active = []  # (row, y_r) for every non-zero dual
    for r in lp.rows:
        yr = y[r.tag]
        if r.rel == LE and (yr > 0 if minimize else yr < 0):
            return None
        if r.rel == GE and (yr < 0 if minimize else yr > 0):
            return None
        if yr:
            active.append((r, yr))
    S = lcm(*(r.scale for r, _ in active))
    sums = dict.fromkeys(lp.columns, 0)
    for r, yr in active:
        for t, a in r.coeffs.items():
            sums[t] += a.numerator * (S // a.denominator) * yr
    C = lp.cost_scale
    scale = S * den
    for t, c in lp.objective.items():
        # S * den * y . A_t becomes S * C * den * (y . A_t - c_t)
        g = sums[t] = sums[t] * C - c.numerator * (C // c.denominator) * scale
        if t in lp.free:
            if g:
                return None
        elif minimize:
            if g > 0:
                return None
        else:
            if g < 0:
                return None
    return sums


def dual_feasible(lp: LinearProgram, duals: Mapping[Hashable, Number]) -> bool:
    """Exact feasibility of a dual vector for this program, per the conventions above."""
    # the duals come from the caller, so they are made exact here
    y, den = _over_one_denominator({tag: exact(yr) for tag, yr in duals.items()})
    return _feasible_sums(lp, y, den) is not None


def _assert_certificates(lp: LinearProgram, sol: LpSolution) -> None:
    """Check an optimal solution exactly, over integers; raise AssertionError if it fails.

    The non-zero primal values, the only ones that contribute to a sum or a
    slackness product, are put over their common denominator D, and the duals
    over theirs, E.  Each row is scaled by its ``scale`` s_r and the objective
    by its ``cost_scale`` C.  Every comparison is then between integers
    carrying the same positive factor on both sides.
    """
    if set(sol.primal) != set(lp.columns):
        raise AssertionError("primal solution does not cover exactly the program's columns")
    x, D = _over_one_denominator({t: v for t in lp.columns if (v := sol.primal[t])})
    y, E = _over_one_denominator(sol.dual)
    # primal feasibility; each row's two sides times s_r * D
    for t, v in x.items():
        if v < 0 and t not in lp.free:
            raise AssertionError(f"negative value for column {t!r}")
    slack: dict = {}
    for r in lp.rows:
        s = r.scale
        lhs = sum(a.numerator * (s // a.denominator) * x[t] for t, a in r.coeffs.items() if t in x)
        rhs = r.rhs.numerator * (s // r.rhs.denominator) * D
        slack[r.tag] = lhs != rhs
        if not (lhs <= rhs if r.rel == LE else lhs >= rhs if r.rel == GE else lhs == rhs):
            raise AssertionError(f"primal solution violates row {r.tag!r}")
    # dual feasibility
    gaps = _feasible_sums(lp, y, E)
    if gaps is None:
        raise AssertionError("dual solution infeasible")
    # complementary slackness
    for r in lp.rows:
        if slack[r.tag] and y[r.tag]:
            raise AssertionError(f"complementary slackness fails on row {r.tag!r}")
    for t in x:
        if gaps[t]:
            raise AssertionError(f"complementary slackness fails on column {t!r}")
    # strong duality: c . x = P / (C * D) and b . y = Q / (B * E)
    C = lp.cost_scale
    P = sum(c.numerator * (C // c.denominator) * x[t] for t in x if (c := lp.objective[t]))
    terms = [(r, yr) for r in lp.rows if r.rhs and (yr := y[r.tag])]
    B = lcm(*(r.scale for r, _ in terms))
    Q = sum(r.rhs.numerator * (B // r.rhs.denominator) * yr for r, yr in terms)
    if P * B * E != Q * C * D:
        raise AssertionError("strong duality fails")
    z = sol.objective
    if P * z.denominator != z.numerator * C * D:
        raise AssertionError("reported objective inconsistent")
