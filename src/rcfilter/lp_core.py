"""Exact-arithmetic linear programming: the only place pivoting happens.

A dense two-phase simplex over ``fractions.Fraction`` with Bland's rule, so
every solve terminates and identical inputs give identical pivots, identical
solutions and identical duals.  Equality rows are handled natively through
phase-one artificials; their duals stay attached to the row tag.  Free
columns are split internally, which does not affect row duals.

A program's data are made exact ``Fraction``s and checked when it is built
(see ``Row`` and ``LinearProgram``); the solver and the certificate check
trust them as they stand.

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

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable, Mapping, Optional

MIN = "min"
MAX = "max"
LE = "<="
EQ = "="
GE = ">="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_MAX_PIVOTS = 200_000  # Bland's rule terminates; this is a tripwire, not a tuning knob


@dataclass(frozen=True)
class Row:
    """One tagged constraint; exact, with zero coefficients dropped, once built."""

    coeffs: Mapping[Hashable, Fraction]
    rel: str
    rhs: Fraction
    tag: Hashable

    def __post_init__(self):
        if self.rel not in (LE, EQ, GE):
            raise ValueError(f"bad relation {self.rel!r}")
        coeffs = {t: Fraction(a) for t, a in self.coeffs.items()}
        object.__setattr__(self, "coeffs", {t: a for t, a in coeffs.items() if a != 0})
        object.__setattr__(self, "rhs", Fraction(self.rhs))


@dataclass(frozen=True)
class LinearProgram:
    """min/max c.x subject to tagged rows; columns are >= 0 unless free.

    Once built, ``objective`` holds an exact coefficient for every column, and
    no row or objective names an unknown column.
    """

    sense: str
    columns: tuple[Hashable, ...]
    objective: Mapping[Hashable, Fraction]
    rows: tuple[Row, ...]
    free: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.sense not in (MIN, MAX):
            raise ValueError(f"bad sense {self.sense!r}")
        if len(set(self.columns)) != len(self.columns):
            raise ValueError("duplicate column tags")
        tags = [r.tag for r in self.rows]
        if len(set(tags)) != len(tags):
            raise ValueError("duplicate row tags")
        known = set(self.columns)
        for r in self.rows:
            if not known.issuperset(r.coeffs):
                raise ValueError(f"row {r.tag!r} references unknown column(s)")
        if not known.issuperset(self.objective):
            raise ValueError("objective references unknown column(s)")
        objective = {t: Fraction(self.objective.get(t, 0)) for t in self.columns}
        object.__setattr__(self, "objective", objective)


@dataclass(frozen=True)
class LpSolution:
    status: str
    primal: dict
    dual: dict
    objective: Optional[Fraction]


def solve(lp: LinearProgram) -> LpSolution:
    """Optimal primal and dual with exact certificates, or infeasible/unbounded."""
    sol = _solve_std(lp)
    if sol.status == OPTIMAL:
        _assert_certificates(lp, sol)
    return sol


def _solve_std(lp: LinearProgram) -> LpSolution:
    minimize = lp.sense == MIN

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

    def dense(coeffs: Mapping[Hashable, Fraction], rhs: Fraction, negate: bool) -> list:
        # a tableau row over the program's columns, optionally negated
        row = [Fraction(0)] * (ncols + 1)
        for t, a in coeffs.items():
            a = -a if negate else a
            row[col[t]] = a
            if t in lp.free:
                row[col[t] + 1] = -a
        row[ncols] = -rhs if negate else rhs
        return row

    # one pass, rows with a negative rhs negated; columns as in the docstring
    T: list[list[Fraction]] = []
    unit: list[int] = []
    artificials: set[int] = set()
    k = n_std
    for r, rel in zip(lp.rows, rels):
        t_row = dense(r.coeffs, r.rhs, r.rhs < 0)
        if rel == GE:
            t_row[k] = Fraction(-1)
            k += 1
        t_row[k] = Fraction(1)
        if rel != LE:
            artificials.add(k)
        unit.append(k)
        k += 1
        T.append(t_row)
    T.append([])  # the reduced-cost row T[m], set by each phase
    basis = list(unit)

    def run_phase(costs: list[Fraction], barred: set[int]) -> str:
        # T[m][j] = c_j - c_B B^-1 A_j and T[m][ncols] = -c_B B^-1 b, kept
        # current by every pivot; optimal when all eligible T[m][j] >= 0.
        # Pivoting on a basic unit column prices it out; a zero cost needs none.
        T[m] = costs
        for i in range(m):
            if costs[basis[i]] != 0:
                _pivot(T, basis, i, basis[i])
        for _ in range(_MAX_PIVOTS):
            enter = -1
            for j in range(ncols):
                if j not in barred and T[m][j] < 0:
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL
            leave = -1
            best: Optional[Fraction] = None
            for i in range(m):
                a = T[i][enter]
                if a > 0:
                    ratio = T[i][ncols] / a
                    if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]
                    ):
                        best = ratio
                        leave = i
            if leave < 0:
                return UNBOUNDED
            _pivot(T, basis, leave, enter)
        raise RuntimeError("pivot limit hit; anti-cycling rule violated")

    # phase 1: drive the artificials to zero
    c1 = [Fraction(0)] * (ncols + 1)
    for a in artificials:
        c1[a] = Fraction(1)
    status = run_phase(c1, barred=set())
    assert status == OPTIMAL, "phase one objective is bounded below by zero"
    if T[m][ncols] < 0:  # the phase-one optimum is -T[m][ncols]
        return LpSolution(status=INFEASIBLE, primal={}, dual={}, objective=None)

    # pivot leftover artificials out where the row allows it
    for i in range(m):
        if basis[i] in artificials:
            for j in range(ncols):
                if j not in artificials and T[i][j] != 0:
                    _pivot(T, basis, i, j)  # T[m] is set anew for phase 2
                    break
            # an all-zero row is redundant; its artificial stays basic at zero

    status = run_phase(dense(lp.objective, Fraction(0), not minimize), barred=artificials)
    if status == UNBOUNDED:
        return LpSolution(status=UNBOUNDED, primal={}, dual={}, objective=None)

    std_val = [Fraction(0)] * ncols
    for i in range(m):
        std_val[basis[i]] = T[i][ncols]
    primal: dict = {}
    for t in lp.columns:
        v = std_val[col[t]]
        if t in lp.free:
            v -= std_val[col[t] + 1]
        primal[t] = v

    z = T[m]  # the phase-2 reduced costs
    dual: dict = {}
    for r, k in zip(lp.rows, unit):
        y = -z[k]
        if r.rhs < 0:
            y = -y
        if not minimize:
            y = -y
        dual[r.tag] = y

    obj = -z[ncols] if minimize else z[ncols]
    return LpSolution(status=OPTIMAL, primal=primal, dual=dual, objective=obj)


def _pivot(T: list, basis: list, r: int, enter: int) -> None:
    """Eliminate column ``enter`` from every row but ``r``, the reduced costs included."""
    piv = T[r][enter]
    if piv != 1:
        T[r] = [a / piv for a in T[r]]
    Tr = T[r]
    for i, Ti in enumerate(T):
        if i != r and Ti[enter] != 0:
            f = Ti[enter]
            T[i] = [a - f * b for a, b in zip(Ti, Tr)]
    basis[r] = enter


def _column_sums(lp: LinearProgram, y: Mapping[Hashable, Fraction]) -> dict:
    """y . A_t for every column t, in one pass over each row's nonzeros."""
    sums = dict.fromkeys(lp.columns, Fraction(0))
    for r in lp.rows:
        yr = y[r.tag]
        if yr != 0:
            for t, a in r.coeffs.items():
                sums[t] += a * yr
    return sums


def dual_feasible(lp: LinearProgram, duals: Mapping[Hashable, Fraction]) -> bool:
    """Exact feasibility of a dual vector for this program, per the conventions above."""
    tags = {r.tag for r in lp.rows}
    given = set(duals)
    if tags != given:
        raise ValueError(
            f"dual vector does not match the rows: missing {tags - given}, "
            f"extra {given - tags}"
        )
    minimize = lp.sense == MIN
    y: dict = {}
    for r in lp.rows:
        # the duals come from the caller, so they are made exact here
        y[r.tag] = yr = Fraction(duals[r.tag])
        if r.rel == LE and (yr > 0 if minimize else yr < 0):
            return False
        if r.rel == GE and (yr < 0 if minimize else yr > 0):
            return False
    for t, s in _column_sums(lp, y).items():
        c = lp.objective[t]
        if t in lp.free:
            if s != c:
                return False
        elif minimize:
            if s > c:
                return False
        else:
            if s < c:
                return False
    return True


def _assert_certificates(lp: LinearProgram, sol: LpSolution) -> None:
    # primal feasibility
    for t in lp.columns:
        if t not in lp.free and sol.primal[t] < 0:
            raise AssertionError(f"negative value for column {t!r}")
    slack: dict = {}
    for r in lp.rows:
        lhs = sum(a * sol.primal[t] for t, a in r.coeffs.items())
        slack[r.tag] = lhs - r.rhs
        ok = {LE: lhs <= r.rhs, EQ: lhs == r.rhs, GE: lhs >= r.rhs}[r.rel]
        if not ok:
            raise AssertionError(f"primal solution violates row {r.tag!r}")
    # dual feasibility
    if not dual_feasible(lp, sol.dual):
        raise AssertionError("dual solution infeasible")
    # complementary slackness and strong duality
    for r in lp.rows:
        if slack[r.tag] * sol.dual[r.tag] != 0:
            raise AssertionError(f"complementary slackness fails on row {r.tag!r}")
    sums = _column_sums(lp, sol.dual)
    for t in lp.columns:
        if (lp.objective[t] - sums[t]) * sol.primal[t] != 0:
            raise AssertionError(f"complementary slackness fails on column {t!r}")
    primal_obj = sum(lp.objective[t] * sol.primal[t] for t in lp.columns)
    dual_obj = sum(r.rhs * sol.dual[r.tag] for r in lp.rows)
    if primal_obj != dual_obj:
        raise AssertionError("strong duality fails")
    if primal_obj != sol.objective:
        raise AssertionError("reported objective inconsistent")
