"""Exact-arithmetic linear programming: the only place pivoting happens.

A dense two-phase simplex over ``fractions.Fraction`` with Bland's rule, so
every solve terminates and identical inputs give identical pivots, identical
solutions and identical duals.  Equality rows are handled natively through
phase-one artificials; their duals stay attached to the row tag.  Free
columns are split internally, which does not affect row duals.

Tableau columns are numbered in one pass: the program's columns in order,
each free column followed by its negated copy; then, row by row (after a row
with a negative right-hand side is negated), a surplus column for a ">="
row and one unit column per row, a slack for "<=" and an artificial for "="
and ">=".  A row's dual is read off the final reduced cost of its unit
column.  Bland's rule enters the lowest-numbered column, so this numbering
fixes every pivot.

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
from typing import Hashable, Mapping, Optional, Sequence

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
    coeffs: Mapping[Hashable, Fraction]
    rel: str
    rhs: Fraction
    tag: Hashable


@dataclass(frozen=True)
class LinearProgram:
    """min/max c.x + constant subject to tagged rows; columns are >= 0 unless free."""

    sense: str
    columns: tuple[Hashable, ...]
    objective: Mapping[Hashable, Fraction]
    rows: tuple[Row, ...]
    free: frozenset = field(default_factory=frozenset)
    objective_constant: Fraction = Fraction(0)

    def __post_init__(self):
        if self.sense not in (MIN, MAX):
            raise ValueError(f"bad sense {self.sense!r}")
        if len(set(self.columns)) != len(self.columns):
            raise ValueError("duplicate column tags")
        tags = [r.tag for r in self.rows]
        if len(set(tags)) != len(tags):
            raise ValueError("duplicate row tags")
        for r in self.rows:
            if r.rel not in (LE, EQ, GE):
                raise ValueError(f"bad relation {r.rel!r}")


@dataclass(frozen=True)
class LpSolution:
    status: str
    primal: dict
    dual: dict
    objective: Optional[Fraction]


def row(coeffs: Mapping, rel: str, rhs, tag) -> Row:
    return Row(
        coeffs={k: Fraction(v) for k, v in coeffs.items() if Fraction(v) != 0},
        rel=rel,
        rhs=Fraction(rhs),
        tag=tag,
    )


def solve(lp: LinearProgram) -> LpSolution:
    """Optimal primal and dual with exact certificates, or infeasible/unbounded."""
    sol = _solve_std(lp)
    if sol.status == OPTIMAL:
        _assert_certificates(lp, sol)
    return sol


def _solve_std(lp: LinearProgram) -> LpSolution:
    minimize = lp.sense == MIN

    # split free columns into a difference of two non-negative ones
    std_cols: list[tuple[Hashable, int]] = []
    for t in lp.columns:
        std_cols.append((t, +1))
        if t in lp.free:
            std_cols.append((t, -1))
    col_index = {tc: k for k, tc in enumerate(std_cols)}
    n_std = len(std_cols)

    c_std = [Fraction(0)] * n_std
    for t, coef in lp.objective.items():
        coef = Fraction(coef) if minimize else -Fraction(coef)
        c_std[col_index[(t, +1)]] = coef
        if t in lp.free:
            c_std[col_index[(t, -1)]] = -coef

    # one pass, rows with a negative rhs negated; columns as in the docstring
    flip = {LE: GE, GE: LE, EQ: EQ}
    rels = [flip[r.rel] if r.rhs < 0 else r.rel for r in lp.rows]
    m = len(lp.rows)
    ncols = n_std + sum(2 if rel == GE else 1 for rel in rels)
    T: list[list[Fraction]] = []
    unit: list[int] = []
    artificials: set[int] = set()
    k = n_std
    for r, rel in zip(lp.rows, rels):
        t_row = [Fraction(0)] * (ncols + 1)
        for t, a in r.coeffs.items():
            if (t, +1) not in col_index:
                raise ValueError(f"row {r.tag!r} references unknown column {t!r}")
            a = Fraction(a)
            t_row[col_index[(t, +1)]] += a
            if t in lp.free:
                t_row[col_index[(t, -1)]] -= a
        t_row[ncols] = Fraction(r.rhs)
        if r.rhs < 0:
            t_row = [-a for a in t_row]
        if rel == GE:
            t_row[k] = Fraction(-1)
            k += 1
        t_row[k] = Fraction(1)
        if rel != LE:
            artificials.add(k)
        unit.append(k)
        k += 1
        T.append(t_row)
    basis = list(unit)

    def run_phase(costs: Sequence[Fraction], barred: set[int]):
        # z[j] = c_j - c_B B^-1 A_j and z[ncols] = -c_B B^-1 b, kept current
        # by every pivot; optimal when all eligible z[j] >= 0
        z = list(costs) + [Fraction(0)]
        for i in range(m):
            cb = costs[basis[i]]
            if cb != 0:
                for j in range(ncols + 1):
                    z[j] -= cb * T[i][j]
        for _ in range(_MAX_PIVOTS):
            enter = -1
            for j in range(ncols):
                if j not in barred and z[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL, z
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
                return UNBOUNDED, z
            _pivot(T, z, basis, leave, enter)
        raise RuntimeError("pivot limit hit; anti-cycling rule violated")

    # phase 1: drive the artificials to zero
    c1 = [Fraction(0)] * ncols
    for a in artificials:
        c1[a] = Fraction(1)
    status, z = run_phase(c1, barred=set())
    assert status == OPTIMAL, "phase one objective is bounded below by zero"
    if z[ncols] < 0:  # the phase-one optimum is -z[ncols]
        return LpSolution(status=INFEASIBLE, primal={}, dual={}, objective=None)

    # pivot leftover artificials out where the row allows it
    for i in range(m):
        if basis[i] in artificials:
            for j in range(ncols):
                if j not in artificials and T[i][j] != 0:
                    _pivot(T, z, basis, i, j)  # z is rebuilt for phase 2
                    break
            # an all-zero row is redundant; its artificial stays basic at zero

    c2 = list(c_std) + [Fraction(0)] * (ncols - n_std)
    status, z = run_phase(c2, barred=artificials)
    if status == UNBOUNDED:
        return LpSolution(status=UNBOUNDED, primal={}, dual={}, objective=None)

    std_val = [Fraction(0)] * ncols
    for i in range(m):
        std_val[basis[i]] = T[i][ncols]
    primal: dict = {}
    for t in lp.columns:
        v = std_val[col_index[(t, +1)]]
        if t in lp.free:
            v -= std_val[col_index[(t, -1)]]
        primal[t] = v

    dual: dict = {}
    for r, k in zip(lp.rows, unit):
        y = -z[k]
        if r.rhs < 0:
            y = -y
        if not minimize:
            y = -y
        dual[r.tag] = y

    obj = -z[ncols] if minimize else z[ncols]
    return LpSolution(
        status=OPTIMAL, primal=primal, dual=dual, objective=obj + lp.objective_constant
    )


def _pivot(T: list, z: list, basis: list, r: int, enter: int) -> None:
    ncols = len(z) - 1
    piv = T[r][enter]
    if piv != 1:
        T[r] = [a / piv for a in T[r]]
    for i in range(len(T)):
        if i != r and T[i][enter] != 0:
            f = T[i][enter]
            Ti, Tr = T[i], T[r]
            T[i] = [Ti[j] - f * Tr[j] for j in range(ncols + 1)]
    if z[enter] != 0:
        f = z[enter]
        Tr = T[r]
        for j in range(ncols + 1):
            z[j] -= f * Tr[j]
    basis[r] = enter


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
    for r in lp.rows:
        y = Fraction(duals[r.tag])
        if r.rel == LE and (y > 0 if minimize else y < 0):
            return False
        if r.rel == GE and (y < 0 if minimize else y > 0):
            return False
    for t in lp.columns:
        s = sum(
            Fraction(r.coeffs.get(t, 0)) * Fraction(duals[r.tag]) for r in lp.rows
        )
        c = Fraction(lp.objective.get(t, 0))
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
        lhs = sum(Fraction(a) * sol.primal[t] for t, a in r.coeffs.items())
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
    for t in lp.columns:
        s = sum(Fraction(r.coeffs.get(t, 0)) * sol.dual[r.tag] for r in lp.rows)
        if (Fraction(lp.objective.get(t, 0)) - s) * sol.primal[t] != 0:
            raise AssertionError(f"complementary slackness fails on column {t!r}")
    primal_obj = sum(
        Fraction(lp.objective.get(t, 0)) * sol.primal[t] for t in lp.columns
    )
    dual_obj = sum(r.rhs * sol.dual[r.tag] for r in lp.rows)
    if primal_obj != dual_obj:
        raise AssertionError("strong duality fails")
    if primal_obj + lp.objective_constant != sol.objective:
        raise AssertionError("reported objective inconsistent")
