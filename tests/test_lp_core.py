import math
import random
import re
from fractions import Fraction as F

import pytest

from rcfilter import lp_core
from rcfilter.lp_core import (
    EQ,
    GE,
    INFEASIBLE,
    LE,
    MAX,
    MIN,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    Row,
    dual_feasible,
    solve,
)


def test_single_variable_floor():
    lp = LinearProgram(
        sense=MIN,
        columns=("x",),
        objective={"x": F(1)},
        rows=(Row({"x": 1}, GE, 3, "lo"),),
    )
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.primal["x"] == 3
    assert sol.objective == 3
    assert sol.dual["lo"] == 1


def test_empty_feasible_region_is_infeasible():
    lp = LinearProgram(
        sense=MIN,
        columns=("x",),
        objective={"x": F(1)},
        rows=(Row({"x": 1}, GE, 1, "lo"), Row({"x": 1}, LE, 0, "hi")),
    )
    assert solve(lp).status == INFEASIBLE


def test_unbounded_direction_detected():
    lp = LinearProgram(
        sense=MAX,
        columns=("x",),
        objective={"x": F(1)},
        rows=(Row({"x": 1}, GE, 0, "lo"),),
    )
    assert solve(lp).status == UNBOUNDED


def test_two_variable_diet():
    # min 2a + 3b  s.t.  a + b >= 4, a <= 3
    lp = LinearProgram(
        sense=MIN,
        columns=("a", "b"),
        objective={"a": F(2), "b": F(3)},
        rows=(Row({"a": 1, "b": 1}, GE, 4, "need"), Row({"a": 1}, LE, 3, "cap")),
    )
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.primal == {"a": F(3), "b": F(1)}
    assert sol.objective == 9
    # duals: need-row 3, cap-row -1 (tight cap saves cost)
    assert sol.dual["need"] == 3
    assert sol.dual["cap"] == -1


def test_equality_rows_and_free_columns():
    # min x + y  s.t.  x - y = 5  with y free: optimum pushes y negative? no,
    # x >= 0 bounds it: x = 0, y = -5 gives -5
    lp = LinearProgram(
        sense=MIN,
        columns=("x", "y"),
        objective={"x": F(1), "y": F(1)},
        rows=(Row({"x": 1, "y": -1}, EQ, 5, "bal"),),
        free=frozenset({"y"}),
    )
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.primal == {"x": F(0), "y": F(-5)}
    assert sol.objective == -5


def test_max_sense_duals_follow_convention():
    # max 3x + 2y s.t. x + y <= 4, x <= 2; optimum (2,2) value 10
    lp = LinearProgram(
        sense=MAX,
        columns=("x", "y"),
        objective={"x": F(3), "y": F(2)},
        rows=(Row({"x": 1, "y": 1}, LE, 4, "sum"), Row({"x": 1}, LE, 2, "xcap")),
    )
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.primal == {"x": F(2), "y": F(2)}
    assert sol.objective == 10
    assert sol.dual == {"sum": F(2), "xcap": F(1)}
    assert dual_feasible(lp, sol.dual)


def test_degenerate_vertex_terminates():
    # redundant constraints meeting at one point; cycling-prone without Bland
    lp = LinearProgram(
        sense=MIN,
        columns=("x", "y"),
        objective={"x": F(-1), "y": F(-1)},
        rows=(
            Row({"x": 1, "y": 1}, LE, 2, "a"),
            Row({"x": 1, "y": 1}, LE, 2, "b"),
            Row({"x": 2, "y": 2}, LE, 4, "c"),
        ),
    )
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.objective == -2


def test_fractional_data_stays_exact():
    lp = LinearProgram(
        sense=MIN,
        columns=("x",),
        objective={"x": F(1, 3)},
        rows=(Row({"x": F(2, 7)}, GE, F(5, 11), "lo"),),
    )
    sol = solve(lp)
    assert sol.primal["x"] == F(35, 22)
    assert sol.objective == F(35, 66)


def test_quotient_matches_fraction_for_every_sign():
    # an int exactly when the divisor divides, a Fraction otherwise
    cases = [(6, 3), (-6, 3), (6, -3), (-6, -3), (7, 3), (-7, 3), (7, -3), (-7, -3), (0, -5)]
    for n, d in cases:
        q = lp_core._quotient(n, d)
        assert q == F(n, d)
        assert type(q) is (int if n % d == 0 else F)


def test_max_program_with_negative_fractional_optimum():
    # max -x/3 - y s.t. 2x >= 3, y >= 2: the phase-two costs are the
    # objective times -cost_scale = -3, so the duals and the objective are
    # read back over a negative divisor
    lp = LinearProgram(
        sense=MAX,
        columns=("x", "y"),
        objective={"x": F(-1, 3), "y": -1},
        rows=(Row({"x": 2}, GE, 3, "lo"), Row({"y": 1}, GE, 2, "floor")),
    )
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.primal == {"x": F(3, 2), "y": 2}
    assert sol.dual == {"lo": F(-1, 6), "floor": -1}
    assert sol.objective == F(-5, 2)
    assert [type(x) for x in (sol.primal["x"], sol.primal["y"])] == [F, int]
    assert [type(x) for x in (sol.dual["lo"], sol.dual["floor"], sol.objective)] == [F, int, F]


def test_redundant_equality_rows_handled():
    # second equality is a copy: phase 1 leaves an artificial basic at zero
    lp = LinearProgram(
        sense=MIN,
        columns=("x", "y"),
        objective={"x": F(1), "y": F(2)},
        rows=(
            Row({"x": 1, "y": 1}, EQ, 3, "a"),
            Row({"x": 1, "y": 1}, EQ, 3, "b"),
        ),
    )
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.objective == 3
    assert sol.primal == {"x": F(3), "y": F(0)}


def test_duplicate_tags_rejected():
    with pytest.raises(ValueError):
        LinearProgram(
            sense=MIN,
            columns=("x", "x"),
            objective={"x": F(1)},
            rows=(),
        )
    with pytest.raises(ValueError):
        LinearProgram(
            sense=MIN,
            columns=("x",),
            objective={"x": F(1)},
            rows=(Row({"x": 1}, GE, 0, "t"), Row({"x": 1}, LE, 9, "t")),
        )


def test_bad_sense_rejected():
    with pytest.raises(ValueError, match="^bad sense 'minimise'$"):
        LinearProgram(sense="minimise", columns=("x",), objective={"x": 1}, rows=())


def test_row_referencing_unknown_column_rejected():
    with pytest.raises(ValueError, match="unknown column"):
        LinearProgram(
            sense=MIN,
            columns=("x",),
            objective={"x": F(1)},
            rows=(Row({"ghost": 1}, GE, 0, "r"),),
        )


def test_program_data_made_exact_when_built():
    # integral data are held as int, the rest as Fraction; floats and strings
    # are made exact, and zero coefficients are dropped
    r = Row({"x": 2, "y": 0, "z": F(1, 2), "w": F(4, 2), "v": "-3/9"}, LE, 3.0, "r")
    assert r.coeffs == {"x": 2, "z": F(1, 2), "w": 2, "v": F(-1, 3)}
    assert [type(a) for a in r.coeffs.values()] == [int, F, int, F]
    assert type(r.rhs) is int and r.rhs == 3
    assert Row({"x": 1}, GE, 0.1, "r").rhs == F(3602879701896397, 36028797018963968)
    lp = LinearProgram(
        sense=MIN, columns=("x", "y", "z", "w", "v"), objective={"x": F(6, 3), "z": 0.5}, rows=(r,)
    )
    assert lp.objective == {"x": 2, "y": 0, "z": F(1, 2), "w": 0, "v": 0}
    assert [type(c) for c in lp.objective.values()] == [int, int, F, int, int]
    # the integer scales are fixed here too, and rebuilt by replace
    assert r.scale == math.lcm(r.rhs.denominator, *(a.denominator for a in r.coeffs.values())) == 6
    assert lp.cost_scale == math.lcm(*(c.denominator for c in lp.objective.values())) == 2
    r2 = r._replace(coeffs={"x": F(1, 5)}, rhs=F(3, 4))
    assert r2.scale == 20
    lp2 = lp._replace(objective={"y": F(2, 7)}, rows=(r2,))
    assert lp2.cost_scale == 7
    assert lp2._replace(objective={"y": 1}).cost_scale == 1
    # derived, so neither a constructor argument nor part of repr or equality
    assert "scale" not in repr(r2) and "cost_scale" not in repr(lp2)
    assert r2 == Row({"x": F(1, 5)}, LE, F(3, 4), "r")
    with pytest.raises(TypeError):
        Row({"x": 1}, LE, 0, "r", scale=1)
    with pytest.raises(TypeError):
        LinearProgram(sense=MIN, columns=(), objective={}, rows=(), cost_scale=1)
    with pytest.raises(ValueError, match="bad relation"):
        Row({"x": 1}, "<>", 0, "r")
    with pytest.raises(ValueError, match="unknown column"):
        LinearProgram(sense=MIN, columns=("x",), objective={"ghost": 1}, rows=())


def test_dual_feasible_checks_signs():
    lp = LinearProgram(
        sense=MIN,
        columns=("x",),
        objective={"x": F(1)},
        rows=(Row({"x": 1}, GE, 3, "lo"),),
    )
    assert dual_feasible(lp, {"lo": F(1)})
    assert dual_feasible(lp, {"lo": F(0)})
    assert not dual_feasible(lp, {"lo": F(-1)})  # >=-row dual must be >= 0 (min)
    assert not dual_feasible(lp, {"lo": F(2)})  # violates column constraint
    with pytest.raises(ValueError):
        dual_feasible(lp, {"other": F(0)})
    capped = lp._replace(rows=(Row({"x": 1}, LE, 5, "hi"),))
    assert dual_feasible(capped, {"hi": F(-1)})
    assert not dual_feasible(capped, {"hi": F(1)})  # <=-row dual must be <= 0 (min)
    free = lp._replace(free=frozenset({"x"}))
    assert dual_feasible(free, {"lo": F(1)})
    assert not dual_feasible(free, {"lo": F(1, 2)})  # free column needs y . A_x == c_x
    most = LinearProgram(
        sense=MAX,
        columns=("x",),
        objective={"x": F(1)},
        rows=(Row({"x": 1}, LE, 4, "hi"),),
    )
    assert dual_feasible(most, {"hi": F(1)})
    assert not dual_feasible(most, {"hi": F(1, 2)})  # max needs y . A_x >= c_x


def _diet_with_loose_row():
    # min 2a + 3b  s.t.  a + b >= 4, a <= 3, b <= 10: optimum a = 3, b = 1,
    # duals need 3, cap -1, loose 0 (its row keeps slack 9)
    lp = LinearProgram(
        sense=MIN,
        columns=("a", "b"),
        objective={"a": F(2), "b": F(3)},
        rows=(
            Row({"a": 1, "b": 1}, GE, 4, "need"),
            Row({"a": 1}, LE, 3, "cap"),
            Row({"b": 1}, LE, 10, "loose"),
        ),
    )
    sol = solve(lp)
    assert sol.primal == {"a": 3, "b": 1}
    assert sol.dual == {"need": 3, "cap": -1, "loose": 0}
    return lp, sol


@pytest.mark.parametrize(
    "corrupt, message",
    [
        ({"primal": {"a": F(-1), "b": F(5)}}, "negative value for column 'a'"),
        ({"primal": {"a": F(3), "b": F(0)}}, "violates row 'need'"),
        ({"dual": {"need": F(4), "cap": F(-1), "loose": F(0)}}, "dual solution infeasible"),
        (
            {"dual": {"need": F(3), "cap": F(-1), "loose": F(-1)}},
            "complementary slackness fails on row 'loose'",
        ),
        (
            {"dual": {"need": F(2), "cap": F(-1), "loose": F(0)}},
            "complementary slackness fails on column 'a'",
        ),
        ({"objective": F(10)}, "reported objective inconsistent"),
        ({"primal": {"a": F(3)}}, "primal solution does not cover exactly"),
        (
            {"primal": {"a": F(3), "b": F(1), "c": F(0)}},
            "primal solution does not cover exactly",
        ),
    ],
)
def test_certificate_check_rejects_corrupted_solution(corrupt, message):
    # strong duality follows from the two slackness checks in exact
    # arithmetic, so no single corruption reaches that check alone
    lp, sol = _diet_with_loose_row()
    lp_core._assert_certificates(lp, sol)
    with pytest.raises(AssertionError, match=re.escape(message)):
        lp_core._assert_certificates(lp, sol._replace(**corrupt))


def test_strong_duality_on_mixed_program():
    # min 4x + 5y  s.t.  2x + y >= 3, x + 3y >= 4, x + y = 2
    lp = LinearProgram(
        sense=MIN,
        columns=("x", "y"),
        objective={"x": F(4), "y": F(5)},
        rows=(
            Row({"x": 2, "y": 1}, GE, 3, "r1"),
            Row({"x": 1, "y": 3}, GE, 4, "r2"),
            Row({"x": 1, "y": 1}, EQ, 2, "r3"),
        ),
    )
    sol = solve(lp)
    assert sol.status == OPTIMAL
    x, y = sol.primal["x"], sol.primal["y"]
    assert 2 * x + y >= 3 and x + 3 * y >= 4 and x + y == 2
    assert sol.objective == 4 * x + 5 * y
    duals = sol.dual
    assert (
        3 * duals["r1"] + 4 * duals["r2"] + 2 * duals["r3"] == sol.objective
    )


def test_phase_one_finds_a_scaled_row_infeasible():
    # Row "b" is scaled by -3 to integers; phase one costs its artificial 1,
    # like every other, and its optimum stays positive: 3x >= 1 and x = -1/3
    # have no solution with x >= 0.
    lp = LinearProgram(
        sense=MAX,
        columns=("x",),
        objective={"x": F(-2)},
        rows=(Row({"x": 3}, GE, 1, "a"), Row({"x": 1}, EQ, F(-1, 3), "b")),
    )
    assert [r.scale for r in lp.rows] == [1, 3]
    assert solve(lp).status == INFEASIBLE


def test_pivot_guard_constant_exists(monkeypatch):
    assert lp_core._MAX_PIVOTS > 1000
    # the tripwire fires on a phase that needs more pivots than it allows,
    # and only then: this program's optimum (2, 2) takes two, one per column
    # entering, so it solves at a limit of exactly two
    lp = LinearProgram(
        sense=MAX,
        columns=("x", "y"),
        objective={"x": 3, "y": 2},
        rows=(Row({"x": 1, "y": 1}, LE, 4, "sum"), Row({"x": 1}, LE, 2, "xcap")),
    )
    monkeypatch.setattr(lp_core, "_MAX_PIVOTS", 1)
    with pytest.raises(RuntimeError, match="^pivot limit hit; "):
        solve(lp)
    monkeypatch.setattr(lp_core, "_MAX_PIVOTS", 2)
    assert solve(lp).primal == {"x": 2, "y": 2}


def _dense_pivot(T, basis, r, enter):
    # the elimination _pivot replaced: every affected row rebuilt over all columns
    piv = T[r][enter]
    if piv != 1:
        T[r] = [a / piv for a in T[r]]
    Tr = T[r]
    for i, Ti in enumerate(T):
        if i != r and Ti[enter] != 0:
            f = Ti[enter]
            T[i] = [a - f * b for a, b in zip(Ti, Tr)]
    basis[r] = enter


def test_pivot_matches_dense_elimination():
    # Seeded random rational tableaux, about half their entries zero, the last
    # row standing for the reduced costs.  Each row is scaled to integers, as
    # the solver scales its rows; the integer pivot on M / d and the Fraction
    # elimination then pivot step by step and must agree entry by entry.
    rng = random.Random(12)
    seen = {
        "p == d": 0,
        "p != d": 0,
        "negative pivot": 0,
        "zero in pivot row": 0,
        "zero in entering column": 0,
    }
    for _ in range(150):
        m, ncols = rng.randint(1, 6), rng.randint(2, 9)
        rational = [
            [
                F(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.5 else F(0)
                for _ in range(ncols + 1)
            ]
            for _ in range(m + 1)
        ]
        M = []
        for row in rational:
            s = math.lcm(*(a.denominator for a in row))
            M.append([int(a * s) for a in row])
        T = [[F(a) for a in row] for row in M]
        d = 1
        basis_int, basis_dense = [-1] * m, [-1] * m
        for _ in range(6):
            r = rng.randrange(m)
            candidates = [j for j in range(ncols) if M[r][j] != 0]
            if not candidates:
                continue
            enter = rng.choice(candidates)
            p = M[r][enter]
            seen["p == d" if abs(p) == d else "p != d"] += 1
            seen["negative pivot"] += p < 0
            seen["zero in pivot row"] += 0 in M[r]
            seen["zero in entering column"] += any(
                row[enter] == 0 for i, row in enumerate(M) if i != r
            )
            d = lp_core._pivot(M, basis_int, r, enter, d)
            _dense_pivot(T, basis_dense, r, enter)
            assert d > 0
            assert all(type(a) is int for row in M for a in row)
            assert [[F(a, d) for a in row] for row in M] == T
            assert basis_int == basis_dense
            assert len({id(row) for row in M}) == len(M)
    assert all(seen.values()), seen
