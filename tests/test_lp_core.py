import re
from dataclasses import replace
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


def test_row_referencing_unknown_column_rejected():
    with pytest.raises(ValueError, match="unknown column"):
        LinearProgram(
            sense=MIN,
            columns=("x",),
            objective={"x": F(1)},
            rows=(Row({"ghost": 1}, GE, 0, "r"),),
        )


def test_program_data_made_exact_when_built():
    r = Row({"x": 2, "y": 0, "z": F(1, 2)}, LE, 3, "r")
    assert r.coeffs == {"x": 2, "z": F(1, 2)}  # the zero coefficient is dropped
    assert all(type(a) is F for a in r.coeffs.values()) and type(r.rhs) is F
    lp = LinearProgram(sense=MIN, columns=("x", "y", "z"), objective={"x": 1}, rows=(r,))
    assert lp.objective == {"x": 1, "y": 0, "z": 0}
    assert all(type(c) is F for c in lp.objective.values())
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
    capped = replace(lp, rows=(Row({"x": 1}, LE, 5, "hi"),))
    assert dual_feasible(capped, {"hi": F(-1)})
    assert not dual_feasible(capped, {"hi": F(1)})  # <=-row dual must be <= 0 (min)
    free = replace(lp, free=frozenset({"x"}))
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
    ],
)
def test_certificate_check_rejects_corrupted_solution(corrupt, message):
    # strong duality follows from the two slackness checks in exact
    # arithmetic, so no single corruption reaches that check alone
    lp, sol = _diet_with_loose_row()
    lp_core._assert_certificates(lp, sol)
    with pytest.raises(AssertionError, match=re.escape(message)):
        lp_core._assert_certificates(lp, replace(sol, **corrupt))


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


def test_pivot_guard_constant_exists():
    assert lp_core._MAX_PIVOTS > 1000
