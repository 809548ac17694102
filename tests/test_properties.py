"""Randomized invariants over small generated instances.

Instances are built from unions of feasible solutions so that every edge lies
on at least one support; that is the documented precondition of the filtering
loop.  Assertions mirror the bound/exactness statements the implementation is
built on, checked against the brute-force oracle.
"""

from fractions import Fraction

from hypothesis import HealthCheck, Phase, assume, given, settings
from hypothesis import strategies as st

from rcfilter import InfeasibleConstraintError, lp_core, weighted_instance
from rcfilter import oracle
from rcfilter.duality import (
    exactness_certificate,
    is_dual_feasible,
    reduced_cost,
    shifted_cost_dual,
    solve_family_dual,
    solve_primal,
)
from rcfilter.formulations import family
from rcfilter.propagation import UNMARKED, ac_by_lp

COMMON = dict(
    deadline=None,
    max_examples=30,
    suppress_health_check=[HealthCheck.too_slow],
)
# every phase but shrinking: the same examples and assertions, but a failing
# random program is reported as drawn, where shrinking it took minutes
NO_SHRINK = tuple(p for p in Phase if p is not Phase.shrink)


@st.composite
def alldiff_instances(draw):
    n = draw(st.integers(2, 4))
    perm_count = draw(st.integers(1, 3))
    perms = [draw(st.permutations(range(n))) for _ in range(perm_count)]
    edges = sorted({(i, p[i]) for p in perms for i in range(n)})
    triples = [
        (i, j, draw(st.integers(0, 6))) for i, j in edges
    ]
    z_max = draw(st.integers(0, 12))
    return weighted_instance("alldiff", n, range(n), triples, z_max=z_max)


@st.composite
def path_instances(draw):
    m = draw(st.integers(3, 6))
    walks = draw(
        st.lists(
            st.sets(st.integers(1, m - 2), max_size=m - 2),
            min_size=1,
            max_size=3,
        )
    )
    arcs = set()
    for inner in walks:
        walk = [0] + sorted(inner) + [m - 1]
        arcs.update(zip(walk, walk[1:]))
    vertices = sorted({v for a in arcs for v in a})
    index = {v: k for k, v in enumerate(vertices)}
    triples = [
        (index[i], index[j], draw(st.integers(0, 6))) for i, j in sorted(arcs)
    ]
    z_max = draw(st.integers(0, 12))
    return weighted_instance(
        "path",
        len(vertices) - 1,
        range(len(vertices)),
        triples,
        z_max=z_max,
        source=0,
        sink=len(vertices) - 1,
    )


any_instance = st.one_of(alldiff_instances(), path_instances())


@settings(**COMMON)
@given(inst=any_instance)
def test_filter_matches_oracle(inst):
    report = oracle.enumerate(inst)
    truth = report.classification()
    try:
        result = ac_by_lp(inst)
    except InfeasibleConstraintError:
        assert report.ac_set == ()
        return
    assert result.complete
    assert dict(result.marks) == truth


@settings(**COMMON)
@given(inst=any_instance)
def test_optimal_dual_reduced_costs_bounded(inst):
    report = oracle.enumerate(inst)
    z_star, _, d = solve_primal(inst)
    assert z_star == report.z_star
    for e in inst.edges:
        r = reduced_cost(inst, d, e)
        assert r >= 0
        if report.exact_rc[e] is not None:
            assert r <= report.exact_rc[e]


@settings(**COMMON)
@given(inst=any_instance, data=st.data())
def test_shifted_dual_hits_exact_value(inst, data):
    report = oracle.enumerate(inst)
    candidates = [e for e in inst.edges if report.exact_rc[e] is not None]
    e = data.draw(st.sampled_from(candidates))
    d = shifted_cost_dual(inst, e)
    assert is_dual_feasible(inst, d)
    assert d.w == report.z_star
    assert reduced_cost(inst, d, e) == report.exact_rc[e]


@settings(**COMMON)
@given(inst=any_instance)
def test_family_duals_carry_restricted_optima(inst):
    report = oracle.enumerate(inst)
    fam = family(inst, "domains")
    for edge_set in fam:
        d = solve_family_dual(inst, edge_set)
        assert is_dual_feasible(inst, d)
        for e in edge_set:
            got = d.w + reduced_cost(inst, d, e)
            want = report.z_restricted[e]
            assert want is not None
            assert got == want
        if d.w == report.z_star:
            for e in inst.edges:
                assert reduced_cost(inst, d, e) >= 0


@settings(**COMMON)
@given(inst=any_instance, data=st.data())
def test_certificate_agrees_with_oracle(inst, data):
    report = oracle.enumerate(inst)
    _, _, d = solve_primal(inst)
    e = data.draw(st.sampled_from(sorted(inst.edges)))
    witness = exactness_certificate(inst, d, e)
    r = reduced_cost(inst, d, e)
    exact = report.exact_rc[e] is not None and r == report.exact_rc[e]
    assert (witness is not None) == exact
    if witness is not None:
        assert r == report.exact_rc[e]
        assert witness.cost == report.z_star + report.exact_rc[e]


@settings(**COMMON)
@given(inst=any_instance, budget=st.integers(0, 4))
def test_anytime_marks_are_correct(inst, budget):
    report = oracle.enumerate(inst)
    truth = report.classification()
    try:
        partial = ac_by_lp(inst, budget=budget)
    except InfeasibleConstraintError:
        assert report.ac_set == ()
        return
    for e, m in partial.marks.items():
        if m != UNMARKED:
            assert m == truth[e]


def random_programs(coefficient, rhs):
    """Strategies for the arguments of ``_solve_and_certify``."""
    return dict(
        n_cols=st.integers(1, 5),
        rows=st.lists(
            st.tuples(
                st.lists(coefficient, min_size=5, max_size=5),
                st.sampled_from([lp_core.LE, lp_core.EQ, lp_core.GE]),
                rhs,
            ),
            min_size=1,
            max_size=4,
        ),
        objective=st.lists(coefficient, min_size=5, max_size=5),
        free=st.sets(st.integers(0, 4)),
        sense=st.sampled_from([lp_core.MIN, lp_core.MAX]),
    )


def _program(n_cols, rows, objective, free, sense):
    # free columns are split in two inside the tableau
    cols = tuple(f"x{k}" for k in range(n_cols))
    return lp_core.LinearProgram(
        sense=sense,
        columns=cols,
        objective={c: objective[k] for k, c in enumerate(cols)},
        rows=tuple(
            lp_core.Row(
                {c: coeffs[k] for k, c in enumerate(cols) if coeffs[k]},
                rel,
                rhs,
                f"r{pos}",
            )
            for pos, (coeffs, rel, rhs) in enumerate(rows)
        ),
        free=frozenset(cols[k] for k in free if k < n_cols),
    )


def _normal_form(x):
    # an exact answer: an int when integral, else a Fraction that is not
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def _solve_and_certify(n_cols, rows, objective, free, sense):
    lp = _program(n_cols, rows, objective, free, sense)
    # the exact certificate inside solve() raises on any inconsistency
    sol = lp_core.solve(lp)
    assert sol.status in (lp_core.OPTIMAL, lp_core.INFEASIBLE, lp_core.UNBOUNDED)
    if sol.status == lp_core.OPTIMAL:
        assert lp_core.dual_feasible(lp, sol.dual)
        answers = [*sol.primal.values(), *sol.dual.values(), sol.objective]
        assert all(map(_normal_form, answers))


# small rationals, so pivots are not all units and phase one meets fractions
@settings(**COMMON, phases=NO_SHRINK)
@given(
    **random_programs(
        st.fractions(min_value=-3, max_value=3, max_denominator=5),
        st.fractions(min_value=-4, max_value=4, max_denominator=5),
    )
)
def test_solver_certifies_every_random_program(n_cols, rows, objective, free, sense):
    _solve_and_certify(n_cols, rows, objective, free, sense)


# wide rationals: rows scaled by large lcms, negative right-hand sides, and
# integer tableau entries that grow between pivots other than the denominator
wide = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)


@settings(**COMMON, phases=NO_SHRINK)
@given(**random_programs(wide, wide))
def test_solver_certifies_every_wide_rational_program(n_cols, rows, objective, free, sense):
    _solve_and_certify(n_cols, rows, objective, free, sense)


def _fraction_feasible_sums(lp, y):
    # lp_core._feasible_sums as it was in Fraction arithmetic: y . A_t for
    # every column t if the duals y are feasible, else None
    tags = {r.tag for r in lp.rows}
    given = set(y)
    if tags != given:
        raise ValueError(
            f"dual vector does not match the rows: missing {tags - given}, "
            f"extra {given - tags}"
        )
    minimize = lp.sense == lp_core.MIN
    sums = dict.fromkeys(lp.columns, 0)
    for r in lp.rows:
        yr = y[r.tag]
        if r.rel == lp_core.LE and (yr > 0 if minimize else yr < 0):
            return None
        if r.rel == lp_core.GE and (yr < 0 if minimize else yr > 0):
            return None
        if yr:
            for t, a in r.coeffs.items():
                sums[t] += a * yr
    for t, s in sums.items():
        c = lp.objective[t]
        if t in lp.free:
            if s != c:
                return None
        elif minimize:
            if s > c:
                return None
        else:
            if s < c:
                return None
    return sums


def _fraction_certificates(lp, sol):
    # lp_core._assert_certificates as it was in Fraction arithmetic: the
    # reference the integer check must agree with, message for message
    if set(sol.primal) != set(lp.columns):
        raise AssertionError("primal solution does not cover exactly the program's columns")
    x = {t: v for t in lp.columns if (v := sol.primal[t])}
    for t, v in x.items():
        if v < 0 and t not in lp.free:
            raise AssertionError(f"negative value for column {t!r}")
    slack = {}
    for r in lp.rows:
        lhs = sum(a * x[t] for t, a in r.coeffs.items() if t in x)
        slack[r.tag] = lhs - r.rhs
        if not (lhs <= r.rhs if r.rel == lp_core.LE else lhs >= r.rhs if r.rel == lp_core.GE
                else lhs == r.rhs):
            raise AssertionError(f"primal solution violates row {r.tag!r}")
    sums = _fraction_feasible_sums(lp, sol.dual)
    if sums is None:
        raise AssertionError("dual solution infeasible")
    for r in lp.rows:
        if slack[r.tag] and sol.dual[r.tag]:
            raise AssertionError(f"complementary slackness fails on row {r.tag!r}")
    for t in x:
        if lp.objective[t] != sums[t]:
            raise AssertionError(f"complementary slackness fails on column {t!r}")
    primal_obj = sum(lp.objective[t] * v for t, v in x.items())
    dual_obj = sum(r.rhs * sol.dual[r.tag] for r in lp.rows if r.rhs)
    if primal_obj != dual_obj:
        raise AssertionError("strong duality fails")
    if primal_obj != sol.objective:
        raise AssertionError("reported objective inconsistent")


def _verdict(check, lp, sol):
    try:
        check(lp, sol)
    except AssertionError as exc:
        return str(exc)
    return None


# a certified wide-rational solution with one primal value, one dual or the
# objective moved by 1/q either way: rows are scaled by large lcms, so a
# scaling slip in the integer check changes its verdict on some move
@settings(**COMMON, derandomize=True, phases=NO_SHRINK)
@given(**random_programs(wide, wide), q=st.integers(1, 10**6))
def test_integer_certificate_check_agrees_with_fraction_reference(
    n_cols, rows, objective, free, sense, q
):
    lp = _program(n_cols, rows, objective, free, sense)
    sol = lp_core.solve(lp)
    assume(sol.status == lp_core.OPTIMAL)
    assert _verdict(_fraction_certificates, lp, sol) is None
    for step in (Fraction(1, q), Fraction(-1, q)):
        moved = [sol._replace(objective=sol.objective + step)]
        moved += [sol._replace(primal={**sol.primal, t: v + step}) for t, v in sol.primal.items()]
        moved += [sol._replace(dual={**sol.dual, t: y + step}) for t, y in sol.dual.items()]
        for wrong in moved:
            expected = _verdict(_fraction_certificates, lp, wrong)
            assert _verdict(lp_core._assert_certificates, lp, wrong) == expected
