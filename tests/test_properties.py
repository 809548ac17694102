"""Randomized invariants over small generated instances.

Instances are built from unions of feasible solutions so that every edge lies
on at least one support; that is the documented precondition of the filtering
loop.  Assertions mirror the bound/exactness statements the implementation is
built on, checked against the brute-force oracle.
"""

from hypothesis import HealthCheck, given, settings
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
    d = shifted_cost_dual(inst, e, report.z_star)
    assert is_dual_feasible(inst, d)
    assert d.w == report.z_star
    assert reduced_cost(inst, d, e) == report.exact_rc[e]


@settings(**COMMON)
@given(inst=any_instance)
def test_family_duals_carry_restricted_optima(inst):
    report = oracle.enumerate(inst)
    fam = family(inst, "domains")
    for edge_set in fam.sets:
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
    cert = exactness_certificate(inst, d, e)
    r = reduced_cost(inst, d, e)
    exact = report.exact_rc[e] is not None and r == report.exact_rc[e]
    assert cert.exact == exact
    if cert.exact:
        assert cert.value == report.exact_rc[e]
        assert cert.witness.cost == report.z_star + report.exact_rc[e]


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


def _solve_and_certify(n_cols, rows, objective, free, sense):
    # free columns are split in two inside the tableau
    cols = tuple(f"x{k}" for k in range(n_cols))
    lp = lp_core.LinearProgram(
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
    # the exact certificate inside solve() raises on any inconsistency
    sol = lp_core.solve(lp)
    assert sol.status in (lp_core.OPTIMAL, lp_core.INFEASIBLE, lp_core.UNBOUNDED)
    if sol.status == lp_core.OPTIMAL:
        assert lp_core.dual_feasible(lp, sol.dual)


# small rationals, so pivots are not all units and phase one meets fractions
@settings(**COMMON)
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


@settings(**COMMON)
@given(**random_programs(wide, wide))
def test_solver_certifies_every_wide_rational_program(n_cols, rows, objective, free, sense):
    _solve_and_certify(n_cols, rows, objective, free, sense)
