from dataclasses import replace
from fractions import Fraction

import pytest

from rcfilter import EdgeId, InfeasibleConstraintError, ac_by_lp, lp_core
from rcfilter import oracle
from rcfilter.duality import (
    averaged_satisfaction_dual,
    dual_solution,
    exact_reduced_cost,
    exactness_certificate,
    family_dual_program,
    is_dual_feasible,
    reduced_cost,
    shifted_cost_dual,
    solve_family_dual,
    solve_primal,
    zstar_from_family_dual,
)
from rcfilter.formulations import bg01_encode, family, find_support, primal_program
from rcfilter.model import SatisfactionInstance, weighted_instance

from corpus import alldiff_corpus, path_corpus, satisfaction_corpus


def test_reduced_costs_under_pinned_duals_assignment(
    three_var_assignment, three_var_assignment_truth
):
    truth = three_var_assignment_truth
    d = dual_solution(three_var_assignment, truth["dual_u"], truth["dual_v"])
    assert d.w == truth["z_star"]
    assert is_dual_feasible(three_var_assignment, d)
    for e, r in truth["dual_rc"].items():
        assert reduced_cost(three_var_assignment, d, e) == r


def test_reduced_costs_under_pinned_duals_path(six_vertex_dag, six_vertex_dag_truth):
    truth = six_vertex_dag_truth
    d = dual_solution(six_vertex_dag, truth["dual_u"])
    assert d.w == truth["z_star"]  # dual objective is the source potential
    assert is_dual_feasible(six_vertex_dag, d)
    for e, r in truth["dual_rc"].items():
        assert reduced_cost(six_vertex_dag, d, e) == r


def test_sink_potential_defaults_to_zero(six_vertex_dag):
    d = dual_solution(six_vertex_dag, {0: 0, 1: 0, 2: 0, 3: -1, 4: 1})
    assert d.u[5] == 0


def test_nonzero_sink_potential_rejected(six_vertex_dag, six_vertex_dag_truth):
    # the sink has no flow row; a potential there would shift the reduced
    # cost of every arc into it away from the LP's slack
    u = {**six_vertex_dag_truth["dual_u"], 5: 7}
    with pytest.raises(ValueError, match="sink potential"):
        dual_solution(six_vertex_dag, u)


def test_reduced_cost_unknown_edge(three_var_assignment, three_var_assignment_truth):
    truth = three_var_assignment_truth
    d = dual_solution(three_var_assignment, truth["dual_u"], truth["dual_v"])
    with pytest.raises(ValueError):
        reduced_cost(three_var_assignment, d, EdgeId(0, 2))


def test_infeasible_potentials_detected(three_var_assignment):
    d = dual_solution(three_var_assignment, {0: 99, 1: 0, 2: 0}, {0: 0, 1: 0, 2: 0})
    assert not is_dual_feasible(three_var_assignment, d)


def test_solve_primal_returns_optimal_dual(
    three_var_assignment, six_vertex_dag, five_vertex_dag, three_var_assignment_alt
):
    for inst in (
        three_var_assignment,
        six_vertex_dag,
        five_vertex_dag,
        three_var_assignment_alt,
    ):
        z, x, d = solve_primal(inst)
        assert z == 0
        assert is_dual_feasible(inst, d)
        assert d.w == z
        assert all(v in (0, 1) for v in x.values())


def test_exact_reduced_cost_matches_oracle(
    three_var_assignment, six_vertex_dag, three_var_assignment_alt, five_vertex_dag
):
    for inst in (
        three_var_assignment,
        six_vertex_dag,
        three_var_assignment_alt,
        five_vertex_dag,
    ):
        report = oracle.enumerate(inst)
        z_star, _, _ = solve_primal(inst)
        for e in inst.edges:
            assert exact_reduced_cost(inst, e, z_star) == report.exact_rc[e]


def test_exact_reduced_cost_no_support():
    inst = weighted_instance(
        "alldiff", 2, [0, 1], [(0, 0, 1), (0, 1, 1), (1, 0, 1)], z_max=9
    )
    z_star, _, _ = solve_primal(inst)
    with pytest.raises(ValueError, match="no support"):
        exact_reduced_cost(inst, EdgeId(0, 0), z_star)


def test_family_dual_rejects_a_negative_cycle(six_vertex_dag):
    # validate rejects any cycle; past it, a negative one leaves no feasible
    # potentials, so the family dual program is infeasible
    back = EdgeId(2, 1)  # closes 1 -> 2 -> 1 at total cost -1
    cyclic = replace(
        six_vertex_dag,
        edges=six_vertex_dag.edges + (back,),
        cost={**six_vertex_dag.cost, back: -1},
    )
    with pytest.raises(ValueError, match="infeasible"):
        solve_family_dual(cyclic, (EdgeId(1, 2),))


def test_exact_reduced_cost_unknown_edge(three_var_assignment):
    z_star, _, _ = solve_primal(three_var_assignment)
    with pytest.raises(ValueError):
        exact_reduced_cost(three_var_assignment, EdgeId(9, 9), z_star)


def test_worked_certificate_assignment(
    three_var_assignment_alt, three_var_assignment_alt_truth
):
    truth = three_var_assignment_alt_truth
    d = dual_solution(three_var_assignment_alt, truth["dual_u"], truth["dual_v"])
    cert = exactness_certificate(
        three_var_assignment_alt, d, truth["certificate_edge"]
    )
    assert cert.exact
    assert set(cert.witness.edges) == truth["certificate_witness"]
    assert cert.value == truth["certificate_value"]
    assert cert.witness.cost == d.w + cert.value


def test_worked_certificate_path(five_vertex_dag, five_vertex_dag_truth):
    truth = five_vertex_dag_truth
    d = dual_solution(five_vertex_dag, truth["dual_u"])
    cert = exactness_certificate(five_vertex_dag, d, truth["certificate_edge"])
    assert cert.exact
    assert set(cert.witness.edges) == truth["certificate_witness"]
    assert cert.value == truth["certificate_value"]


def test_certificate_detects_inexact_edge(
    three_var_assignment, three_var_assignment_truth
):
    # under the pinned dual, (0,1) carries r = 2 but its true increase is 3
    truth = three_var_assignment_truth
    d = dual_solution(three_var_assignment, truth["dual_u"], truth["dual_v"])
    cert = exactness_certificate(three_var_assignment, d, EdgeId(0, 1))
    assert not cert.exact
    assert cert.witness is None and cert.value is None
    # (1,2) carries r = 3 = exact increase
    cert2 = exactness_certificate(three_var_assignment, d, EdgeId(1, 2))
    assert cert2.exact and cert2.value == 3


def test_certificate_requires_optimality(three_var_assignment):
    d = dual_solution(three_var_assignment, {0: -5, 1: 0, 2: 0}, {0: 0, 1: 0, 2: 0})
    assert is_dual_feasible(three_var_assignment, d)  # feasible but w < z*
    with pytest.raises(ValueError, match="not optimal"):
        exactness_certificate(three_var_assignment, d, EdgeId(0, 0))


def test_shifted_dual_reaches_exact_value(three_var_assignment):
    report = oracle.enumerate(three_var_assignment)
    z_star, _, _ = solve_primal(three_var_assignment)
    for e in three_var_assignment.edges:
        d = shifted_cost_dual(three_var_assignment, e, z_star)
        assert is_dual_feasible(three_var_assignment, d)
        assert d.w == report.z_star
        assert reduced_cost(three_var_assignment, d, e) == report.exact_rc[e]


def test_shifted_dual_on_path(five_vertex_dag):
    report = oracle.enumerate(five_vertex_dag)
    z_star, _, _ = solve_primal(five_vertex_dag)
    for e in five_vertex_dag.edges:
        d = shifted_cost_dual(five_vertex_dag, e, z_star)
        assert reduced_cost(five_vertex_dag, d, e) == report.exact_rc[e]


def test_shifted_dual_rejects_wrong_optimum(three_var_assignment):
    z_star, _, _ = solve_primal(three_var_assignment)
    with pytest.raises(ValueError, match="not the support LP optimum"):
        shifted_cost_dual(three_var_assignment, EdgeId(0, 1), z_star + 1)


def test_shifted_dual_rejects_optimum_below_true_value(three_var_assignment):
    # the shifted solve then agrees with z_star, but its dual is not optimal
    z_star, _, _ = solve_primal(three_var_assignment)
    with pytest.raises(ValueError, match="not optimal"):
        shifted_cost_dual(three_var_assignment, EdgeId(0, 1), z_star - 1)


def test_family_dual_identity(three_var_assignment, six_vertex_dag):
    for inst in (three_var_assignment, six_vertex_dag):
        report = oracle.enumerate(inst)
        fam = family(inst, "domains")
        for edge_set in fam.sets:
            d = solve_family_dual(inst, edge_set)
            assert is_dual_feasible(inst, d)
            for e in edge_set:
                assert d.w + reduced_cost(inst, d, e) == report.z_restricted[e]


def test_family_dual_program_shapes(three_var_assignment):
    edge_set = (EdgeId(1, 0), EdgeId(1, 1), EdgeId(1, 2))
    lp = family_dual_program(three_var_assignment, edge_set)
    assert lp.sense == lp_core.MAX
    primal = primal_program(three_var_assignment, three_var_assignment.cost)
    # one column per primal row, in row order; equality rows give free duals
    assert lp.columns == tuple(r.tag for r in primal.rows)
    assert lp.free == frozenset(lp.columns)
    assert [r.tag for r in lp.rows] == list(three_var_assignment.edges)  # one row per edge
    with pytest.raises(ValueError):
        family_dual_program(three_var_assignment, ())
    with pytest.raises(ValueError):
        family_dual_program(three_var_assignment, (EdgeId(7, 7),))


def test_zstar_recovery_from_covering_set(three_var_assignment):
    fam = family(three_var_assignment, "domains")
    d = solve_family_dual(three_var_assignment, fam.sets[0])
    assert zstar_from_family_dual(three_var_assignment, fam.sets[0], d) == 0


def test_certificate_optimality_matches_primal_optimum():
    # complementary slackness decides optimality; it must agree with z*
    # on optimal base duals, on family duals (optimal or not) and on
    # feasible duals lowered below z*
    seen = {True: 0, False: 0}
    for inst in alldiff_corpus(40) + path_corpus(20):
        z_star, _, base = solve_primal(inst)
        duals = [base]
        duals += [solve_family_dual(inst, s) for s in family(inst, "domains").sets]
        start = inst.path.source if inst.path is not None else 0
        lowered = dict(base.u)
        lowered[start] -= 1
        duals.append(dual_solution(inst, lowered, base.v))
        for d in duals:
            if not is_dual_feasible(inst, d):
                continue
            optimal = d.w == z_star
            seen[optimal] += 1
            if optimal:
                exactness_certificate(inst, d, inst.edges[0])
            else:
                with pytest.raises(ValueError, match="not optimal"):
                    exactness_certificate(inst, d, inst.edges[0])
    assert seen[True] and seen[False]


def test_averaged_dual_separates_inconsistent_edges():
    # X1 and X2 fight over {0,1}, so X0 cannot use them
    sat = SatisfactionInstance(
        n_vars=3,
        values=(0, 1, 2),
        edges=(
            EdgeId(0, 0), EdgeId(0, 1), EdgeId(0, 2),
            EdgeId(1, 0), EdgeId(1, 1),
            EdgeId(2, 0), EdgeId(2, 1),
        ),
    )
    enc, d = averaged_satisfaction_dual(sat)
    assert d.w == 0
    assert d.u == {0: 0, 1: 1, 2: 1}
    assert d.v == {0: -1, 1: -1, 2: 0}
    assert is_dual_feasible(enc, d)
    report = oracle.enumerate(enc)
    for e in sat.edges:
        inconsistent = report.z_restricted[e] > 0
        r = reduced_cost(enc, d, e)
        assert (r > 0) == inconsistent
        if not inconsistent:
            assert r == 0


def test_averaged_dual_solve_count(monkeypatch):
    # the base solve alone when no edge is inconsistent; otherwise two per
    # inconsistent edge (the one-edge family dual behind its exact reduced
    # cost and the shifted solve of its shifted dual) and no base solve, as
    # a consistent edge fixes z* = 0; consistency is decided without LPs
    real = lp_core.solve
    calls = []

    def spy(lp):
        calls.append(lp)
        return real(lp)

    monkeypatch.setattr(lp_core, "solve", spy)
    seen = set()
    for sat in satisfaction_corpus(15):
        calls.clear()
        enc, _ = averaged_satisfaction_dual(sat)
        report = oracle.enumerate(enc)
        inconsistent = [e for e in sat.edges if report.z_restricted[e] > 0]
        assert len(calls) == (2 * len(inconsistent) if inconsistent else 1)
        seen.add(bool(inconsistent))
    assert seen == {True, False}


def test_every_solve_is_certified_and_shares_its_rows(monkeypatch):
    # skipped solves and shared rows skip no certificate: every solve runs
    # the certificate check once, on the program it solved, and the
    # programs of one kind built in one ac_by_lp run or one averaged dual
    # share a single rows tuple
    real_solve, real_check = lp_core.solve, lp_core._assert_certificates
    solved, checked = [], []

    def solve(lp):
        solved.append(lp)
        sol = real_solve(lp)
        assert sol.status == lp_core.OPTIMAL
        return sol

    def check(lp, sol):
        checked.append(lp)
        real_check(lp, sol)

    monkeypatch.setattr(lp_core, "solve", solve)
    monkeypatch.setattr(lp_core, "_assert_certificates", check)
    jobs = [(ac_by_lp, inst, family(inst, "domains")) for inst in alldiff_corpus(20)]
    jobs += [
        (ac_by_lp, inst, family(inst, s))
        for inst in path_corpus(20)
        for s in ("domains", "layers")
    ]
    jobs += [(averaged_satisfaction_dual, sat) for sat in satisfaction_corpus(20)]
    shared = {lp_core.MIN: 0, lp_core.MAX: 0}
    for run, *args in jobs:
        solved.clear()
        checked.clear()
        try:
            run(*args)
        except InfeasibleConstraintError:
            pass
        assert solved
        assert len(checked) == len(solved)
        assert all(c is s for c, s in zip(checked, solved))
        for sense in shared:
            kind = [lp for lp in solved if lp.sense == sense]
            assert all(lp.rows is kind[0].rows for lp in kind)
            shared[sense] += len(kind) > 1
    assert shared[lp_core.MIN] and shared[lp_core.MAX]


def test_each_solve_gets_the_only_program_built_for_it(monkeypatch):
    # every LP is built once, with its final objective, and then solved:
    # the programs handed to lp_core.solve are the programs built, in order,
    # and each is integral
    built, solved = [], []
    real_post_init = lp_core.LinearProgram.__post_init__
    real_solve = lp_core.solve

    def post_init(lp):
        built.append(lp)
        real_post_init(lp)

    def spy(lp):
        solved.append(lp)
        return real_solve(lp)

    monkeypatch.setattr(lp_core.LinearProgram, "__post_init__", post_init)
    monkeypatch.setattr(lp_core, "solve", spy)
    jobs = [(inst, "domains") for inst in alldiff_corpus(6)]
    jobs += [(inst, s) for inst in path_corpus(6) for s in ("domains", "layers")]
    for inst, strategy in jobs:
        try:
            ac_by_lp(inst, family(inst, strategy))
        except InfeasibleConstraintError:
            pass
    for sat in satisfaction_corpus(6):
        try:
            averaged_satisfaction_dual(sat)
        except InfeasibleConstraintError:
            pass
        enc = bg01_encode(sat)
        z_star, _, _ = solve_primal(enc)
        shifted_cost_dual(enc, sat.edges[0], z_star)
    assert len(solved) > len(jobs)
    assert len(built) == len(solved)
    assert all(b is s for b, s in zip(built, solved))
    # and every program the package builds is integral, so each scale is 1
    for lp in built:
        numbers = [*lp.objective.values()]
        for r in lp.rows:
            numbers += [r.rhs, *r.coeffs.values()]
        assert all(x.denominator == 1 for x in numbers), lp
        assert lp.cost_scale == 1 and all(r.scale == 1 for r in lp.rows), lp


def test_averaged_dual_all_consistent():
    sat = SatisfactionInstance(
        n_vars=2, values=(0, 1),
        edges=(EdgeId(0, 0), EdgeId(0, 1), EdgeId(1, 0), EdgeId(1, 1)),
    )
    enc, d = averaged_satisfaction_dual(sat)
    for e in sat.edges:
        assert reduced_cost(enc, d, e) == 0


def test_averaged_dual_infeasible_constraint():
    # no original edge is consistent, so the support LP is solved and its
    # optimum is the bound: the oracle's z* of the encoding
    sat = SatisfactionInstance(
        n_vars=2, values=(0, 1), edges=(EdgeId(0, 0), EdgeId(1, 0))
    )
    with pytest.raises(InfeasibleConstraintError) as exc:
        averaged_satisfaction_dual(sat)
    assert exc.value.z_lb == oracle.enumerate(bg01_encode(sat)).z_star == 1
    # with no original edge at all every variable takes a non-edge: z* = n
    empty = SatisfactionInstance(n_vars=3, values=(0, 1, 2))
    with pytest.raises(InfeasibleConstraintError) as exc:
        averaged_satisfaction_dual(empty)
    assert exc.value.z_lb == 3


def _normal_form(x):
    # an exact answer: an int when integral, else a Fraction that is not
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def _assert_dual_normal(inst, d):
    values = [*d.u.values(), *d.v.values(), d.w]
    values += [reduced_cost(inst, d, e) for e in inst.edges]
    assert all(map(_normal_form, values))


def test_answers_are_int_when_integral():
    # the filter's duals are integral on these networks; the averaged
    # satisfaction duals are not, and both must be in the one normal form
    for inst in alldiff_corpus(60) + path_corpus(40):
        assert type(find_support(inst, inst.edges).cost) is int
        for strategy in ("domains", "layers") if inst.kind == "path" else ("domains",):
            try:
                result = ac_by_lp(inst, family(inst, strategy))
            except InfeasibleConstraintError as exc:
                assert exc.z_lb is None or _normal_form(exc.z_lb)
                continue
            assert result.z_lb is None or _normal_form(result.z_lb)
            for _, d in result.duals_used:
                _assert_dual_normal(inst, d)
    fractional = 0
    for sat in satisfaction_corpus(30):
        enc, d = averaged_satisfaction_dual(sat)
        _assert_dual_normal(enc, d)
        fractional += any(type(x) is Fraction for x in d.u.values())
    assert fractional
