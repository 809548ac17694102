"""End-to-end gate: eight numbered checks, one printed PASS/FAIL line each.

Every check compares library output against hand-frozen figures or the
brute-force oracle, with exact rational equality (no tolerances).  Runtime
limits appear only where stated.  A module-level spy wraps the LP solver so
the final check can audit every minimization solved along the way.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from rcfilter import (
    EdgeId,
    InfeasibleConstraintError,
    lp_core,
    oracle,
    weighted_instance,
)
from rcfilter.duality import (
    averaged_satisfaction_dual,
    dual_solution,
    exactness_certificate,
    reduced_cost,
    shifted_cost_dual,
    solve_family_dual,
    solve_primal,
)
from rcfilter.formulations import family as make_family
from rcfilter.formulations import primal_program
from rcfilter.formulations import worst_case_alldiff
from rcfilter.propagation import CONSISTENT, ac_by_lp

from corpus import alldiff_corpus, path_corpus, satisfaction_corpus

RECORDED = []


@pytest.fixture(scope="module", autouse=True)
def _record_every_solve():
    real = lp_core.solve
    def spy(lp):
        sol = real(lp)
        RECORDED.append((lp, sol))
        return sol
    lp_core.solve = spy
    try:
        yield
    finally:
        lp_core.solve = real


@contextmanager
def _criterion(capfd, number, description):
    try:
        yield
    except BaseException:
        with capfd.disabled():
            print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    with capfd.disabled():
        print(f"ACCEPTANCE {number} PASS: {description}")


@pytest.fixture(scope="module")
def corpus():
    return list(alldiff_corpus(200)) + list(path_corpus(100))


@pytest.fixture(scope="module")
def corpus_reports(corpus):
    return [(inst, oracle.enumerate(inst)) for inst in corpus]


def test_criterion_1_assignment_figure_reduced_costs(
    capfd, three_var_assignment, three_var_assignment_truth
):
    desc = "displayed assignment dual reproduces all 7 edge labels, < 1 s"
    with _criterion(capfd, 1, desc):
        start = time.perf_counter()
        inst = three_var_assignment
        truth = three_var_assignment_truth
        d = dual_solution(inst, truth["dual_u"], truth["dual_v"])
        for e in inst.edges:
            assert reduced_cost(inst, d, e) == truth["dual_rc"][e]
        assert reduced_cost(inst, d, EdgeId(0, 1)) == 2
        assert reduced_cost(inst, d, EdgeId(1, 2)) == 3
        assert reduced_cost(inst, d, EdgeId(1, 0)) == 1
        assert time.perf_counter() - start < 1.0


def test_criterion_2_dag_figure_reduced_costs(
    capfd, six_vertex_dag, six_vertex_dag_truth
):
    desc = "displayed path dual reproduces all 8 arc labels, < 1 s"
    with _criterion(capfd, 2, desc):
        start = time.perf_counter()
        inst = six_vertex_dag
        truth = six_vertex_dag_truth
        d = dual_solution(inst, truth["dual_u"])
        for e in inst.edges:
            assert reduced_cost(inst, d, e) == truth["dual_rc"][e]
        for e in (EdgeId(0, 2), EdgeId(1, 5), EdgeId(3, 4)):
            assert reduced_cost(inst, d, e) == 2
        assert time.perf_counter() - start < 1.0


def test_criterion_3_worked_exactness_certificates(
    capfd,
    three_var_assignment_alt,
    three_var_assignment_alt_truth,
    five_vertex_dag,
    five_vertex_dag_truth,
):
    desc = "both worked certificates: witness sets and exact values"
    with _criterion(capfd, 3, desc):
        for inst, truth in (
            (three_var_assignment_alt, three_var_assignment_alt_truth),
            (five_vertex_dag, five_vertex_dag_truth),
        ):
            d = dual_solution(inst, truth["dual_u"], truth.get("dual_v"))
            edge = truth["certificate_edge"]
            witness = exactness_certificate(inst, d, edge)
            assert witness is not None
            assert reduced_cost(inst, d, edge) == truth["certificate_value"]
            assert set(witness.edges) == truth["certificate_witness"]
            assert witness.cost == truth["z_star"] + truth["certificate_value"]


def test_criterion_4_filter_matches_oracle_everywhere(
    capfd, three_var_assignment, six_vertex_dag, corpus_reports
):
    desc = (
        "full filtering equals oracle classification on both examples and "
        "300 random instances, each run < 1 s, suite < 60 s"
    )
    with _criterion(capfd, 4, desc):
        suite_start = time.perf_counter()
        cases = [
            (inst, oracle.enumerate(inst))
            for inst in (three_var_assignment, six_vertex_dag)
        ]
        cases += corpus_reports
        for inst, report in cases:
            truth = report.classification()
            run_start = time.perf_counter()
            try:
                result = ac_by_lp(inst)
            except InfeasibleConstraintError as exc:
                assert report.ac_set == (), inst
                assert exc.z_lb in (None, report.z_star), inst
                assert time.perf_counter() - run_start < 1.0
                continue
            assert time.perf_counter() - run_start < 1.0
            assert result.complete
            assert dict(result.marks) == truth, inst
            assert result.z_lb in (None, report.z_star), inst
        assert time.perf_counter() - suite_start < 60.0


def test_criterion_5_bound_shift_and_family_identities(capfd, corpus_reports):
    desc = (
        "on the corpus: 0 <= r <= exact value for optimal duals, the shifted "
        "dual attains it, and family duals carry every restricted optimum"
    )
    with _criterion(capfd, 5, desc):
        for inst, report in corpus_reports:
            optimal_duals = []
            z_star, _, base = solve_primal(inst)
            assert z_star == report.z_star
            optimal_duals.append(base)
            for e in inst.edges:
                assert report.exact_rc[e] is not None, (inst, e)
                shifted = shifted_cost_dual(inst, e)
                assert shifted.w == report.z_star
                assert reduced_cost(inst, shifted, e) == report.exact_rc[e]
                optimal_duals.append(shifted)
            for edge_set in make_family(inst, "domains"):
                d = solve_family_dual(inst, edge_set)
                for e in edge_set:
                    assert d.w + reduced_cost(inst, d, e) == report.z_restricted[e]
                if d.w == report.z_star:
                    optimal_duals.append(d)
            for d in optimal_duals:
                for e in inst.edges:
                    r = reduced_cost(inst, d, e)
                    assert 0 <= r <= report.exact_rc[e]


def test_criterion_6_family_size_and_solve_counts(capfd, six_vertex_dag):
    desc = (
        "hard family: n+1 duals, each exact on at most one cycle edge; "
        "layered path family finishes in 3 duals versus 4 for domains"
    )
    with _criterion(capfd, 6, desc):
        for n in range(3, 9):
            inst, cycle = worst_case_alldiff(n)
            result = ac_by_lp(inst)
            assert result.complete
            assert result.solves == n + 1
            assert all(m == CONSISTENT for m in result.marks.values())
            for _, d in result.duals():
                exact_on_cycle = [
                    e for e in cycle
                    if d.w + reduced_cost(inst, d, e) == Fraction(1)
                ]
                assert len(exact_on_cycle) <= 1
        dag = six_vertex_dag
        layered = ac_by_lp(dag, "layers")
        by_domain = ac_by_lp(dag, "domains")
        assert layered.complete and by_domain.complete
        assert layered.solves == 3
        assert by_domain.solves == 4
        assert dict(layered.marks) == dict(by_domain.marks)


def test_criterion_7_averaged_dual_separates_satisfaction_edges(capfd):
    desc = (
        "averaged satisfaction dual: positive reduced cost exactly on "
        "edges with no support, zero on the rest (50 instances)"
    )
    with _criterion(capfd, 7, desc):
        for sat in satisfaction_corpus(50):
            zero_cost = weighted_instance(
                "alldiff",
                sat.n_vars,
                sat.values,
                [(e.i, e.j, 0) for e in sat.edges],
                z_max=0,
            )
            report = oracle.enumerate(zero_cost)
            encoded, d = averaged_satisfaction_dual(sat)
            for e in sat.edges:
                r = reduced_cost(encoded, d, e)
                if report.z_restricted[e] is None:
                    assert r > 0, (sat, e)
                else:
                    assert r == 0, (sat, e)


def test_criterion_8_every_primal_solve_is_integral(capfd, corpus_reports):
    desc = "every recorded minimization over edge columns came back 0/1"
    with _criterion(capfd, 8, desc):
        # the support LP of each corpus instance and, per edge, its copy with
        # that edge's cost lowered by its exact reduced cost: no library call
        # solves those shifted programs any more, so they are solved here
        for inst, report in corpus_reports:
            solve_primal(inst)
            for e in inst.edges:
                cost = {**inst.cost, e: inst.cost[e] - report.exact_rc[e]}
                lp_core.solve(primal_program(inst, cost))
        primal_like = [
            (lp, sol)
            for lp, sol in RECORDED
            if lp.sense == lp_core.MIN
            and lp.columns
            and all(isinstance(c, EdgeId) for c in lp.columns)
        ]
        assert len(primal_like) >= 300
        checked = 0
        for lp, sol in primal_like:
            if sol.status != lp_core.OPTIMAL:
                continue
            checked += 1
            for value in sol.primal.values():
                assert value == 0 or value == 1, (lp.columns, sol.primal)
        assert checked > 0
