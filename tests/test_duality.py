import random
from fractions import Fraction

import pytest

from rcfilter import EdgeId, InfeasibleConstraintError, ac_by_lp, duality, lp_core
from rcfilter import formulations, oracle
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
)
from rcfilter.formulations import (
    bg01_encode,
    combinatorial_pass,
    family,
    find_support,
    primal_program,
)
from rcfilter.model import SatisfactionInstance, validate, weighted_instance

from corpus import (
    alldiff_corpus,
    layered_dag,
    path_corpus,
    permutation_alldiff,
    satisfaction_corpus,
    tight_satisfaction,
)


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
        for e in inst.edges:
            assert exact_reduced_cost(inst, e) == report.exact_rc[e]


def test_exact_reduced_cost_no_support():
    inst = weighted_instance(
        "alldiff", 2, [0, 1], [(0, 0, 1), (0, 1, 1), (1, 0, 1)], z_max=9
    )
    with pytest.raises(ValueError, match="no support"):
        exact_reduced_cost(inst, EdgeId(0, 0))


def test_family_identity_past_the_cap():
    # criterion 5's identity where the oracle cannot enumerate: for every
    # member of each domains set, w + r_e of the set's family dual (an LP)
    # equals the member's restricted optimum from the combinatorial pass;
    # the DAG has 121 sets, each a full-size solve, so a seeded sample of 30
    # keeps the test short
    alldiff = permutation_alldiff(24, seed=1)
    dag = layered_dag(20, seed=1)
    assert alldiff.n_vars > oracle.MAX_ALLDIFF_VARS
    assert len(dag.values) > oracle.MAX_PATH_VERTICES and len(dag.edges) > 340
    assert validate(alldiff) == validate(dag) == []
    dag_sets = random.Random(20261019).sample(family(dag, "domains"), 30)
    for inst, sets in ((alldiff, family(alldiff, "domains")), (dag, dag_sets)):
        run = combinatorial_pass(inst)
        for edge_set in sets:
            d = solve_family_dual(inst, edge_set)
            for e in edge_set:
                assert d.w + reduced_cost(inst, d, e) == run.optima[run.index[e]], (inst.kind, e)


def _assert_pass_dual_matches_the_lp(inst, edge_set, lp=True):
    # feasible, optimal (w = z*), and w + r_e on every member is the pass's
    # restricted optimum and, with lp, the family dual LP's w + r_e
    d = duality.pass_family_dual(inst, edge_set)
    assert is_dual_feasible(inst, d)
    run = combinatorial_pass(inst)
    assert d.w == run.z_star
    bounds = [d.w + reduced_cost(inst, d, e) for e in edge_set]
    assert bounds == [run.optima[run.index[e]] for e in edge_set]
    if lp:
        ref = solve_family_dual(inst, edge_set)
        assert bounds == [ref.w + reduced_cost(inst, ref, e) for e in edge_set]


def test_pass_duals_match_the_lp_on_every_member():
    sets = 0
    for inst in alldiff_corpus(200) + path_corpus(100):
        for strategy in ("domains", "layers") if inst.kind == "path" else ("domains",):
            for edge_set in family(inst, strategy):
                _assert_pass_dual_matches_the_lp(inst, edge_set)
                sets += 1
    assert sets > 1000


def test_pass_duals_match_the_lp_past_the_cap():
    # every set's pass-built dual is checked against the pass; the LP, at
    # full size, on a seeded sample of three sets per family
    rng = random.Random(20261020)
    instances = [permutation_alldiff(n, seed=1) for n in (20, 30, 40)]
    instances += [layered_dag(20, seed=0), layered_dag(40, seed=0)]
    assert [len(inst.edges) for inst in instances[3:]] == [354, 714]
    for inst in instances:
        assert validate(inst) == []
        for strategy in ("domains", "layers") if inst.kind == "path" else ("domains",):
            sets = family(inst, strategy)
            sampled = set(rng.sample(range(len(sets)), 3))
            for k, edge_set in enumerate(sets):
                _assert_pass_dual_matches_the_lp(inst, edge_set, lp=k in sampled)


def test_family_dual_is_feasible_on_every_buildable_instance(
    six_vertex_dag, three_var_assignment
):
    # a negative cycle would leave no feasible potentials, but no cycle can be
    # built: replace derives the topological order and raises as the
    # constructor does
    back = EdgeId(2, 1)  # would close 1 -> 2 -> 1 at total cost -1
    with pytest.raises(ValueError, match="cycle"):
        six_vertex_dag._replace(cost={**six_vertex_dag.cost, back: -1})
    # an assignment or a DAG has potentials under any costs, negative ones
    # too (validate rejects those, the family dual need not)
    for inst, e in ((six_vertex_dag, EdgeId(1, 2)), (three_var_assignment, EdgeId(1, 0))):
        negative = inst._replace(cost={**inst.cost, e: -9})
        assert validate(negative) == [f"edge {e}: cost must be a non-negative integer"]
        for f in negative.edges:
            solve_family_dual(negative, (f,))


def test_exact_reduced_cost_unknown_edge(three_var_assignment):
    with pytest.raises(ValueError):
        exact_reduced_cost(three_var_assignment, EdgeId(9, 9))


def test_worked_certificate_assignment(
    three_var_assignment_alt, three_var_assignment_alt_truth
):
    truth = three_var_assignment_alt_truth
    d = dual_solution(three_var_assignment_alt, truth["dual_u"], truth["dual_v"])
    edge = truth["certificate_edge"]
    witness = exactness_certificate(three_var_assignment_alt, d, edge)
    assert witness is not None
    assert set(witness.edges) == truth["certificate_witness"]
    value = reduced_cost(three_var_assignment_alt, d, edge)
    assert value == truth["certificate_value"]
    assert witness.cost == d.w + value


def test_worked_certificate_path(five_vertex_dag, five_vertex_dag_truth):
    truth = five_vertex_dag_truth
    d = dual_solution(five_vertex_dag, truth["dual_u"])
    edge = truth["certificate_edge"]
    witness = exactness_certificate(five_vertex_dag, d, edge)
    assert witness is not None
    assert set(witness.edges) == truth["certificate_witness"]
    assert reduced_cost(five_vertex_dag, d, edge) == truth["certificate_value"]


def test_certificate_detects_inexact_edge(
    three_var_assignment, three_var_assignment_truth
):
    # under the pinned dual, (0,1) carries r = 2 but its true increase is 3
    truth = three_var_assignment_truth
    d = dual_solution(three_var_assignment, truth["dual_u"], truth["dual_v"])
    assert exactness_certificate(three_var_assignment, d, EdgeId(0, 1)) is None
    # (1,2) carries r = 3 = exact increase
    assert exactness_certificate(three_var_assignment, d, EdgeId(1, 2)) is not None
    assert reduced_cost(three_var_assignment, d, EdgeId(1, 2)) == 3


def test_certificate_requires_optimality(three_var_assignment):
    d = dual_solution(three_var_assignment, {0: -5, 1: 0, 2: 0}, {0: 0, 1: 0, 2: 0})
    assert is_dual_feasible(three_var_assignment, d)  # feasible but w < z*
    with pytest.raises(ValueError, match="not optimal"):
        exactness_certificate(three_var_assignment, d, EdgeId(0, 0))


@pytest.mark.parametrize("costs, w, objective", [
    # z* = 3: w agrees with z*, but the zero potentials' objective is 0,
    # and the witness of (1, 1) costs 3, not w + r = 6
    ([(0, 0, 0), (0, 1, 3), (1, 0, 3), (1, 1, 3)], 3, 0),
    # z* = 2: no edge has reduced cost 0, so no witness, yet w claims z*
    ([(0, 0, 1), (0, 1, 3), (1, 0, 3), (1, 1, 1)], 2, 0),
])
def test_certificate_reads_w_from_the_potentials(costs, w, objective):
    inst = weighted_instance("alldiff", 2, [0, 1], costs, 5)
    dual = duality.DualSolution(u={0: 0, 1: 0}, v={0: 0, 1: 0}, w=w)
    assert is_dual_feasible(inst, dual) and duality.lower_bound(inst) == w
    message = f"^dual solution is not optimal: w = {w}, but its potentials give {objective}$"
    with pytest.raises(ValueError, match=message):
        exactness_certificate(inst, dual, EdgeId(1, 1))


_ALLDIFF_2X2 = weighted_instance("alldiff", 2, [0, 1], [(0, 0, 1), (0, 1, 3), (1, 0, 2), (1, 1, 1)], 9)
_PATH_3 = weighted_instance("path", 2, [0, 1, 2], [(0, 1, 1), (1, 2, 1)], 9, source=0, sink=2)


@pytest.mark.parametrize("inst, dual, missing", [
    (_ALLDIFF_2X2, duality.DualSolution(u={0: 0}, v={}, w=0), "variable 1"),
    (_ALLDIFF_2X2, duality.DualSolution(u={0: 0, 1: 0}, v={1: 0}, w=0), "value 0"),
    (_PATH_3, duality.DualSolution(u={0: 2, 2: 0}, v={}, w=2), "vertex 1"),
], ids=["variable", "value", "vertex"])
def test_a_missing_potential_is_named(inst, dual, missing):
    # a bare KeyError escaped both readers before
    message = f"^the dual has no potential for {missing}$"
    with pytest.raises(ValueError, match=message):
        exactness_certificate(inst, dual, inst.edges[0])
    with pytest.raises(ValueError, match=message):
        duality.checked_bounds(inst, inst.edges[:1], dual)


def test_certificate_requires_feasibility(three_var_assignment):
    # u_0 = 5 leaves edge (0, 0), of cost 0, a negative reduced cost
    d = dual_solution(three_var_assignment, {0: 5, 1: 0, 2: 0}, {0: 0, 1: 0, 2: 0})
    assert not is_dual_feasible(three_var_assignment, d)
    with pytest.raises(ValueError, match="dual solution is not feasible"):
        exactness_certificate(three_var_assignment, d, EdgeId(0, 0))


def test_edge_arguments_outside_the_instance_are_rejected(three_var_assignment):
    inst, stray = three_var_assignment, EdgeId(0, 7)
    with pytest.raises(ValueError, match=r"edge EdgeId\(i=0, j=7\) not in the instance"):
        shifted_cost_dual(inst, stray)
    dual = duality.pass_family_dual(inst, inst.edges[:1])
    message = r"member EdgeId\(i=0, j=7\) of the set is not an edge of the instance"
    with pytest.raises(AssertionError, match=message):
        duality.checked_bounds(inst, (stray,), dual)


@pytest.mark.parametrize("members, message", [
    (lambda inst: (), "empty edge set"),
    (lambda inst: (EdgeId(7, 8),), r"edge EdgeId\(i=7, j=8\) not in the instance"),
    (lambda inst: [tuple(inst.edges[0]), (9, 9)], r"edge EdgeId\(i=9, j=9\) not in the instance"),
], ids=["empty", "stray", "stray-after-a-member"])
def test_pass_family_dual_rejects_an_empty_set_or_a_stray_edge(
    three_var_assignment, five_vertex_dag, members, message
):
    # both kinds, where an empty set or a stray edge once gave an
    # IndexError, a KeyError or a dual built for nothing
    for inst in (three_var_assignment, five_vertex_dag):
        with pytest.raises(ValueError, match=message):
            duality.pass_family_dual(inst, members(inst))


def test_pass_family_dual_rejects_an_alldiff_set_on_two_variables(three_var_assignment):
    edges = three_var_assignment.edges
    pair = next((e, f) for e in edges for f in edges if e.i != f.i)
    with pytest.raises(ValueError, match="an alldiff set must lie on one variable"):
        duality.pass_family_dual(three_var_assignment, pair)


def test_plain_pairs_build_and_check_as_edge_ids(three_var_assignment, six_vertex_dag):
    # an edge given as a plain (i, j) pair is read as the EdgeId, as
    # shifted_cost_dual and reduced_cost read it
    for inst in (three_var_assignment, six_vertex_dag):
        for edge_set in family(inst, "domains"):
            plain = [tuple(e) for e in edge_set]
            dual = duality.pass_family_dual(inst, edge_set)
            assert duality.pass_family_dual(inst, plain) == dual
            assert duality.checked_bounds(inst, plain, dual) == duality.checked_bounds(
                inst, edge_set, dual
            )


def test_certificate_makes_one_support_search(monkeypatch, three_var_assignment):
    # optimality is w = z* from the pass; only the witness is searched for
    inst = three_var_assignment
    _, _, base = solve_primal(inst)
    calls = []
    real = formulations.find_support

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(formulations, "find_support", spy)
    for e in inst.edges:
        calls.clear()
        exactness_certificate(inst, base, e)
        assert len(calls) == 1


def test_shifted_dual_reaches_exact_value(three_var_assignment):
    report = oracle.enumerate(three_var_assignment)
    for e in three_var_assignment.edges:
        d = shifted_cost_dual(three_var_assignment, e)
        assert is_dual_feasible(three_var_assignment, d)
        assert d.w == report.z_star
        assert reduced_cost(three_var_assignment, d, e) == report.exact_rc[e]


def test_shifted_dual_on_path(five_vertex_dag):
    report = oracle.enumerate(five_vertex_dag)
    for e in five_vertex_dag.edges:
        d = shifted_cost_dual(five_vertex_dag, e)
        assert reduced_cost(five_vertex_dag, d, e) == report.exact_rc[e]


def _misread_optimum(monkeypatch, delta):
    # a pass whose z* is off by delta, to show the dual check catches it
    real = formulations.combinatorial_pass

    def misread(inst):
        run = real(inst)
        return run._replace(z_star=run.z_star + delta)

    monkeypatch.setattr(formulations, "combinatorial_pass", misread)


def test_shifted_dual_rejects_wrong_optimum(monkeypatch, three_var_assignment):
    # z* + 1: the pass-built dual's objective is the true z*, so the check
    # of every pass-built dual rejects it
    _misread_optimum(monkeypatch, 1)
    with pytest.raises(AssertionError, match="is not z\\* = 1"):
        shifted_cost_dual(three_var_assignment, EdgeId(0, 1))


def test_shifted_dual_rejects_optimum_below_true_value(monkeypatch, three_var_assignment):
    # z* - 1: the check rejects the pass-built dual the same way, and a
    # truly optimal dual is no longer taken for optimal
    _, _, base = solve_primal(three_var_assignment)
    _misread_optimum(monkeypatch, -1)
    with pytest.raises(AssertionError, match="is not z\\* = -1"):
        shifted_cost_dual(three_var_assignment, EdgeId(0, 1))
    with pytest.raises(ValueError, match="not optimal"):
        exactness_certificate(three_var_assignment, base, EdgeId(0, 1))


def test_family_dual_identity(three_var_assignment, six_vertex_dag):
    for inst in (three_var_assignment, six_vertex_dag):
        report = oracle.enumerate(inst)
        fam = family(inst, "domains")
        for edge_set in fam:
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
    # the paper's identity: a covering set's dual gives z* = w + min r_e
    inst = three_var_assignment
    z_star, _, _ = solve_primal(inst)
    for edge_set in family(inst, "domains"):  # every alldiff set covers
        d = solve_family_dual(inst, edge_set)
        assert d.w + min(reduced_cost(inst, d, e) for e in edge_set) == z_star == 0


def test_certificate_optimality_matches_primal_optimum():
    # complementary slackness decides optimality; it must agree with z*
    # on optimal base duals, on family duals (optimal or not) and on
    # feasible duals lowered below z*
    seen = {True: 0, False: 0}
    for inst in alldiff_corpus(40) + path_corpus(20):
        z_star, _, base = solve_primal(inst)
        duals = [base]
        duals += [solve_family_dual(inst, s) for s in family(inst, "domains")]
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
    # no solve, with or without inconsistent edges: consistency, every part
    # and the answer with no inconsistent edge all come from one
    # combinatorial pass, and no family dual program is ever built
    real = lp_core.solve
    calls = []

    def spy(lp):
        calls.append(lp)
        return real(lp)

    def no_family_dual(*args):
        raise AssertionError("a family dual program was built")

    monkeypatch.setattr(lp_core, "solve", spy)
    monkeypatch.setattr(duality, "family_dual_program", no_family_dual)
    seen = set()
    for sat in satisfaction_corpus(15):
        enc, _ = averaged_satisfaction_dual(sat)
        report = oracle.enumerate(enc)
        seen.add(any(report.z_restricted[e] > 0 for e in sat.edges))
    assert calls == []
    assert seen == {True, False}


def test_no_lp_in_shifted_and_averaged_duals(monkeypatch):
    # both are pass-built and checked: no LP solve on either corpus or on
    # the satisfaction corpus; each shifted dual is optimal and carries the
    # oracle's exact reduced cost on its edge, which is also the w + r of
    # the one-edge family dual LP, solved with the spy lifted
    real = lp_core.solve
    calls = []
    monkeypatch.setattr(lp_core, "solve", lambda lp: calls.append(lp) or real(lp))
    shifted = []
    for inst in alldiff_corpus(60) + path_corpus(40):
        report = oracle.enumerate(inst)
        for e in inst.edges:
            d = shifted_cost_dual(inst, e)
            assert d.w == report.z_star
            assert reduced_cost(inst, d, e) == report.exact_rc[e]
            shifted.append((inst, e, d))
    encoded = 0
    for sat in satisfaction_corpus(50):
        try:
            enc, _ = averaged_satisfaction_dual(sat)
        except InfeasibleConstraintError:
            continue
        for e in sat.edges:
            shifted_cost_dual(enc, e)
        encoded += 1
    assert calls == [] and encoded
    monkeypatch.setattr(lp_core, "solve", real)
    for inst, e, d in shifted:
        ref = solve_family_dual(inst, (e,))
        assert d.w + reduced_cost(inst, d, e) == ref.w + reduced_cost(inst, ref, e)
    assert len(shifted) > 500


def test_pass_duals_reject_an_edge_on_no_support():
    # 1 -> 2 reaches no sink: one guard, behind the builder, names the edge
    # for every pass-built dual, where validate names it too
    inst = weighted_instance(
        "path", 3, range(4), [(0, 1, 1), (1, 3, 1), (1, 2, 1)], z_max=9,
        source=0, sink=3,
    )
    assert validate(inst) == ["edge EdgeId(i=1, j=2) lies on no support"]
    message = "edge EdgeId\\(i=1, j=2\\) lies on no support"
    for build in (
        lambda: duality.pass_family_dual(inst, (EdgeId(0, 1),)),
        lambda: shifted_cost_dual(inst, EdgeId(0, 1)),
        lambda: ac_by_lp(inst),
    ):
        with pytest.raises(ValueError, match=message):
            build()
    # an alldiff whose two variables share one value has no support at all
    stuck = weighted_instance("alldiff", 2, [0, 1], [(0, 0, 1), (1, 0, 1)], z_max=9)
    with pytest.raises(ValueError, match="lies on no support"):
        shifted_cost_dual(stuck, EdgeId(0, 0))


def test_lp_route_on_an_edge_on_no_support_is_unbounded():
    # 1 -> 2 reaches no sink, so the family dual program of {(1, 2)} is unbounded
    inst = weighted_instance(
        "path", 3, range(4), [(0, 1, 1), (1, 3, 1), (1, 2, 1)], z_max=9,
        source=0, sink=3,
    )
    message = "family dual program is unbounded: an edge of the set lies on no support"
    with pytest.raises(ValueError, match=f"^{message}$"):
        solve_family_dual(inst, (EdgeId(1, 2),))


def test_exactness_certificate_without_a_support_is_infeasible():
    # no arc reaches the sink; zero potentials are feasible, but no dual is optimal
    inst = weighted_instance("path", 2, range(3), [(0, 1, 1)], z_max=9, source=0, sink=2)
    dual = dual_solution(inst, {0: 0, 1: 0})
    assert is_dual_feasible(inst, dual)
    with pytest.raises(InfeasibleConstraintError, match="support LP is infeasible"):
        exactness_certificate(inst, dual, EdgeId(0, 1))


def _family_solves(inst, strategy):
    """The reference route: one family dual LP per set of the family."""
    for edge_set in family(inst, strategy):
        solve_family_dual(inst, edge_set)


def _shifted_primal_solves(inst):
    """The support LP, then one copy per edge with its cost lowered by its exact reduced cost."""
    solve_primal(inst)
    for e in inst.edges:
        cost = {**inst.cost, e: inst.cost[e] - exact_reduced_cost(inst, e)}
        lp_core.solve(primal_program(inst, cost))


def test_every_solve_is_certified_once(monkeypatch):
    # every solve runs the certificate check once, on the program it solved
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
    jobs = [(_family_solves, inst, "domains") for inst in alldiff_corpus(20)]
    jobs += [
        (_family_solves, inst, s)
        for inst in path_corpus(20)
        for s in ("domains", "layers")
    ]
    jobs += [(_shifted_primal_solves, bg01_encode(sat)) for sat in satisfaction_corpus(20)]
    for run, *args in jobs:
        solved.clear()
        checked.clear()
        raised = False
        try:
            run(*args)
        except InfeasibleConstraintError:
            raised = True
        assert solved or raised
        assert len(checked) == len(solved)
        assert all(c is s for c, s in zip(checked, solved))


def test_each_solve_gets_the_only_program_built_for_it(monkeypatch):
    # every LP is built once, with its final objective, and then solved:
    # the programs handed to lp_core.solve are the programs built, in order,
    # and each is integral
    built, solved = [], []
    real_new = lp_core.LinearProgram.__new__
    real_solve = lp_core.solve

    def new(cls, *args, **kwargs):
        lp = real_new(cls, *args, **kwargs)
        built.append(lp)
        return lp

    def spy(lp):
        solved.append(lp)
        return real_solve(lp)

    monkeypatch.setattr(lp_core.LinearProgram, "__new__", new)
    monkeypatch.setattr(lp_core, "solve", spy)
    jobs = [(inst, "domains") for inst in alldiff_corpus(6)]
    jobs += [(inst, s) for inst in path_corpus(6) for s in ("domains", "layers")]
    for inst, strategy in jobs:
        _family_solves(inst, strategy)
    for sat in satisfaction_corpus(6):
        _shifted_primal_solves(bg01_encode(sat))
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


def test_averaged_dual_matches_the_fraction_average():
    # on 3-40 variables, the integer sums divided once equal Fraction(1, m)
    # times each sum of the m parts, made exact, and every value is in the
    # one normal form
    rng = random.Random(30)
    fractional = 0
    for _ in range(60):
        sat = tight_satisfaction(rng.randint(3, 40), rng)
        enc, d = averaged_satisfaction_dual(sat)
        run = combinatorial_pass(enc)
        variables = sorted({e.i for e in sat.edges if run.optima[run.index[e]] > 0})
        assert variables
        parts = [
            duality.pass_family_dual(enc, tuple(e for e in enc.edges if e.i == i))
            for i in variables
        ]
        k = Fraction(1, len(parts))
        ref = dual_solution(
            enc,
            {i: k * sum(p.u[i] for p in parts) for i in range(enc.n_vars)},
            {j: k * sum(p.v[j] for p in parts) for j in enc.values},
        )
        assert (d.u, d.v, d.w) == (ref.u, ref.v, ref.w)
        assert list(d.u) == list(ref.u) and list(d.v) == list(ref.v)
        assert d.w == 0
        assert all(map(_normal_form, [*d.u.values(), *d.v.values(), d.w]))
        fractional += any(type(x) is Fraction for x in d.u.values())
    assert fractional


def test_averaged_dual_all_consistent():
    sat = SatisfactionInstance(
        n_vars=2, values=(0, 1),
        edges=(EdgeId(0, 0), EdgeId(0, 1), EdgeId(1, 0), EdgeId(1, 1)),
    )
    enc, d = averaged_satisfaction_dual(sat)
    for e in sat.edges:
        assert reduced_cost(enc, d, e) == 0


def test_averaged_dual_infeasible_constraint(monkeypatch):
    # no original edge is consistent, so the bound is the pass's optimum of
    # the encoding, the oracle's z*, and no LP is solved
    solved, real_solve = [], lp_core.solve
    monkeypatch.setattr(lp_core, "solve", lambda lp: solved.append(lp) or real_solve(lp))
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
    assert solved == []


def test_averaged_dual_takes_plain_pairs():
    # (0, 1) lies on no perfect matching of the three pairs
    pairs = ((0, 0), (1, 1), (0, 1))
    plain = averaged_satisfaction_dual(SatisfactionInstance(2, (0, 1), pairs))
    named = SatisfactionInstance(2, (0, 1), tuple(EdgeId(*e) for e in pairs))
    assert plain == averaged_satisfaction_dual(named)
    enc, d = plain
    assert [reduced_cost(enc, d, e) > 0 for e in pairs] == [False, False, True]


@pytest.mark.parametrize("edges, message", [
    (((0, 0.0), (1, 1)), r"edge \(0, 0.0\) endpoint must be an integer, got 0.0"),
    (((True, 0), (1, 1)), r"edge \(True, 0\) endpoint must be an integer, got True"),
    (((0, 0), (2, 1)), r"edge EdgeId\(i=2, j=1\) not in the instance"),
])
def test_averaged_dual_rejects_bad_edges(edges, message):
    # a float or a bool endpoint is never read as 0 or 1
    with pytest.raises(ValueError, match=message):
        averaged_satisfaction_dual(SatisfactionInstance(2, (0, 1), edges))


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
                result = ac_by_lp(inst, strategy)
            except InfeasibleConstraintError as exc:
                assert exc.z_lb is None or _normal_form(exc.z_lb)
                continue
            assert result.z_lb is None or _normal_form(result.z_lb)
            for _, d in result.duals():
                _assert_dual_normal(inst, d)
    fractional = 0
    for sat in satisfaction_corpus(30):
        enc, d = averaged_satisfaction_dual(sat)
        _assert_dual_normal(enc, d)
        fractional += any(type(x) is Fraction for x in d.u.values())
    assert fractional
