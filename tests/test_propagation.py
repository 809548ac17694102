import random
from dataclasses import replace

import pytest

from rcfilter import EdgeId, InfeasibleConstraintError, validate, weighted_instance
from rcfilter import oracle
from rcfilter.formulations import family, worst_case_alldiff
from rcfilter.propagation import (
    CONSISTENT,
    INCONSISTENT,
    UNMARKED,
    ac_by_lp,
    lower_bound,
)

from corpus import alldiff_corpus, path_corpus


def _oracle_marks(inst):
    report = oracle.enumerate(inst)
    classes = report.classification()
    return classes


def test_full_filtering_assignment(three_var_assignment):
    result = ac_by_lp(three_var_assignment)
    assert result.complete
    assert result.z_lb == 0
    assert result.solves <= 3
    assert dict(result.marks) == _oracle_marks(three_var_assignment)
    inc = set(result.inconsistent_edges())
    assert inc == {EdgeId(0, 1), EdgeId(1, 0), EdgeId(1, 2), EdgeId(2, 1)}


def test_full_filtering_dag_both_families(six_vertex_dag):
    truth = _oracle_marks(six_vertex_dag)
    for strategy in ("domains", "layers"):
        result = ac_by_lp(six_vertex_dag, family(six_vertex_dag, strategy))
        assert result.complete
        assert dict(result.marks) == truth
        assert result.z_lb == 0
    inc = {
        e for e, m in truth.items() if m == INCONSISTENT
    }
    assert inc == {
        EdgeId(0, 2), EdgeId(0, 3), EdgeId(1, 5), EdgeId(3, 4), EdgeId(4, 5)
    }


def test_layer_count_versus_domain_count(six_vertex_dag):
    layers = ac_by_lp(six_vertex_dag, family(six_vertex_dag, "layers"))
    domains = ac_by_lp(six_vertex_dag, family(six_vertex_dag, "domains"))
    assert layers.solves == 3
    assert domains.solves == 5


def test_every_dual_is_recorded(three_var_assignment):
    result = ac_by_lp(three_var_assignment)
    assert len(result.duals_used) == result.solves
    for edge_set, d in result.duals_used:
        assert len(edge_set) >= 1
        assert d.w is not None


def test_generous_bound_keeps_everything():
    inst = weighted_instance(
        "alldiff", 3, [0, 1, 2],
        [(i, j, (i * 3 + j) % 4) for i in range(3) for j in range(3)],
        z_max=100,  # larger than any assignment's cost
    )
    result = ac_by_lp(inst)
    assert result.complete
    assert not result.inconsistent_edges()
    assert set(result.consistent_edges()) == set(inst.edges)


def test_budget_zero_untouched(three_var_assignment):
    result = ac_by_lp(three_var_assignment, budget=0)
    assert result.solves == 0
    assert not result.complete
    assert all(m == UNMARKED for m in result.marks.values())


def test_budget_prefix_soundness(six_vertex_dag):
    full = ac_by_lp(six_vertex_dag)
    truth = _oracle_marks(six_vertex_dag)
    for b in range(0, full.solves + 1):
        partial = ac_by_lp(six_vertex_dag, budget=b)
        assert partial.solves == min(b, full.solves)
        for e, m in partial.marks.items():
            if m != UNMARKED:
                assert m == truth[e]  # anytime: all placed marks already correct
        assert (b >= full.solves) == partial.complete


def test_alien_family_rejected(three_var_assignment, six_vertex_dag):
    fam = family(six_vertex_dag, "domains")
    with pytest.raises(ValueError, match="not in the instance"):
        ac_by_lp(three_var_assignment, fam)


def test_infeasible_bound_is_distinct_outcome():
    inst = weighted_instance(
        "alldiff", 2, [0, 1],
        [(0, 0, 5), (0, 1, 5), (1, 0, 5), (1, 1, 5)], z_max=0,
    )
    with pytest.raises(InfeasibleConstraintError) as err:
        ac_by_lp(inst)
    assert err.value.z_lb == 10


def test_infeasible_path_exits_through_the_covering_set():
    # the domains family solves the covering source set first (two unmarked
    # arcs against one in each other set), so the loop stops at the covering
    # check with z* = 6 and never reaches the wipe check
    inst = weighted_instance(
        "path", 3, [0, 1, 2, 3],
        [(0, 1, 3), (0, 2, 3), (1, 3, 3), (2, 3, 3)],
        z_max=1, source=0, sink=3,
    )
    with pytest.raises(InfeasibleConstraintError) as err:
        ac_by_lp(inst)
    assert str(err.value) == "optimum 6 exceeds the cost bound 1"
    assert err.value.z_lb == 6


def test_full_wipe_before_the_covering_set_is_solved():
    # z* = 25; the layers family solves a larger, non-covering layer first,
    # and under a low bound that solve marks every arc inconsistent, so the
    # loop ends before the covering depth-0 layer is solved
    inst = path_corpus(100)[9]
    fam = family(inst, "layers")
    assert fam.covering[0] and not any(fam.covering[1:])
    for z_max in (0, 8):
        with pytest.raises(InfeasibleConstraintError) as err:
            ac_by_lp(replace(inst, z_max=z_max), fam)
        assert str(err.value) == f"no support within the cost bound {z_max}"
        assert err.value.z_lb is None
    for z_max in (9, 24):
        with pytest.raises(InfeasibleConstraintError) as err:
            ac_by_lp(replace(inst, z_max=z_max), fam)
        assert str(err.value) == f"optimum 25 exceeds the cost bound {z_max}"
        assert err.value.z_lb == 25


def test_isolated_path_vertex_changes_nothing():
    # vertex 9 has no arcs at all: validate accepts it, and both families
    # skip it, so marks, solve counts and sets match the instance without it
    arcs = [(0, 1, 0), (1, 3, 1), (0, 3, 2)]
    plain = weighted_instance("path", 2, [0, 1, 3], arcs, 1, source=0, sink=3)
    isolated = weighted_instance("path", 3, [0, 1, 3, 9], arcs, 1, source=0, sink=3)
    assert validate(isolated) == []
    for strategy in ("domains", "layers"):
        fam = family(isolated, strategy)
        assert fam == family(plain, strategy)
        result, reference = ac_by_lp(isolated, fam), ac_by_lp(plain, fam)
        assert result.marks == reference.marks
        assert result.solves == reference.solves


def _unvalidated_instance(rng):
    """A small alldiff or DAG instance with random edges, often failing validate."""
    if rng.random() < 0.5:
        n = rng.randint(2, 4)
        edges = [(i, j) for i in range(n) for j in range(n) if rng.random() < 0.7]
        triples = [(i, j, rng.randint(0, 6)) for i, j in edges]
        return weighted_instance("alldiff", n, range(n), triples, z_max=rng.randint(0, 12))
    m = rng.randint(3, 6)
    arcs = [(i, j) for i in range(m) for j in range(i + 1, m) if rng.random() < 0.6]
    triples = [(i, j, rng.randint(0, 6)) for i, j in arcs]
    return weighted_instance(
        "path", m - 1, range(m), triples, z_max=rng.randint(0, 12), source=0, sink=m - 1
    )


def test_unsupported_edges_are_rejected_never_mislabelled():
    # an edge on no support has no restricted optimum, so the loop must
    # refuse the instance rather than mark from an unbounded family dual
    rng = random.Random(20261018)
    valid = rejected = 0
    for _ in range(400):
        inst = _unvalidated_instance(rng)
        problems = validate(inst)
        valid += not problems
        try:
            truth = _oracle_marks(inst)
        except InfeasibleConstraintError:
            truth = None  # no support at all
        try:
            marks = ac_by_lp(inst).marks
        except ValueError:
            assert problems
            rejected += 1
            continue
        except InfeasibleConstraintError:
            assert truth is None or CONSISTENT not in truth.values()
            continue
        assert marks == truth
    assert rejected and valid


def test_repeated_and_one_edge_sets_are_solved_at_most_once():
    # a set is picked only while it has an unmarked edge and its solve marks
    # all of them, so neither a repeated set nor a set another solve already
    # marked is ever solved again
    rng = random.Random(20261019)
    for inst in alldiff_corpus(60) + path_corpus(40):
        fam = family(inst, "domains")
        k = rng.randrange(len(fam.sets))
        fam = replace(
            fam,
            sets=fam.sets + (fam.sets[k], (rng.choice(inst.edges),)),
            covering=fam.covering + (fam.covering[k], False),
        )
        try:
            truth = _oracle_marks(inst)
        except InfeasibleConstraintError:
            truth = None
        for budget in (None, 1, 2):
            try:
                result = ac_by_lp(inst, fam, budget)
            except InfeasibleConstraintError:
                assert truth is None or CONSISTENT not in truth.values()
                continue
            solved = [frozenset(edge_set) for edge_set, _ in result.duals_used]
            assert len(set(solved)) == len(solved)
            if result.complete:
                assert dict(result.marks) == truth


def test_worst_case_needs_one_solve_per_variable():
    for n in (2, 3, 4):
        inst, cycle = worst_case_alldiff(n)
        fam = family(inst, "domains")
        result = ac_by_lp(inst, fam)
        assert result.solves == len(fam.sets) == n + 1
        assert result.complete
        assert not result.inconsistent_edges()


def test_marks_never_flip(six_vertex_dag):
    # growing budgets only ever add marks
    previous = {}
    for b in range(0, 6):
        marks = ac_by_lp(six_vertex_dag, budget=b).marks
        for e, m in previous.items():
            if m != UNMARKED:
                assert marks[e] == m
        previous = marks


def test_lower_bound_examples(three_var_assignment, five_vertex_dag, six_vertex_dag):
    assert lower_bound(three_var_assignment) == 0
    assert lower_bound(five_vertex_dag) == 0
    assert lower_bound(six_vertex_dag, family(six_vertex_dag, "layers")) == 0


def test_lower_bound_shifts_with_uniform_variable_shift(three_var_assignment):
    # adding d to every cost of one variable adds exactly d to the optimum
    delta = 7
    triples = [
        (e.i, e.j, three_var_assignment.cost[e] + (delta if e.i == 1 else 0))
        for e in three_var_assignment.edges
    ]
    shifted = weighted_instance("alldiff", 3, [0, 1, 2], triples, z_max=99)
    assert lower_bound(shifted) == lower_bound(three_var_assignment) + delta


def test_lower_bound_equals_oracle_optimum():
    inst = weighted_instance(
        "alldiff", 3, [0, 1, 2],
        [(i, j, (2 * i + j) % 5 + 1) for i in range(3) for j in range(3)],
        z_max=50,
    )
    assert lower_bound(inst) == oracle.enumerate(inst).z_star


def test_lower_bound_needs_covering_set(six_vertex_dag):
    fam = family(six_vertex_dag, "domains")
    stripped = type(fam)(
        sets=fam.sets[1:], covering=fam.covering[1:], strategy=fam.strategy
    )
    with pytest.raises(ValueError, match="covering"):
        lower_bound(six_vertex_dag, stripped)
