import random
import tracemalloc
from fractions import Fraction

import pytest

from rcfilter import (
    EdgeId,
    InfeasibleConstraintError,
    instance_from_dict,
    instance_to_dict,
    validate,
    weighted_instance,
)
from rcfilter import duality, formulations, lp_core, oracle
from rcfilter.formulations import family, worst_case_alldiff
from rcfilter.propagation import (
    CONSISTENT,
    INCONSISTENT,
    UNMARKED,
    _pick_next,
    ac_by_lp,
    lower_bound,
)

from corpus import alldiff_corpus, layered_dag, path_corpus, permutation_alldiff


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
        result = ac_by_lp(six_vertex_dag, strategy)
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
    layers = ac_by_lp(six_vertex_dag, "layers")
    domains = ac_by_lp(six_vertex_dag, "domains")
    assert layers.solves == 3
    assert domains.solves == 4


def test_every_dual_is_recorded(three_var_assignment):
    result = ac_by_lp(three_var_assignment)
    duals = list(result.duals())
    assert len(duals) == result.solves
    for edge_set, d in duals:
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


def test_negative_budget_rejected(three_var_assignment):
    # it would otherwise make no solve and leave every edge unmarked
    for budget in (-1, -3):
        with pytest.raises(ValueError, match=f"budget must be >= 0, got {budget}"):
            ac_by_lp(three_var_assignment, budget=budget)


@pytest.mark.parametrize("budget", [1.5, 0.5, 2.0, True, False, "1"])
def test_non_integer_budget_rejected(three_var_assignment, budget):
    # a float or a bool would otherwise be rounded up into a solve count
    with pytest.raises(ValueError, match=f"budget must be an integer, got {budget!r}"):
        ac_by_lp(three_var_assignment, budget=budget)


def test_budget_prefix_soundness(six_vertex_dag):
    checked = 0
    for inst in [six_vertex_dag] + alldiff_corpus(30) + path_corpus(20):
        try:
            full = ac_by_lp(inst)
        except InfeasibleConstraintError:
            continue
        truth = _oracle_marks(inst)
        for b in range(0, full.solves + 1):
            partial = ac_by_lp(inst, budget=b)
            assert partial.solves == min(b, full.solves)
            for e, m in partial.marks.items():
                if m != UNMARKED:
                    assert m == truth[e]  # anytime: all placed marks already correct
            assert (b >= full.solves) == partial.complete
            assert partial.complete == all(
                m != UNMARKED for m in partial.marks.values()
            )
        checked += 1
    assert checked >= 10


def _fresh(inst):
    # an equal instance that is a new object, so nothing kept for inst applies
    return instance_from_dict(instance_to_dict(inst))


def _outcome(inst):
    try:
        return ac_by_lp(inst)
    except InfeasibleConstraintError as exc:
        return exc.z_lb


def test_alternating_instances_filter_like_fresh_ones(three_var_assignment, six_vertex_dag):
    a = three_var_assignment
    for b in [six_vertex_dag] + alldiff_corpus(3) + path_corpus(3):
        fresh = [_outcome(_fresh(inst)) for inst in (a, b, a)]
        assert [_outcome(inst) for inst in (a, b, a)] == fresh


def test_replaced_costs_filter_like_a_fresh_instance(three_var_assignment):
    inst = three_var_assignment
    ac_by_lp(inst)  # its rows are kept for the next run on it
    cost = {**inst.cost, EdgeId(0, 1): 0, EdgeId(1, 0): 0}
    changed = inst._replace(cost=cost)
    fresh = weighted_instance(
        "alldiff", 3, [0, 1, 2], [(e.i, e.j, cost[e]) for e in inst.edges],
        z_max=inst.z_max,
    )
    result = ac_by_lp(changed)
    assert result == ac_by_lp(fresh)
    assert dict(result.marks) == _oracle_marks(fresh)
    assert result.marks[EdgeId(0, 1)] == CONSISTENT  # inconsistent under inst


def test_unknown_or_inapplicable_strategy_rejected(three_var_assignment):
    for strategy, message in (("layers", "only applies to path instances"),
                              ("rainbow", "unknown strategy 'rainbow'")):
        with pytest.raises(ValueError, match=message):
            ac_by_lp(three_var_assignment, strategy)
        with pytest.raises(ValueError, match=message):
            ac_by_lp(three_var_assignment, strategy, budget=0)


def test_infeasible_bound_is_distinct_outcome():
    inst = weighted_instance(
        "alldiff", 2, [0, 1],
        [(0, 0, 5), (0, 1, 5), (1, 0, 5), (1, 1, 5)], z_max=0,
    )
    with pytest.raises(InfeasibleConstraintError) as err:
        ac_by_lp(inst)
    assert err.value.z_lb == 10


def test_infeasible_path_exits_through_the_covering_set():
    # the domains family would pick the source set first (two unmarked arcs
    # against one in each other set), and z* = 6 refutes the bound before
    # that dual is built
    inst = weighted_instance(
        "path", 3, [0, 1, 2, 3],
        [(0, 1, 3), (0, 2, 3), (1, 3, 3), (2, 3, 3)],
        z_max=1, source=0, sink=3,
    )
    with pytest.raises(InfeasibleConstraintError) as err:
        ac_by_lp(inst)
    assert str(err.value) == "optimum 6 exceeds the cost bound 1"
    assert err.value.z_lb == 6


def test_layers_refutes_a_bound_below_zstar_with_no_dual(monkeypatch):
    # z* = 25; the layers family picks a larger layer than the depth-0 one
    # first, and every bound below z* is refuted before its dual is built,
    # with z_lb = z*
    inst = path_corpus(100)[9]
    fam = family(inst, "layers")
    assert _pick_next([len(edge_set) for edge_set in fam]) != 0
    monkeypatch.setattr(duality, "_pass_potentials", _no_dual)
    for z_max in (0, 8, 9, 24):
        with pytest.raises(InfeasibleConstraintError) as err:
            ac_by_lp(inst._replace(z_max=z_max), "layers")
        assert str(err.value) == f"optimum 25 exceeds the cost bound {z_max}"
        assert err.value.z_lb == 25
    with pytest.raises(AssertionError, match="a dual was built"):  # the spy is on the loop's path
        ac_by_lp(inst._replace(z_max=25), "layers")
    monkeypatch.undo()
    assert ac_by_lp(inst._replace(z_max=25), "layers").z_lb == 25


def _no_dual(*args):
    raise AssertionError("a dual was built")


def _solve_spy(monkeypatch):
    calls = []
    real = lp_core.solve

    def spy(lp):
        calls.append(lp)
        return real(lp)

    monkeypatch.setattr(lp_core, "solve", spy)
    return calls


def _runs(infeasible):
    # (instance, strategy, z*) over the corpora, where z* > z_max is infeasible
    for inst in alldiff_corpus(200) + path_corpus(100):
        z_star = oracle.enumerate(inst).z_star
        if (z_star > inst.z_max) != infeasible:
            continue
        for strategy in ("domains", "layers") if inst.kind == "path" else ("domains",):
            yield inst, strategy, z_star


def test_bound_below_zstar_is_refuted_with_no_dual(monkeypatch):
    # z* read from the pass before the first dual is built, whichever set is
    # picked first; no dual is built and no LP is solved, with or without a
    # budget of 1
    calls = _solve_spy(monkeypatch)
    monkeypatch.setattr(duality, "_pass_potentials", _no_dual)
    refuted = set()
    for inst, strategy, z_star in _runs(infeasible=True):
        for budget in (None, 1):
            with pytest.raises(InfeasibleConstraintError) as err:
                ac_by_lp(inst, strategy, budget)
            assert str(err.value) == f"optimum {z_star} exceeds the cost bound {inst.z_max}"
            assert err.value.z_lb == z_star
        refuted.add(strategy)
        with pytest.raises(AssertionError, match="a dual was built"):  # the spy is on the loop's path
            ac_by_lp(inst._replace(z_max=z_star), strategy)
    assert not calls and refuted == {"domains", "layers"}


def test_every_run_that_builds_a_dual_reports_zstar():
    # every returning run, budgeted or not, has z_lb = z* once a dual is built
    built = 0
    for inst, strategy, z_star in _runs(infeasible=False):
        for budget in (None, 1, 2):
            result = ac_by_lp(inst, strategy, budget)
            assert result.solves > 0 and result.z_lb == z_star
            built += 1
    assert built == 462  # 154 feasible runs, three budgets each


def test_filter_solves_no_lp(monkeypatch):
    # every dual comes from the pass: no LP solve on the whole corpus, under
    # either family, with the oracle's marks wherever the run returns
    calls = _solve_spy(monkeypatch)
    returned = 0
    for inst in alldiff_corpus(200) + path_corpus(100):
        try:
            truth = _oracle_marks(inst)
        except InfeasibleConstraintError:
            truth = None
        for strategy in ("domains", "layers") if inst.kind == "path" else ("domains",):
            try:
                marks = ac_by_lp(inst, strategy).marks
            except InfeasibleConstraintError:
                assert truth is None or CONSISTENT not in truth.values()
                continue
            assert dict(marks) == truth
            returned += 1
    assert not calls and returned > 100


def _sound(inst, edge_set, dual):
    """Whether the dual is a valid certificate for the set, checked without the filter."""
    try:
        objective = duality.dual_solution(inst, dual.u, dual.v).w
    except ValueError:  # a sink potential other than 0
        return False
    members = [dual.w + duality.reduced_cost(inst, dual, e) for e in edge_set]
    run = formulations.combinatorial_pass(inst)
    return (
        duality.is_dual_feasible(inst, dual)
        and dual.w == objective == run.z_star
        and members == [run.optima[run.index[e]] for e in edge_set]
    )


def _passes_check(inst, edge_set, dual):
    try:
        duality.checked_bounds(inst, edge_set, dual)
    except AssertionError:
        return False
    return True


def _past_cap_dag():
    dag = layered_dag(40, seed=0)
    return dag._replace(z_max=formulations.combinatorial_pass(dag).z_star + 5)


def test_past_cap_loop_keeps_no_dual():
    # the run records its sets, not their duals: the 714-arc DAG's 172
    # duals under domains, the pass included, peak below 0.5 MB where
    # keeping every dual's potentials took 1.7 MB
    inst = _past_cap_dag()
    tracemalloc.start()
    try:
        result = ac_by_lp(inst, "domains")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.solves == 172 and result.complete
    assert peak < 500_000, peak


@pytest.mark.parametrize("step", [-1, 1])
def test_loop_rejects_a_potential_moved_in_its_builder(monkeypatch, step):
    # the loop checks every dual its builder gives: a tail potential moved
    # on an alldiff misses w = z*; a head potential moved on a path moves
    # the bound of the member entering there, or drives a reduced cost
    # around it negative
    real = duality._pass_potentials

    def moved(instance, members):
        a, b, w = real(instance, members)
        run, a = formulations.combinatorial_pass(instance), list(a)
        if instance.kind == "alldiff":
            a[run.tails[members[0]]] += step
        else:
            a[run.heads[members[0]]] += step
            b = [-x for x in a]
        return a, b, w

    alldiff = permutation_alldiff(20, seed=1)
    alldiff = alldiff._replace(z_max=formulations.combinatorial_pass(alldiff).z_star + 3)
    for inst in (alldiff, _past_cap_dag()):
        ac_by_lp(inst)
        monkeypatch.setattr(duality, "_pass_potentials", moved)
        with pytest.raises(AssertionError):
            ac_by_lp(inst)
        monkeypatch.undo()


def test_check_rejects_a_moved_potential_or_a_swapped_member():
    # a potential moved by 1 (w kept, or w recomputed from the moved
    # potentials) or a member swapped for a non-member the dual is not exact
    # on must fail the check; a mutant the check passes must still be a
    # valid certificate, checked independently; seeded samples of four
    # potentials and four swaps per set
    rng = random.Random(20261020)
    instances = alldiff_corpus(40) + path_corpus(20)
    instances += [permutation_alldiff(20, seed=1), layered_dag(20, seed=0)]
    rejected = {"moved": 0, "swapped": 0}
    for inst in instances:
        for strategy in ("domains", "layers") if inst.kind == "path" else ("domains",):
            for edge_set in family(inst, strategy):
                dual = duality.pass_family_dual(inst, edge_set)
                assert _passes_check(inst, edge_set, dual)
                potentials = [("u", k) for k in dual.u] + [("v", k) for k in dual.v]
                mutants = []
                for side, k in rng.sample(potentials, min(4, len(potentials))):
                    for step in (-1, 1):
                        moved = {**getattr(dual, side), k: getattr(dual, side)[k] + step}
                        mutants.append(dual._replace(**{side: moved}))
                        u, v = (moved, dual.v) if side == "u" else (dual.u, moved)
                        if inst.kind == "path" and k == inst.path.sink:
                            continue  # dual_solution rejects a moved sink
                        w = duality.dual_solution(inst, u, v).w
                        mutants.append(dual._replace(**{side: moved}, w=w))
                for mutant in mutants:
                    passed = _passes_check(inst, edge_set, mutant)
                    assert passed == _sound(inst, edge_set, mutant)
                    rejected["moved"] += not passed
                others = [e for e in inst.edges if e not in edge_set]
                for _ in range(4 if others else 0):
                    pos = rng.randrange(len(edge_set))
                    swapped = edge_set[:pos] + (rng.choice(others),) + edge_set[pos + 1:]
                    passed = _passes_check(inst, swapped, dual)
                    assert passed == _sound(inst, swapped, dual)
                    rejected["swapped"] += not passed
    # of 6,790 moved potentials and 1,768 swaps; the rest are still sound
    assert rejected["moved"] > 6000 and rejected["swapped"] > 900


def test_budget_on_an_infeasible_instance(monkeypatch):
    # budget 0 builds no dual and so refutes nothing: every edge unmarked,
    # z_lb None (budget 1 raises as an unbudgeted run does: see
    # test_bound_below_zstar_is_refuted_with_no_dual)
    calls = _solve_spy(monkeypatch)
    for inst, strategy, _ in _runs(infeasible=True):
        result = ac_by_lp(inst, strategy, budget=0)
        assert result.solves == 0 and result.z_lb is None
        assert all(m == UNMARKED for m in result.marks.values())
    assert not calls


def test_fraction_costs_refute_with_an_exact_z_lb():
    # costs replaced by integral Fractions pass validate; z_lb is normalised
    # to an int either way, whether the bound is refuted or not
    base = weighted_instance(
        "alldiff", 2, [0, 1], [(0, 0, 2), (0, 1, 2), (1, 0, 2), (1, 1, 2)], z_max=3,
    )
    inst = base._replace(cost={e: Fraction(c) for e, c in base.cost.items()})
    assert validate(inst) == []
    with pytest.raises(InfeasibleConstraintError) as err:
        ac_by_lp(inst)
    assert str(err.value) == "optimum 4 exceeds the cost bound 3"
    assert type(err.value.z_lb) is int and err.value.z_lb == 4
    z_lb = ac_by_lp(inst._replace(z_max=4)).z_lb
    assert type(z_lb) is int and z_lb == 4


@pytest.mark.parametrize("values", [[0, 1, 2], [0, 0]])
def test_alldiff_without_a_square_value_side_has_no_support(values):
    # three values, or one repeated, for two variables: no assignment
    # fills every value row, so the pass gives no edge an optimum
    inst = weighted_instance(
        "alldiff", 2, values, [(0, 0, 1), (1, values[1], 1)], z_max=9
    )
    assert formulations.combinatorial_pass(inst).unsupported == tuple(inst.edges)
    for run in (ac_by_lp, lower_bound):
        with pytest.raises(ValueError, match=r"edge EdgeId\(i=0, j=0\) lies on no support"):
            run(inst)


def test_one_guard_reads_zstar_for_the_filter_and_the_bound():
    # duality.lower_bound reads z* with its guards for the filter (any
    # budget), the bound and every pass-built dual: they raise alike
    assert lower_bound is duality.lower_bound
    no_edge = weighted_instance("alldiff", 1, [0], [], z_max=0)
    arcless = weighted_instance("path", 1, [0, 1], [], z_max=5, source=0, sink=1)
    assert validate(arcless) == []
    for inst in (no_edge, arcless):
        for run in (ac_by_lp, lambda i: ac_by_lp(i, budget=0), lower_bound):
            with pytest.raises(InfeasibleConstraintError) as err:
                run(inst)
            assert str(err.value) == "no support: the instance has no edge"
            assert err.value.z_lb is None
    unsupported = weighted_instance("alldiff", 2, [0, 1, 2], [(0, 0, 1), (1, 1, 1)], z_max=9)
    pass_dual = lambda i: duality.pass_family_dual(i, [(0, 0)])
    for run in (ac_by_lp, lambda i: ac_by_lp(i, budget=0), lower_bound, pass_dual):
        with pytest.raises(ValueError) as err:
            run(unsupported)
        assert str(err.value) == "edge EdgeId(i=0, j=0) lies on no support"


def test_non_square_alldiff_costs_nothing_per_unused_variable():
    # 10**5 variables, two of them with an edge: the pass gives every unused
    # variable the one empty tuple and builds no per-variable list before it
    # sees the value side is not square (12.8 MB when it built two lists a variable)
    inst = weighted_instance("alldiff", 10**5, [0, 1, 2], [(0, 0, 0), (1, 1, 0)], z_max=0)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^edge EdgeId\(i=0, j=0\) lies on no support$"):
            ac_by_lp(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000, peak


def test_value_outside_the_value_list_is_rejected():
    # the pass read before the first dual is built rejects it; the family
    # dual program would fail on a row tag it lacks
    inst = weighted_instance("alldiff", 2, [0, 1], [(0, 0, 1), (1, 1, 1), (1, 5, 1)], z_max=9)
    with pytest.raises(ValueError, match=r"edge EdgeId\(i=1, j=5\) meets no row"):
        ac_by_lp(inst)


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
        result, reference = ac_by_lp(isolated, strategy), ac_by_lp(plain, strategy)
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


def test_no_set_is_solved_twice():
    # a set is picked only while it has an unmarked edge and its solve marks
    # all of them, so a set another solve already marked is never solved again
    for inst in alldiff_corpus(60) + path_corpus(40):
        try:
            truth = _oracle_marks(inst)
        except InfeasibleConstraintError:
            truth = None
        for strategy in ("domains", "layers") if inst.kind == "path" else ("domains",):
            for budget in (None, 1, 2):
                try:
                    result = ac_by_lp(inst, strategy, budget)
                except InfeasibleConstraintError:
                    assert truth is None or CONSISTENT not in truth.values()
                    continue
                solved = [frozenset(edge_set) for edge_set in result.sets_used]
                assert len(set(solved)) == len(solved)
                if result.complete:
                    assert dict(result.marks) == truth


def test_pick_order_matches_a_recount():
    # the kept per-set counts pick as a recount of every set's unmarked edges
    # would (the most unmarked edges, then the lowest index), replayed from
    # each run's own duals and marked as the loop marks
    dag = layered_dag(40, seed=0)
    instances = alldiff_corpus(200) + path_corpus(100)
    instances.append(dag._replace(z_max=formulations.combinatorial_pass(dag).z_star + 5))
    assert len(instances[-1].edges) == 714
    replayed = longest = 0
    for inst in instances:
        for strategy in ("domains", "layers") if inst.kind == "path" else ("domains",):
            try:
                result = ac_by_lp(inst, strategy)
            except InfeasibleConstraintError:
                continue
            longest = max(longest, result.solves)
            sets = family(inst, strategy)
            marks = dict.fromkeys(inst.edges, UNMARKED)
            for edge_set, dual in result.duals():
                counts = [sum(marks[e] == UNMARKED for e in s) for s in sets]
                assert edge_set == sets[counts.index(max(counts))]
                for e, bound in duality.checked_bounds(inst, edge_set, dual).items():
                    if marks[e] == UNMARKED and (bound > inst.z_max or e in edge_set):
                        marks[e] = INCONSISTENT if bound > inst.z_max else CONSISTENT
            assert marks == dict(result.marks) and UNMARKED not in marks.values()
            replayed += 1
    assert replayed > 150 and longest > 150  # the 714-arc DAG takes 172 duals


def test_worst_case_needs_one_solve_per_variable():
    for n in (2, 3, 4):
        inst, cycle = worst_case_alldiff(n)
        fam = family(inst, "domains")
        result = ac_by_lp(inst)
        assert result.solves == len(fam) == n + 1
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
    assert lower_bound(six_vertex_dag) == 0


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

