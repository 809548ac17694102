import random
import time
from fractions import Fraction as F

import pytest

from rcfilter import EdgeId, lp_core, validate, weighted_instance
from rcfilter import formulations, oracle
from rcfilter.duality import (
    family_dual_program,
    lower_bound,
    reduced_cost,
    solve_family_dual,
    solve_primal,
)
from rcfilter.formulations import (
    bg01_encode,
    combinatorial_pass,
    edge_column,
    family,
    find_support,
    primal_program,
    worst_case_alldiff,
)
from rcfilter.model import InfeasibleConstraintError, SatisfactionInstance
from rcfilter.propagation import ac_by_lp

from corpus import (
    alldiff_corpus,
    layered_dag,
    path_corpus,
    permutation_alldiff,
    satisfaction_corpus,
    tight_satisfaction,
)
from reference_pass import reference_pass
from test_oracle import check_incompatible

CORPUS = alldiff_corpus(200) + path_corpus(100)


def test_assignment_program_shape(three_var_assignment):
    lp = primal_program(three_var_assignment, three_var_assignment.cost)
    assert lp.sense == lp_core.MIN
    assert len(lp.columns) == 7
    assert len(lp.rows) == 6  # one row per variable, one per value
    assert all(r.rel == lp_core.EQ and r.rhs == 1 for r in lp.rows)
    tags = [r.tag for r in lp.rows]
    assert ("u", 0) in tags and ("v", 2) in tags


def test_path_program_shape(six_vertex_dag):
    lp = primal_program(six_vertex_dag, six_vertex_dag.cost)
    assert len(lp.columns) == 8
    assert len(lp.rows) == 5  # all vertices except the sink
    by_tag = {r.tag: r for r in lp.rows}
    assert by_tag[("u", 0)].rhs == 1  # unit outflow at the source
    assert by_tag[("u", 2)].rhs == 0
    assert ("u", 5) not in by_tag  # no sink row
    # conservation at vertex 2: out-arc (2,5) minus in-arcs (0,2),(1,2)
    coeffs = by_tag[("u", 2)].coeffs
    assert coeffs[EdgeId(2, 5)] == 1
    assert coeffs[EdgeId(0, 2)] == -1
    assert coeffs[EdgeId(1, 2)] == -1


def test_edge_column_matches_rows(three_var_assignment, six_vertex_dag):
    for inst in (three_var_assignment, six_vertex_dag):
        lp = primal_program(inst, inst.cost)
        for e in inst.edges:
            col = edge_column(inst, e)
            for r in lp.rows:
                assert r.coeffs.get(e, F(0)) == col.get(r.tag, F(0))


def test_support_program_rejects_a_stray_value_or_an_unknown_kind():
    # value 5 is not in the value list, so its edge meets no value row
    inst = weighted_instance("alldiff", 2, [0, 1], [(0, 0, 1), (1, 1, 1), (1, 5, 1)], z_max=9)
    with pytest.raises(ValueError, match=r"^edge EdgeId\(i=1, j=5\) meets no row of the support LP$"):
        primal_program(inst, inst.cost)
    with pytest.raises(ValueError, match="^unknown kind 'ring'$"):
        formulations.row_rhs(inst._replace(kind="ring"))


def test_dual_program_mirrors_primal(three_var_assignment):
    inst = three_var_assignment
    primal = primal_program(inst, inst.cost)
    edge_set = (EdgeId(1, 0), EdgeId(1, 1), EdgeId(1, 2))  # every support uses one
    d = family_dual_program(inst, edge_set)
    assert d.sense == lp_core.MAX
    assert d.columns == tuple(r.tag for r in primal.rows)
    assert d.free == frozenset(d.columns)  # equality rows give free duals
    assert len(d.rows) == 7
    for row in d.rows:  # one row per edge: its primal column, bounded by its cost
        assert row.coeffs == edge_column(inst, row.tag)
        assert row.rhs == inst.cost[row.tag]
    sol_p = lp_core.solve(primal)
    sol_d = lp_core.solve(d._replace(objective=formulations.row_rhs(inst)))
    assert sol_p.objective == sol_d.objective  # strong duality across programs
    dual = solve_family_dual(inst, edge_set)
    recovered = dual.w + min(reduced_cost(inst, dual, e) for e in edge_set)
    assert recovered == sol_p.objective


def test_domain_family_alldiff(three_var_assignment):
    fam = family(three_var_assignment, "domains")
    assert [len(s) for s in fam] == [2, 3, 2]
    for s in fam:
        assert check_incompatible(three_var_assignment, set(s))


def test_domain_family_path(six_vertex_dag):
    fam = family(six_vertex_dag, "domains")
    assert [sorted((e.i, e.j) for e in s) for s in fam] == [
        [(0, 1), (0, 2), (0, 3)],
        [(1, 2), (1, 5)],
        [(2, 5)],
        [(3, 4)],
        [(4, 5)],
    ]
    for s in fam:
        assert check_incompatible(six_vertex_dag, set(s))


def test_layers_family(six_vertex_dag):
    fam = family(six_vertex_dag, "layers")
    assert [sorted((e.i, e.j) for e in s) for s in fam] == [
        [(0, 1), (0, 2), (0, 3)],
        [(1, 2), (1, 5), (3, 4)],
        [(2, 5), (4, 5)],
    ]
    for s in fam:
        assert check_incompatible(six_vertex_dag, set(s))


def test_layers_only_for_paths(three_var_assignment):
    with pytest.raises(ValueError, match="path"):
        family(three_var_assignment, "layers")


def test_layers_reject_an_arc_the_source_cannot_reach():
    # vertex 1 has no arc in, so arc (1, 2) has no depth
    inst = weighted_instance(
        "path", 3, [0, 1, 2, 3], [(0, 2, 1), (1, 2, 1), (2, 3, 1)],
        z_max=5, source=0, sink=3,
    )
    with pytest.raises(ValueError, match=r"arc EdgeId\(i=1, j=2\) leaves a vertex"):
        family(inst, "layers")


def test_unknown_strategy(three_var_assignment):
    with pytest.raises(ValueError):
        family(three_var_assignment, "rainbow")


def test_find_support_respects_forced_edge(three_var_assignment):
    allowed = set(three_var_assignment.edges)
    s = find_support(three_var_assignment, allowed, forced=EdgeId(1, 0))
    assert s is not None and EdgeId(1, 0) in s.edges
    assert len(s.edges) == 3
    assert s.cost == sum(three_var_assignment.cost[e] for e in s.edges)
    # restricting to the support-free subgraph fails
    assert find_support(
        three_var_assignment, {EdgeId(0, 0), EdgeId(1, 1)}, forced=EdgeId(0, 0)
    ) is None
    with pytest.raises(ValueError):
        find_support(three_var_assignment, {EdgeId(0, 0)}, forced=EdgeId(2, 2))


def test_find_support_on_path(six_vertex_dag):
    s = find_support(six_vertex_dag, set(six_vertex_dag.edges), forced=EdgeId(3, 4))
    got = sorted((e.i, e.j) for e in s.edges)
    assert got == [(0, 3), (3, 4), (4, 5)]
    assert s.cost == 2


def test_find_support_agrees_with_oracle(five_vertex_dag):
    report = oracle.enumerate(five_vertex_dag)
    for e in five_vertex_dag.edges:
        found = find_support(five_vertex_dag, set(five_vertex_dag.edges), forced=e)
        assert (found is not None) == (report.z_restricted[e] is not None)


def test_find_support_agrees_with_oracle_on_corpora():
    rng = random.Random(7)
    for inst in CORPUS:
        supports = [frozenset(s) for s in oracle.all_supports(inst)]
        subsets = [[e for e in inst.edges if rng.random() < p] for p in (0.7, 0.5)]
        for allowed in [list(inst.edges)] + subsets:
            inside = [s for s in supports if s <= set(allowed)]
            free = find_support(inst, allowed)
            assert (free is None) == (not inside)
            for e in allowed:
                found = find_support(inst, allowed, forced=e)
                if not any(e in s for s in inside):
                    assert found is None
                    continue
                assert found is not None and e in found.edges
                assert frozenset(found.edges) in inside
                assert len(found.edges) == len(set(found.edges))
                assert found.cost == sum(inst.cost[x] for x in found.edges)


def test_covering_flags_agree_with_oracle_on_corpora():
    # the sets partition the edges, no support meets a set twice, and the
    # domains sets are the edges of each tail with one, in variable order
    checked = 0
    for inst in CORPUS:
        supports = oracle.all_supports(inst)
        strategies = ("domains", "layers") if inst.kind == "path" else ("domains",)
        for strategy in strategies:
            fam = family(inst, strategy)
            assert sorted(e for edge_set in fam for e in edge_set) == sorted(inst.edges)
            for edge_set in fam:
                assert all(len(set(edge_set).intersection(s)) <= 1 for s in supports)
                checked += 1
            if strategy == "domains":
                tails = [k for k in inst.variables() if any(e.i == k for e in inst.edges)]
                assert [edge_set[0].i for edge_set in fam] == tails
                assert all(e.i == edge_set[0].i for edge_set in fam for e in edge_set)
    assert checked == 1441
    # a path vertex with no arc has no set
    isolated = weighted_instance(
        "path", 3, range(4), [(0, 1, 1), (1, 3, 1), (0, 3, 1)], z_max=9, source=0, sink=3
    )
    assert [edge_set[0].i for edge_set in family(isolated)] == [0, 1]


def test_domain_covering_is_fast_on_wide_dag():
    # source -> every middle vertex -> sink: the domains family is one set
    # per vertex, and a family that rebuilds the graph per vertex is quadratic
    width = 3000
    sink = width + 1
    triples = [(0, m, 1) for m in range(1, sink)] + [(m, sink, 1) for m in range(1, sink)]
    inst = weighted_instance(
        "path", sink, range(sink + 1), triples, z_max=2, source=0, sink=sink
    )
    start = time.perf_counter()
    fam = family(inst, "domains")
    assert time.perf_counter() - start < 2
    assert [len(edge_set) for edge_set in fam] == [width] + [1] * width


def test_validate_is_fast_on_wide_dag():
    # 3,000 searches, one per middle vertex: rebuilding the allowed edges
    # for each of them is quadratic in the arc count
    width = 3000
    sink = width + 1
    triples = [(0, m, 1) for m in range(1, sink)] + [(m, sink, 1) for m in range(1, sink)]
    inst = weighted_instance(
        "path", sink, range(sink + 1), triples, z_max=2, source=0, sink=sink
    )
    start = time.perf_counter()
    assert validate(inst) == []
    assert time.perf_counter() - start < 2


def test_validate_is_fast_on_deep_layered_dag():
    # width-2 layers, complete between neighbours: a search without memory
    # of dead ends doubles its time per layer
    depth = 40
    layers = [[0]] + [[2 * k + 1, 2 * k + 2] for k in range(depth)] + [[2 * depth + 1]]
    triples = [(a, b, 1) for up, down in zip(layers, layers[1:]) for a in up for b in down]
    sink = 2 * depth + 1
    inst = weighted_instance(
        "path", sink, range(sink + 1), triples, z_max=depth + 1, source=0, sink=sink
    )
    start = time.perf_counter()
    assert validate(inst) == []
    assert time.perf_counter() - start < 10


def test_validate_long_chain_path():
    # one path vertex per search level: a recursive search would exceed
    # Python's recursion limit
    n = 1500
    inst = weighted_instance(
        "path", n, range(n + 1), [(k, k + 1, 1) for k in range(n)],
        z_max=n, source=0, sink=n,
    )
    assert validate(inst) == []


def test_validate_long_chain_path_searches_nothing(monkeypatch):
    # validate reads the restricted optima, one pass over the chain, and
    # runs no support search at all
    n = 1500
    inst = weighted_instance(
        "path", n, range(n + 1), [(k, k + 1, 1) for k in range(n)],
        z_max=n, source=0, sink=n,
    )
    calls = []
    monkeypatch.setattr(formulations, "_path_support", lambda *a: calls.append(a))
    assert validate(inst) == []
    assert not calls


def test_validate_past_the_cap_searches_nothing(monkeypatch):
    # a union of 70 seeded permutations of 100 values, about 5,000 edges:
    # every edge is on a support, and one search per edge took seconds
    rng = random.Random(100)
    edges = set()
    for _ in range(70):
        p = list(range(100))
        rng.shuffle(p)
        edges.update(enumerate(p))
    inst = weighted_instance(
        "alldiff", 100, range(100), [(i, j, rng.randint(0, 9)) for i, j in sorted(edges)],
        z_max=0,
    )
    assert 4900 < len(inst.edges) < 5200
    calls = []
    monkeypatch.setattr(formulations, "_matching_support", lambda *a: calls.append(a))
    assert validate(inst) == []
    assert not calls


def _keep(inst, edges):
    # a copy of inst with only the given edges
    return inst._replace(cost={e: inst.cost[e] for e in edges})


def test_validate_unsupported_edges_match_one_search_per_edge(
    five_vertex_dag, three_var_assignment
):
    # dropping edges plants edges on no support; validate names exactly the
    # edges that a forced support search finds no support through
    rng = random.Random(11)
    cases = [
        _keep(inst, edges)
        for inst in (five_vertex_dag, three_var_assignment)
        for edges in (inst.edges, inst.edges[1:], inst.edges[:-2])
    ]
    for inst in CORPUS:
        cases.append(inst)
        for _ in range(3):
            cases.append(_keep(inst, [e for e in inst.edges if rng.random() < 0.7]))
    compared = planted = 0
    for inst in cases:
        problems = validate(inst)
        unsupported = [p for p in problems if p.endswith("lies on no support")]
        if unsupported != problems:
            continue  # a structural problem, such as an empty domain, comes first
        expected = [
            e for e in inst.edges if find_support(inst, inst.edges, forced=e) is None
        ]
        assert unsupported == [f"edge {e} lies on no support" for e in expected]
        compared += 1
        planted += bool(expected)
    assert compared > 500 and planted > 100
    # dropping (0, 1) strands both arcs out of vertex 1
    assert validate(_keep(five_vertex_dag, five_vertex_dag.edges[1:])) == [
        "edge EdgeId(i=1, j=4) lies on no support",
        "edge EdgeId(i=1, j=2) lies on no support",
    ]


def test_support_queries_reject_edges_outside_the_instance():
    inst = weighted_instance(
        "path", 2, range(3), [(0, 1, 1), (1, 2, 1)], z_max=2, source=0, sink=2
    )
    allowed = [(0, 1), (1, 2), (0, 2)]
    with pytest.raises(ValueError, match="not in the instance"):
        find_support(inst, allowed, forced=(0, 2))
    with pytest.raises(ValueError, match="not in the instance"):
        find_support(inst, allowed)


def test_find_support_long_augmenting_path():
    # the last variable can only take value 0, so the only perfect matching
    # shifts every variable to its next value: one augmenting path through
    # all n variables
    n = 1500
    triples = [(i, j, 0) for i in range(n - 1) for j in (i, i + 1)]
    triples.append((n - 1, 0, 0))
    inst = weighted_instance("alldiff", n, range(n), triples, z_max=0)
    s = find_support(inst, inst.edges)
    shift = tuple(EdgeId(i, i + 1) for i in range(n - 1)) + (EdgeId(n - 1, 0),)
    assert s is not None and s.edges == shift


def _optima_by_edge(inst):
    # the pass's restricted optima, by edge position, keyed by edge
    return dict(zip(inst.edges, combinatorial_pass(inst).optima))


def test_restricted_optima_match_oracle():
    # the cheapest support through every edge, None where none passes, on
    # the corpora and on copies with costs of both signs, which the pass
    # allows as the family dual does
    no_support = [
        weighted_instance("alldiff", 2, [0, 1], [(0, 0, 1), (0, 1, 1), (1, 0, 1)], z_max=9),
        # a dead end at 2, then an arc out of the sink
        weighted_instance(
            "path", 3, range(4), [(0, 1, 2), (1, 3, 1), (0, 2, 5), (1, 2, 1)],
            z_max=9, source=0, sink=3,
        ),
        weighted_instance(
            "path", 3, range(4), [(0, 1, 2), (1, 3, 1), (3, 2, 1)],
            z_max=9, source=0, sink=3,
        ),
    ]
    assert all(None in oracle.enumerate(inst).z_restricted.values() for inst in no_support)
    for inst in CORPUS + no_support:
        shifted = inst._replace(cost={e: c - 6 for e, c in inst.cost.items()})
        for variant in (inst, shifted):
            assert _optima_by_edge(variant) == oracle.enumerate(variant).z_restricted


def test_restricted_optima_without_a_perfect_matching():
    # variables 0 and 1 share their one value: no support, so no edge has one
    inst = weighted_instance(
        "alldiff", 3, range(3), [(0, 0, 1), (1, 0, 2), (2, 0, 0), (2, 1, 4), (2, 2, 3)],
        z_max=9,
    )
    with pytest.raises(InfeasibleConstraintError):
        oracle.enumerate(inst)
    assert _optima_by_edge(inst) == dict.fromkeys(inst.edges)
    negative = inst._replace(cost={e: -c for e, c in inst.cost.items()})
    assert _optima_by_edge(negative) == dict.fromkeys(inst.edges)


def test_optimum_is_the_support_lp_optimum():
    # z* from the pass equals solve_primal's, negative costs included, and
    # is None exactly when the support LP is infeasible
    infeasible = [
        weighted_instance(  # variables 0 and 1 share their one value
            "alldiff", 3, range(3),
            [(0, 0, 1), (1, 0, 2), (2, 0, 0), (2, 1, 4), (2, 2, 3)], z_max=9,
        ),
        weighted_instance(  # no arc reaches the sink
            "path", 2, range(3), [(0, 1, 1)], z_max=9, source=0, sink=2,
        ),
    ]
    seen = {True: 0, False: 0}
    for inst in CORPUS + infeasible:
        negative = inst._replace(cost={e: -c for e, c in inst.cost.items()})
        for copy in (inst, negative):
            try:
                z_star = solve_primal(copy)[0]
            except InfeasibleConstraintError:
                z_star = None
            assert combinatorial_pass(copy).z_star == z_star, copy
            seen[z_star is None] += 1
    assert seen[True] == 4 and seen[False] == 2 * len(CORPUS)


def _by_label(labels, entries):
    # a tuple by position as a map by label, without the positions not reached
    return {labels[p]: x for p, x in enumerate(entries) if x is not None}


def _assert_pass_matches_reference(inst):
    run, ref = combinatorial_pass(inst), reference_pass(inst)
    assert list(zip(inst.edges, run.optima)) == list(ref["optima"].items())
    assert dict(run.index) == {e: k for k, e in enumerate(inst.edges)}
    labels = run.labels
    assert labels == (inst.topo_order if inst.kind == "path" else tuple(sorted(set(inst.values))))
    assert len(run.out) == (len(labels) if inst.kind == "path" else inst.n_vars)
    by_tail = {
        labels[p] if inst.kind == "path" else p: tuple(inst.edges[k] for k in ks)
        for p, ks in enumerate(run.out)
        if ks
    }
    assert by_tail == ref["by_tail"]
    # only the kind's own fields default, to None, and the other kind's stay so
    assert type(run)._field_defaults == dict.fromkeys(
        ("value_of", "holder", "u", "v", "dists", "source", "sink", "down", "up")
    )
    tails = [labels[t] for t in run.tails] if inst.kind == "path" else list(run.tails)
    assert tails == [e.i for e in inst.edges]
    assert [labels[h] for h in run.heads] == [e.j for e in inst.edges]
    assert run.costs == tuple(inst.cost[e] for e in inst.edges)
    if inst.kind == "path":
        assert (run.source, run.sink) == (
            labels.index(inst.path.source), labels.index(inst.path.sink)
        )
        assert _by_label(labels, run.down) == ref["down"]
        assert _by_label(labels, run.up) == ref["up"]
        assert run.value_of is run.holder is run.u is run.v is run.dists is None
        return
    assert run.source is run.sink is run.down is run.up is None
    if "u" not in ref:  # no perfect matching
        assert run.value_of is run.holder is run.u is run.v is run.dists is None
        return
    assert {i: labels[p] for i, p in enumerate(run.value_of)} == ref["value_of"]
    assert _by_label(labels, run.holder) == ref["holder"]
    assert run.u == ref["u"]
    assert dict(zip(labels, run.v)) == ref["v"]
    assert [_by_label(labels, d) for d in run.dists] == ref["dists"]


def _labelled_copy(inst, labels):
    # inst with its values renamed by labels, in that order, and each edge's value with them
    rename = dict(zip(inst.values, labels))
    triples = [(e.i, rename[e.j], c) for e, c in inst.cost.items()]
    return weighted_instance("alldiff", inst.n_vars, labels, triples, inst.z_max)


def test_list_pass_matches_the_dict_pass_on_the_corpora():
    # every field of the pass, by position, equals the dict-keyed pass's by
    # label: corpora, costs of either sign, satisfaction encodings, and
    # layered DAGs and dense alldiffs past the enumeration cap
    rng = random.Random(20261021)
    instances = list(CORPUS)
    instances += [inst._replace(cost={e: -c for e, c in inst.cost.items()}) for inst in CORPUS[::7]]
    instances += [bg01_encode(sat) for sat in satisfaction_corpus(50)]
    instances += [bg01_encode(tight_satisfaction(n, rng)) for n in (6, 12, 20)]
    instances += [permutation_alldiff(30, seed=2), layered_dag(40, seed=0), layered_dag(12, seed=3)]
    for seed in (1, 2):
        dense = random.Random(seed)
        triples = [(i, j, dense.randint(0, 9)) for i in range(40) for j in range(40)]
        instances.append(weighted_instance("alldiff", 40, range(40), triples, z_max=0))
    for inst in instances:
        _assert_pass_matches_reference(inst)


def test_list_pass_matches_the_dict_pass_on_value_labels():
    # value positions follow the sorted labels, so ties in the heap break as
    # the labels do: shuffled, sparse and negative labels, with tied costs
    rng = random.Random(20261022)
    checked = 0
    for inst in alldiff_corpus(60) + [permutation_alldiff(12, seed=5)]:
        n = inst.n_vars
        tied = inst._replace(cost={e: c % 2 for e, c in inst.cost.items()})
        for labels in (
            tuple(reversed(range(n))),
            tuple(rng.sample(range(-50, 50), n)),
            tuple(-3 * k for k in range(n)),
        ):
            for base in (inst, tied):
                _assert_pass_matches_reference(_labelled_copy(base, labels))
                checked += 1
    assert checked == 6 * 61


@pytest.mark.parametrize("n, values, triples, matched", [
    # a repeated value: three labels for three variables, a matching exists
    (3, (0, 0, 1, 2), [(0, 0, 1), (0, 1, 2), (1, 1, 0), (1, 2, 4), (2, 2, 1), (2, 0, 3)], True),
    # a repeated value: two labels for three variables
    (3, (0, 0, 1), [(0, 0, 1), (1, 1, 0), (2, 0, 2)], False),
    # non-square: three values for two variables
    (2, (0, 1, 2), [(0, 0, 1), (0, 2, 2), (1, 1, 0)], False),
    # square, but variables 0 and 1 share their one value
    (3, (5, -1, 3), [(0, 5, 1), (1, 5, 2), (2, 5, 0), (2, -1, 4), (2, 3, 3)], False),
    # square with unsorted labels and every cost tied
    (3, (9, -4, 0), [(i, j, 2) for i in range(3) for j in (9, -4, 0)], True),
])
def test_list_pass_matches_the_dict_pass_on_label_edge_cases(n, values, triples, matched):
    inst = weighted_instance("alldiff", n, values, triples, z_max=9)
    _assert_pass_matches_reference(inst)
    assert (combinatorial_pass(inst).u is not None) == matched


def _shift_augmenting_distances(monkeypatch, step, held_only):
    # the pass's augmenting searches, which set the potentials, return every
    # distance (or each held value's) moved by step; they are the searches
    # that start with a value free
    real = formulations._alternating_distances

    def shifted(adj, u, v, holder, root):
        dist, via, free = real(adj, u, v, holder, root)
        if None in holder:
            dist = [
                d if d is None or (held_only and holder[j] is None) else d + step
                for j, d in enumerate(dist)
            ]
        return dist, via, free

    monkeypatch.setattr(formulations, "_alternating_distances", shifted)


@pytest.mark.parametrize("step, held_only, message", [
    # every distance: the root's potential overshoots, so the sum misses z*
    (1, False, "assignment potentials do not sum to the optimum"),
    # a held value's only: the moves cancel in the sum, not on the edges
    (-1, True, r"assignment potentials fail on edge EdgeId\(i=0, j=1\)"),
])
def test_assignment_pass_checks_its_potentials(monkeypatch, step, held_only, message):
    # both variables prefer value 0, so the second search passes its holder
    inst = weighted_instance(
        "alldiff", 2, range(2), [(0, 0, 0), (0, 1, 5), (1, 0, 0), (1, 1, 5)], z_max=9
    )
    _shift_augmenting_distances(monkeypatch, step, held_only)
    with pytest.raises(AssertionError, match=message):
        combinatorial_pass(inst)


@pytest.mark.parametrize("dist, message", [
    ([0, 4], r"shortest-path distances fail on arc \(0, 1\)"),
    ([0, 2], "shortest-path distances are not tight on a tree"),
])
def test_path_pass_checks_its_distances(dist, message):
    # one arc 0 -> 1 of cost 3: only d(1) = 3 passes; distances are lists by position
    formulations._assert_distances([0, 3], 0, [(0, 1, 3)])
    with pytest.raises(AssertionError, match=message):
        formulations._assert_distances(dist, 0, [(0, 1, 3)])


@pytest.mark.parametrize("source, sink", [(0, 5), (7, 1)])
def test_path_ends_off_the_vertices_are_rejected(source, sink):
    # the pass reads its ends' positions once, for every reader, and an end
    # that is not a vertex gets validate's message, not a KeyError
    inst = weighted_instance("path", 1, [0, 1], [(0, 1, 1)], 1, source=source, sink=sink)
    for reader in (combinatorial_pass, ac_by_lp, lower_bound, family):
        with pytest.raises(ValueError, match="^source or sink not among the vertices$"):
            reader(inst)


def test_restricted_optima_are_shared_and_read_only(three_var_assignment):
    optima = combinatorial_pass(three_var_assignment).optima
    assert combinatorial_pass(three_var_assignment).optima is optima
    with pytest.raises(TypeError):
        optima[0] = 0


def test_satisfaction_encoding_shape():
    sat = SatisfactionInstance(
        n_vars=2, values=(0, 1), edges=(EdgeId(0, 0), EdgeId(1, 1))
    )
    enc = bg01_encode(sat)
    assert enc.kind == "alldiff"
    assert len(enc.edges) == 4  # completed graph
    assert enc.z_max == 0
    assert enc.cost[EdgeId(0, 0)] == 0  # original edges keep cost 0
    assert enc.cost[EdgeId(0, 1)] == 1  # added edges cost 1
    rect = SatisfactionInstance(n_vars=1, values=(0, 1), edges=(EdgeId(0, 0),))
    with pytest.raises(ValueError):
        bg01_encode(rect)


def test_satisfaction_encoding_matches_the_checked_constructor():
    # built straight from its cost map, the encoding equals the one
    # weighted_instance builds from n^2 checked triples
    for sat in satisfaction_corpus(40):
        original = set(sat.edges)
        triples = [(i, j, int((i, j) not in original))
                   for i in range(sat.n_vars) for j in sat.values]
        ref = weighted_instance("alldiff", sat.n_vars, sat.values, triples, z_max=0)
        enc = bg01_encode(sat)
        assert enc == ref and enc.edges == ref.edges
        assert all(type(e) is EdgeId and type(c) is int for e, c in enc.cost.items())


@pytest.mark.parametrize(
    "n_vars, values, message",
    [
        (2, (0, 1.0), "value must be an integer"),
        (2, (0, "1"), "value must be an integer"),
        (2, (0, True), "value must be an integer"),
        (2.0, (0, 1), "n_vars must be an integer"),
        (True, (0,), "n_vars must be an integer"),
        (1, (0, 1), "square"),
        (3, (0, 1), "square"),
        (2, (1, 1), "duplicate values"),
    ],
)
def test_satisfaction_encoding_rejects_bad_input(n_vars, values, message):
    sat = SatisfactionInstance(n_vars=n_vars, values=values, edges=(EdgeId(0, 0),))
    with pytest.raises(ValueError, match=message):
        bg01_encode(sat)


def test_worst_case_shape():
    inst, cycle = worst_case_alldiff(3)
    assert inst.n_vars == 4
    assert len(inst.edges) == 16
    assert inst.z_max == 1
    for e in inst.edges:
        assert inst.cost[e] == (0 if e.i >= e.j else 1)
    assert set(cycle) == {
        EdgeId(1, 0), EdgeId(2, 1), EdgeId(3, 2), EdgeId(0, 3)
    }
    # the cycle is itself a support of cost 1
    assert sorted(e.i for e in cycle) == [0, 1, 2, 3]
    assert sorted(e.j for e in cycle) == [0, 1, 2, 3]
    assert sum(inst.cost[e] for e in cycle) == 1
    with pytest.raises(ValueError):
        worst_case_alldiff(1)
