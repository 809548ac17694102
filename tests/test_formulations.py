import random
import time
from fractions import Fraction as F

import pytest

from rcfilter import EdgeId, lp_core, validate, weighted_instance
from rcfilter import formulations, oracle
from rcfilter.formulations import (
    bg01_encode,
    dual_program,
    edge_column,
    family,
    find_support,
    primal_program,
    unsupported_edges,
    worst_case_alldiff,
)
from rcfilter.model import SatisfactionInstance

from corpus import alldiff_corpus, path_corpus

CORPUS = alldiff_corpus(200) + path_corpus(100)


def test_assignment_program_shape(three_var_assignment):
    lp = primal_program(three_var_assignment)
    assert lp.sense == lp_core.MIN
    assert len(lp.columns) == 7
    assert len(lp.rows) == 6  # one row per variable, one per value
    assert all(r.rel == lp_core.EQ and r.rhs == 1 for r in lp.rows)
    tags = [r.tag for r in lp.rows]
    assert ("u", 0) in tags and ("v", 2) in tags


def test_path_program_shape(six_vertex_dag):
    lp = primal_program(six_vertex_dag)
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
        lp = primal_program(inst)
        for e in inst.edges:
            col = edge_column(inst, e)
            for r in lp.rows:
                assert r.coeffs.get(e, F(0)) == col.get(r.tag, F(0))


def test_dual_program_mirrors_primal(three_var_assignment):
    d = dual_program(three_var_assignment)
    assert d.sense == lp_core.MAX
    assert set(d.columns) == {r.tag for r in primal_program(three_var_assignment).rows}
    assert d.free == frozenset(d.columns)  # equality rows give free duals
    assert len(d.rows) == 7
    sol_p = lp_core.solve(primal_program(three_var_assignment))
    sol_d = lp_core.solve(d)
    assert sol_p.objective == sol_d.objective  # strong duality across programs


def test_domain_family_alldiff(three_var_assignment):
    fam = family(three_var_assignment, "domains")
    assert fam.strategy == "domains"
    assert [len(s) for s in fam.sets] == [2, 3, 2]
    assert all(fam.covering)  # every assignment uses every variable
    for s in fam.sets:
        assert oracle.check_incompatible(three_var_assignment, set(s))


def test_domain_family_path(six_vertex_dag):
    fam = family(six_vertex_dag, "domains")
    assert [sorted((e.i, e.j) for e in s) for s in fam.sets] == [
        [(0, 1), (0, 2), (0, 3)],
        [(1, 2), (1, 5)],
        [(2, 5)],
        [(3, 4)],
        [(4, 5)],
    ]
    # only the source's out-arcs meet every path here
    assert fam.covering == (True, False, False, False, False)
    for s in fam.sets:
        assert oracle.check_incompatible(six_vertex_dag, set(s))


def test_layers_family(six_vertex_dag):
    fam = family(six_vertex_dag, "layers")
    assert [sorted((e.i, e.j) for e in s) for s in fam.sets] == [
        [(0, 1), (0, 2), (0, 3)],
        [(1, 2), (1, 5), (3, 4)],
        [(2, 5), (4, 5)],
    ]
    assert fam.covering == (True, False, False)
    for s in fam.sets:
        assert oracle.check_incompatible(six_vertex_dag, set(s))


def test_layers_only_for_paths(three_var_assignment):
    with pytest.raises(ValueError, match="path"):
        family(three_var_assignment, "layers")


def test_unknown_strategy(three_var_assignment):
    with pytest.raises(ValueError):
        family(three_var_assignment, "rainbow")


def test_covering_detects_mandatory_vertex():
    # diamond whose middle vertex 1 sits on every path
    inst = weighted_instance(
        "path",
        3,
        [0, 1, 2, 3],
        [(0, 1, 0), (1, 2, 1), (1, 3, 2), (2, 3, 0)],
        z_max=9,
        source=0,
        sink=3,
    )
    fam = family(inst, "domains")
    flags = dict(zip((s[0].i for s in fam.sets), fam.covering))
    assert flags[0] and flags[1]
    assert not flags[2]


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
    checked = 0
    for inst in CORPUS:
        supports = oracle.all_supports(inst)
        strategies = ("domains", "layers") if inst.kind == "path" else ("domains",)
        for strategy in strategies:
            fam = family(inst, strategy)
            for edge_set, flag in zip(fam.sets, fam.covering):
                met = all(set(edge_set).intersection(s) for s in supports)
                if strategy == "domains":
                    assert flag == met
                else:
                    assert met or not flag  # a flag is only ever safe
                checked += 1
    assert checked == 1441


def test_domain_covering_is_fast_on_wide_dag():
    # source -> every middle vertex -> sink: only the source is on every
    # path, and a flag that rebuilds the graph per vertex is quadratic
    width = 3000
    sink = width + 1
    triples = [(0, m, 1) for m in range(1, sink)] + [(m, sink, 1) for m in range(1, sink)]
    inst = weighted_instance(
        "path", sink, range(sink + 1), triples, z_max=2, source=0, sink=sink
    )
    start = time.perf_counter()
    fam = family(inst, "domains")
    assert time.perf_counter() - start < 2
    assert fam.covering == (True,) + (False,) * width


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


def test_validate_long_chain_path_searches_once(monkeypatch):
    # the first edge's support is the whole chain, which settles every edge
    n = 1500
    inst = weighted_instance(
        "path", n, range(n + 1), [(k, k + 1, 1) for k in range(n)],
        z_max=n, source=0, sink=n,
    )
    real = formulations._path_support
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(formulations, "_path_support", spy)
    assert validate(inst) == []
    assert len(calls) == 1


def test_unsupported_edges_matches_one_search_per_edge(
    five_vertex_dag, three_var_assignment
):
    rng = random.Random(11)
    cases = [
        (inst, allowed)
        for inst in (five_vertex_dag, three_var_assignment)
        for allowed in (inst.edges, inst.edges[1:], inst.edges[:-2])
    ]
    for inst in CORPUS:
        cases.append((inst, inst.edges))
        for _ in range(3):
            cases.append((inst, tuple(e for e in inst.edges if rng.random() < 0.7)))
    for inst, allowed in cases:
        expected = [
            e for e in allowed if find_support(inst, allowed, forced=e) is None
        ]
        assert unsupported_edges(inst, allowed) == expected
    # dropping (0, 1) strands both arcs out of vertex 1
    assert unsupported_edges(five_vertex_dag, five_vertex_dag.edges[1:]) == [
        EdgeId(1, 4), EdgeId(1, 2)
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
    with pytest.raises(ValueError, match="not in the instance"):
        unsupported_edges(inst, allowed)


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
