import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from rcfilter import (
    EdgeId,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
    validate,
    weighted_instance,
)
from rcfilter import oracle
from rcfilter.model import topological_order
from rcfilter.propagation import INCONSISTENT, ac_by_lp

from corpus import path_corpus


def test_alldiff_construction_normalizes(three_var_assignment):
    inst = three_var_assignment
    assert inst.kind == "alldiff"
    assert inst.n_vars == 3
    assert inst.values == (0, 1, 2)
    assert len(inst.edges) == 7
    assert inst.cost[EdgeId(1, 0)] == 2
    assert list(inst.variables()) == [0, 1, 2]


def test_cost_is_read_only(three_var_assignment):
    # rows built once per instance would go stale if its costs could change
    with pytest.raises(TypeError):
        three_var_assignment.cost[EdgeId(0, 1)] = 0
    # the map given is copied, so changing it afterwards changes no instance
    cost = dict(three_var_assignment.cost)
    changed = three_var_assignment._replace(cost=cost)
    cost[EdgeId(0, 1)] = 0
    assert changed.cost[EdgeId(0, 1)] == 1
    assert changed == three_var_assignment


def test_duplicate_edges_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        weighted_instance("alldiff", 2, [0, 1], [(0, 0, 1), (0, 0, 2)], z_max=0)


def test_unknown_kind_rejected(three_var_assignment):
    with pytest.raises(ValueError, match="unknown kind"):
        weighted_instance("sudoku", 2, [0, 1], [], z_max=0)
    # built around the constructor, validate still says so
    assert validate(three_var_assignment._replace(kind="x")) == [
        "unknown kind 'x'"
    ]


def test_path_needs_endpoints(six_vertex_dag):
    with pytest.raises(ValueError, match="source and a sink"):
        weighted_instance("path", 1, [0, 1], [(0, 1, 0)], z_max=0)
    assert validate(six_vertex_dag._replace(path=None)) == [
        "path instance without source/sink metadata"
    ]


def test_path_variables_are_non_sink_vertices(six_vertex_dag):
    # one successor decision per vertex except the sink
    assert list(six_vertex_dag.variables()) == [0, 1, 2, 3, 4]
    assert six_vertex_dag.topo_order == (0, 1, 2, 3, 4, 5)


def test_topological_order_rejects_cycles():
    with pytest.raises(ValueError, match="cycle"):
        topological_order((0, 1), (EdgeId(0, 1), EdgeId(1, 0)))


def _naive_topological_order(vertices, arcs):
    # repeatedly place the smallest vertex whose predecessors are all placed
    order, placed = [], set()
    while len(order) < len(vertices):
        v = min(
            v for v in vertices
            if v not in placed and all(a.i in placed for a in arcs if a.j == v)
        )
        order.append(v)
        placed.add(v)
    return tuple(order)


def test_topological_order_matches_naive_reference():
    cases = [(inst.values, inst.edges) for inst in path_corpus(100)]
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 15)
        labels = rng.sample(range(40), n)  # a hidden order, labels not sorted
        arcs = [
            EdgeId(labels[a], labels[b])
            for a in range(n) for b in range(a + 1, n) if rng.random() < 0.3
        ]
        rng.shuffle(arcs)
        vertices = list(labels)
        rng.shuffle(vertices)
        cases.append((tuple(vertices), tuple(arcs)))
    for vertices, arcs in cases:
        assert topological_order(vertices, arcs) == _naive_topological_order(
            vertices, arcs
        )


def test_validate_clean_instances(
    three_var_assignment, six_vertex_dag, three_var_assignment_alt, five_vertex_dag
):
    for inst in (
        three_var_assignment,
        six_vertex_dag,
        three_var_assignment_alt,
        five_vertex_dag,
    ):
        assert validate(inst) == []


def test_validate_flags_rectangular_alldiff():
    inst = weighted_instance(
        "alldiff", 2, [0, 1, 2], [(0, 0, 0), (1, 1, 0)], z_max=0
    )
    assert any("exactly n_vars values" in p for p in validate(inst))


def test_validate_flags_negative_cost():
    inst = weighted_instance(
        "alldiff", 2, [0, 1], [(0, 0, -1), (0, 1, 0), (1, 0, 0), (1, 1, 0)], z_max=0
    )
    assert any("non-negative" in p for p in validate(inst))


def test_validate_flags_empty_domain():
    inst = weighted_instance(
        "alldiff", 2, [0, 1], [(0, 0, 0), (0, 1, 0)], z_max=0
    )
    assert any("empty domain" in p for p in validate(inst))


def test_validate_flags_negative_bound(three_var_assignment):
    triples = [
        (e.i, e.j, three_var_assignment.cost[e]) for e in three_var_assignment.edges
    ]
    bad = weighted_instance("alldiff", 3, [0, 1, 2], triples, z_max=-1)
    assert any("z_max" in p for p in validate(bad))


def test_validate_flags_unsupported_edge():
    # value 1 reachable only by variable 0, value 0 only shared: forcing (0,1)
    # leaves variable 1 stuck, so edge (0,1) lies on no support
    inst = weighted_instance(
        "alldiff", 2, [0, 1], [(0, 0, 0), (0, 1, 0), (1, 0, 0)], z_max=0
    )
    problems = validate(inst)
    assert any("lies on no support" in p for p in problems)


def test_validate_flags_dangling_arc():
    # arc into 2 exists but 2 cannot reach the sink
    inst = weighted_instance(
        "path",
        3,
        [0, 1, 2, 3],
        [(0, 1, 0), (1, 3, 0), (0, 2, 0)],
        z_max=0,
        source=0,
        sink=3,
    )
    assert any("lies on no support" in p for p in validate(inst))


def test_duplicate_path_vertices_rejected():
    with pytest.raises(ValueError, match="duplicate vertices"):
        weighted_instance(
            "path", 3, [0, 1, 1, 2], [(0, 1, 0), (1, 2, 0)],
            z_max=0, source=0, sink=2,
        )
    with pytest.raises(ValueError, match="duplicate vertices"):
        topological_order((0, 1, 1), ())
    # replace derives the order too, so it refuses them as well
    dag = weighted_instance("path", 2, [0, 1, 2], [(0, 1, 0), (1, 2, 0)],
                            z_max=0, source=0, sink=2)
    with pytest.raises(ValueError, match="duplicate vertices"):
        dag._replace(values=(0, 1, 1, 2))


@pytest.mark.parametrize(
    "arc, problem",
    [(EdgeId(2, 2), "cycle"), (EdgeId(4, 9), "outside the vertex list")],
)
def test_replace_rejects_arcs_the_constructor_rejects(six_vertex_dag, arc, problem):
    # the topological order is derived on every build, so an instance cannot
    # be assembled around weighted_instance's check
    with pytest.raises(ValueError, match=problem):
        six_vertex_dag._replace(cost={**six_vertex_dag.cost, arc: 0})


def test_replace_rederives_edges_and_topo_order():
    # replacing a chain's arcs must re-derive the order: (3,1) runs backwards
    # in the chain's, and a layers family built along it would put (1,4) and
    # (4,5), which lie on one path, into one set, marking (4,5) consistent
    # against the oracle
    chain = weighted_instance(
        "path", 5, range(6), [(k, k + 1, 0) for k in range(5)],
        z_max=5, source=0, sink=5,
    )
    arcs = [(0, 3, 0), (0, 4, 4), (1, 4, 2), (2, 4, 2), (3, 1, 3), (3, 2, 5),
            (3, 4, 4), (3, 5, 5), (4, 5, 2)]
    fresh = weighted_instance("path", 5, range(6), arcs, z_max=5, source=0, sink=5)
    rebuilt = chain._replace(cost=fresh.cost)
    assert rebuilt == fresh
    assert rebuilt.topo_order == (0, 3, 1, 2, 4, 5)
    assert validate(rebuilt) == []
    marks = ac_by_lp(rebuilt, "layers").marks
    assert marks[EdgeId(4, 5)] == INCONSISTENT
    assert dict(marks) == oracle.enumerate(rebuilt).classification()
    # plain tuple keys become EdgeIds, in the order given
    tupled = chain._replace(cost={(e.i, e.j): c for e, c in fresh.cost.items()})
    assert tupled == fresh
    assert all(type(e) is EdgeId for e in tupled.edges + tuple(tupled.cost))
    assert tupled.topo_order == fresh.topo_order
    with pytest.raises(ValueError, match="derived on every build"):
        fresh._replace(topo_order=(0, 3, 2, 1, 4, 5))


def test_edges_are_the_keys_of_cost_in_order(three_var_assignment):
    inst = three_var_assignment
    assert inst.edges == tuple(inst.cost)
    with pytest.raises(ValueError, match="derived on every build"):
        inst._replace(edges=inst.edges + (EdgeId(0, 2),))
    # the order fixes the LP column numbering, so it takes part in equality
    reordered = inst._replace(cost=dict(reversed(inst.cost.items())))
    assert reordered.edges == inst.edges[::-1]
    assert reordered != inst
    assert validate(reordered) == []


def test_self_loop_arc_is_a_cycle():
    # the constructor's topological sort already refuses it
    with pytest.raises(ValueError, match="cycle"):
        weighted_instance(
            "path",
            2,
            [0, 1, 2],
            [(0, 1, 0), (1, 1, 0), (1, 2, 0)],
            z_max=0,
            source=0,
            sink=2,
        )


def test_json_round_trip(six_vertex_dag, tmp_path):
    target = tmp_path / "inst.json"
    save_instance(six_vertex_dag, target)
    again = load_instance(target)
    assert again == six_vertex_dag


def test_dict_round_trip(three_var_assignment):
    data = instance_to_dict(three_var_assignment)
    assert data["kind"] == "alldiff"
    assert instance_from_dict(json.loads(json.dumps(data))) == three_var_assignment


def test_malformed_dict_rejected():
    with pytest.raises(ValueError, match="malformed"):
        instance_from_dict({"kind": "alldiff"})
    with pytest.raises(ValueError):  # path block missing entirely
        instance_from_dict({"kind": "path", "n_vars": 1, "values": [0, 1],
                            "edges": [[0, 1, 0]], "z_max": 0})


def test_non_integer_numbers_rejected():
    # truncating any of these would silently change the instance
    good = {"kind": "alldiff", "n_vars": 1, "values": [0],
            "edges": [[0, 0, 2]], "z_max": 1}
    assert validate(instance_from_dict(good)) == []
    for key, bad in (("edges", [[0, 0, 2.7]]), ("edges", [[0, 0, True]]),
                     ("z_max", 1.9), ("z_max", True),
                     ("n_vars", 1.5), ("n_vars", True)):
        with pytest.raises(ValueError, match="must be an integer"):
            instance_from_dict({**good, key: bad})


def test_load_rejects_bad_json(tmp_path):
    target = tmp_path / "broken.json"
    target.write_text("{not json")
    with pytest.raises(ValueError):
        load_instance(target)


def test_fractions_load_on_the_first_value_that_is_not_integral():
    # model binds Fraction on first use: an integral quotient imports
    # nothing, and the first fractional one, inside the averaged
    # satisfaction duals, imports fractions and rebinds model._fraction to
    # the class, so the duals are those pinned in the golden file
    tests = Path(__file__).resolve().parent
    probe = (
        "import sys\n"
        "from rcfilter import duality, model\n"
        "from corpus import satisfaction_corpus\n"
        "q = model._quotient(6, 3)\n"
        "assert type(q) is int and q == 2, q\n"
        "assert 'fractions' not in sys.modules\n"
        "duals = [duality.averaged_satisfaction_dual(s)[1] for s in satisfaction_corpus(50)]\n"
        "from fractions import Fraction\n"
        "assert model._fraction is Fraction\n"
        "q = model._quotient(7, 3)\n"
        "assert type(q) is Fraction and q == Fraction(7, 3), q\n"
        "x = model.exact(Fraction(4, 2))\n"
        "assert type(x) is int and x == 2, x\n"
        "from test_pinned_outputs import _dual_record\n"
        "for k, dual in enumerate(duals):\n"
        "    print(_dual_record(f'averaged {k}', dual))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])},
    )
    assert proc.returncode == 0, proc.stderr
    golden = (tests / "golden" / "duals.txt").read_text().splitlines()
    averaged = [line for line in golden if line.startswith("averaged ")]
    assert len(averaged) == 50
    assert proc.stdout.splitlines() == averaged
