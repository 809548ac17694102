from fractions import Fraction

import pytest

from rcfilter import EdgeId, InfeasibleConstraintError, weighted_instance
from rcfilter import oracle
from rcfilter.oracle import SizeGuardError, check_incompatible

from corpus import alldiff_corpus, path_corpus


def test_three_var_assignment_tables(three_var_assignment, three_var_assignment_truth):
    report = oracle.enumerate(three_var_assignment)
    truth = three_var_assignment_truth
    assert report.z_star == truth["z_star"]
    assert len(report.supports) == truth["support_count"]
    assert report.z_restricted == truth["z_restricted"]
    assert set(report.ac_set) == truth["ac_set"]
    # exact reduced costs are restricted optima minus the optimum
    for e in three_var_assignment.edges:
        assert report.exact_rc[e] == report.z_restricted[e] - report.z_star


def test_six_vertex_dag_tables(six_vertex_dag, six_vertex_dag_truth):
    report = oracle.enumerate(six_vertex_dag)
    truth = six_vertex_dag_truth
    assert report.z_star == truth["z_star"]
    assert len(report.supports) == truth["support_count"]
    assert report.z_restricted == truth["z_restricted"]
    assert set(report.ac_set) == truth["ac_set"]


def test_alt_assignment_tables(
    three_var_assignment_alt, three_var_assignment_alt_truth
):
    report = oracle.enumerate(three_var_assignment_alt)
    truth = three_var_assignment_alt_truth
    assert report.z_star == truth["z_star"]
    assert len(report.supports) == truth["support_count"]
    assert report.z_restricted == truth["z_restricted"]
    assert set(report.ac_set) == truth["ac_set"]


def test_five_vertex_dag_tables(five_vertex_dag, five_vertex_dag_truth):
    report = oracle.enumerate(five_vertex_dag)
    truth = five_vertex_dag_truth
    assert report.z_star == truth["z_star"]
    assert len(report.supports) == truth["support_count"]
    assert report.z_restricted == truth["z_restricted"]
    assert set(report.ac_set) == truth["ac_set"]


def test_classification_splits_by_bound(three_var_assignment):
    report = oracle.enumerate(three_var_assignment)
    classes = report.classification()
    for e in three_var_assignment.edges:
        expected = (
            "consistent" if report.z_restricted[e] <= report.z_max else "inconsistent"
        )
        assert classes[e] == expected


def test_supports_are_deterministic(six_vertex_dag):
    first = oracle.enumerate(six_vertex_dag)
    second = oracle.enumerate(six_vertex_dag)
    assert first.supports == second.supports
    assert first == second


def test_no_support_raises():
    inst = weighted_instance(
        "path", 2, [0, 1, 2], [(0, 1, 0)], z_max=5, source=0, sink=2
    )
    with pytest.raises(InfeasibleConstraintError, match="no support"):
        oracle.enumerate(inst)


def test_costly_instance_keeps_restricted_values():
    inst = weighted_instance(
        "alldiff", 2, [0, 1],
        [(0, 0, 5), (0, 1, 5), (1, 0, 5), (1, 1, 5)], z_max=0,
    )
    report = oracle.enumerate(inst)
    assert report.z_star == 10
    assert report.ac_set == ()
    assert all(v == 10 for v in report.z_restricted.values())


def test_alldiff_size_guard():
    n = 9
    inst = weighted_instance(
        "alldiff", n, range(n),
        [(i, j, 0) for i in range(n) for j in range(n)], z_max=0,
    )
    with pytest.raises(SizeGuardError):
        oracle.enumerate(inst)


def test_path_size_guard():
    m = 13
    arcs = [(i, i + 1, 0) for i in range(m - 1)]
    inst = weighted_instance(
        "path", m - 1, range(m), arcs, z_max=0, source=0, sink=m - 1
    )
    with pytest.raises(SizeGuardError):
        oracle.enumerate(inst)


def test_incompatibility_check(three_var_assignment):
    # two edges of one variable never share a support
    assert check_incompatible(
        three_var_assignment, {EdgeId(1, 0), EdgeId(1, 1), EdgeId(1, 2)}
    )
    # edges of one support are jointly used, hence compatible
    assert not check_incompatible(
        three_var_assignment, {EdgeId(0, 0), EdgeId(1, 1)}
    )


def test_edge_on_no_support_gets_none_sentinel():
    # forcing (0,0) starves variable 1, whose only value is 0
    inst = weighted_instance(
        "alldiff", 2, [0, 1], [(0, 0, 1), (0, 1, 1), (1, 0, 1)], z_max=9
    )
    report = oracle.enumerate(inst)
    assert report.z_star == 2
    assert report.z_restricted[EdgeId(0, 0)] is None
    assert report.exact_rc[EdgeId(0, 0)] is None
    assert EdgeId(0, 0) not in report.ac_set
    assert report.z_restricted[EdgeId(0, 1)] == 2


def test_answers_are_int_when_integral():
    # the oracle's numbers take the package's one exact form, so they
    # compare and print like the filter's
    def normal(x):
        return type(x) is int or (type(x) is Fraction and x.denominator > 1)

    for inst in alldiff_corpus(60) + path_corpus(40):
        try:
            report = oracle.enumerate(inst)
        except InfeasibleConstraintError:
            continue
        values = [report.z_star, *(c for _, c in report.supports)]
        values += [x for x in report.z_restricted.values() if x is not None]
        values += [x for x in report.exact_rc.values() if x is not None]
        assert all(map(normal, values)), inst
