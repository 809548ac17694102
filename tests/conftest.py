"""Shared fixtures: the four hand-checked instances and their frozen tables.

Each instance is read from its committed file under ``instances/``.  The
expected numbers (optima, restricted optima, exact reduced costs, AC sets)
were derived by hand-enumerating all supports; the oracle tests pin them, and
so check the committed files directly.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from rcfilter import EdgeId, load_instance

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def _e(pairs):
    return {EdgeId(i, j): Fraction(v) for (i, j), v in pairs.items()}


@pytest.fixture
def three_var_assignment():
    """3-variable assignment, 7 edges, z_max 1; optimum 0 on the diagonal."""
    return load_instance(INSTANCES / "assignment3.json")


@pytest.fixture
def three_var_assignment_truth():
    return {
        "z_star": Fraction(0),
        "support_count": 3,
        "z_restricted": _e(
            {
                (0, 0): 0, (0, 1): 3,
                (1, 0): 3, (1, 1): 0, (1, 2): 3,
                (2, 1): 3, (2, 2): 0,
            }
        ),
        "ac_set": {EdgeId(0, 0), EdgeId(1, 1), EdgeId(2, 2)},
        # a feasible, optimal set of potentials with reduced costs 0/2/1/0/3/0/0
        "dual_u": {0: Fraction(0), 1: Fraction(1), 2: Fraction(3)},
        "dual_v": {0: Fraction(0), 1: Fraction(-1), 2: Fraction(-3)},
        "dual_rc": _e(
            {
                (0, 0): 0, (0, 1): 2,
                (1, 0): 1, (1, 1): 0, (1, 2): 3,
                (2, 1): 0, (2, 2): 0,
            }
        ),
    }


@pytest.fixture
def six_vertex_dag():
    """DAG on vertices 0..5 (source 0, sink 5), 8 arcs, z_max 1; optimum 0."""
    return load_instance(INSTANCES / "dag6.json")


@pytest.fixture
def six_vertex_dag_truth():
    return {
        "z_star": Fraction(0),
        "support_count": 4,
        "z_restricted": _e(
            {
                (0, 1): 0, (0, 2): 2, (0, 3): 2,
                (1, 5): 2, (1, 2): 0,
                (3, 4): 2,
                (2, 5): 0,
                (4, 5): 2,
            }
        ),
        "ac_set": {EdgeId(0, 1), EdgeId(1, 2), EdgeId(2, 5)},
        "dual_u": {
            0: Fraction(0), 1: Fraction(0), 2: Fraction(0),
            3: Fraction(-1), 4: Fraction(1), 5: Fraction(0),
        },
        "dual_rc": _e(
            {
                (0, 1): 0, (0, 2): 2, (0, 3): 0,
                (1, 5): 2, (1, 2): 0,
                (3, 4): 2,
                (2, 5): 0,
                (4, 5): 0,
            }
        ),
    }


@pytest.fixture
def three_var_assignment_alt():
    """3-variable assignment, 8 edges; carries the worked exactness witness."""
    return load_instance(INSTANCES / "assignment3_alt.json")


@pytest.fixture
def three_var_assignment_alt_truth():
    return {
        "z_star": Fraction(0),
        "support_count": 4,
        "z_restricted": _e(
            {
                (0, 0): 0, (0, 1): 3, (0, 2): 2,
                (1, 0): 2, (1, 1): 0, (1, 2): 2,
                (2, 1): 2, (2, 2): 0,
            }
        ),
        "ac_set": {EdgeId(0, 0), EdgeId(1, 1), EdgeId(2, 2)},
        "dual_u": {0: Fraction(0), 1: Fraction(-1), 2: Fraction(0)},
        "dual_v": {0: Fraction(0), 1: Fraction(1), 2: Fraction(0)},
        "dual_rc": _e(
            {
                (0, 0): 0, (0, 1): 1, (0, 2): 0,
                (1, 0): 2, (1, 1): 0, (1, 2): 2,
                (2, 1): 0, (2, 2): 0,
            }
        ),
        "certificate_edge": EdgeId(1, 0),
        "certificate_witness": {EdgeId(0, 2), EdgeId(1, 0), EdgeId(2, 1)},
        "certificate_value": Fraction(2),
    }


@pytest.fixture
def five_vertex_dag():
    """DAG on vertices 0..4 (source 0, sink 4), 7 arcs; worked path witness."""
    return load_instance(INSTANCES / "dag5.json")


@pytest.fixture
def five_vertex_dag_truth():
    return {
        "z_star": Fraction(0),
        "support_count": 4,
        "z_restricted": _e(
            {
                (0, 1): 2, (0, 2): 3, (0, 3): 0,
                (1, 4): 2, (1, 2): 2,
                (2, 4): 2,
                (3, 4): 0,
            }
        ),
        "ac_set": {EdgeId(0, 3), EdgeId(3, 4)},
        "dual_u": {
            0: Fraction(0), 1: Fraction(-1), 2: Fraction(-1),
            3: Fraction(0), 4: Fraction(0),
        },
        "dual_rc": _e(
            {
                (0, 1): 0, (0, 2): 1, (0, 3): 0,
                (1, 4): 2, (1, 2): 0,
                (2, 4): 2,
                (3, 4): 0,
            }
        ),
        "certificate_edge": EdgeId(2, 4),
        "certificate_witness": {EdgeId(0, 1), EdgeId(1, 2), EdgeId(2, 4)},
        "certificate_value": Fraction(2),
    }
