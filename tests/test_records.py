"""Every record type is an immutable namedtuple, and ``_replace`` builds as its constructor does."""

import copy
from fractions import Fraction as F
from pathlib import Path

import pytest

from rcfilter import (
    EdgeId, SatisfactionInstance, formulations, lp_core, load_instance, oracle, propagation,
)

DAG = Path(__file__).resolve().parent.parent / "instances" / "dag6.json"


def _dag():
    return load_instance(DAG)


def _program():
    inst = _dag()
    return formulations.primal_program(inst, inst.cost)


# each record type, a record of it, and for a record that its constructor
# normalizes, a change the constructor refuses, with the refusal
RECORDS = [
    ("EdgeId", lambda: EdgeId(0, 1), None),
    ("PathMeta", lambda: _dag().path, None),
    ("WeightedInstance", _dag, ({"values": (0, 1, 2, 3, 4, 5, 5)}, "duplicate vertices")),
    ("SatisfactionInstance", lambda: SatisfactionInstance(2, (0, 1), (EdgeId(0, 1),)), None),
    ("Row", lambda: lp_core.Row({"x": F(1, 2), "y": 0}, lp_core.LE, 3, "r"),
     ({"rel": "<>"}, "bad relation")),
    ("LinearProgram", _program, ({"objective": {"ghost": 1}}, "unknown column")),
    ("LpSolution", lambda: lp_core.solve(_program()), None),
    ("Support", lambda: formulations.find_support(_dag(), _dag().edges), None),
    ("CombinatorialPass", lambda: formulations.combinatorial_pass(_dag()), None),
    ("DualSolution", lambda: next(propagation.ac_by_lp(_dag()).duals())[1], None),
    ("OracleReport", lambda: oracle.enumerate(_dag()), None),
    ("FilterResult", lambda: propagation.ac_by_lp(_dag()), None),
]


@pytest.mark.parametrize("name, build, refused", RECORDS, ids=[r[0] for r in RECORDS])
def test_record_is_immutable_and_replace_builds_again(name, build, refused):
    x = build()
    assert type(x).__name__ == name and isinstance(x, tuple)
    with pytest.raises(AttributeError):
        setattr(x, x._fields[0], x[0])
    with pytest.raises(AttributeError):
        x.extra = 0  # no instance __dict__ anywhere in the class's bases
    assert x._replace() == x
    assert type(x)._make(x) == x
    assert copy.copy(x) == x
    if refused is None:
        return
    # built through __new__, so checked as the constructor checks, and every
    # derived field is refused
    change, problem = refused
    with pytest.raises(ValueError, match=problem):
        x._replace(**change)
    with pytest.raises(ValueError, match=problem):
        type(x)._make({**x._asdict(), **change}.values())
    for derived in type(x)._derived:
        with pytest.raises(ValueError, match="derived on every build"):
            x._replace(**{derived: getattr(x, derived)})
    with pytest.raises(TypeError):
        x._replace(no_such_field=0)
