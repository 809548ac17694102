import json
from fractions import Fraction as F

import pytest

from rcfilter import EdgeId, propagation, save_instance, weighted_instance
from rcfilter.cli import main
from rcfilter.propagation import FilterResult


@pytest.fixture
def assignment_file(three_var_assignment, tmp_path):
    p = tmp_path / "assignment.json"
    save_instance(three_var_assignment, p)
    return str(p)


@pytest.fixture
def dag_file(six_vertex_dag, tmp_path):
    p = tmp_path / "dag.json"
    save_instance(six_vertex_dag, p)
    return str(p)


@pytest.fixture
def costly_file(tmp_path):
    inst = weighted_instance(
        "alldiff", 2, [0, 1],
        [(0, 0, 5), (0, 1, 5), (1, 0, 5), (1, 1, 5)], z_max=0,
    )
    p = tmp_path / "costly.json"
    save_instance(inst, p)
    return str(p)


def test_filter_json_report(assignment_file, capsys):
    assert main(["filter", assignment_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["command"] == "filter"
    assert data["complete"] is True
    assert data["z_lb"] == "0"
    assert data["solves"] == 3
    marks = {tuple(m["edge"]): m["mark"] for m in data["marks"]}
    assert marks[(0, 1)] == "inconsistent"
    assert marks[(0, 0)] == "consistent"
    assert len(marks) == 7


def test_filter_text_report(assignment_file, capsys):
    assert main(["filter", assignment_file, "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "z_lb = 0" in out
    assert "consistent: (0,0) (1,1) (2,2)" in out
    assert "inconsistent: (0,1) (1,0) (1,2) (2,1)" in out


def test_reports_are_byte_identical(dag_file, capsys):
    main(["filter", dag_file, "--emit-duals"])
    first = capsys.readouterr().out
    main(["filter", dag_file, "--emit-duals"])
    second = capsys.readouterr().out
    assert first == second


def test_emitted_duals_round_trip(assignment_file, three_var_assignment, capsys):
    assert main(["filter", assignment_file, "--emit-duals"]) == 0
    data = json.loads(capsys.readouterr().out)
    # replaying the report reproduces the library result exactly
    result = propagation.ac_by_lp(three_var_assignment)
    assert data["solves"] == result.solves
    marks = {
        EdgeId(*m["edge"]): m["mark"] for m in data["marks"]
    }
    assert marks == dict(result.marks)
    assert F(data["z_lb"]) == result.z_lb
    assert len(data["duals"]) == len(result.duals_used)
    for payload, (edge_set, dual) in zip(data["duals"], result.duals_used):
        assert [EdgeId(*e) for e in payload["set"]] == list(edge_set)
        assert F(payload["w"]) == dual.w
        assert {int(k): F(v) for k, v in payload["u"].items()} == dict(dual.u)
        assert {int(k): F(v) for k, v in payload["v"].items()} == dict(dual.v)


def test_filter_budget_partial(assignment_file, capsys):
    assert main(["filter", assignment_file, "--budget", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["complete"] is False
    assert data["solves"] == 1
    assert any(m["mark"] == "unmarked" for m in data["marks"])


def test_oracle_report(dag_file, capsys):
    assert main(["oracle", dag_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["z_star"] == "0"
    assert data["supports"] == 4
    rows = {tuple(r["edge"]): r for r in data["edges"]}
    assert rows[(3, 4)]["restricted"] == "2"
    assert rows[(3, 4)]["status"] == "inconsistent"
    assert rows[(0, 1)]["status"] == "consistent"


def test_verify_match(dag_file, capsys):
    assert main(["verify", dag_file, "--family", "layers", "--format", "text"]) == 0
    assert "marks identical" in capsys.readouterr().out


def test_verify_reports_mismatch(monkeypatch, assignment_file, three_var_assignment, capsys):
    truth = propagation.ac_by_lp(three_var_assignment)
    wrong = dict(truth.marks)
    wrong[EdgeId(0, 0)] = "inconsistent"  # deliberately corrupt one mark

    def fake(instance, family=None, budget=None):
        return FilterResult(
            marks=wrong, z_lb=truth.z_lb, duals_used=truth.duals_used, complete=True
        )

    monkeypatch.setattr(propagation, "ac_by_lp", fake)
    assert main(["verify", assignment_file]) == 4
    data = json.loads(capsys.readouterr().out)
    assert data["match"] is False
    assert data["mismatches"] == [
        {"edge": [0, 0], "filter": "inconsistent", "oracle": "consistent"}
    ]


def test_verify_infeasible_agreement(costly_file, capsys):
    # filter reports infeasible, oracle finds nothing within the bound: a match
    assert main(["verify", costly_file]) == 0
    assert json.loads(capsys.readouterr().out)["match"] is True


def test_bound_reports_optimum(costly_file, capsys):
    assert main(["bound", costly_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["z_star"] == "10"


def test_filter_infeasible_exit_code(costly_file, capsys):
    assert main(["filter", costly_file]) == 3
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "infeasible"
    assert data["z_lb"] == "10"


def test_parse_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["filter", str(bad)]) == 1
    assert "parse failure" in capsys.readouterr().err


def test_duplicate_path_vertex_exit_code(tmp_path, capsys):
    bad = tmp_path / "dup.json"
    bad.write_text(json.dumps({
        "kind": "path", "n_vars": 3, "values": [0, 1, 1, 2],
        "edges": [[0, 1, 0], [1, 2, 0]], "z_max": 0,
        "path": {"source": 0, "sink": 2},
    }))
    assert main(["filter", str(bad)]) == 1
    assert "duplicate" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path, capsys):
    assert main(["filter", str(tmp_path / "absent.json")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_invalid_instance_exit_code(tmp_path, capsys):
    bad = tmp_path / "invalid.json"
    bad.write_text(json.dumps({
        "kind": "alldiff", "n_vars": 2, "values": [0, 1, 2],
        "edges": [[0, 0, 0], [1, 1, 0]], "z_max": 0,
    }))
    assert main(["filter", str(bad)]) == 2
    assert "invalid instance" in capsys.readouterr().err


def test_layers_on_assignment_is_usage_error(assignment_file, capsys):
    assert main(["filter", assignment_file, "--family", "layers"]) == 1
    assert "path" in capsys.readouterr().err


def test_size_guard_exit_code(tmp_path, capsys):
    n = 9
    big = weighted_instance(
        "alldiff", n, range(n),
        [(i, j, 0) for i in range(n) for j in range(n)], z_max=0,
    )
    p = tmp_path / "big.json"
    save_instance(big, p)
    assert main(["oracle", str(p)]) == 5
    assert "capped" in capsys.readouterr().err


def test_unknown_flag_exit_code(capsys):
    assert main(["filter", "--unknown-flag"]) == 1


def test_negative_budget_rejected(assignment_file, capsys):
    assert main(["filter", assignment_file, "--budget", "-2"]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "filter" in capsys.readouterr().out
