import inspect
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import rcfilter
from rcfilter import (
    EdgeId, cli, formulations, lp_core, model, oracle, propagation, save_instance,
    weighted_instance,
)
from rcfilter.cli import main
from rcfilter.model import InfeasibleConstraintError

from corpus import alldiff_corpus, path_corpus, satisfaction_corpus

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


@pytest.fixture
def assignment_file():
    return str(INSTANCES / "assignment3.json")


@pytest.fixture
def dag_file():
    return str(INSTANCES / "dag6.json")


@pytest.fixture
def costly_file(tmp_path):
    inst = weighted_instance(
        "alldiff", 2, [0, 1],
        [(0, 0, 5), (0, 1, 5), (1, 0, 5), (1, 1, 5)], z_max=0,
    )
    p = tmp_path / "costly.json"
    save_instance(inst, p)
    return str(p)


@pytest.fixture
def arcless_file(tmp_path):
    # valid, yet no arc joins the source to the sink: no support at all
    p = tmp_path / "arcless.json"
    p.write_text(json.dumps({
        "kind": "path", "n_vars": 1, "values": [0, 1], "edges": [], "z_max": 5,
        "path": {"source": 0, "sink": 1},
    }))
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
    duals = list(result.duals())
    assert len(data["duals"]) == len(duals)
    for payload, (edge_set, dual) in zip(data["duals"], duals):
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


def _corrupted_filter(monkeypatch, three_var_assignment):
    truth = propagation.ac_by_lp(three_var_assignment)
    wrong = dict(truth.marks)
    wrong[EdgeId(0, 0)] = "inconsistent"  # deliberately corrupt two marks
    wrong[EdgeId(0, 1)] = "consistent"

    def fake(instance, strategy="domains", budget=None):
        return truth._replace(marks=wrong)

    monkeypatch.setattr(propagation, "ac_by_lp", fake)


def test_verify_reports_mismatch(monkeypatch, assignment_file, three_var_assignment, capsys):
    _corrupted_filter(monkeypatch, three_var_assignment)
    assert main(["verify", assignment_file]) == 4
    data = json.loads(capsys.readouterr().out)
    assert data["match"] is False
    assert data["mismatches"] == [
        {"edge": [0, 0], "filter": "inconsistent", "oracle": "consistent"},
        {"edge": [0, 1], "filter": "consistent", "oracle": "inconsistent"},
    ]


def test_verify_text_lists_mismatches(monkeypatch, assignment_file, three_var_assignment, capsys):
    _corrupted_filter(monkeypatch, three_var_assignment)
    assert main(["verify", assignment_file, "--format", "text"]) == 4
    assert capsys.readouterr().out == (
        "MISMATCH (0,0): filter=inconsistent oracle=consistent\n"
        "MISMATCH (0,1): filter=consistent oracle=inconsistent\n"
    )


def test_verify_infeasible_agreement(costly_file, capsys):
    # filter reports infeasible, oracle finds nothing within the bound: a match
    assert main(["verify", costly_file]) == 0
    assert json.loads(capsys.readouterr().out)["match"] is True


def test_bound_reports_optimum(costly_file, capsys):
    assert main(["bound", costly_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["z_star"] == "10"


def test_bound_solves_no_lp(monkeypatch, tmp_path, capsys):
    # z* comes from the combinatorial pass, under either format: no LP
    # solve, and the oracle's optimum on every instance
    solved, real_solve = [], lp_core.solve
    monkeypatch.setattr(lp_core, "solve", lambda lp: solved.append(lp) or real_solve(lp))
    files = sorted(INSTANCES.glob("*.json"))
    for k, inst in enumerate(alldiff_corpus() + path_corpus()):
        files.append(tmp_path / f"{k}.json")
        save_instance(inst, files[-1])
    for path in files:
        inst = model.load_instance(path)
        z_star = str(oracle.enumerate(inst).z_star)
        assert main(["bound", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["z_star"] == z_star
        assert main(["bound", str(path), "--format", "text"]) == 0
        assert capsys.readouterr().out == f"z* = {z_star}\n"
    assert solved == []


def test_only_the_reference_routes_solve_an_lp(monkeypatch, tmp_path, capsys):
    # with lp_core.solve made to fail, every command runs on every instance
    # file and every public function of the package runs on the corpora,
    # except solve_primal and solve_family_dual, the LP reference routes
    def no_solve(lp):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(lp_core, "solve", no_solve)
    files = sorted(INSTANCES.glob("*.json"))
    for k, inst in enumerate(alldiff_corpus(30) + path_corpus(15)):
        files.append(tmp_path / f"{k}.json")
        save_instance(inst, files[-1])
    for path in files:
        kind = model.load_instance(path).kind
        for family in ("domains", "layers") if kind == "path" else ("domains",):
            for command in (["filter", "--emit-duals"], ["verify"]):
                assert main([command[0], str(path), "--family", family, *command[1:]]) in (0, 3)
        assert main(["bound", str(path)]) in (0, 3)
        assert main(["oracle", str(path)]) in (0, 3)
    capsys.readouterr()

    called = set()

    def call(name, *args):
        called.add(name)
        return getattr(rcfilter, name)(*args)

    for k, inst in enumerate(alldiff_corpus(30) + path_corpus(15)):
        assert call("validate", inst) == []
        call("family", inst)
        call("find_support", inst, inst.edges)
        call("primal_program", inst, inst.cost)
        copy = call("instance_from_dict", call("instance_to_dict", inst))
        call("save_instance", copy, tmp_path / f"copy{k}.json")
        call("load_instance", tmp_path / f"copy{k}.json")
        call("lower_bound", inst)
        try:
            call("ac_by_lp", inst)
        except InfeasibleConstraintError:
            pass
        for e in inst.edges:
            call("exact_reduced_cost", inst, e)
            d = call("shifted_cost_dual", inst, e)
            call("reduced_cost", inst, d, e)
            call("exactness_certificate", inst, d, e)
            assert call("is_dual_feasible", inst, call("dual_solution", inst, d.u, d.v))
    hard, _ = call("worst_case_alldiff", 3)
    call("ac_by_lp", hard)
    call("weighted_instance", "alldiff", 1, [0], [(0, 0, 1)], 1)
    for sat in satisfaction_corpus(30):
        call("bg01_encode", sat)
        try:
            call("averaged_satisfaction_dual", sat)
        except InfeasibleConstraintError:
            pass
    public = {n for n in rcfilter.__all__ if inspect.isfunction(getattr(rcfilter, n))}
    assert public - called == {"solve_primal", "solve_family_dual"}


def test_bound_builds_no_family(monkeypatch, dag_file, assignment_file, capsys):
    # z* does not depend on the family: bound reads the pass and builds none
    def no_family(*args):
        raise AssertionError("an edge family was built")

    monkeypatch.setattr(formulations, "family", no_family)
    monkeypatch.setattr(formulations, "_position_sets", no_family)
    for path in (dag_file, assignment_file):
        assert main(["bound", path]) == 0
        assert json.loads(capsys.readouterr().out)["z_star"] == "0"
        assert propagation.lower_bound(model.load_instance(path)) == 0


def test_bound_takes_no_family(dag_file, capsys):
    # z* is the same under every family: --family is not a bound option,
    # so argparse rejects it (exit 1, its usage line, no traceback), and
    # the JSON report names no family
    for family in ("domains", "layers"):
        assert main(["bound", dag_file, "--family", family]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: rcfilter ")
        assert captured.err.endswith(
            f"error: unrecognized arguments: --family {family}\n"
        )
        assert "Traceback" not in captured.err
    assert main(["bound", dag_file]) == 0
    assert list(json.loads(capsys.readouterr().out)) == ["command", "z_star"]


def test_filter_infeasible_exit_code(costly_file, capsys):
    assert main(["filter", costly_file]) == 3
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "infeasible"
    assert data["z_lb"] == "10"


def test_commands_return_reports_without_printing(assignment_file, dag_file, capsys):
    for path, options in ((assignment_file, []), (dag_file, ["--family", "layers"])):
        for argv in (["filter", path, "--emit-duals", *options], ["oracle", path],
                     ["verify", path, *options], ["bound", path]):
            args = cli._build_parser().parse_args(argv)
            code, report = args.run(model.load_instance(path), args)
            assert capsys.readouterr().out == "", argv
            assert main([*argv, "--format", "json"]) == code
            assert json.loads(capsys.readouterr().out) == report, argv


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
    for command in ("filter", "verify"):
        assert main([command, assignment_file, "--family", "layers"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the layers strategy only applies to path instances\n"
        )


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
    # verify runs the oracle first, so its size guard stops the instance
    # before the filter would reject the layers strategy on an alldiff
    assert main(["verify", str(p), "--family", "layers"]) == 5
    assert "capped" in capsys.readouterr().err


def test_unknown_flag_exit_code(capsys):
    assert main(["filter", "--unknown-flag"]) == 1


def test_negative_budget_rejected(assignment_file, capsys):
    assert main(["filter", assignment_file, "--budget", "-2"]) == 1


@pytest.mark.parametrize("budget", ["\uff11", "\u0662", "1\u0663"])
def test_non_ascii_digit_budget_rejected(dag_file, budget, capsys):
    # str.isdecimal accepts fullwidth and Arabic-Indic digits, and int() reads them
    assert main(["filter", dag_file, "--budget", budget]) == 1
    assert "is not a non-negative integer" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "filter" in capsys.readouterr().out


def test_filter_infeasible_text_report(costly_file, capsys):
    assert main(["filter", costly_file, "--format", "text"]) == 3
    assert capsys.readouterr().out == (
        "infeasible: no support within the cost bound (z_lb = 10)\n"
    )


def test_oracle_infeasible_exit_code(arcless_file, capsys):
    assert main(["oracle", arcless_file]) == 3
    data = json.loads(capsys.readouterr().out)
    assert data == {"command": "oracle", "status": "infeasible", "z_lb": None}


def test_verify_size_guard_exit_code(monkeypatch, tmp_path, capsys):
    # a 13-vertex chain: the oracle refuses to enumerate it before the filter runs
    chain = weighted_instance(
        "path", 12, range(13), [(k, k + 1, 0) for k in range(12)],
        z_max=0, source=0, sink=12,
    )
    p = tmp_path / "chain.json"
    save_instance(chain, p)

    def no_solve(instance, strategy="domains", budget=None):
        raise AssertionError("verify solved an instance above the enumeration cap")

    monkeypatch.setattr(propagation, "ac_by_lp", no_solve)
    assert main(["verify", str(p)]) == 5
    assert "capped" in capsys.readouterr().err


def test_verify_reports_a_wrongly_infeasible_filter(monkeypatch, assignment_file, capsys):
    def fake(instance, strategy="domains", budget=None):
        raise InfeasibleConstraintError("wrongly infeasible", z_lb=None)

    monkeypatch.setattr(propagation, "ac_by_lp", fake)
    assert main(["verify", assignment_file]) == 4
    data = json.loads(capsys.readouterr().out)
    assert data["match"] is False
    assert data["mismatches"] == [
        {"edge": [k, k], "filter": "infeasible", "oracle": "consistent"}
        for k in range(3)
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["filter", "{file}", "--family", "bogus"],
        ["filter", "{file}", "--format", "xml"],
        ["filter", "{file}", "--budget", "abc"],
        ["filter", "{file}", "--fam", "layers"],  # options are never abbreviated
        ["verify", "{file}", "--fam", "layers"],
        ["oracle", "{file}", "--form", "text"],
        ["filter", "{dir}"],
        [],
        ["filter"],
        ["nonsense", "{file}"],
    ],
)
def test_usage_errors_exit_one(argv, dag_file, tmp_path, capsys):
    argv = [a.format(file=dag_file, dir=tmp_path) for a in argv]
    assert main(argv) == 1
    assert capsys.readouterr().out == ""


def test_command_help_exits_zero(capsys):
    assert main(["filter", "--help"]) == 0
    out = capsys.readouterr().out
    for option in ("--family", "--budget", "--emit-duals", "--format"):
        assert option in out


ARGV_SHAPES = [
    # every command with each of its options
    ["filter", "{file}"],
    ["filter", "{file}", "--family", "domains"],
    ["filter", "{file}", "--family", "layers"],
    ["filter", "{file}", "--family=layers"],
    ["filter", "{file}", "--budget", "0"],
    ["filter", "{file}", "--budget", "3"],
    ["filter", "{file}", "--emit-duals"],
    ["filter", "{file}", "--format", "json"],
    ["filter", "{file}", "--format", "text"],
    ["filter", "--format", "text", "--budget", "2", "--emit-duals", "--family", "layers",
     "{file}"],
    ["verify", "{file}"],
    ["verify", "{file}", "--family", "layers", "--format", "text"],
    ["oracle", "{file}", "--format", "text"],
    ["bound", "{file}"],
    ["bound", "{file}", "--format", "text"],
    # COMMAND FILE, no option: the kept namespace once one is kept
    ["oracle", "{file}"],
    ["filter", "-"],
    ["filter", ""],
    ["filter", "-x.json"],
    ["bound", "filter"],
    # -h before and after the command
    ["-h"],
    ["--help"],
    ["-h", "filter"],
    ["filter", "-h"],
    ["filter", "{file}", "--help"],
    ["bound", "--help"],
    # --
    ["filter", "--", "{file}"],
    ["filter", "{file}", "--"],
    ["filter", "--", "--family"],
    ["filter", "{file}", "--", "--format", "text"],
    ["--", "filter", "{file}"],
    # an option before the command
    ["--format", "text", "filter", "{file}"],
    ["--family", "layers", "filter", "{file}"],
    # left over after the command: the fall-back to the top-level parser
    ["filter", "{file}", "--bogus"],
    ["filter", "--bogus", "{file}"],
    ["filter", "{file}", "{file}"],
    ["bound", "{file}", "--family", "domains"],
    ["oracle", "{file}", "--budget", "1"],
    ["verify", "{file}", "--emit-duals", "-x"],
    # no command, an unknown or abbreviated one, a missing file or value
    [],
    ["nonsense", "{file}"],
    ["filte", "{file}"],
    ["FILTER", "{file}"],
    ["filter"],
    ["filter", "--format", "text"],
    ["filter", "{file}", "--budget"],
    # abbreviated options: never matched by a prefix
    ["filter", "{file}", "--fam", "layers"],
    ["filter", "{file}", "--emit"],
    ["oracle", "{file}", "--form", "text"],
    ["--hel"],
    ["filter", "{file}", "--he"],
    # a bad --family, --format or --budget
    ["filter", "{file}", "--family", "bogus"],
    ["verify", "{file}", "--family", ""],
    ["filter", "{file}", "--format", "xml"],
    ["bound", "{file}", "--format", "text", "--format", "yaml"],
    ["filter", "{file}", "--budget", "-2"],
    ["filter", "{file}", "--budget", "abc"],
    ["filter", "{file}", "--budget", "\uff11"],
]


def _parse_outcome(parse, argv, capsys):
    try:
        outcome = parse(argv)
    except SystemExit as exc:
        outcome = ("exit", exc.code)
    out, err = capsys.readouterr()
    return outcome, out, err


@pytest.mark.parametrize("argv", ARGV_SHAPES, ids=" ".join)
def test_one_pass_parse_matches_the_full_parser(argv, dag_file, capsys):
    # twice: an option-free argv is parsed the first time and read from the
    # kept namespace the second, whichever test ran first
    argv = [a.format(file=dag_file) for a in argv]
    reference = _parse_outcome(cli._build_parser().parse_args, list(argv), capsys)
    for _ in range(2):
        got = _parse_outcome(cli._parse, list(argv), capsys)
        assert got == reference
        if isinstance(reference[0], tuple):
            assert reference[0][1] in (0, 2) and reference[1] + reference[2] != ""
        else:  # the same fields in the same order
            assert list(vars(got[0])) == list(vars(reference[0]))


@pytest.fixture
def fresh_parser(monkeypatch):
    # a parser of this test's own, so that no other test has kept a namespace in it
    parser = cli._build_parser.__wrapped__()
    monkeypatch.setattr(cli, "_build_parser", lambda: parser)
    return parser


def test_a_fresh_parser_keeps_no_namespace(fresh_parser):
    assert fresh_parser.kept == {}
    assert set(fresh_parser.commands) == {"filter", "oracle", "verify", "bound"}


def test_a_repeated_command_file_argv_is_not_parsed_again(
    fresh_parser, monkeypatch, dag_file, assignment_file
):
    reference = fresh_parser.parse_args(["filter", assignment_file])  # keeps nothing
    sub = fresh_parser.commands["filter"]
    calls = []
    parse = sub.parse_known_args
    monkeypatch.setattr(sub, "parse_known_args", lambda *a: calls.append(a) or parse(*a))
    first = cli._parse(["filter", dag_file])
    assert len(calls) == 1 and list(fresh_parser.kept) == ["filter"]
    second = cli._parse(["filter", assignment_file])
    assert len(calls) == 1
    assert second == reference and list(vars(second)) == list(vars(reference))
    assert first.instance_file == dag_file
    # an option, or a file that looks like one, is parsed as before
    cli._parse(["filter", dag_file, "--format", "text"])
    cli._parse(["filter", "-"])
    assert len(calls) == 3


def test_each_command_file_parse_is_a_new_namespace(fresh_parser, dag_file):
    first = cli._parse(["filter", dag_file])  # argparse's own namespace, then kept
    first.fmt, first.extra = "text", 1
    second = cli._parse(["filter", dag_file])
    second.strategy = "layers"
    third = cli._parse(["filter", dag_file])
    assert len({id(first), id(second), id(third)}) == 3
    assert third == cli._build_parser().parse_args(["filter", dag_file])
    assert (third.fmt, third.strategy, hasattr(third, "extra")) == ("json", "domains", False)


def test_a_command_first_argv_is_parsed_once(monkeypatch, dag_file, capsys):
    # the top-level parser runs only for the fall-back: here it must not run
    parser = cli._build_parser()

    def refuse(*args, **kwargs):
        raise AssertionError("the top-level parser ran")

    monkeypatch.setattr(parser, "parse_known_args", refuse)
    args = cli._parse(["filter", dag_file, "--format", "text"])
    assert (args.command, args.instance_file, args.fmt) == ("filter", dag_file, "text")
    assert main(["bound", dag_file, "--format", "text"]) == 0
    assert capsys.readouterr().out == "z* = 0\n"
    with pytest.raises(AssertionError, match="top-level parser ran"):
        cli._parse(["filter", dag_file, "--bogus"])


def _alldiff(n_vars, values, edges):
    return {"kind": "alldiff", "n_vars": n_vars, "values": values,
            "edges": edges, "z_max": 0}


def _path(n_vars, values, edges, source, sink):
    return {"kind": "path", "n_vars": n_vars, "values": values, "edges": edges,
            "z_max": 0, "path": {"source": source, "sink": sink}}


@pytest.mark.parametrize(
    "data, message",
    [
        (_alldiff(0, [], []), "n_vars must be >= 1"),
        (_alldiff(2, [0, 0], [[0, 0, 0], [1, 0, 0]]), "duplicate values"),
        (_alldiff(1, [0], [[0, 0, 0], [1, 0, 0]]), "variable index out of range"),
        (_alldiff(1, [0], [[0, 0, 0], [0, 5, 0]]), "value not in the value list"),
        (_path(1, [0, 1], [[0, 1, 0]], 0, 7), "source or sink not among the vertices"),
        (_path(1, [0, 1], [[0, 1, 0]], 0, 0), "source equals sink"),
        (_path(3, [0, 1], [[0, 1, 0]], 0, 1),
         "path instances must have n_vars = number of vertices - 1"),
    ],
)
def test_validate_messages_exit_two(data, message, tmp_path, capsys):
    p = tmp_path / "invalid.json"
    p.write_text(json.dumps(data))
    assert main(["filter", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid instance: ")
    assert message in err


@pytest.mark.parametrize("n_vars", [10**6, 10**30], ids=["1e6", "1e30"])
@pytest.mark.parametrize("kind", ["alldiff", "path"])
def test_hostile_n_vars_exits_two_with_a_short_message(kind, n_vars, tmp_path, capsys):
    # n_vars is checked against the values before any loop over the variables,
    # so the work and the message stay bounded by the file's size
    data = (_alldiff(n_vars, [0, 1, 2], [[0, 0, 0]]) if kind == "alldiff"
            else _path(n_vars, [0, 1, 2], [[0, 1, 0], [1, 2, 0]], 0, 2))
    p = tmp_path / "hostile.json"
    p.write_text(json.dumps(data))
    assert main(["filter", str(p)]) == 2
    err = capsys.readouterr().err
    assert len(err.encode()) < 1024
    assert "n_vars" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "content, message",
    [
        pytest.param(b'{"kind": "\xff"}', "not UTF-8", id="not-utf8"),
        pytest.param(b"[" * 200_000, "nested too deeply", id="deep-nesting"),
        pytest.param(json.dumps(_path(2, [0, 1, 2], [[0, 1, 0], [1, 7, 0]], 0, 2)),
                     "outside the vertex list", id="arc-to-unlisted-vertex"),
        pytest.param(json.dumps(_path(2, [0, 1, 2], [[0, 1, 0], [1, 0, 0], [1, 2, 0]],
                                      0, 2)),
                     "cycle", id="cyclic-path"),
        pytest.param("[]", "must be a JSON object", id="top-level-array"),
        pytest.param(json.dumps(_alldiff(1, [0], [[0, 0, 1, 99]])),
                     "is not [i, j, cost]", id="four-number-edge"),
        pytest.param(json.dumps({**_alldiff(1, [0], [[0, 0, 0]]),
                                 "path": {"source": 0, "sink": 1}}),
                     '"path" is only for path instances', id="alldiff-with-path"),
        # json.load alone keeps the last of a repeated key: z_max would be 10
        pytest.param(json.dumps(_alldiff(1, [0], [[0, 0, 0]]))[:-1] + ', "z_max": 10}',
                     "duplicate key 'z_max'", id="repeated-key"),
        pytest.param(json.dumps(_path(1, [0, 1], [[0, 1, 0]], 0, 1))[:-2] + ', "sink": 0}}',
                     "duplicate key 'sink'", id="repeated-key-in-path"),
    ],
)
def test_ingest_failures_exit_one(content, message, tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_bytes(content if isinstance(content, bytes) else content.encode())
    # main returns: a raise here would be a traceback at the console
    assert main(["filter", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: parse failure: ")
    assert message in err
    assert "Traceback" not in err


def _text_mode_stderr(path) -> str:
    # what main printed when it read the file through a text-mode json.load
    try:
        with open(path, "r", encoding="utf-8") as fh:
            json.load(fh)
    except OSError as exc:
        return f"error: cannot read {path}: {exc}\n"
    except json.JSONDecodeError as exc:
        return f"error: parse failure: not valid JSON: {exc}\n"
    except UnicodeDecodeError as exc:
        return f"error: parse failure: not UTF-8: {exc}\n"
    raise AssertionError(f"{path} is well-formed JSON")


@pytest.mark.parametrize(
    "content, expected",
    [
        # the error after two line breaks: text mode reads each \r\n as one
        # character, so the offset is 33, not 35
        pytest.param(b'{\r\n "kind": "alldiff",\r\n  "n_vars":,\r\n}',
                     "line 3 column 12 (char 33)", id="crlf"),
        pytest.param(b'{\r "kind": "alldiff",\r  "n_vars":,\r}',
                     "line 3 column 12 (char 33)", id="lone-cr"),
        pytest.param(b'{\r\n\r "kind": "all\r\ndiff"\n}',
                     "line 3 column 14 (char 16)", id="cr-inside-a-string"),
        pytest.param(b'\xef\xbb\xbf{"kind": "alldiff"}', "Unexpected UTF-8 BOM",
                     id="utf8-bom"),
        pytest.param(b'{\r\n "kind": "\xff"}', "invalid start byte", id="not-utf8"),
        pytest.param(None, "Is a directory", id="directory"),
    ],
)
def test_ingest_errors_match_a_text_mode_read(content, expected, tmp_path, capsys):
    p = tmp_path / "bad.json"
    if content is None:
        p.mkdir()
    else:
        p.write_bytes(content)
    reference = _text_mode_stderr(p)
    assert expected in reference
    assert main(["filter", str(p)]) == 1
    assert capsys.readouterr().err == reference


@pytest.mark.parametrize(
    "command, code", [("filter", 3), ("bound", 3), ("oracle", 3), ("verify", 0)]
)
def test_arcless_instance_is_infeasible(command, code, arcless_file, capsys):
    assert main([command, arcless_file, "--format", "text"]) == code
    out = capsys.readouterr().out
    if command == "verify":
        assert out == "marks identical\n"
    else:
        assert out == "infeasible: no support within the cost bound\n"


class _FailingStdout(io.StringIO):
    """A standard output whose every write raises ``error``."""

    def __init__(self, error):
        super().__init__()
        self.error = error

    def write(self, text):
        raise self.error


@pytest.mark.parametrize("error, message", [
    (BrokenPipeError(32, "Broken pipe"), ""),
    (OSError(28, "No space left on device"),
     "error: cannot write the report: [Errno 28] No space left on device\n"),
])
def test_unwritable_report_exits_1(error, message, dag_file, monkeypatch, capsys):
    # a closed pipe exits 1 silently, any other write error with one line
    monkeypatch.setattr(sys, "stdout", _FailingStdout(error))
    assert main(["filter", dag_file, "--format", "text"]) == 1
    monkeypatch.undo()
    assert capsys.readouterr() == ("", message)


def _run_cli(args, stdout) -> subprocess.CompletedProcess:
    # block-buffered standard output, so the final flush has text to write
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    return subprocess.run(
        [sys.executable, "-c", "import sys; from rcfilter.cli import main; sys.exit(main())",
         *args],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
    )


def test_closed_stdout_leaves_nothing_for_the_final_flush(dag_file):
    # the read end is closed before the process starts, so every write fails;
    # the interpreter's final flush must not report the buffered text again
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_cli(["filter", dag_file, "--format", "text"], write_end)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")
    if os.path.exists("/dev/full"):
        with open("/dev/full", "w") as full:
            proc = _run_cli(["filter", dag_file, "--format", "text"], full)
        assert proc.returncode == 1
        assert proc.stderr == (
            "error: cannot write the report: [Errno 28] No space left on device\n"
        )


@pytest.mark.parametrize("args", [["--help"], ["filter", "--help"]])
def test_help_into_a_closed_pipe_exits_1_in_silence(args):
    # argparse prints the help inside parse_args, before any report: the
    # help must be flushed through the report's write handling too (the
    # report itself: test_closed_stdout_leaves_nothing_for_the_final_flush)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_cli(args, write_end)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_parser_is_built_on_first_use():
    src = Path(__file__).resolve().parent.parent / "src"
    probe = "import rcfilter.cli as cli; print(cli._build_parser.cache_info().currsize)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.stdout == "0\n"
    assert cli._build_parser() is cli._build_parser()


def _modules_loaded_by_import() -> set[str]:
    # a fresh interpreter: this process may have loaded anything already
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import rcfilter, rcfilter.cli\n"
        "print(*sorted(set(sys.modules) - before))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    return set(proc.stdout.split())


def test_cli_imports_without_click():
    assert not any(m.partition(".")[0] == "click" for m in _modules_loaded_by_import())


def test_import_loads_no_dataclasses_or_source_tools():
    # dataclasses pulls in inspect, which pulls in ast, dis and tokenize:
    # together about two thirds of the package's import time
    loaded = _modules_loaded_by_import()
    assert "rcfilter.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_integer_runs_load_neither_fractions_nor_the_lp_stack():
    # no runtime path solves an LP and an integer instance makes no
    # Fraction, so filter and bound on every committed instance leave the
    # exact simplex and fractions (with decimal and numbers) unloaded; the
    # first reference solve, in the same interpreter, loads lp_core
    src = Path(__file__).resolve().parent.parent / "src"
    files = [str(f) for f in sorted(INSTANCES.glob("*.json"))]
    probe = (
        "import contextlib, io, json, sys\n"
        "import rcfilter, rcfilter.cli\n"
        "from rcfilter import cli, duality, model\n"
        "lean = ('fractions', 'decimal', 'numbers', 'rcfilter.lp_core')\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main([c, f]) for f in sys.argv[1:] for c in ('filter', 'bound')]\n"
        "after_runs = [m for m in lean if m in sys.modules]\n"
        "z_star, _, _ = duality.solve_primal(model.load_instance(sys.argv[1]))\n"
        "print(json.dumps({'codes': codes, 'after_runs': after_runs,\n"
        "                  'z_star': repr(z_star), 'lp_core': 'rcfilter.lp_core' in sys.modules}))"
    )
    assert files[0].endswith("assignment3.json")
    proc = subprocess.run(
        [sys.executable, "-c", probe, *files], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    out = json.loads(proc.stdout)
    assert out["codes"] == [0] * (2 * len(files))
    assert out["after_runs"] == []
    assert out["lp_core"] and out["z_star"] == "0"


def test_report_writer_matches_json_dumps(monkeypatch, tmp_path, capsys):
    # every JSON report main prints, on the golden commands and on the
    # corpora (filter with duals under each family, bound, verify, oracle,
    # exit 3 included), is the bytes json.dumps(report, indent=2) writes
    from test_pinned_outputs import cli_records

    reports, real = [], cli._write_json

    def spy(value, *pad):
        if not pad:  # a whole report, not a container inside one
            reports.append(value)
        return real(value, *pad)

    monkeypatch.setattr(cli, "_write_json", spy)
    cli_records()
    for k, inst in enumerate(alldiff_corpus() + path_corpus()):
        path = str(tmp_path / f"{k}.json")
        save_instance(inst, path)
        for family in ("domains", "layers") if inst.kind == "path" else ("domains",):
            main(["filter", path, "--emit-duals", "--family", family])
            main(["verify", path, "--family", family])
        main(["bound", path])
        main(["oracle", path])
    capsys.readouterr()
    assert {r.get("status", r["command"]) for r in reports} == {
        "filter", "bound", "verify", "oracle", "infeasible"}
    for report in reports:
        assert real(report) == json.dumps(report, indent=2)
    odd = {"": [], "e": {}, "x": [None, True, False, -3, "caf\u00e9 \"q\"\n"], "n": [[{}]]}
    assert real(odd) == json.dumps(odd, indent=2)
    # a float would print inexactly: the writer refuses it
    with pytest.raises(TypeError, match="^a report holds no float$"):
        real({"z": [1.5]})
