"""Command-line front end: filter, oracle, verify and bound over instance files.

Reports are deterministic: the same command on the same file produces byte
identical output.  All rationals are printed exactly (p/q, never floats).

Exit statuses: 0 ok, 1 usage or parse failure, 2 invalid instance,
3 infeasible constraint, 4 verify mismatch, 5 size guard.  ``main`` owns this
mapping: the commands return 0 or 4 and raise every other failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional

from . import formulations, model, oracle, propagation
from .formulations import IncompatibleFamily
from .model import InfeasibleConstraintError, WeightedInstance
from .oracle import SizeGuardError
from .propagation import CONSISTENT, INCONSISTENT

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_MISMATCH = 4
EXIT_SIZE = 5


def _frac(x) -> Optional[str]:
    return None if x is None else str(Fraction(x))


def _emit_json(data: dict) -> None:
    print(json.dumps(data, indent=2))


def _dual_payload(edge_set, dual) -> dict:
    return {
        "set": [[e.i, e.j] for e in edge_set],
        "w": _frac(dual.w),
        "u": {str(k): _frac(dual.u[k]) for k in sorted(dual.u)},
        "v": {str(k): _frac(dual.v[k]) for k in sorted(dual.v)},
    }


def _emit_infeasible(fmt: str, command: str, z_lb) -> None:
    if fmt == "json":
        _emit_json(
            {
                "command": command,
                "status": "infeasible",
                "z_lb": _frac(z_lb),
            }
        )
    else:
        suffix = "" if z_lb is None else f" (z_lb = {_frac(z_lb)})"
        print(f"infeasible: no support within the cost bound{suffix}")


def filter_cmd(instance: WeightedInstance, fam: IncompatibleFamily,
               args: argparse.Namespace) -> int:
    """Classify every edge as consistent or inconsistent with the cost bound."""
    result = propagation.ac_by_lp(instance, fam, budget=args.budget)
    marks = [
        {"edge": [e.i, e.j], "mark": result.marks[e]}
        for e in sorted(result.marks)
    ]
    duals = (
        [_dual_payload(edge_set, dual) for edge_set, dual in result.duals_used]
        if args.emit_duals
        else []
    )
    if args.fmt == "json":
        data = {
            "command": "filter",
            "kind": instance.kind,
            "family": fam.strategy,
            "z_max": _frac(instance.z_max),
            "complete": result.complete,
            "solves": result.solves,
            "z_lb": _frac(result.z_lb),
            "marks": marks,
        }
        if args.emit_duals:
            data["duals"] = duals
        _emit_json(data)
    else:
        print(
            f"filter {instance.kind} family={fam.strategy} z_max={_frac(instance.z_max)}"
        )
        print(f"z_lb = {_frac(result.z_lb)}")
        print(f"solves = {result.solves}")
        print(f"complete = {'yes' if result.complete else 'no'}")
        for label in (CONSISTENT, INCONSISTENT, "unmarked"):
            members = " ".join(
                f"({m['edge'][0]},{m['edge'][1]})" for m in marks if m["mark"] == label
            )
            print(f"{label}: {members if members else '-'}")
        for pos, d in enumerate(duals, start=1):
            print(" ".join([
                f"dual {pos}:",
                "set=" + ",".join(f"({i},{j})" for i, j in d["set"]),
                f"w={d['w']}",
                *(f"u[{k}]={x}" for k, x in d["u"].items()),
                *(f"v[{k}]={x}" for k, x in d["v"].items()),
            ]))
    return EXIT_OK


def oracle_cmd(instance: WeightedInstance, fam: None,
               args: argparse.Namespace) -> int:
    """Exhaustive ground truth: supports, restricted optima, exact AC classes."""
    report = oracle.enumerate(instance)
    classes = report.classification()
    rows = [
        {
            "edge": [e.i, e.j],
            "restricted": _frac(report.z_restricted[e]),
            "exact_rc": _frac(report.exact_rc[e]),
            "status": classes[e],
        }
        for e in sorted(instance.edges)
    ]
    if args.fmt == "json":
        _emit_json(
            {
                "command": "oracle",
                "kind": instance.kind,
                "z_star": _frac(report.z_star),
                "z_max": _frac(report.z_max),
                "supports": len(report.supports),
                "edges": rows,
            }
        )
    else:
        print(
            f"oracle {instance.kind} z* = {_frac(report.z_star)}"
            f" z_max = {_frac(report.z_max)} supports = {len(report.supports)}"
        )
        for r in rows:
            restricted = r["restricted"] if r["restricted"] is not None else "none"
            print(
                f"({r['edge'][0]},{r['edge'][1]}) restricted={restricted}"
                f" status={r['status']}"
            )
    return EXIT_OK


def verify_cmd(instance: WeightedInstance, fam: IncompatibleFamily,
               args: argparse.Namespace) -> int:
    """Run the filter and the oracle and compare their classifications."""
    # the oracle first: its size guard stops an instance above the cap before any solve
    try:
        oracle_ac = set(oracle.enumerate(instance).ac_set)
    except InfeasibleConstraintError:
        oracle_ac = set()
    try:
        marks = propagation.ac_by_lp(instance, fam).marks
    except InfeasibleConstraintError:
        marks = None

    if marks is None:
        mismatches = [
            {"edge": [e.i, e.j], "filter": "infeasible", "oracle": CONSISTENT}
            for e in sorted(oracle_ac)
        ]
    else:
        mismatches = []
        for e in sorted(instance.edges):
            truth = CONSISTENT if e in oracle_ac else INCONSISTENT
            if marks[e] != truth:
                mismatches.append(
                    {"edge": [e.i, e.j], "filter": marks[e], "oracle": truth}
                )
    match = not mismatches
    if args.fmt == "json":
        _emit_json({"command": "verify", "match": match, "mismatches": mismatches})
    elif match:
        print("marks identical")
    else:
        for m in mismatches:
            print(
                f"MISMATCH ({m['edge'][0]},{m['edge'][1]}):"
                f" filter={m['filter']} oracle={m['oracle']}"
            )
    return EXIT_OK if match else EXIT_MISMATCH


def bound_cmd(instance: WeightedInstance, fam: IncompatibleFamily,
              args: argparse.Namespace) -> int:
    """Recover the exact optimum from one covering set's dual solution."""
    z_star = propagation.lower_bound(instance, fam)
    if args.fmt == "json":
        _emit_json(
            {"command": "bound", "family": fam.strategy, "z_star": _frac(z_star)}
        )
    else:
        print(f"z* = {_frac(z_star)}")
    return EXIT_OK


def _budget(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False on every parser: no option is matched by a prefix
    parser = argparse.ArgumentParser(
        prog="rcfilter",
        description="Cost-based filtering for weighted constraints via exact dual solves.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    for name, run in (("filter", filter_cmd), ("oracle", oracle_cmd),
                      ("verify", verify_cmd), ("bound", bound_cmd)):
        sub = commands.add_parser(
            name, help=run.__doc__, description=run.__doc__, allow_abbrev=False
        )
        sub.set_defaults(command=name, run=run)
        sub.add_argument("instance_file", metavar="INSTANCE_FILE")
        if run is not oracle_cmd:
            sub.add_argument(
                "--family", dest="strategy", choices=["domains", "layers"],
                default="domains",
                help="How to split the edges into pairwise-incompatible sets"
                " (default: %(default)s).",
            )
        if run is filter_cmd:
            sub.add_argument("--budget", type=_budget, help="Max dual solves.")
            sub.add_argument(
                "--emit-duals", action="store_true",
                help="Include every dual solution in the report.",
            )
        sub.add_argument(
            "--format", dest="fmt", choices=["json", "text"], default="json",
            help="Report format (default: %(default)s).",
        )
    return parser


_PARSER = _build_parser()


def _error(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    """Entry point returning the exit status (suitable for console_scripts)."""
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the help (status 0) or a usage error
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        instance = model.load_instance(args.instance_file)
    except OSError as exc:
        return _error(EXIT_USAGE, f"cannot read {args.instance_file}: {exc}")
    except ValueError as exc:
        return _error(EXIT_USAGE, f"parse failure: {exc}")
    problems = model.validate(instance)
    if problems:
        return _error(EXIT_INVALID, "invalid instance: " + "; ".join(problems))
    fam = None
    if args.run is not oracle_cmd:
        try:
            fam = formulations.family(instance, args.strategy)
        except ValueError as exc:
            return _error(EXIT_USAGE, str(exc))
    try:
        return args.run(instance, fam, args)
    except InfeasibleConstraintError as exc:
        _emit_infeasible(args.fmt, args.command, exc.z_lb)
        return EXIT_INFEASIBLE
    except SizeGuardError as exc:
        return _error(EXIT_SIZE, str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
