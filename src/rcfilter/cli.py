"""Command-line front end: filter, oracle, verify and bound over instance files.

Reports are deterministic: the same command on the same file produces byte
identical output.  All rationals are printed exactly (p/q, never floats).

Arguments are parsed once: an argv that starts with a command goes straight
to that command's subparser, and any other argv, or one with arguments left
over, to the full parser, which prints the usage, help and errors.

Each command is ``run(instance, args) -> (exit_code, report)`` and
prints nothing.  ``main`` owns the exit codes and the rendering: it prints the
report as JSON, or as text through the command's renderer, which reads only
the report.

Exit statuses: 0 ok, 1 usage, parse or output failure, 2 invalid instance,
3 infeasible constraint, 4 verify mismatch, 5 size guard.  The commands
return 0 or 4 and raise every other failure.  A report or a ``--help``
that cannot be written exits 1: silently on a closed pipe, with one error
line otherwise.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional

from . import model, oracle, propagation
from .model import InfeasibleConstraintError, WeightedInstance
from .oracle import SizeGuardError
from .propagation import CONSISTENT, INCONSISTENT, UNMARKED

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_MISMATCH = 4
EXIT_SIZE = 5


_quote = json.encoder.encode_basestring_ascii  # the C quoting json.dumps uses
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _write_json(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` for a report, without the pure-Python encoder.

    ``json`` encodes with an indent in Python, one generator step per token;
    a report holds only dicts with str keys, lists, str, int, bool and None,
    so this writes the same bytes with one call per container.
    """
    if not value:
        return "{}" if type(value) is dict else "[]"
    inner = pad + "  "
    is_dict = type(value) is dict
    parts = []
    for x in value.values() if is_dict else value:
        t = type(x)
        if t is str:
            parts.append(_quote(x))
        elif t is int:
            parts.append(int.__repr__(x))
        elif t is dict or t is list:
            parts.append(_write_json(x, inner))
        elif x is None or t is bool:
            parts.append(_CONSTANTS[x])
        else:
            raise TypeError(f"a report holds no {t.__name__}")
    if is_dict:
        parts = [_quote(k) + ": " + part for k, part in zip(value, parts)]
        return "{" + inner + ("," + inner).join(parts) + pad + "}"
    return "[" + inner + ("," + inner).join(parts) + pad + "]"


def _frac(x) -> Optional[str]:
    return None if x is None else str(x)


def _dual_payload(edge_set, dual) -> dict:
    return {
        "set": [[e.i, e.j] for e in edge_set],
        "w": _frac(dual.w),
        "u": {str(k): _frac(dual.u[k]) for k in sorted(dual.u)},
        "v": {str(k): _frac(dual.v[k]) for k in sorted(dual.v)},
    }


def filter_cmd(instance: WeightedInstance, args: argparse.Namespace) -> tuple[int, dict]:
    """Classify every edge as consistent or inconsistent with the cost bound."""
    result = propagation.ac_by_lp(instance, args.strategy, args.budget)
    report = {
        "command": "filter",
        "kind": instance.kind,
        "family": args.strategy,
        "z_max": _frac(instance.z_max),
        "complete": result.complete,
        "solves": result.solves,
        "z_lb": _frac(result.z_lb),
        "marks": [
            {"edge": [e.i, e.j], "mark": result.marks[e]}
            for e in sorted(result.marks)
        ],
    }
    if args.emit_duals:
        report["duals"] = [
            _dual_payload(edge_set, dual) for edge_set, dual in result.duals()
        ]
    return EXIT_OK, report


def _filter_text(report: dict) -> str:
    lines = [
        f"filter {report['kind']} family={report['family']} z_max={report['z_max']}",
        f"z_lb = {report['z_lb']}",
        f"solves = {report['solves']}",
        f"complete = {'yes' if report['complete'] else 'no'}",
    ]
    for label in (CONSISTENT, INCONSISTENT, UNMARKED):
        members = " ".join(
            f"({m['edge'][0]},{m['edge'][1]})"
            for m in report["marks"] if m["mark"] == label
        )
        lines.append(f"{label}: {members if members else '-'}")
    for pos, d in enumerate(report.get("duals", []), start=1):
        lines.append(" ".join([
            f"dual {pos}:",
            "set=" + ",".join(f"({i},{j})" for i, j in d["set"]),
            f"w={d['w']}",
            *(f"u[{k}]={x}" for k, x in d["u"].items()),
            *(f"v[{k}]={x}" for k, x in d["v"].items()),
        ]))
    return "\n".join(lines)


def oracle_cmd(instance: WeightedInstance, args: argparse.Namespace) -> tuple[int, dict]:
    """Exhaustive ground truth: supports, restricted optima, exact AC classes."""
    report = oracle.enumerate(instance)
    classes = report.classification()
    return EXIT_OK, {
        "command": "oracle",
        "kind": instance.kind,
        "z_star": _frac(report.z_star),
        "z_max": _frac(report.z_max),
        "supports": len(report.supports),
        "edges": [
            {
                "edge": [e.i, e.j],
                "restricted": _frac(report.z_restricted[e]),
                "exact_rc": _frac(report.exact_rc[e]),
                "status": classes[e],
            }
            for e in sorted(instance.edges)
        ],
    }


def _oracle_text(report: dict) -> str:
    lines = [
        f"oracle {report['kind']} z* = {report['z_star']}"
        f" z_max = {report['z_max']} supports = {report['supports']}"
    ]
    for r in report["edges"]:
        restricted = r["restricted"] if r["restricted"] is not None else "none"
        lines.append(
            f"({r['edge'][0]},{r['edge'][1]}) restricted={restricted}"
            f" status={r['status']}"
        )
    return "\n".join(lines)


def verify_cmd(instance: WeightedInstance, args: argparse.Namespace) -> tuple[int, dict]:
    """Run the filter and the oracle and compare their classifications."""
    # the oracle first: its size guard stops an instance above the cap before any solve
    try:
        oracle_ac = set(oracle.enumerate(instance).ac_set)
    except InfeasibleConstraintError:
        oracle_ac = set()
    try:
        marks = propagation.ac_by_lp(instance, args.strategy).marks
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
    return (EXIT_OK if match else EXIT_MISMATCH), {
        "command": "verify", "match": match, "mismatches": mismatches,
    }


def _verify_text(report: dict) -> str:
    if report["match"]:
        return "marks identical"
    return "\n".join(
        f"MISMATCH ({m['edge'][0]},{m['edge'][1]}):"
        f" filter={m['filter']} oracle={m['oracle']}"
        for m in report["mismatches"]
    )


def bound_cmd(instance: WeightedInstance, args: argparse.Namespace) -> tuple[int, dict]:
    """Print the exact optimum z*, read from one combinatorial pass with no LP solve."""
    return EXIT_OK, {"command": "bound", "z_star": _frac(propagation.lower_bound(instance))}


def _bound_text(report: dict) -> str:
    return f"z* = {report['z_star']}"


def _infeasible_text(report: dict) -> str:
    suffix = "" if report["z_lb"] is None else f" (z_lb = {report['z_lb']})"
    return f"infeasible: no support within the cost bound{suffix}"


def _budget(text: str) -> int:
    # ASCII digits only: str.isdecimal and int() also take other scripts' digits
    if not (text.isascii() and text.isdecimal()):
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return int(text)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on first use, not at import; allow_abbrev=False on every parser:
    # no option is matched by a prefix.  ``parser.commands`` maps each command
    # name to its subparser, for ``_parse``
    parser = argparse.ArgumentParser(
        prog="rcfilter",
        description="Cost-based filtering for weighted constraints via exact dual solves.",
        allow_abbrev=False,
    )
    parser.commands = {}
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    for name, run, render in (("filter", filter_cmd, _filter_text),
                              ("oracle", oracle_cmd, _oracle_text),
                              ("verify", verify_cmd, _verify_text),
                              ("bound", bound_cmd, _bound_text)):
        sub = parser.commands[name] = commands.add_parser(
            name, help=run.__doc__, description=run.__doc__, allow_abbrev=False
        )
        sub.set_defaults(command=name, run=run, render=render)
        sub.add_argument("instance_file", metavar="INSTANCE_FILE")
        if run is filter_cmd or run is verify_cmd:  # z* needs no family
            sub.add_argument(
                "--family", dest="strategy", choices=["domains", "layers"],
                default="domains",
                help="How to split the edges into pairwise-incompatible sets"
                " (default: %(default)s).",
            )
        if run is filter_cmd:
            sub.add_argument("--budget", type=_budget, help="Max family duals built.")
            sub.add_argument(
                "--emit-duals", action="store_true",
                help="Include every dual solution in the report.",
            )
        sub.add_argument(
            "--format", dest="fmt", choices=["json", "text"], default="json",
            help="Report format (default: %(default)s).",
        )
    return parser


def _parse(argv: Optional[list]) -> argparse.Namespace:
    """``_build_parser().parse_args(argv)``, in one pass when argv starts with a command.

    The top-level parser adds nothing to the namespace and hands all that
    follows the command to its subparser, so that subparser runs alone.  Any
    other argv, or arguments left over, go to the full parser and its errors.
    """
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is not None:
        args, extras = sub.parse_known_args(argv[1:])
        if not extras:
            return args
    return parser.parse_args(argv)


def _error(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _drop_stdout() -> None:
    # the unwritten report stays buffered, and the interpreter's final flush
    # would fail on it again: send standard output's descriptor to devnull
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # not a file descriptor: nothing is flushed at exit
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def _write(text: Optional[str], code: int) -> int:
    """Print ``text`` (None: flush what is buffered) and return ``code``, or 1 on failure."""
    try:
        if text is not None:
            print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        _drop_stdout()  # the reader has gone: nothing to tell it
        return EXIT_USAGE
    except OSError as exc:
        _drop_stdout()
        return _error(EXIT_USAGE, f"cannot write the report: {exc}")
    return code


def main(argv=None) -> int:
    """Entry point returning the exit status (suitable for console_scripts).

    argv is parsed once, by ``_parse``, with the full parser as its fall-back.
    """
    try:
        args = _parse(argv)
    except SystemExit as exc:
        # argparse has printed the help (status 0), still buffered, or a
        # usage error to stderr
        return _write(None, EXIT_OK) if exc.code == 0 else EXIT_USAGE
    try:
        instance = model.load_instance(args.instance_file)
    except OSError as exc:
        return _error(EXIT_USAGE, f"cannot read {args.instance_file}: {exc}")
    except ValueError as exc:
        return _error(EXIT_USAGE, f"parse failure: {exc}")
    problems = model.validate(instance)
    if problems:
        return _error(EXIT_INVALID, "invalid instance: " + "; ".join(problems))
    render = args.render
    try:
        code, report = args.run(instance, args)
    except InfeasibleConstraintError as exc:
        code, render = EXIT_INFEASIBLE, _infeasible_text
        report = {"command": args.command, "status": "infeasible", "z_lb": _frac(exc.z_lb)}
    except SizeGuardError as exc:
        return _error(EXIT_SIZE, str(exc))
    except ValueError as exc:
        # validate has passed: the one input left to reject is a --family its kind lacks
        return _error(EXIT_USAGE, str(exc))
    return _write(_write_json(report) if args.fmt == "json" else render(report), code)


if __name__ == "__main__":
    raise SystemExit(main())
