"""Command-line front end: filter, oracle, verify and bound over instance files.

Reports are deterministic: the same command on the same file produces byte
identical output.  All rationals are printed exactly (p/q, never floats).

Exit statuses: 0 ok, 1 usage or parse failure, 2 invalid instance,
3 infeasible constraint, 4 verify mismatch, 5 size guard.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Optional

import click

from . import formulations, model, oracle, propagation
from .model import EdgeId, InfeasibleConstraintError, WeightedInstance
from .oracle import SizeGuardError
from .propagation import CONSISTENT, INCONSISTENT

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_MISMATCH = 4
EXIT_SIZE = 5


class _Failure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _frac(x) -> Optional[str]:
    return None if x is None else str(Fraction(x))


def _load_instance(path: str) -> WeightedInstance:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _Failure(EXIT_USAGE, f"cannot read {path}: {exc}")
    try:
        instance = model.instance_from_dict(json.loads(text))
    except ValueError as exc:
        raise _Failure(EXIT_USAGE, f"parse failure: {exc}")
    problems = model.validate(instance)
    if problems:
        raise _Failure(EXIT_INVALID, "invalid instance: " + "; ".join(problems))
    return instance


def _family(instance: WeightedInstance, strategy: str):
    try:
        return formulations.family(instance, strategy)
    except ValueError as exc:
        raise _Failure(EXIT_USAGE, str(exc))


def _emit_json(data: dict) -> None:
    click.echo(json.dumps(data, indent=2))


def _edge_key(e: EdgeId) -> tuple[int, int]:
    return (e.i, e.j)


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
        click.echo(f"infeasible: no support within the cost bound{suffix}")


@click.group()
def cli() -> None:
    """Cost-based filtering for weighted constraints via exact dual solves."""


_instance_arg = click.argument("instance_file", type=click.Path(dir_okay=False))
_family_opt = click.option(
    "--family",
    "strategy",
    type=click.Choice(["domains", "layers"]),
    default="domains",
    show_default=True,
    help="How to split the edges into pairwise-incompatible sets.",
)
_format_opt = click.option(
    "--format",
    "fmt",
    type=click.Choice(["json", "text"]),
    default="json",
    show_default=True,
    help="Report format.",
)


@cli.command("filter")
@_instance_arg
@_family_opt
@click.option("--budget", type=click.IntRange(min=0), default=None, help="Max dual solves.")
@click.option("--emit-duals", is_flag=True, help="Include every dual solution in the report.")
@_format_opt
def filter_cmd(instance_file, strategy, budget, emit_duals, fmt) -> int:
    """Classify every edge as consistent or inconsistent with the cost bound."""
    instance = _load_instance(instance_file)
    fam = _family(instance, strategy)
    try:
        result = propagation.ac_by_lp(instance, fam, budget=budget)
    except InfeasibleConstraintError as exc:
        _emit_infeasible(fmt, "filter", exc.z_lb)
        return EXIT_INFEASIBLE
    marks = [
        {"edge": [e.i, e.j], "mark": result.marks[e]}
        for e in sorted(result.marks, key=_edge_key)
    ]
    if fmt == "json":
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
        if emit_duals:
            data["duals"] = [
                _dual_payload(edge_set, dual) for edge_set, dual in result.duals_used
            ]
        _emit_json(data)
    else:
        click.echo(
            f"filter {instance.kind} family={fam.strategy} z_max={_frac(instance.z_max)}"
        )
        click.echo(f"z_lb = {_frac(result.z_lb)}")
        click.echo(f"solves = {result.solves}")
        click.echo(f"complete = {'yes' if result.complete else 'no'}")
        for label in (CONSISTENT, INCONSISTENT, "unmarked"):
            members = " ".join(
                f"({m['edge'][0]},{m['edge'][1]})" for m in marks if m["mark"] == label
            )
            click.echo(f"{label}: {members if members else '-'}")
        if emit_duals:
            for pos, (edge_set, dual) in enumerate(result.duals_used, start=1):
                parts = [f"dual {pos}:"]
                parts.append("set=" + ",".join(f"({e.i},{e.j})" for e in edge_set))
                parts.append(f"w={_frac(dual.w)}")
                for k in sorted(dual.u):
                    parts.append(f"u[{k}]={_frac(dual.u[k])}")
                for k in sorted(dual.v):
                    parts.append(f"v[{k}]={_frac(dual.v[k])}")
                click.echo(" ".join(parts))
    return EXIT_OK


@cli.command("oracle")
@_instance_arg
@_format_opt
def oracle_cmd(instance_file, fmt) -> int:
    """Exhaustive ground truth: supports, restricted optima, exact AC classes."""
    instance = _load_instance(instance_file)
    try:
        report = oracle.enumerate(instance)
    except SizeGuardError as exc:
        raise _Failure(EXIT_SIZE, str(exc))
    except InfeasibleConstraintError:
        _emit_infeasible(fmt, "oracle", None)
        return EXIT_INFEASIBLE
    classes = report.classification()
    rows = [
        {
            "edge": [e.i, e.j],
            "restricted": _frac(report.z_restricted[e]),
            "exact_rc": _frac(report.exact_rc[e]),
            "status": classes[e],
        }
        for e in sorted(instance.edges, key=_edge_key)
    ]
    if fmt == "json":
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
        click.echo(
            f"oracle {instance.kind} z* = {_frac(report.z_star)}"
            f" z_max = {_frac(report.z_max)} supports = {len(report.supports)}"
        )
        for r in rows:
            restricted = r["restricted"] if r["restricted"] is not None else "none"
            click.echo(
                f"({r['edge'][0]},{r['edge'][1]}) restricted={restricted}"
                f" status={r['status']}"
            )
    return EXIT_OK


@cli.command("verify")
@_instance_arg
@_family_opt
@_format_opt
def verify_cmd(instance_file, strategy, fmt) -> int:
    """Run the filter and the oracle and compare their classifications."""
    instance = _load_instance(instance_file)
    fam = _family(instance, strategy)
    filter_infeasible = False
    result = None
    try:
        result = propagation.ac_by_lp(instance, fam)
    except InfeasibleConstraintError:
        filter_infeasible = True
    try:
        report = oracle.enumerate(instance)
        oracle_ac = set(report.ac_set)
        oracle_empty = not oracle_ac
    except SizeGuardError as exc:
        raise _Failure(EXIT_SIZE, str(exc))
    except InfeasibleConstraintError:
        oracle_ac = set()
        oracle_empty = True

    mismatches = []
    if filter_infeasible:
        if not oracle_empty:
            mismatches = [
                {"edge": [e.i, e.j], "filter": "infeasible", "oracle": "consistent"}
                for e in sorted(oracle_ac, key=_edge_key)
            ]
    else:
        for e in sorted(instance.edges, key=_edge_key):
            ours = result.marks[e]
            truth = CONSISTENT if e in oracle_ac else INCONSISTENT
            if ours != truth:
                mismatches.append(
                    {"edge": [e.i, e.j], "filter": ours, "oracle": truth}
                )
    match = not mismatches
    if fmt == "json":
        _emit_json({"command": "verify", "match": match, "mismatches": mismatches})
    elif match:
        click.echo("marks identical")
    else:
        for m in mismatches:
            click.echo(
                f"MISMATCH ({m['edge'][0]},{m['edge'][1]}):"
                f" filter={m['filter']} oracle={m['oracle']}"
            )
    return EXIT_OK if match else EXIT_MISMATCH


@cli.command("bound")
@_instance_arg
@_family_opt
@_format_opt
def bound_cmd(instance_file, strategy, fmt) -> int:
    """Recover the exact optimum from one covering set's dual solution."""
    instance = _load_instance(instance_file)
    fam = _family(instance, strategy)
    try:
        z_star = propagation.lower_bound(instance, fam)
    except InfeasibleConstraintError as exc:
        _emit_infeasible(fmt, "bound", exc.z_lb)
        return EXIT_INFEASIBLE
    except ValueError as exc:
        raise _Failure(EXIT_USAGE, str(exc))
    if fmt == "json":
        _emit_json(
            {"command": "bound", "family": fam.strategy, "z_star": _frac(z_star)}
        )
    else:
        click.echo(f"z* = {_frac(z_star)}")
    return EXIT_OK


def main(argv=None) -> int:
    """Entry point returning the exit status (suitable for console_scripts)."""
    try:
        rv = cli.main(args=argv, standalone_mode=False)
    except _Failure as exc:
        click.echo(f"error: {exc}", err=True)
        return exc.code
    except click.ClickException as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return EXIT_USAGE
    except click.exceptions.Abort:
        return EXIT_USAGE
    return int(rv) if rv is not None else EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
