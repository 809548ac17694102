"""Exact outputs pinned against plain-text files under ``tests/golden/``.

Each golden file holds one record per line: solutions of seeded random LPs,
CLI reports on ``instances/*.json``, and the duals of the averaged
satisfaction dual and of the hard alldiff family.  Any change to a pivot, a
dual or a report shows here as the first line that differs.

The files are written by the code they pin, so a change that is meant to keep
every output regenerates nothing.  To rewrite them after an intended output
change, run ``PYTHONPATH=src python tests/test_pinned_outputs.py``.
"""

from __future__ import annotations

import contextlib
import io
import random
from fractions import Fraction
from pathlib import Path

import pytest

from rcfilter import ac_by_lp, averaged_satisfaction_dual, worst_case_alldiff
from rcfilter.cli import main
from rcfilter.lp_core import EQ, GE, LE, MAX, MIN, LinearProgram, Row, solve

from corpus import satisfaction_corpus

GOLDEN = Path(__file__).parent / "golden"
INSTANCES = Path(__file__).parent.parent / "instances"


def _random_lp(rng: random.Random) -> LinearProgram:
    """A small program whose rows mostly keep a drawn point feasible.

    About a third of the programs come out optimal, a third unbounded and a
    third infeasible.
    """

    def q() -> Fraction:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    columns = tuple(f"x{k}" for k in range(rng.randint(1, 4)))
    free = frozenset(t for t in columns if rng.random() < 0.3)
    point = {t: q() if t in free else abs(q()) for t in columns}
    rows = []
    for k in range(rng.randint(1, 5)):
        coeffs = {t: q() for t in columns if rng.random() < 0.7}
        rel = rng.choice((LE, EQ, GE))
        rhs = sum(a * point[t] for t, a in coeffs.items())
        if rng.random() < 0.3:
            rhs = q()  # may cut the point off
        elif rel != EQ:
            rhs += abs(q()) if rel == LE else -abs(q())
        rows.append(Row(coeffs, rel, rhs, f"r{k}"))
    return LinearProgram(
        sense=rng.choice((MIN, MAX)),
        columns=columns,
        objective={t: q() for t in columns},
        rows=tuple(rows),
        free=free,
    )


def random_lp_records() -> list[str]:
    rng = random.Random(20261018)
    out = []
    for k in range(2000):
        sol = solve(_random_lp(rng))
        primal = " ".join(f"{t}={v}" for t, v in sol.primal.items())
        dual = " ".join(f"{t}={v}" for t, v in sol.dual.items())
        out.append(f"{k} {sol.status} obj={sol.objective} primal[{primal}] dual[{dual}]")
    return out


def cli_records() -> list[str]:
    commands = []
    for path in sorted(INSTANCES.glob("*.json")):
        families = [[], ["--family", "layers"]] if path.name.startswith("dag") else [[]]
        for fam in families:
            for fmt in ("json", "text"):
                commands.append(["filter", path, "--emit-duals", "--format", fmt, *fam])
                commands.append(["bound", path, "--format", fmt, *fam])
            commands.append(["verify", path, "--format", "text", *fam])
        for fmt in ("json", "text"):
            commands.append(["oracle", path, "--format", fmt])
    out = []
    for command, path, *options in commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main([command, str(path), *options])
        out.append(" ".join(["$ rcfilter", command, path.name, *options]))
        out.extend(buf.getvalue().splitlines())
        out.append(f"exit {code}")
    return out


def _dual_record(label: str, dual) -> str:
    u = " ".join(f"{k}={dual.u[k]}" for k in sorted(dual.u))
    v = " ".join(f"{k}={dual.v[k]}" for k in sorted(dual.v))
    return f"{label} w={dual.w} u[{u}] v[{v}]"


def dual_records() -> list[str]:
    out = []
    for k, sat in enumerate(satisfaction_corpus(50)):
        _, dual = averaged_satisfaction_dual(sat)
        out.append(_dual_record(f"averaged {k}", dual))
    for n in range(2, 6):
        instance, _ = worst_case_alldiff(n)
        for edge_set, dual in ac_by_lp(instance).duals_used:
            members = ",".join(f"({e.i},{e.j})" for e in edge_set)
            out.append(_dual_record(f"hard n={n} set={members}", dual))
    return out


RECORDS = {
    "random_lps.txt": random_lp_records,
    "cli_reports.txt": cli_records,
    "duals.txt": dual_records,
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_outputs_match_golden_file(name):
    golden = (GOLDEN / name).read_text().splitlines()
    actual = RECORDS[name]()
    for k, (want, got) in enumerate(zip(golden, actual), start=1):
        assert got == want, f"{name} line {k} differs:\n  golden: {want}\n  actual: {got}"
    assert len(actual) == len(golden), (
        f"{name}: {len(actual)} records, golden file has {len(golden)}"
    )


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, records in RECORDS.items():
        (GOLDEN / name).write_text("\n".join(records()) + "\n")
