#!/usr/bin/env python3
"""The rcfilter benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload corpus_small --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0

Run from anywhere; the program is imported from the ``src`` directory next
to ``perfbench``.  A run generates the workload's items from ``--seed``,
computes the reference answers, measures set-up time in fresh interpreters,
then lets ``worker.py`` drive the program for ``--seconds``.  Outputs are
checked against the references outside the timed region; the run exits 1
when any of them is wrong.

``--trace 0`` reports the end-to-end metrics.  The worker cycles through the
items until ``--seconds`` are spent, and each item's fastest call counts:
``instances_per_s`` is the item count over the sum of those times and
``latency_p50_ms`` their median.  The worker moves between the CPUs it may
use about once a pass, so that each item is timed on every CPU.
``setup_s`` is the fastest import time over fresh interpreters the worker
starts at each of those moves, and ``peak_rss_mb`` the worker's peak
resident memory.

``--trace 1`` spends half the run untraced and half with spans around every
public function of the program's modules, and reports the per-layer
metrics: counts over a fixed prefix of the items (they repeat exactly for a
seed) and self seconds per instance.  Spans are written to
``perfbench/out/``.

Every metric line goes to stdout as ``name = value unit``; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(ROOT / "src"))  # the oracle, for the reference answers

import tracing  # noqa: E402
import workloads  # noqa: E402

P95_MIN_CALLS = 200  # so that at least ten calls lie beyond the 95th percentile
WORKER_GRACE_S = 90  # beyond --seconds before a stuck worker is killed

# workloads run through `rcfilter filter <file> ...`, with their extra options
CLI_OPTIONS = {
    "corpus_small": [],
    "dag_deep": ["--family", "layers", "--budget", str(workloads.DAG_BUDGET)],
}


def fraction_ref_ms() -> float:
    """A fixed Fraction loop, to show host speed beside a run; corrects nothing."""
    samples = []
    for _ in range(3):
        start = perf_counter()
        x = Fraction(0)
        for k in range(1, 2000):
            x += Fraction(1, k) - Fraction(k % 7, k + 3)
        samples.append((perf_counter() - start) * 1e3)
    return statistics.median(samples)


def _python(args: list[str], timeout: float) -> str:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # import from cached bytecode, as installed
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), *args],
        capture_output=True, text=True, timeout=timeout, env=env, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.strip()}")
    return proc.stdout.strip().splitlines()[-1]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    items = workloads.generate(workload, seed)
    refs = workloads.references(workload, items)

    work = HERE / "_work"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work))
    try:
        # the CLI workloads get only the file paths, so that the measured
        # process holds no parsed copy of the instances
        data: dict = {"workload": workload}
        if workload in CLI_OPTIONS:
            data["options"] = CLI_OPTIONS[workload]
            data["files"] = []
            for k, inst in enumerate(items):
                path = tmp / f"{k:04d}.json"
                path.write_text(json.dumps(inst))
                data["files"].append(str(path))
        else:
            data["items"] = items
        (tmp / "items.json").write_text(json.dumps(data))
        args = ["--items", str(tmp / "items.json"), "--seconds", str(seconds)]
        if trace:
            out_dir = HERE / "out"
            out_dir.mkdir(exist_ok=True)
            args += ["--trace", "1", "--prefix", str(workloads.COUNT_PREFIX[workload]),
                     "--spans", str(out_dir / f"spans-{workload}-{seed}.jsonl")]
        ref_before = fraction_ref_ms()
        result = json.loads(_python(args, seconds + WORKER_GRACE_S))
        ref_after = fraction_ref_ms()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    # an item's first output is checked; every later call of it must repeat it
    problems = {}
    for idx, out in enumerate(result["outputs"]):
        if out is not None:
            problem = workloads.check(workload, items[idx], refs[idx], out)
            if problem:
                problems[idx] = problem
    attempted = sum(result["calls"])
    failed = sum(
        calls if idx in problems else result["diverged"][idx]
        for idx, calls in enumerate(result["calls"])
    )
    # set-up time is the fastest of the probes made across the run: the
    # median of 32 probes made in bursts swung by 40% between runs, and
    # even their fastest by 28% between two sets, as slow stretches of the
    # host last seconds to minutes
    setup = result.get("setup")
    return {"result": result, "setup_s": min(setup) if setup else None,
            "attempted": attempted,
            "failed": failed, "problems": problems,
            "fraction_ref_ms": (ref_before, ref_after)}


def end_to_end(run: dict) -> dict:
    # each item's fastest call over the run's passes: the host slows every
    # call by up to 2x for seconds at a time, and a slow stretch lengthens
    # some calls of an item but seldom all of them
    best = run["result"]["timed"]["best"]
    return {
        "instances_per_s": {"value": len(best) / sum(best), "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(best) * 1e3, "unit": "ms"},
        "setup_s": {"value": run["setup_s"], "unit": "s"},
        "peak_rss_mb": {"value": run["result"]["peak_rss_kb"] / 1024, "unit": "MB"},
    }


def per_layer(run: dict) -> dict:
    res = run["result"]
    untraced, traced = res["untraced"], res["traced"]
    ips_untraced = untraced["completed"] / untraced["elapsed"]
    ips_traced = traced["completed"] / traced["elapsed"]
    return tracing.per_layer_metrics(
        traced["counts"], traced["self_s"], traced["completed"],
        overhead_frac=1 - ips_traced / ips_untraced,
        fraction_ref_ms=statistics.mean(run["fraction_ref_ms"]),
    )


def report(workload: str, seed: int, run: dict, trace: bool) -> dict:
    print(f"workload {workload} (seed {seed}): {workloads.WHY[workload]}")
    metrics = per_layer(run) if trace else end_to_end(run)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    attempted, failed = run["attempted"], run["failed"]
    print(f"  fail_frac = {failed / attempted:.6g} ({failed} of {attempted} calls)")
    if not trace:
        lat = run["result"]["timed"]["latencies"]
        if len(lat) >= P95_MIN_CALLS:
            p95 = statistics.quantiles(lat, n=20)[18] * 1e3
            print(f"  latency_p95_ms = {p95:.6g} ms ({len(lat)} calls)")
        else:
            print(f"  latency_p95_ms not reported: {len(lat)} calls < {P95_MIN_CALLS}")
    before, after = run["fraction_ref_ms"]
    print(f"  host fraction_ref_ms before = {before:.4g} ms, after = {after:.4g} ms")
    for idx, problem in sorted(run["problems"].items())[:5]:
        print(f"  WRONG item {idx}: {problem}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "rcfilter" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        try:
            run = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        got = report(name, args.seed, run, bool(args.trace))
        attempted += run["attempted"]
        failed += run["failed"]
        if args.workload == "all":
            got = {f"{name}.{k}": v for k, v in got.items()}
        metrics.update(got)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
