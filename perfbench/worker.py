"""The process that runs one workload: one client, closed loop, no threads.

Started by ``run.py`` with the generated items already on disk.  It imports
``rcfilter`` from the checkout's ``src``, then calls the program on the items
in order, cycling, each call sent as soon as the previous one returned, until
the run's seconds are spent, moving between the allowed CPUs about once a
pass.  Only the call itself is timed per call.  An untraced run also
reports each item's fastest call and, at each move, times one set-up probe.
The first output of every item is kept and later outputs of the same item
are compared with it.  The result goes to stdout as one JSON line.

``--probe`` only measures the import and exits: that is the set-up time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter


def _import_program(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    start = perf_counter()
    import rcfilter  # noqa: F401
    import rcfilter.cli  # noqa: F401
    setup_s = perf_counter() - start
    if not Path(rcfilter.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"rcfilter imported from {rcfilter.__file__}, not {src}")
    return setup_s


def _calls(workload: str, data: dict):
    """The per-item call, the items it takes, and how to summarise its output."""
    from rcfilter import cli, duality, model, propagation
    from rcfilter.model import EdgeId, SatisfactionInstance

    if workload == "alldiff_hard":
        objs = [model.instance_from_dict(d) for d in data["items"]]

        def call(inst):
            # through the module attribute, so a traced run sees the call
            return propagation.ac_by_lp(inst)

        def summary(res):
            return {"marks": {f"{e.i},{e.j}": m for e, m in res.marks.items()},
                    "z_lb": None if res.z_lb is None else str(res.z_lb),
                    "solves": res.solves, "complete": res.complete}

        return call, objs, summary

    if workload == "satisfaction_avg":
        objs = [SatisfactionInstance(d["n_vars"], tuple(d["values"]),
                                     tuple(EdgeId(i, j) for i, j in d["edges"]))
                for d in data["items"]]

        def call(sat):
            return duality.averaged_satisfaction_dual(sat)

        def summary(res):
            encoded, dual = res
            return {"encoded": [[e.i, e.j, encoded.cost[e]] for e in encoded.edges],
                    "u": {str(k): str(x) for k, x in dual.u.items()},
                    "v": {str(k): str(x) for k, x in dual.v.items()},
                    "w": str(dual.w)}

        return call, objs, summary

    # the CLI workloads: rcfilter filter in-process, report captured
    objs = [["filter", path, *data["options"]] for path in data["files"]]

    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    def summary(res):
        return {"exit": res[0], "stdout": res[1]}

    return call, objs, summary


class Failed(str):
    """Output of a call that raised: the exception's type and message."""


# The host slows one CPU at a time, often for seconds (a fixed loop timed on
# each CPU in turn ran 1.8x slower on one than on the other), so the loop
# moves between the CPUs it may use and times every item on each of them.
CPUS = sorted(os.sched_getaffinity(0))


class Loop:
    """Closed-loop driver; remembers first outputs across the runs it makes."""

    def __init__(self, call, objs):
        self.call, self.objs = call, objs
        self.first: dict = {}
        self.calls: Counter = Counter()
        self.diverged: Counter = Counter()

    def run(self, seconds: float, min_calls: int = 1, after_call=None, at_move=None) -> dict:
        call, objs, first = self.call, self.objs, self.first
        # about once a pass, one item later each time, so that every item
        # runs on each CPU and no item always runs first after a move
        move_every = len(objs) + 1
        latencies = []
        k = 0
        start = perf_counter()
        deadline = start + seconds
        while True:
            if k % move_every == 0:
                cpu = CPUS[k // move_every % len(CPUS)]
                os.sched_setaffinity(0, {cpu})
                if at_move is not None:
                    at_move()
            idx = k % len(objs)
            t0 = perf_counter()
            try:
                out = call(objs[idx])
            except Exception as exc:  # a failed call is counted, the run goes on
                out = Failed(f"{type(exc).__name__}: {exc}")
            t1 = perf_counter()
            latencies.append(t1 - t0)
            k += 1
            self.calls[idx] += 1
            if idx not in first:
                first[idx] = out
            elif out != first[idx]:
                self.diverged[idx] += 1
            if after_call is not None:
                after_call(k, out)
            if t1 >= deadline and k >= min_calls:
                break
        os.sched_setaffinity(0, CPUS)
        return {"completed": k, "elapsed": t1 - start, "latencies": latencies}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--items")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--prefix", type=int, default=1)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    setup_s = _import_program(Path(args.root))
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    data = json.loads(Path(args.items).read_text())
    workload = data["workload"]
    call, objs, summary = _calls(workload, data)
    loop = Loop(call, objs)
    result: dict = {}
    if not args.trace:
        # peak memory is read after the first pass over the items, a fixed
        # amount of work: read at the end of the run it grew with the number
        # of calls the host's speed allowed
        def after_call(k, out):
            if k == len(objs):
                result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        # a fresh interpreter importing the program, between calls, on the
        # CPU the loop has just moved to: the set-up time, sampled across the
        # run as the host's slow stretches last seconds to minutes
        setup = []

        def probe():
            proc = subprocess.run(
                [sys.executable, __file__, "--root", args.root, "--probe"],
                capture_output=True, text=True, timeout=60, check=True,
            )
            setup.append(json.loads(proc.stdout)["setup_s"])

        # every item is called at least once, so every item has a best time
        timed = loop.run(args.seconds, min_calls=len(objs), after_call=after_call,
                         at_move=probe)
        result["setup"] = setup
        timed["best"] = [min(timed["latencies"][i::len(objs)]) for i in range(len(objs))]
        result["timed"] = timed
    else:
        from tracing import Tracer

        # untraced then traced halves: their throughput gap is the trace overhead
        result["untraced"] = loop.run(args.seconds / 2)
        tracer = Tracer()
        prefix: dict = {}

        def after_call(k, out):
            if "files" in data and not isinstance(out, Failed):
                tracer.counts["cli.report_bytes"] += len(out[1].encode())
            if k == args.prefix:
                prefix.update(tracer.snapshot())

        tracer.install()
        try:
            traced = loop.run(args.seconds / 2, min_calls=args.prefix, after_call=after_call)
        finally:
            tracer.uninstall()
        tracer.write_spans(args.spans)
        traced["counts"] = prefix
        traced["self_s"] = dict(tracer.self_s)
        result["traced"] = traced

    outputs = []
    for idx in range(len(objs)):
        out = loop.first.get(idx)
        if out is None:
            outputs.append(None)
        elif isinstance(out, Failed):
            outputs.append({"error": str(out)})
        else:
            outputs.append(summary(out))
    result["outputs"] = outputs
    result["calls"] = [loop.calls[i] for i in range(len(objs))]
    result["diverged"] = [loop.diverged[i] for i in range(len(objs))]
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
