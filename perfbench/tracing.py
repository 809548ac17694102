"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` replaces each listed function by a wrapper on its module,
so calls through the module attribute and bare-name calls inside the module
both pass through it.  Spans nest by call stack; a span's self time is its
duration minus the time of the spans it caused.

The private stages of ``lp_core.solve`` (tableau build, phase-1 and phase-2
pivots, the certificate check) stay inside the one ``lp_core.solve`` span
until the program records per-solve statistics itself.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from time import perf_counter

# module -> public functions timed as spans
WRAPPED = {
    "cli": ("main",),
    "model": ("instance_from_dict", "validate"),
    "formulations": ("find_support", "family", "primal_program"),
    "duality": (
        "family_dual_program",
        "solve_family_dual",
        "reduced_cost",
        "solve_primal",
        "exact_reduced_cost",
        "shifted_cost_dual",
    ),
    "propagation": ("ac_by_lp",),
    "lp_core": ("solve", "dual_feasible"),
}

# the per-layer metrics, in report order, with their units
PER_LAYER = (
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.report_bytes", "bytes"),
    ("model.instance_from_dict.self_s", "s"),
    ("model.validate.calls", "count"),
    ("model.validate.self_s", "s"),
    ("formulations.find_support.calls", "count"),
    ("formulations.find_support.self_s", "s"),
    ("formulations.family.self_s", "s"),
    ("formulations.primal_program.calls", "count"),
    ("formulations.primal_program.self_s", "s"),
    ("duality.family_dual_program.calls", "count"),
    ("duality.family_dual_program.self_s", "s"),
    ("duality.solve_family_dual.self_s", "s"),
    ("duality.reduced_cost.calls", "count"),
    ("duality.reduced_cost.self_s", "s"),
    ("duality.solve_primal.calls", "count"),
    ("duality.exact_reduced_cost.calls", "count"),
    ("duality.shifted_cost_dual.calls", "count"),
    ("propagation.ac_by_lp.calls", "count"),
    ("propagation.ac_by_lp.self_s", "s"),
    ("propagation.solves", "count"),
    ("propagation.edges_per_solve", "ratio"),
    ("propagation.infeasible", "count"),
    ("lp_core.solve.calls", "count"),
    ("lp_core.solve.self_s", "s"),
    ("lp_core.dual_feasible.self_s", "s"),
    ("lp_core.rows", "count"),
    ("lp_core.cols", "count"),
    ("lp_core.nonzeros", "count"),
    ("lp_core.value_bits_max", "bits"),
    ("trace.overhead_frac", "frac"),
    ("host.fraction_ref_ms", "ms"),
)


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Tracer:
    """Spans and counts for one traced run; all state lives on the instance."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (id, parent id or -1, name index, start, end)
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()  # deterministic counts besides .calls
        self.value_bits_max = 0
        self._stack: list[list] = []  # [span id, name, child seconds] per open span
        self._saved: list[tuple] = []

    def install(self) -> None:
        for mod_name, funcs in WRAPPED.items():
            module = importlib.import_module(f"rcfilter.{mod_name}")
            for fn in funcs:
                original = getattr(module, fn)
                self._saved.append((module, fn, original))
                setattr(module, fn, self._wrap(f"{mod_name}.{fn}", original))

    def uninstall(self) -> None:
        for module, fn, original in reversed(self._saved):
            setattr(module, fn, original)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        hook = {"lp_core.solve": self._on_solve,
                "duality.solve_family_dual": self._on_family_solve,
                "propagation.ac_by_lp": self._on_ac_by_lp}.get(name)
        stack, spans = self._stack, self.spans

        def wrapper(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)  # reserve the id; filled in when the span ends
            frame = [span_id, name, 0.0]
            stack.append(frame)
            start = perf_counter()
            raised = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                raised = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][2] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[2]
                spans[span_id] = (span_id, parent, index, start, end)
                if hook is not None:
                    hook(args, None if raised else result, raised)

        return wrapper

    def _on_solve(self, args, sol, raised) -> None:
        lp = args[0]
        self.counts["lp_core.rows"] += len(lp.rows)
        self.counts["lp_core.cols"] += len(lp.columns)
        self.counts["lp_core.nonzeros"] += sum(len(r.coeffs) for r in lp.rows)
        if sol is not None:
            for x in (*sol.primal.values(), *sol.dual.values()):
                self.value_bits_max = max(self.value_bits_max, _bits(x))

    def _on_family_solve(self, args, dual, raised) -> None:
        # the filtering loop's dual solves, also those of calls that end infeasible
        if self._stack and self._stack[-1][1] == "propagation.ac_by_lp":
            self.counts["propagation.solves"] += 1

    def _on_ac_by_lp(self, args, result, raised) -> None:
        # edges per solve is only visible on calls that return their marks
        if result is not None:
            self.counts["classified"] += sum(
                1 for m in result.marks.values() if m != "unmarked")
            self.counts["solves_classifying"] += result.solves
        elif type(raised).__name__ == "InfeasibleConstraintError":
            self.counts["propagation.infeasible"] += 1

    def snapshot(self) -> dict:
        """The deterministic counts as they stand now."""
        out = {f"{n}.calls": self.calls[n] for n in self.names}
        out.update(self.counts)
        out["lp_core.value_bits_max"] = self.value_bits_max
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start_s", "end_s"],
                       "names": self.names}, fh)
            fh.write("\n")
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")


def per_layer_metrics(counts: dict, self_s: dict, instances: int,
                      overhead_frac: float, fraction_ref_ms: float) -> dict:
    """Per-layer values: counts over the fixed prefix, self seconds per instance."""
    solves = counts.get("solves_classifying", 0)
    values = {
        "propagation.edges_per_solve": counts.get("classified", 0) / solves if solves else 0.0,
        "trace.overhead_frac": overhead_frac,
        "host.fraction_ref_ms": fraction_ref_ms,
    }
    for name, unit in PER_LAYER:
        if name in values:
            continue
        if name.endswith(".self_s"):
            values[name] = self_s.get(name[: -len(".self_s")], 0.0) / instances
        else:
            values[name] = counts.get(name, 0)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
