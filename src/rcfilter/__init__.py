"""Exact cost-based filtering for weighted constraints by dual linear programs.

The package treats a weighted constraint (minimum-cost assignment, shortest
path in a DAG) as a small LP whose dual solutions carry reduced costs.  One
dual per set of pairwise-incompatible edges yields *exact* reduced costs on
the whole set, so full arc consistency with respect to a cost bound takes at
most one dual per variable.  Every dual the package returns is built from
one combinatorial pass per instance and checked exactly, except that the
duals ``FilterResult.duals`` rebuilds, the filter's checked ones built again
deterministically, are not checked again; the LP
(``solve_primal``, ``solve_family_dual``) is the reference route, on no
runtime path, and its exact simplex is imported on the first solve.
Everything is rational arithmetic; every LP optimum is certified against its
dual before being believed.
"""

from .duality import (
    DualSolution,
    averaged_satisfaction_dual,
    dual_solution,
    exact_reduced_cost,
    exactness_certificate,
    is_dual_feasible,
    reduced_cost,
    shifted_cost_dual,
    solve_family_dual,
    solve_primal,
)
from .formulations import (
    Support,
    bg01_encode,
    family,
    find_support,
    primal_program,
    worst_case_alldiff,
)
from .model import (
    ALLDIFF,
    PATH,
    EdgeId,
    InfeasibleConstraintError,
    SatisfactionInstance,
    WeightedInstance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
    validate,
    weighted_instance,
)
from .oracle import OracleReport, SizeGuardError
from .propagation import (
    CONSISTENT,
    INCONSISTENT,
    UNMARKED,
    FilterResult,
    ac_by_lp,
    lower_bound,
)

__all__ = [
    "ALLDIFF",
    "CONSISTENT",
    "DualSolution",
    "EdgeId",
    "FilterResult",
    "INCONSISTENT",
    "InfeasibleConstraintError",
    "OracleReport",
    "PATH",
    "SatisfactionInstance",
    "SizeGuardError",
    "Support",
    "UNMARKED",
    "WeightedInstance",
    "ac_by_lp",
    "averaged_satisfaction_dual",
    "bg01_encode",
    "dual_solution",
    "exact_reduced_cost",
    "exactness_certificate",
    "family",
    "find_support",
    "instance_from_dict",
    "instance_to_dict",
    "is_dual_feasible",
    "load_instance",
    "lower_bound",
    "primal_program",
    "reduced_cost",
    "save_instance",
    "shifted_cost_dual",
    "solve_family_dual",
    "solve_primal",
    "validate",
    "weighted_instance",
    "worst_case_alldiff",
]

__version__ = "0.1.0"
