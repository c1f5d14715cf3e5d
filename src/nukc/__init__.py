"""Two-radius covering with outliers, solved by round-or-cut.

The public surface mirrors the pipeline: model types, the greedy radius
partition, the firefighter reduction and its exact solver, the oracle verdict
types, the well separated inner solver, and the outer feasibility solver with
its scale search.  Both solvers return a :class:`SolveResult`, which is also
the parsed form of a solution file.  Exact enumeration oracles and instance
generators support testing and experiments.

The cutting-plane driver that queries the oracles is not part of the public
surface: it lives in ``nukc.cutting_plane`` and may change without notice.
Only its exact check of an INFEASIBLE certificate, ``certificate_bound``, is
exported.
``nukc.ellipsoid`` keeps only the ellipsoid geometry, which no solver uses.
"""

from .bruteforce import (
    BruteForceResult,
    HullChecker,
    brute_2ff,
    brute_force_nukc,
    hull_coverage_vectors,
    validate_cut_on_hull,
)
from .clustering import HSResult, hs_partition
from .cutting_plane import OracleContractError, Rounded, Separating, certificate_bound
from .firefighter import (
    TwoFFInstance,
    TwoFFSolution,
    covered_leaves,
    selection_value,
    solve_2ff,
)
from .generators import (
    PlantedTruth,
    graph_instance,
    planted_instance,
    planted_kcenter_instance,
    uniform_instance,
)
from .model import (
    CoverageVector,
    Cut,
    MetricError,
    MetricSpace,
    NUkCInstance,
    NUkCSolution,
    SizeGuardError,
    SolveResult,
    TheoryViolationError,
    WellSepNUkCInstance,
    covered_points,
    eval_cut,
    verify_solution,
)
from .outer import (
    OptimizeResult,
    OuterOracle,
    enumerate_candidates,
    optimize,
    solve_feasibility,
)
from .presolve import greedy_cover
from .reduction import (
    FracFFSolution,
    frac_ff_solution,
    lift_ff_solution,
    reduce_to_firefighter,
)
from .serialize import instance_from_json, instance_to_json, solution_from_json
from .wellsep import SolverConfig, solve_wellsep, wellsep_separation_oracle

__version__ = "0.1.0"

__all__ = [
    "BruteForceResult",
    "CoverageVector",
    "Cut",
    "FracFFSolution",
    "HSResult",
    "HullChecker",
    "MetricError",
    "MetricSpace",
    "NUkCInstance",
    "NUkCSolution",
    "OptimizeResult",
    "OracleContractError",
    "OuterOracle",
    "PlantedTruth",
    "Rounded",
    "Separating",
    "SizeGuardError",
    "SolveResult",
    "SolverConfig",
    "TheoryViolationError",
    "TwoFFInstance",
    "TwoFFSolution",
    "WellSepNUkCInstance",
    "brute_2ff",
    "brute_force_nukc",
    "certificate_bound",
    "covered_leaves",
    "covered_points",
    "enumerate_candidates",
    "eval_cut",
    "frac_ff_solution",
    "graph_instance",
    "greedy_cover",
    "hs_partition",
    "hull_coverage_vectors",
    "instance_from_json",
    "instance_to_json",
    "lift_ff_solution",
    "optimize",
    "planted_instance",
    "planted_kcenter_instance",
    "reduce_to_firefighter",
    "selection_value",
    "solution_from_json",
    "solve_2ff",
    "solve_feasibility",
    "solve_wellsep",
    "uniform_instance",
    "validate_cut_on_hull",
    "verify_solution",
    "wellsep_separation_oracle",
]
