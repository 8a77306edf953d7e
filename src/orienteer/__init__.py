"""Exact solvers for team orienteering with mandatory stops."""

from .instance import (
    InstanceError,
    MinTimeMatrix,
    PreprocessReport,
    StopInstance,
    generate_stop,
    min_time_matrix,
    parse_instance,
    preprocess,
    serialize_instance,
)
from .lp import LpError, LpModel, LpSolution, append_rows, solve
from .maxflow import KERNEL_COMPILED, FlowNetwork, MinCutResult, max_flow_min_cut
from .oracle import OracleBudgetExceeded, RouteSet, enumerate_feasible, enumerate_optimal
from .separation import (
    ConflictSet,
    Cut,
    FilterParams,
    build_conflict_set,
    filter_cuts,
    knapsack_max,
    separate_conflict,
    separate_connectivity,
    separate_lifted_cover,
)
from .solver import (
    SolveConfig,
    SolveReport,
    branch_and_bound,
    cutting_plane_phase,
    solve_baseline,
    solve_lp_only,
    solve_stop,
)

__version__ = "0.1.0"
