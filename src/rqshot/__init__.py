"""Adaptive per-step shot allocation for depth-1 recursive QAOA on weighted Max-Cut."""

from .allocation import (
    ACTIONS,
    FRACTIONS,
    AllocationDecision,
    HeuristicPolicy,
    RLPolicy,
    UniformPolicy,
    compose,
    heuristic_index,
)
from .driver import DriverConfig, EpisodeResult, StepCache, run_episode, select_edge, success
from .features import (
    BinBoundaries,
    DiscreteState,
    StepState,
    conflict_ratio,
    discretize,
    edge_distance,
    extract_state,
    probe_shot_count,
    zgap,
)
from .instance import (
    ContractionRecord,
    Instance,
    WeightedGraph,
    brute_force_optimum,
    contract,
    cut_value,
    generate_instance,
    generate_regular_gaussian,
    hop_distance,
    reconstruct_assignment,
)
from .learner import (
    LagrangianController,
    PolicyCheckpoint,
    QTables,
    TrainConfig,
    double_q_update,
    select_action,
    step_reward,
    terminal_penalty,
    train,
)
from .qaoa import (
    Angles,
    CorrelationSampler,
    optimize_angles,
    statevector_depth1,
    zz_all_edges,
)

__version__ = "0.1.0"
