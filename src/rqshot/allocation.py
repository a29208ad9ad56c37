"""Shot-allocation policies over the six-level fraction ladder.

Every policy maps a step state to an index into FRACTIONS; the shot count is
that fraction of the per-instance cap, floored at the probe size.  The
hand-crafted heuristic reads the raw (zeta, kappa, dist) features; the RL
policy adds a residual offset in {-3..+2} to the heuristic index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .features import DiscreteState, StepState

FRACTIONS: tuple[float, ...] = (0.20, 0.35, 0.50, 0.65, 0.80, 1.00)
ACTIONS: tuple[int, ...] = (-3, -2, -1, 0, 1, 2)
N_ACTIONS = len(ACTIONS)


@dataclass(frozen=True)
class AllocationDecision:
    """Resolved allocation for one elimination step."""

    baseline_index: int
    residual: int
    final_index: int
    shots: int


def round_half_away(x: float) -> int:
    """Nearest integer with halves rounded away from zero."""
    return int(math.copysign(math.floor(abs(x) + 0.5), x))


def heuristic_index(s: StepState) -> int:
    """Hand-crafted baseline ladder index from raw step features.

    Cases are evaluated top-down; confident, well-separated steps get the
    small fractions, ambiguous crowded steps get 80%, everything else 50%.
    """
    if s.zeta >= 4.0 and s.kappa < 0.10 and s.dist >= 3:
        return 0
    if s.zeta >= 2.0 and s.kappa < 0.20 and s.dist >= 2:
        return 1
    if s.zeta < 0.9 and (s.kappa >= 0.30 or s.dist <= 1):
        return 4
    return 2


def compose(baseline_index: int, residual_action: int, cap: int, k_probe: int) -> AllocationDecision:
    """Apply a residual offset to a baseline index and resolve the shot count."""
    if not 1 <= k_probe <= cap:
        raise ValueError(f"need 1 <= k_probe <= cap, got k_probe={k_probe}, cap={cap}")
    final = min(max(baseline_index + residual_action, 0), N_ACTIONS - 1)
    shots = max(k_probe, round_half_away(FRACTIONS[final] * cap))
    return AllocationDecision(
        baseline_index=baseline_index,
        residual=residual_action,
        final_index=final,
        shots=shots,
    )


# action indices in tie-break order: toward action 0, then the smaller action
_TIE_ORDER = sorted(range(N_ACTIONS), key=lambda i: (abs(ACTIONS[i]), ACTIONS[i]))


def best_action(row: Sequence[float]) -> int:
    """The index of row's largest value, ties broken toward action 0, then the smaller action.

    The tie-break makes a zero-initialized table behave exactly like the
    heuristic (residual 0) and biases remaining ties toward fewer shots.
    """
    return max(_TIE_ORDER, key=row.__getitem__)


def greedy_action(
    q1: Mapping[tuple, Sequence[float]],
    q2: Mapping[tuple, Sequence[float]],
    s: DiscreteState,
) -> int:
    """The action of best_action over Q1+Q2; a state neither table holds reads as zeros."""
    key = s.as_tuple()
    zeros = (0.0,) * N_ACTIONS
    v1 = q1.get(key, zeros)
    v2 = q2.get(key, zeros)
    return ACTIONS[best_action([v1[i] + v2[i] for i in range(N_ACTIONS)])]


class UniformPolicy:
    """Spend the cap regardless of state: the top rung of the ladder."""

    name = "uniform"

    def decide(self, state, disc, cap, k_probe, rng=None) -> AllocationDecision:
        return compose(N_ACTIONS - 1, 0, cap, k_probe)


class HeuristicPolicy:
    """The hand-crafted rule with no residual adjustment."""

    name = "heuristic"

    def decide(self, state, disc, cap, k_probe, rng=None) -> AllocationDecision:
        return compose(heuristic_index(state), 0, cap, k_probe)


class RLPolicy:
    """Greedy residual policy read from a pair of tabular Q functions."""

    name = "rl"

    def __init__(self, q1: Mapping[tuple, Sequence[float]], q2: Mapping[tuple, Sequence[float]]):
        self.q1 = q1
        self.q2 = q2

    def decide(self, state, disc, cap, k_probe, rng=None) -> AllocationDecision:
        residual = greedy_action(self.q1, self.q2, disc)
        return compose(heuristic_index(state), residual, cap, k_probe)

