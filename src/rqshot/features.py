"""Four-feature step state extracted from a probe estimate, plus binning.

An estimate is one correlation per edge, in the graph's edge_list() order.
It is ranked once (edge_order) and every feature reads that ranking.

The state is (m, zeta, kappa, dist):

  m      remaining active variables
  zeta   ratio of the two largest |correlation| values (z-gap)
  kappa  endpoint overlap among the top-k candidate edges (conflict ratio)
  dist   minimum hop distance between the endpoints of the two leading edges

Degenerate situations (fewer than two edges, disconnected leading edges) map
to the maximally-confident sentinel values: near the classical threshold
such steps are easy and should not inflate the budget.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .instance import UNREACHABLE, WeightedGraph, hop_distance

ZGAP_EPS = 1e-12
ZGAP_SENTINEL = 1e18
DIST_SENTINEL = UNREACHABLE

ZGAP_LITERAL = "literal"
ZGAP_RELATIVE = "relative_gap"


@dataclass(frozen=True)
class StepState:
    """Raw per-step MDP state."""

    m: int
    zeta: float
    kappa: float
    dist: int


@dataclass(frozen=True)
class DiscreteState:
    """Binned state indexing the tabular policy."""

    m_bin: int
    zeta_bin: int
    kappa_bin: int
    dist_bin: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.m_bin, self.zeta_bin, self.kappa_bin, self.dist_bin)

    def key(self) -> str:
        return f"{self.m_bin}:{self.zeta_bin}:{self.kappa_bin}:{self.dist_bin}"


@dataclass(frozen=True)
class BinBoundaries:
    """Bin edges for the tabular state space.

    A policy is only meaningful under the binning it was trained with, so
    these boundaries travel inside checkpoints and must match exactly on
    load.  zeta edges are upper bin edges: value < edges[0] is bin 0,
    value >= edges[-1] is the top bin.  Same for kappa.  Distances bin as
    min(d, dist_bins - 1).
    """

    zeta_edges: tuple[float, ...] = (1.0, 1.2, 1.6, 2.0, 3.0, 4.0)
    kappa_edges: tuple[float, ...] = (0.10, 0.20, 0.30, 0.40)
    dist_bins: int = 5

    def __post_init__(self):
        if self.dist_bins < 1:
            raise ValueError(f"dist_bins must be at least 1, got {self.dist_bins}")
        for name in ("zeta_edges", "kappa_edges"):
            # edges read from JSON arrive as lists; as tuples they equal the configured ones
            edges = tuple(getattr(self, name))
            object.__setattr__(self, name, edges)
            if list(edges) != sorted(edges):
                raise ValueError(f"{name} must be in ascending order, got {edges}")


def probe_shot_count(n: int) -> int:
    """Probe shots by original instance size: 16 up to n=16, 32 above."""
    if n < 1:
        raise ValueError("instance size must be positive")
    return 16 if n <= 16 else 32


def edge_order(est: np.ndarray) -> np.ndarray:
    """Edge positions by |correlation| descending, lexicographic on ties.

    Estimates are in edge_list() order, which is lexicographic, so a stable
    sort keeps that order among equal magnitudes (0.0 and -0.0 included).
    """
    return np.argsort(-np.abs(est), kind="stable")


def zgap(est: np.ndarray, order: np.ndarray, variant: str = ZGAP_LITERAL) -> float:
    """Ratio of the two largest |correlations|, read off the estimate's edge_order.

    With fewer than two edges there is nothing to confuse, so the sentinel
    maps the step to the most confident bin.  The literal variant is clamped
    to >= 1: the clamp only engages when both magnitudes sit at the
    regularization scale, which is an exact tie for every practical purpose.
    """
    if len(order) < 2:
        return ZGAP_SENTINEL
    m1, m2 = (abs(float(est[i])) for i in order[:2])
    if variant == ZGAP_RELATIVE:
        return (m1 - m2) / (m1 + ZGAP_EPS)
    if variant != ZGAP_LITERAL:
        raise ValueError(f"unknown zgap variant {variant!r}")
    return max(1.0, m1 / (m2 + ZGAP_EPS))


def conflict_ratio(g: WeightedGraph, order: np.ndarray, k_top: int = 3) -> float:
    """1 - (unique endpoints of the top-k edges) / (2k), k = min(k_top, |E|)."""
    if not len(order):
        raise ValueError("conflict ratio needs at least one edge")
    top = g.edge_index()[0][order[:k_top]]
    return 1.0 - len(set(top.ravel().tolist())) / top.size


def edge_distance(g: WeightedGraph, order: np.ndarray) -> int:
    """Minimum hop distance between endpoints of the two leading edges."""
    if len(order) < 2:
        return DIST_SENTINEL
    ends = g.edge_index()[0]
    return hop_distance(g, ends[order[0]].tolist(), ends[order[1]].tolist())


def extract_state(
    g: WeightedGraph,
    est: np.ndarray,
    k_top: int = 3,
    zgap_variant: str = ZGAP_LITERAL,
) -> StepState:
    """Assemble the full step state from a probe estimate in edge_list() order."""
    order = edge_order(est)
    return StepState(
        m=g.node_count,
        zeta=zgap(est, order, variant=zgap_variant),
        kappa=conflict_ratio(g, order, k_top=k_top),
        dist=edge_distance(g, order),
    )


def discretize(s: StepState, n: int, n_c: int, bins: BinBoundaries | None = None) -> DiscreteState:
    """Bin a raw state; m runs over n - n_c levels from n_c+1 to n."""
    bins = bins or BinBoundaries()
    m_bin = s.m - n_c - 1
    if not 0 <= m_bin <= n - n_c - 1:
        raise ValueError(f"m={s.m} outside [{n_c + 1}, {n}]")
    return DiscreteState(
        m_bin=m_bin,
        zeta_bin=bisect.bisect_right(bins.zeta_edges, s.zeta),
        kappa_bin=bisect.bisect_right(bins.kappa_edges, s.kappa),
        dist_bin=min(s.dist, bins.dist_bins - 1),
    )
