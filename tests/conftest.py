import itertools

import numpy as np
import pytest

from rqshot.instance import WeightedGraph


def make_graph(edge_spec: dict) -> WeightedGraph:
    """Graph from {(u, v): J}; nodes inferred from the edges."""
    nodes = {u for e in edge_spec for u in e}
    return WeightedGraph(nodes, edge_spec)


def edge_estimate(values: dict) -> tuple[WeightedGraph, np.ndarray]:
    """A unit-coupling graph on the given edges, and the values as an estimate in its edge order."""
    g = make_graph({e: 1.0 for e in values})
    return g, np.array([values[e] for e in g.edge_list()], dtype=float)


def ising_energy(g: WeightedGraph, z) -> float:
    """Reference: sum_e J_uv z_u z_v, edge by edge from the raw dict."""
    return sum(j * z[u] * z[v] for (u, v), j in g.edges().items())


def random_weighted_graph(n: int, p: float, rng: np.random.Generator) -> WeightedGraph:
    """Erdos-Renyi topology with standard-normal couplings; may be disconnected."""
    edges = {}
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < p:
            edges[(u, v)] = float(rng.standard_normal())
    return WeightedGraph(range(n), edges)


def brute_force_reference(g: WeightedGraph) -> float:
    """Independent exhaustive Max-Cut oracle: plain itertools enumeration.

    Deliberately shares no code with the production solver: assignments are
    generated as +/-1 tuples over all nodes and the cut is evaluated edge by
    edge from the raw dict.
    """
    nodes = list(g.nodes)
    edges = g.edges()
    best = -float("inf")
    for signs in itertools.product((1, -1), repeat=len(nodes)):
        z = dict(zip(nodes, signs))
        cut = sum(j * (1 - z[u] * z[v]) / 2 for (u, v), j in edges.items())
        best = max(best, cut)
    return best


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
