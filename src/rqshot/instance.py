"""Weighted Max-Cut / Ising instances and the variable-elimination calculus.

An instance is an undirected coupling graph J_uv over integer node ids,
held as edge-ordered arrays over qubits (the q-th sorted node is qubit q).
The cut value of a spin assignment z in {-1,+1}^n is

    cut(z) = sum_{(u,v)} J_uv * (1 - z_u * z_v) / 2

and the Ising energy is sum J_uv z_u z_v, so maximizing the cut is the same
as minimizing the energy.  Variable elimination substitutes
z_u = sign * z_v for one edge (u, v), merging u's couplings into v and
accumulating a constant energy offset; `contract` performs one such step on
the coupling matrix and `reconstruct_assignment` undoes a whole stack of
them.  `hop_distance` is the breadth-first hop count between qubit sets.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

COUPLING_EPS = 1e-12
BRUTE_FORCE_MAX_NODES = 26
UNREACHABLE = 10 ** 9

_RESEED_STRIDE = 1_000_003
_REWEIGHT_SEED_BASE = 10 ** 9


class ContractionError(ValueError):
    """Raised when a contraction references inactive nodes or a missing edge."""


def _ordered(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class WeightedGraph:
    """Immutable undirected graph with real couplings, stored once as edge-ordered arrays.

    Qubit q is the q-th node in sorted order.  The edges are two read-only
    arrays: endpoint qubits (E x 2, each row increasing, rows in
    lexicographic order) and couplings (E,).  Couplings with magnitude below
    COUPLING_EPS are dropped at construction so that structural features see
    true structure.  Neighbour bitmasks are built on first use and kept.
    """

    __slots__ = ("_nodes", "_index", "_nbr")

    def __init__(self, nodes: Iterable[int], edges: Mapping[tuple[int, int], float]):
        node_set = set(int(u) for u in nodes)
        clean: dict[tuple[int, int], float] = {}
        for (u, v), j in edges.items():
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            if u not in node_set or v not in node_set:
                raise ValueError(f"edge ({u}, {v}) references unknown node")
            key = _ordered(u, v)
            if key in clean:
                raise ValueError(f"duplicate edge {key}")
            j = float(j)
            if not math.isfinite(j):
                raise ValueError(f"non-finite coupling on edge {key}")
            if abs(j) >= COUPLING_EPS:
                clean[key] = j
        self._nodes: tuple[int, ...] = tuple(sorted(node_set))
        pos = {u: q for q, u in enumerate(self._nodes)}
        items = sorted(clean.items())
        ends = np.array([(pos[u], pos[v]) for (u, v), _ in items], dtype=np.intp).reshape(-1, 2)
        j = np.array([j for _, j in items], dtype=float)
        ends.flags.writeable = j.flags.writeable = False
        self._index = (ends, j)

    @classmethod
    def _trusted(cls, nodes: tuple[int, ...], ends: np.ndarray, j: np.ndarray) -> "WeightedGraph":
        """A graph from arrays already in stored form, without re-validating them."""
        g = cls.__new__(cls)
        ends.flags.writeable = j.flags.writeable = False
        g._nodes, g._index = nodes, (ends, j)
        return g

    @property
    def nodes(self) -> tuple[int, ...]:
        return self._nodes

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return len(self._index[1])

    def edges(self) -> dict[tuple[int, int], float]:
        """Couplings keyed by (u, v) with u < v, in sorted order."""
        return dict(zip(self.edge_list(), self._index[1].tolist()))

    def edge_list(self) -> list[tuple[int, int]]:
        nodes = self._nodes
        return [(nodes[a], nodes[b]) for a, b in self._index[0].tolist()]

    def edge_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Endpoint qubits (E x 2) and couplings (E,) of the edges, in edge_list() order.

        Both arrays are the graph's own storage and are read-only.
        """
        return self._index

    def neighbour_masks(self) -> list[int]:
        """Per qubit, the Python int bitmask of its neighbouring qubits; built once."""
        if getattr(self, "_nbr", None) is None:  # a slot stays unset until first use
            self._nbr = [0] * len(self._nodes)
            for a, b in self._index[0].tolist():
                self._nbr[a] |= 1 << b
                self._nbr[b] |= 1 << a
        return self._nbr

    def coupling_matrix(self) -> np.ndarray:
        """A fresh symmetric n x n matrix of the couplings over qubits, zero where no edge."""
        ends, j = self._index
        w = np.zeros((len(self._nodes), len(self._nodes)))
        w[ends[:, 0], ends[:, 1]] = w[ends[:, 1], ends[:, 0]] = j
        return w

    def signature(self) -> tuple:
        """Hashable identity used as a cache key for per-graph computations."""
        ends, j = self._index
        return (self._nodes, ends.tobytes(), j.tobytes())


@dataclass(frozen=True)
class ContractionRecord:
    """One elimination: z_eliminated = sign * z_kept."""

    eliminated: int
    kept: int
    sign: int

    def __post_init__(self):
        if self.eliminated == self.kept:
            raise ValueError("cannot contract a node onto itself")
        if self.sign not in (-1, 1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")


@dataclass(frozen=True)
class ReducedInstance:
    """A graph plus the constant energy offset and the elimination stack."""

    graph: WeightedGraph
    offset: float
    stack: tuple[ContractionRecord, ...]

    @classmethod
    def fresh(cls, graph: WeightedGraph) -> "ReducedInstance":
        return cls(graph=graph, offset=0.0, stack=())


def contract(inst: ReducedInstance, rec: ContractionRecord) -> ReducedInstance:
    """Eliminate rec.eliminated by substituting z = sign * z_kept.

    Couplings of the eliminated node merge into the kept node; merged values
    with magnitude below COUPLING_EPS delete the edge.  The (eliminated,
    kept) coupling itself becomes a constant contribution sign * J added to
    the offset.  The merge runs on the coupling matrix, one addition per
    merged pair, and the surviving upper-triangle entries come out in
    lexicographic order, so the result needs no re-validation or sorting.
    """
    g = inst.graph
    u_star, v_star, sign = rec.eliminated, rec.kept, rec.sign
    nodes = g.nodes
    if u_star not in nodes or v_star not in nodes:
        raise ContractionError(f"inactive endpoint in contraction {u_star}->{v_star}")
    qu, qv = nodes.index(u_star), nodes.index(v_star)
    w = g.coupling_matrix()
    j_uv = float(w[qu, qv])
    if j_uv == 0.0:
        raise ContractionError(f"no edge ({u_star}, {v_star}) to contract")

    w[qv] += sign * w[qu]
    w[qv, qv] = 0.0
    w[:, qv] = w[qv]
    keep = np.arange(len(nodes)) != qu
    w = w[keep][:, keep]
    a, b = np.nonzero(np.abs(w) >= COUPLING_EPS)
    upper = a < b  # nonzero is row-major, so these rows stay in lexicographic order
    a, b = a[upper], b[upper]
    return ReducedInstance(
        graph=WeightedGraph._trusted(nodes[:qu] + nodes[qu + 1:], np.stack((a, b), axis=1), w[a, b]),
        offset=inst.offset + sign * j_uv,
        stack=inst.stack + (rec,),
    )


def reconstruct_assignment(
    stack: Iterable[ContractionRecord], residual: Mapping[int, int]
) -> dict[int, int]:
    """Replay the elimination stack in reverse, filling in eliminated spins."""
    z = {int(k): int(v) for k, v in residual.items()}
    for rec in reversed(list(stack)):
        if rec.kept not in z:
            raise ValueError(f"residual assignment is missing variable {rec.kept}")
        z[rec.eliminated] = rec.sign * z[rec.kept]
    return z


def cut_value(g: WeightedGraph, z: Mapping[int, int]) -> float:
    return sum(j * (1 - z[u] * z[v]) / 2 for (u, v), j in g.edges().items())


def brute_force_optimum(g: WeightedGraph) -> tuple[float, dict[int, int]]:
    """Exhaustive Max-Cut over all sign-distinct assignments.

    The first (lowest-id) node is pinned to +1, halving the search space via
    global spin-flip symmetry.  Ties break toward the smallest bitmask over
    the remaining nodes, which makes the result deterministic.
    """
    n = g.node_count
    if n == 0:
        return 0.0, {}
    if n > BRUTE_FORCE_MAX_NODES:
        raise ValueError(f"brute force limited to {BRUTE_FORCE_MAX_NODES} nodes, got {n}")
    nodes = g.nodes
    if g.edge_count == 0:
        return 0.0, {u: 1 for u in nodes}

    ends, weights = g.edge_index()

    # bit i-1 of the mask is the spin of nodes[i], copied to row i of bits;
    # row 0 stays 0 because nodes[0] is pinned to +1.  Every buffer is
    # allocated once and filled in place chunk by chunk.
    total = 1 << (n - 1)
    chunk = min(total, 1 << 18)  # both powers of two, so every chunk is full
    offsets = np.arange(chunk, dtype=np.int64)
    masks = np.empty(chunk, dtype=np.int64)
    shifted = np.empty(chunk, dtype=np.int64)
    bits = np.zeros((n, chunk), dtype=np.uint8)
    flips = np.empty(chunk, dtype=np.uint8)
    term = np.empty(chunk)
    acc = np.empty(chunk)
    best_cut = -math.inf
    best_mask = 0
    for start in range(0, total, chunk):
        np.add(offsets, start, out=masks)
        for i in range(1, n):
            np.right_shift(masks, i - 1, out=shifted)
            np.bitwise_and(shifted, 1, out=bits[i], casting="unsafe")
        acc.fill(0.0)
        for (iu, iv), w in zip(ends.tolist(), weights):
            np.bitwise_xor(bits[iu], bits[iv], out=flips)
            np.multiply(flips, w, out=term)
            acc += term
        i = int(np.argmax(acc))
        if acc[i] > best_cut:
            best_cut = float(acc[i])
            best_mask = int(masks[i])

    assignment = {nodes[0]: 1}
    for i in range(1, n):
        assignment[nodes[i]] = -1 if (best_mask >> (i - 1)) & 1 else 1
    return best_cut, assignment


def hop_distance(g: WeightedGraph, sources: Iterable[int], targets: Iterable[int]) -> int:
    """Fewest hops from any source qubit to any target qubit; UNREACHABLE if no path.

    One breadth-first search from all sources at once, so the result is the
    minimum of the pairwise distances.  Neighbour and frontier sets are
    Python int bitmasks over qubits.
    """
    nbr = g.neighbour_masks()
    goal = sum(1 << q for q in set(targets))
    frontier = seen = sum(1 << q for q in set(sources))
    hops = 0
    while frontier:
        if frontier & goal:
            return hops
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= nbr[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & ~seen
        seen |= frontier
        hops += 1
    return UNREACHABLE


def _regular_topology(n: int, d: int, rng: np.random.Generator) -> set[tuple[int, int]]:
    """Uniform-ish random d-regular simple graph via the pairing model.

    Pairs node stubs repeatedly, re-shuffling colliding stubs; restarts from
    scratch when no suitable pairing remains (rare for the sizes used here).
    """

    def suitable(edges, leftover):
        counts = sorted(leftover)
        for i, s1 in enumerate(counts):
            for s2 in counts[i + 1 :]:
                if s1 != s2 and _ordered(s1, s2) not in edges:
                    return True
        return False

    while True:
        edges: set[tuple[int, int]] = set()
        stubs = [x for x in range(n) for _ in range(d)]
        failed = False
        while stubs:
            stub_array = np.array(stubs)
            rng.shuffle(stub_array)
            stubs = []
            it = iter(stub_array.tolist())
            for s1, s2 in zip(it, it):
                key = _ordered(s1, s2)
                if s1 == s2 or key in edges:
                    stubs.extend((s1, s2))
                else:
                    edges.add(key)
            if stubs and not suitable(edges, stubs):
                failed = True
                break
        if not failed:
            return edges


def generate_regular_gaussian(n: int, d: int, seed: int) -> WeightedGraph:
    """Random d-regular graph on nodes 0..n-1 with standard-normal weights.

    Weights are drawn i.i.d. N(0, 1) in sorted edge order after the topology
    is fixed, so the result is fully determined by the seed.
    """
    if not 0 < d < n:
        raise ValueError(f"degree must satisfy 0 < d < n, got d={d}, n={n}")
    if (n * d) % 2 != 0:
        raise ValueError(f"no {d}-regular graph on {n} nodes: n*d must be even")
    rng = np.random.default_rng(seed)
    topology = sorted(_regular_topology(n, d, rng))
    weights = rng.standard_normal(len(topology))
    return WeightedGraph(range(n), {e: w for e, w in zip(topology, weights)})


@dataclass
class Instance:
    """A generated benchmark instance plus its metadata and exact optimum."""

    graph: WeightedGraph
    n: int
    d: int
    seed: int
    weight_dist: str = "normal(0,1)"
    e_opt: float | None = None
    category: str = "unscreened"

    @property
    def instance_id(self) -> str:
        return f"n{self.n:02d}d{self.d:02d}s{self.seed}"

    def to_dict(self) -> dict:
        """The instance file: the fields by name, the graph as its [u, v, J] edge list."""
        data = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "graph"}
        return {**data, "edges": [[u, v, j] for (u, v), j in self.graph.edges().items()]}

    @classmethod
    def from_dict(cls, data: dict) -> "Instance":
        data = dict(data)
        edges = {(int(u), int(v)): float(j) for u, v, j in data.pop("edges")}
        try:
            return cls(graph=WeightedGraph(range(data["n"]), edges), **data)
        except TypeError as exc:  # a missing or unknown key
            raise ValueError(f"malformed instance: {exc}") from None

    def save(self, path: Path | str) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n")

    @classmethod
    def load(cls, path: Path | str) -> "Instance":
        return cls.from_dict(json.loads(Path(path).read_text()))


def generate_instance(n: int, d: int, seed: int, compute_opt: bool = True) -> Instance:
    """Generate an instance, reseeding until the brute-force optimum is positive.

    A non-positive optimum would make the success ratio ill-defined; with
    continuous weights this occurs with probability zero, but the guard is
    kept explicit.
    """
    attempt_seed = seed
    while True:
        graph = generate_regular_gaussian(n, d, attempt_seed)
        if not compute_opt:
            return Instance(graph=graph, n=n, d=d, seed=attempt_seed)
        e_opt, _ = brute_force_optimum(graph)
        if e_opt > 0:
            return Instance(graph=graph, n=n, d=d, seed=attempt_seed, e_opt=e_opt)
        attempt_seed += _RESEED_STRIDE


def reweighted_instance(base: Instance, seed: int) -> Instance:
    """Same topology as the base instance, fresh standard-normal weights.

    Weights are drawn in sorted edge order; reseeds on a non-positive
    optimum like generate_instance.  Seeds live in a shifted namespace so a
    variant's instance_id never collides with a fresh instance's.
    """
    topology = base.graph.edge_list()
    attempt_seed = _REWEIGHT_SEED_BASE + seed
    while True:
        rng = np.random.default_rng(attempt_seed)
        weights = rng.standard_normal(len(topology))
        graph = WeightedGraph(base.graph.nodes, {e: w for e, w in zip(topology, weights)})
        e_opt, _ = brute_force_optimum(graph)
        if e_opt > 0:
            return Instance(
                graph=graph, n=base.n, d=base.d, seed=attempt_seed,
                weight_dist=base.weight_dist, e_opt=e_opt, category="reweighted",
            )
        attempt_seed += _RESEED_STRIDE
