"""Weighted Max-Cut / Ising instances and the variable-elimination calculus.

An instance is an undirected coupling graph J_uv over integer node ids,
held as edge-ordered arrays over qubits (the q-th sorted node is qubit q).
The cut value of a spin assignment z in {-1,+1}^n is

    cut(z) = sum_{(u,v)} J_uv * (1 - z_u * z_v) / 2

and the Ising energy is sum J_uv z_u z_v, so maximizing the cut is the same
as minimizing the energy.  Variable elimination substitutes
z_u = sign * z_v for one edge (u, v), merging u's couplings into v;
`contract` maps a graph to the graph of one such step and
`reconstruct_assignment` undoes a whole stack of them.  `hop_distance` is
the breadth-first hop count between qubit sets.

`brute_force_optimum` is the exact Max-Cut solver behind every instance's
optimum and every episode's residual, on one path at every size.  It builds
a table of cut values by doubling over qubits, one chunk of at most 2^18
entries per setting of the highest qubits, and rescores the masks that come
within a rounding bound of each chunk's maximum in edge order, so its cut
and tie-break are those of a plain edge-by-edge sum.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

COUPLING_EPS = 1e-12
BRUTE_FORCE_MAX_NODES = 26
UNREACHABLE = 10 ** 9

_RESEED_STRIDE = 1_000_003
_REWEIGHT_SEED_BASE = 10 ** 9
_TABLE_BITS = 18  # free qubits in _doubled_search's table: 2^18 cut values
_RESCORE_BLOCK = 1 << 13  # entries of one block of _edge_order_cuts' term matrix
_FIELD_BITS = 7  # lowest qubits over which _doubled_search doubles every field h_i at once


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


def contract(g: WeightedGraph, rec: ContractionRecord) -> WeightedGraph:
    """The graph left by eliminating rec.eliminated through z = sign * z_kept.

    Couplings of the eliminated node merge into the kept node; merged values
    with magnitude below COUPLING_EPS delete the edge.  The (eliminated,
    kept) coupling itself becomes the constant sign * J, which is not kept:
    an episode scores its reconstructed assignment on the original graph.
    The merge runs on the coupling matrix, one addition per merged pair, and
    the surviving upper-triangle entries come out in lexicographic order, so
    the result needs no re-validation or sorting.
    """
    u_star, v_star, sign = rec.eliminated, rec.kept, rec.sign
    nodes = g.nodes
    if u_star not in nodes or v_star not in nodes:
        raise ContractionError(f"inactive endpoint in contraction {u_star}->{v_star}")
    qu, qv = nodes.index(u_star), nodes.index(v_star)
    w = g.coupling_matrix()
    if w[qu, qv] == 0.0:
        raise ContractionError(f"no edge ({u_star}, {v_star}) to contract")

    w[qv] += sign * w[qu]
    w[qv, qv] = 0.0
    w[:, qv] = w[qv]
    keep = np.arange(len(nodes)) != qu
    w = w[keep][:, keep]
    a, b = np.nonzero(np.abs(w) >= COUPLING_EPS)
    upper = a < b  # nonzero is row-major, so these rows stay in lexicographic order
    a, b = a[upper], b[upper]
    return WeightedGraph._trusted(nodes[:qu] + nodes[qu + 1:], np.stack((a, b), axis=1), w[a, b])


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
    """The cut of assignment z, its edges' terms J (1 - z_u z_v) / 2 summed left to right in
    edge order from 0.0, as _edge_order_cuts sums them: the bits of the plain Python sum."""
    ends, j = g.edge_index()
    spins = np.array([z[u] for u in g.nodes])
    terms = np.zeros(len(j) + 1)
    np.multiply(j, 1 - spins[ends[:, 0]] * spins[ends[:, 1]], out=terms[1:])
    terms[1:] /= 2
    return float(np.cumsum(terms, out=terms)[-1])


def _edge_order_cuts(
    masks: np.ndarray, n: int, ends: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """The cut value of each mask, summed left to right in edge order from 0.0.

    Row 0 of the term matrix is zero and row e+1 holds edge e's terms, and
    cumsum adds row after row, so each column is ((0.0 + t_0) + t_1) + ...;
    a non-cut edge adds +-0.0, which changes nothing.  The matrix is built
    in blocks of at most _RESCORE_BLOCK entries.
    """
    cuts = np.empty(len(masks))
    cols = max(1, _RESCORE_BLOCK // (n + len(weights) + 1))
    shifts = np.arange(n)[:, None]
    for start in range(0, len(masks), cols):
        block = masks[start:start + cols]
        spins = ((block << 1) >> shifts) & 1  # row q holds qubit q's bit; qubit 0's stays 0
        terms = np.zeros((len(weights) + 1, len(block)))
        np.multiply(spins[ends[:, 0]] ^ spins[ends[:, 1]], weights[:, None], out=terms[1:])
        cuts[start:start + cols] = np.cumsum(terms, axis=0, out=terms)[-1]
    return cuts


def _doubling_terms(
    n: int, ends: np.ndarray, weights: np.ndarray, low: int
) -> tuple[np.ndarray, list[float], list[tuple[int, int, float]]]:
    """What _doubled_search adds as it doubles its table over the low free qubits 1..low.

    Returns h, whose slice h[2^(i-1) : 2^i] is h_i, the per-qubit sums k, and
    the edges (p, i, J) to chunk qubits i > low, each sum taken in edge order
    from 0.0 as a Python loop over the edges would take it.
    """
    w = np.zeros((n, n))
    w[ends[:, 0], ends[:, 1]] = weights  # J_pi at [p, i], p < i
    # k[i] is W_i plus the couplings from low qubit i to chunk qubits (qubit 0's go to the
    # constants), summed in edge order: row i of terms is 0.0, column i of w, then row i of w
    # past low, and the zeros in between add nothing
    terms = np.zeros((low + 1, 2 * n - low))
    terms[:, 1:n + 1] = w[:, :low + 1].T
    terms[1:, n + 1:] = w[1:low + 1, low + 1:]
    k = np.cumsum(terms, axis=1)[:, -1].tolist()
    # h_i[m] = sum_{0<p<i} J_pi b_p, b_p being bit p-1 of m, is built by doubling over p in
    # ascending order, as the table is over i, so each entry adds its terms in edge order; the
    # levels p <= lead_bits run for every i at once, a row of lead each, the rest on h_i alone
    lead_bits = min(low - 1, _FIELD_BITS)
    lead = np.zeros((low + 1, 1 << lead_bits))
    for p in range(1, lead_bits + 1):
        half = 1 << (p - 1)
        np.add(lead[:, :half], w[p, :low + 1, None], out=lead[:, half:2 * half])
    h = np.zeros(1 << low)  # h_i lives at h[2^(i-1) : 2^i]
    for i in range(1, low + 1):
        h_i = h[1 << (i - 1):1 << i]
        h_i[:1 << lead_bits] = lead[i, :len(h_i)]
        for p in range(lead_bits + 1, i):
            half = 1 << (p - 1)
            np.add(h_i[:half], w[p, i], out=h_i[half:2 * half])
    chunked = ends[:, 1] > low  # edges (p, i, J) with chunk qubit i > low
    fixed = list(zip(ends[chunked, 0].tolist(), ends[chunked, 1].tolist(), weights[chunked].tolist()))
    return h, k, fixed


def _doubled_search(n: int, ends: np.ndarray, weights: np.ndarray) -> tuple[float, int]:
    """The best (cut, mask) of brute_force_optimum, found through a doubled table.

    The table holds the cut of every setting of the low free qubits
    1..low, low = min(n - 1, _TABLE_BITS); each setting of the remaining
    chunk qubits low+1..n-1 is one chunk, and chunks run in ascending order.
    Adding free qubit i doubles the table: masks with bit i-1 clear gain
    h_i = sum_{p<i} J_pi b_p, masks with it set gain W_i - h_i, where
    W_i = sum_{p<i} J_pi.  A fixed chunk spin b on an edge to low qubit p
    adds J b to p's clear half and J (1 - b) to its set half; an edge
    between qubit 0 or a chunk qubit and a chunk qubit adds to the chunk's
    constant.  A chunk whose maximum is below the best rescored cut minus tol
    is skipped; the other chunks' masks within tol of their maximum are
    rescored, and a strict > over ascending masks keeps the smallest of
    equal cuts.
    """
    low = min(n - 1, _TABLE_BITS)
    h, k, fixed = _doubling_terms(n, ends, weights, low)
    # a table entry takes at most n + 2E roundings over terms whose absolute
    # values sum to at most 2 sum|J|, the edge-order sum E over sum|J|, so tol
    # is at least twice the gap between the two
    tol = 8 * (n + len(weights)) * sys.float_info.epsilon * float(np.abs(weights).sum())

    table = np.empty(1 << low)
    best_cut, best_mask = -math.inf, 0
    for chunk in range(1 << (n - 1 - low)):
        const = 0.0
        clear = [0.0] * (low + 1)
        for p, i, j in fixed:
            b = (chunk >> (i - low - 1)) & 1
            if p > low:
                const += j * (b ^ ((chunk >> (p - low - 1)) & 1))
            elif p == 0:
                const += j * b
            else:
                clear[p] += j * b
        table[0] = const
        for i in range(1, low + 1):
            half = 1 << (i - 1)
            old, new, h_i = table[:half], table[half:2 * half], h[half:2 * half]
            np.subtract(old, h_i, out=new)
            new += k[i] - clear[i]
            old += h_i
            if clear[i]:
                old += clear[i]
        top = float(table.max())
        if top < best_cut - tol:
            continue
        masks = np.flatnonzero(table >= top - tol) | (chunk << low)
        cuts = _edge_order_cuts(masks, n, ends, weights)
        at = int(np.argmax(cuts))
        if cuts[at] > best_cut:
            best_cut, best_mask = float(cuts[at]), int(masks[at])
    return best_cut, best_mask


def brute_force_optimum(g: WeightedGraph) -> tuple[float, dict[int, int]]:
    """Exhaustive Max-Cut over all sign-distinct assignments.

    The first (lowest-id) node is pinned to +1, halving the search space via
    global spin-flip symmetry; bit i-1 of a mask is the spin of nodes[i]
    (set means -1).  The cut of a mask is the sum of its cut edges' couplings
    left to right in edge order from 0.0, and ties break toward the smallest
    mask, which makes the result deterministic.

    Every search, an episode's residual included, runs `_doubled_search`.
    Its table adds the couplings in another order, so masks that tie exactly
    can differ there by an ulp; it rescores in edge order every mask within
    tol of its chunk's maximum, tol being at least twice the largest gap
    between the two orders, and returns the best rescored cut.
    """
    n = g.node_count
    if n == 0:
        return 0.0, {}
    if n > BRUTE_FORCE_MAX_NODES:
        raise ValueError(f"brute force limited to {BRUTE_FORCE_MAX_NODES} nodes, got {n}")
    nodes = g.nodes
    if g.edge_count == 0:
        return 0.0, {u: 1 for u in nodes}

    best_cut, best_mask = _doubled_search(n, *g.edge_index())
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


def check_regular(n: int, d: int) -> None:
    """Raise ValueError unless a simple d-regular graph on n nodes exists."""
    if not 0 < d < n:
        raise ValueError(f"degree must satisfy 0 < d < n, got d={d}, n={n}")
    if (n * d) % 2 != 0:
        raise ValueError(f"no {d}-regular graph on {n} nodes: n*d must be even")


def generate_regular_gaussian(n: int, d: int, seed: int) -> WeightedGraph:
    """Random d-regular graph on nodes 0..n-1 with standard-normal weights.

    Weights are drawn i.i.d. N(0, 1) in sorted edge order after the topology
    is fixed, so the result is fully determined by the seed.
    """
    check_regular(n, d)
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


def _positive_optimum(make_graph, seed: int) -> tuple[WeightedGraph, int, float]:
    """The first make_graph(s) with a positive brute-force optimum, its seed s and that optimum.

    s runs over seed, seed + _RESEED_STRIDE, ...  A non-positive optimum
    would make the success ratio ill-defined; with continuous weights this
    occurs with probability zero, but the guard is kept explicit.
    """
    while True:
        graph = make_graph(seed)
        e_opt, _ = brute_force_optimum(graph)
        if e_opt > 0:
            return graph, seed, e_opt
        seed += _RESEED_STRIDE


def generate_instance(n: int, d: int, seed: int, compute_opt: bool = True) -> Instance:
    """Generate an instance; with compute_opt, reseed until its optimum is positive."""
    if not compute_opt:
        return Instance(graph=generate_regular_gaussian(n, d, seed), n=n, d=d, seed=seed)
    graph, seed, e_opt = _positive_optimum(lambda s: generate_regular_gaussian(n, d, s), seed)
    return Instance(graph=graph, n=n, d=d, seed=seed, e_opt=e_opt)


def reweighted_instance(base: Instance, seed: int) -> Instance:
    """Same topology as the base instance, fresh standard-normal weights.

    Weights are drawn in sorted edge order; reseeds on a non-positive
    optimum like generate_instance.  Seeds live in a shifted namespace so a
    variant's instance_id never collides with a fresh instance's.
    """
    topology = base.graph.edge_list()

    def reweight(s: int) -> WeightedGraph:
        weights = np.random.default_rng(s).standard_normal(len(topology))
        return WeightedGraph(base.graph.nodes, dict(zip(topology, weights)))

    graph, seed, e_opt = _positive_optimum(reweight, _REWEIGHT_SEED_BASE + seed)
    return Instance(graph=graph, n=base.n, d=base.d, seed=seed, weight_dist=base.weight_dist,
                    e_opt=e_opt, category="reweighted")
