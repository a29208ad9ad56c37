"""Exact depth-1 QAOA expectations, a statevector oracle, and shot sampling.

For the field-free weighted Ising Hamiltonian H = sum J_uv Z_u Z_v and the
depth-1 state |psi(gamma, beta)> = exp(-i beta sum X) exp(-i gamma H) |+>^n,
each pairwise expectation <Z_u Z_v> splits into an angle and a structure
part:

    <Z_u Z_v> = sin(4 beta) * a_uv(gamma) + sin^2(2 beta) * b_uv(gamma)

    a_uv = sin(2 gamma J_uv) / 2 * (  prod_{w in N(u)\\v} cos(2 gamma J_uw)
                                    + prod_{w in N(v)\\u} cos(2 gamma J_vw) )
    b_uv = -1/2 * prod_{w in N(u)\\(F+v)} cos(2 gamma J_uw)
                * prod_{w in N(v)\\(F+u)} cos(2 gamma J_vw)
                * (  prod_{f in F} cos(2 gamma (J_uf + J_vf))
                   - prod_{f in F} cos(2 gamma (J_uf - J_vf)) )

with F the shared neighbors of u and v.  The decomposition makes grid
evaluation over many angles cheap.  The expression is validated against the
statevector simulator in the test suite; the simulator, not the formula, is
the ground truth.

Sampled estimates only ever need, per edge, how many shots measured its two
spins anti-aligned, so a shot pool is that vector of counts whether the
shots come from the statevector or from per-edge binomial draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .instance import WeightedGraph

STATEVECTOR_MAX_QUBITS = 22
STATEVECTOR_SAMPLING_THRESHOLD = 20

MODE_EXACT = "exact"
MODE_STATEVECTOR = "statevector_sampled"
MODE_BINOMIAL = "binomial"
MODE_AUTO = "auto"


@dataclass(frozen=True)
class Angles:
    """Depth-1 variational angles in radians."""

    gamma: float
    beta: float

    def __post_init__(self):
        if not (np.isfinite(self.gamma) and np.isfinite(self.beta)):
            raise ValueError("angles must be finite")


@dataclass
class CorrelationEstimate:
    """Per-edge ZZ correlations for one step, exact or sampled."""

    values: dict[tuple[int, int], float]
    shots_used: int
    mode: str
    fallback: bool = False


class _EdgeTerms:
    """Padded per-edge neighborhood structure for vectorized evaluation.

    Padding couplings with 0 is neutral because cos(0) = 1 inside products.
    """

    def __init__(self, g: WeightedGraph):
        edges = list(g.edges().items())
        self.edge_keys = [e for e, _ in edges]
        self.j = np.array([j for _, j in edges]) if edges else np.zeros(0)

        nu_rows, nv_rows, xu_rows, xv_rows, sp_rows, sm_rows = [], [], [], [], [], []
        for (u, v), _ in edges:
            nbr_u = g.neighbors(u)
            nbr_v = g.neighbors(v)
            shared = sorted(set(nbr_u) & set(nbr_v) - {u, v})
            nu_rows.append([j for w, j in sorted(nbr_u.items()) if w != v])
            nv_rows.append([j for w, j in sorted(nbr_v.items()) if w != u])
            xu_rows.append([j for w, j in sorted(nbr_u.items()) if w != v and w not in shared])
            xv_rows.append([j for w, j in sorted(nbr_v.items()) if w != u and w not in shared])
            sp_rows.append([nbr_u[f] + nbr_v[f] for f in shared])
            sm_rows.append([nbr_u[f] - nbr_v[f] for f in shared])

        def pad(rows):
            width = max((len(r) for r in rows), default=0)
            out = np.zeros((len(rows), width))
            for i, r in enumerate(rows):
                out[i, : len(r)] = r
            return out

        self.nu, self.nv = pad(nu_rows), pad(nv_rows)
        self.xu, self.xv = pad(xu_rows), pad(xv_rows)
        self.sp, self.sm = pad(sp_rows), pad(sm_rows)

    def ab(self, gammas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Structure coefficients a_e, b_e for each gamma; shape (len(gammas), E)."""
        g2 = 2.0 * np.asarray(gammas, dtype=float).reshape(-1, 1, 1)
        pu = np.cos(g2 * self.nu).prod(axis=2)
        pv = np.cos(g2 * self.nv).prod(axis=2)
        a = 0.5 * np.sin(g2[:, :, 0] * self.j) * (pu + pv)
        qu = np.cos(g2 * self.xu).prod(axis=2)
        qv = np.cos(g2 * self.xv).prod(axis=2)
        tp = np.cos(g2 * self.sp).prod(axis=2)
        tm = np.cos(g2 * self.sm).prod(axis=2)
        b = -0.5 * qu * qv * (tp - tm)
        return a, b


def _zz_vector(terms: _EdgeTerms, a: Angles) -> np.ndarray:
    av, bv = terms.ab(np.array([a.gamma]))
    return np.sin(4 * a.beta) * av[0] + np.sin(2 * a.beta) ** 2 * bv[0]


def zz_all_edges(g: WeightedGraph, a: Angles) -> dict[tuple[int, int], float]:
    """Exact <Z_u Z_v> for every edge at the given angles."""
    terms = _EdgeTerms(g)
    zz = _zz_vector(terms, a)
    return {e: float(x) for e, x in zip(terms.edge_keys, zz)}


def energy_expectation(g: WeightedGraph, a: Angles) -> float:
    """<H> = sum_e J_e <Z_u Z_v> at the given angles."""
    terms = _EdgeTerms(g)
    if terms.j.size == 0:
        return 0.0
    return float(terms.j @ _zz_vector(terms, a))


def energy_grid(g: WeightedGraph, gammas: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """Energy surface over a gamma x beta grid, shape (len(gammas), len(betas))."""
    terms = _EdgeTerms(g)
    av, bv = terms.ab(np.asarray(gammas))
    big_a = av @ terms.j
    big_b = bv @ terms.j
    betas = np.asarray(betas)
    return np.sin(4 * betas)[None, :] * big_a[:, None] + (np.sin(2 * betas) ** 2)[None, :] * big_b[:, None]


def optimize_angles(
    g: WeightedGraph,
    n_gamma: int = 48,
    n_beta: int = 24,
    refine_maxfev: int = 500,
    refine_tol: float = 1e-8,
) -> Angles:
    """Minimize the depth-1 energy: coarse grid seed, then Nelder-Mead.

    48 gamma candidates in [0, 2pi) are paired with a 24-point beta grid in
    [0, pi); the best grid point seeds a bounded derivative-free refinement.
    The grid winner is kept if refinement fails to improve on it, so the
    returned energy never exceeds the best grid energy.  Deterministic: no
    randomness anywhere.
    """
    if g.edge_count == 0:
        raise ValueError("cannot optimize angles on an edgeless graph")
    gammas = np.linspace(0.0, 2 * np.pi, n_gamma, endpoint=False)
    betas = np.linspace(0.0, np.pi, n_beta, endpoint=False)
    surface = energy_grid(g, gammas, betas)
    gi, bi = np.unravel_index(np.argmin(surface), surface.shape)
    grid_energy = float(surface[gi, bi])
    x0 = np.array([gammas[gi], betas[bi]])

    terms = _EdgeTerms(g)
    j = terms.j

    def objective(x):
        av, bv = terms.ab(np.array([x[0]]))
        return float(np.sin(4 * x[1]) * (av[0] @ j) + np.sin(2 * x[1]) ** 2 * (bv[0] @ j))

    result = optimize.minimize(
        objective,
        x0,
        method="Nelder-Mead",
        bounds=[(0.0, 2 * np.pi), (0.0, np.pi)],
        options={"maxfev": refine_maxfev, "fatol": refine_tol, "xatol": 1e-10},
    )
    if result.fun <= grid_energy:
        return Angles(gamma=float(result.x[0]), beta=float(result.x[1]))
    return Angles(gamma=float(x0[0]), beta=float(x0[1]))


def statevector_depth1(
    g: WeightedGraph, a: Angles, max_qubits: int = STATEVECTOR_MAX_QUBITS
) -> np.ndarray:
    """Amplitudes of exp(-i beta H_M) exp(-i gamma H_C) |+>^n.

    Qubit q is the q-th node in sorted order; bit q of a basis index is
    (index >> q) & 1 and carries spin z = 1 - 2*bit.
    """
    n = g.node_count
    if n > max_qubits:
        raise ValueError(f"statevector limited to {max_qubits} qubits, got {n}")
    amps = np.full(1 << n, 2.0 ** (-n / 2), dtype=complex)
    amps *= np.exp(-1j * a.gamma * _cost_diagonal(g))
    c, s = np.cos(a.beta), np.sin(a.beta)
    idx = np.arange(1 << n)
    for q in range(n):
        mask = 1 << q
        i0 = idx[(idx & mask) == 0]
        i1 = i0 | mask
        a0 = amps[i0].copy()
        a1 = amps[i1].copy()
        amps[i0] = c * a0 - 1j * s * a1
        amps[i1] = -1j * s * a0 + c * a1
    return amps


def _cost_diagonal(g: WeightedGraph) -> np.ndarray:
    """Ising energy of every basis state, indexed like statevector_depth1."""
    n = g.node_count
    pos = {u: q for q, u in enumerate(g.nodes)}
    idx = np.arange(1 << n)
    cost = np.zeros(1 << n)
    for (u, v), j in g.edges().items():
        zz = 1 - 2 * (((idx >> pos[u]) ^ (idx >> pos[v])) & 1)
        cost += j * zz
    return cost


def _sample_indices(cum: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Draw k basis-state indices from a cumulative distribution."""
    idx = np.searchsorted(cum, rng.random(k), side="right")
    return np.minimum(idx, len(cum) - 1)


@dataclass
class ShotPool:
    """An accumulated pool of shots for one prepared state.

    ``disagree[i]`` counts the shots in which the endpoints of the i-th edge
    (in ``edge_list()`` order) were measured anti-aligned.  Both sampling modes
    reduce their shots to this form, so pools merge by addition.
    """

    shots: int
    disagree: np.ndarray


class CorrelationSampler:
    """Shot source for one (graph, angles) pair with pooled re-estimation.

    Modes:
      exact               closed-form values, zero shots
      statevector_sampled one shared pool of basis-state samples per estimate
      binomial            independent per-edge Binomial(k, (1+M)/2) draws
    ``auto`` picks statevector sampling up to ``sv_threshold`` qubits and
    the binomial model above it.  A statevector request beyond the hard
    qubit limit falls back to binomial with the estimate flagged.  Either
    sampled mode yields a ShotPool, and a pool of k shots with c
    disagreements on an edge estimates its correlation as (k - 2c) / k.
    """

    def __init__(
        self,
        g: WeightedGraph,
        a: Angles,
        mode: str = MODE_AUTO,
        sv_threshold: int = STATEVECTOR_SAMPLING_THRESHOLD,
        sv_max_qubits: int = STATEVECTOR_MAX_QUBITS,
        exact_values: dict[tuple[int, int], float] | None = None,
        cumulative_probs: np.ndarray | None = None,
    ):
        self.graph = g
        self.angles = a
        self.fallback = False
        if mode == MODE_AUTO:
            mode = MODE_STATEVECTOR if g.node_count <= sv_threshold else MODE_BINOMIAL
        if mode == MODE_STATEVECTOR and g.node_count > sv_max_qubits:
            mode = MODE_BINOMIAL
            self.fallback = True
        if mode not in (MODE_EXACT, MODE_STATEVECTOR, MODE_BINOMIAL):
            raise ValueError(f"unknown sampling mode {mode!r}")
        self.mode = mode

        self._exact = exact_values
        self._cum = cumulative_probs

    def exact_values(self) -> dict[tuple[int, int], float]:
        if self._exact is None:
            self._exact = zz_all_edges(self.graph, self.angles)
        return self._exact

    def cumulative_probs(self) -> np.ndarray:
        if self._cum is None:
            state = statevector_depth1(self.graph, self.angles)
            probs = np.abs(state) ** 2
            self._cum = np.cumsum(probs / probs.sum())
        return self._cum

    def exact_estimate(self) -> CorrelationEstimate:
        return CorrelationEstimate(
            values=dict(self.exact_values()), shots_used=0, mode=MODE_EXACT
        )

    def draw(self, k: int, rng: np.random.Generator) -> ShotPool:
        if k < 1:
            raise ValueError("need at least one shot")
        edges = self.graph.edge_list()
        if self.mode == MODE_STATEVECTOR:
            idx = _sample_indices(self.cumulative_probs(), k, rng)
            bits = ((idx >> np.arange(self.graph.node_count)[:, None]) & 1).astype(np.uint8)
            ends = np.searchsorted(self.graph.nodes, np.reshape(edges, (-1, 2)))
            flips = bits[ends[:, 0]] ^ bits[ends[:, 1]]
            return ShotPool(shots=k, disagree=flips.sum(axis=1, dtype=np.int64))
        if self.mode == MODE_BINOMIAL:
            exact = self.exact_values()
            agree = [
                rng.binomial(k, min(1.0, max(0.0, (1.0 + exact[e]) / 2.0))) for e in edges
            ]
            return ShotPool(shots=k, disagree=k - np.array(agree, dtype=np.int64))
        raise ValueError("exact mode draws no shots")

    @staticmethod
    def merge(a: ShotPool, b: ShotPool) -> ShotPool:
        return ShotPool(shots=a.shots + b.shots, disagree=a.disagree + b.disagree)

    def estimate(self, pool: ShotPool) -> CorrelationEstimate:
        values = (pool.shots - 2 * pool.disagree) / pool.shots
        return CorrelationEstimate(
            values=dict(zip(self.graph.edge_list(), values.tolist())),
            shots_used=pool.shots,
            mode=self.mode,
            fallback=self.fallback,
        )
