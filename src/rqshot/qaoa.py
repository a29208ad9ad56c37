"""Exact depth-1 QAOA expectations, a statevector oracle, and shot sampling.

For the field-free weighted Ising Hamiltonian H = sum J_uv Z_u Z_v and the
depth-1 state |psi(gamma, beta)> = exp(-i beta sum X) exp(-i gamma H) |+>^n,
each pairwise expectation <Z_u Z_v> splits into an angle and a structure
part:

    <Z_u Z_v> = sin(4 beta) * a_uv(gamma) + sin^2(2 beta) * b_uv(gamma)

    a_uv = sin(2 gamma J_uv) / 2 * (  prod_w cos(2 gamma R_u,w)
                                    + prod_w cos(2 gamma R_v,w) )
    b_uv = -1/2 * (  prod_w cos(2 gamma (R_u,w + R_v,w))
                   - prod_w cos(2 gamma (R_u,w - R_v,w)) )

with R_u the row of u in the coupling matrix, columns u and v zeroed, and w
over every node: an absent coupling gives cos 0 = 1, and a node coupled to
one endpoint only gives the same factor in both products of b (the
all-vertex form of Ozaeta, van Dam & McMahon, arXiv:2012.03421).  One cosine
per distinct argument serves all four products (_EdgeTerms).  Summed with
the couplings, the energy is A(gamma) sin 4beta + B(gamma) sin^2 2beta,
whose minimum over beta is B/2 - sqrt(A^2 + B^2/4) in closed form (Wang,
Hadfield, Jiang & Rieffel, arXiv:1706.02998), so the angle search is a
one-dimensional search over gamma: a grid scan refined by parabolic steps
on a three-point stencil, guarded so that it never ends above the grid's
best (optimize_angles).  The statevector simulator, not the formula, is
the ground truth in the tests.  H has no fields, so the state is
invariant under the global spin flip X^(x)n, the Z2 symmetry RQAOA is built
on (Bravyi, Kliesch, Koenig & Tang, arXiv:1910.08980), and every ZZ product
and every disagreement count is too.  The simulator therefore prepares only
the 2^(n-1) amplitudes with the top qubit at 0.  It builds the phased state
2^(-n/2) exp(-i gamma C(z)) as complex amplitudes by doubling over qubits,
about 2^n complex multiplies and no trigonometry over the 2^(n-1) entries,
applies the mixer of the lower qubits five at a time, one matmul by the
32 x 32 factor exp(-i beta X)^(x)5 per block of qubits (fused gates, as in
Haener & Steiger, arXiv:1704.01127; the factor is symmetric, so the lowest
block is one matrix product of the rows of 32 amplitudes by it), and the top
qubit's mixer as a reversal of the half.  Shots are drawn by one search of
sorted keys in the half's cumulative distribution, each draw from the
flipped half folded back.

Qubits and edges are indexed as WeightedGraph.edge_index() gives them, and
every per-edge vector here (exact values, shot counts, estimates) is a
float or integer array in edge_list() order.  Sampled estimates only ever
need, per edge, how many shots measured its two spins anti-aligned, so a
shot pool is that vector of counts whether the shots come from the
statevector or from per-edge binomial draws.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .instance import WeightedGraph

STATEVECTOR_MAX_QUBITS = 22
STATEVECTOR_SAMPLING_THRESHOLD = 20
ANGLE_GRID_POINTS = 48  # gamma grid in [0, 2pi) that seeds the angle search
MIXER_BLOCK_QUBITS = 5  # qubits per mixer matmul: a 32 x 32 factor

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


class _EdgeTerms:
    """Per-edge coupling rows for vectorized evaluation of a_e and b_e.

    Row e of ru (rv) is the coupling row of edge e's endpoint u (v) with
    columns u and v zeroed, cut to the columns where either row is nonzero,
    in order, and padded with zeros: an absent coupling contributes cos 0 = 1
    to every product.  ``rows`` indexes ru, rv, ru + rv and ru - rv into
    ``values``, their distinct entries, so ``ab`` takes one cosine per value
    and multiplies the gathered columns in order: each row's product, bit for bit.
    """

    def __init__(self, g: WeightedGraph):
        ends, self.j = g.edge_index()
        rows = g.coupling_matrix()
        ru, rv = rows[ends[:, 0]], rows[ends[:, 1]]
        edge = np.arange(len(ends))
        ru[edge, ends[:, 1]] = rv[edge, ends[:, 0]] = 0.0
        live = (ru != 0.0) | (rv != 0.0)
        cols = np.argsort(~live, axis=1, kind="stable")[:, : live.sum(axis=1).max(initial=0)]
        ru, rv = ru[edge[:, None], cols], rv[edge[:, None], cols]
        stacked = np.stack([ru, rv, ru + rv, ru - rv])
        self.values, inverse = np.unique(stacked, return_inverse=True)
        self.rows = inverse.reshape(stacked.shape)

    def ab(self, gammas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Structure coefficients a_e, b_e for each gamma; shape (len(gammas), E), in C
        order: on a Fortran-ordered batch ``a @ j`` takes another BLAS path, with other bits."""
        g2 = 2.0 * np.asarray(gammas, dtype=float).reshape(-1)
        cos = np.cos(self.values[:, None] * g2)  # a row per value, a column per gamma
        products = np.ones(self.rows.shape[:2] + g2.shape)  # the four, a column at a time
        for k in range(self.rows.shape[2]):
            products *= cos[self.rows[:, :, k]]
        pu, pv, tp, tm = products
        a = 0.5 * np.sin(self.j[:, None] * g2) * (pu + pv)
        return np.ascontiguousarray(a.T), np.ascontiguousarray(-0.5 * (tp - tm).T)


def zz_all_edges(g: WeightedGraph, a: Angles) -> np.ndarray:
    """Exact <Z_u Z_v> for every edge at the given angles, in edge_list() order."""
    av, bv = _EdgeTerms(g).ab(np.array([a.gamma]))
    return np.sin(4 * a.beta) * av[0] + np.sin(2 * a.beta) ** 2 * bv[0]


def _beta_minimum(big_a: np.ndarray, big_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum over beta of A sin 4beta + B sin^2 2beta, and the beta reaching it.

    The energy equals B/2 + A sin 4beta - (B/2) cos 4beta, a sinusoid in 4beta
    of amplitude sqrt(A^2 + B^2/4) about B/2; the beta returned lies in
    [0, pi/2), the energy's period.
    """
    energy = big_b / 2 - np.hypot(big_a, big_b / 2)
    beta = ((np.arctan2(big_a, -big_b / 2) + np.pi) / 4) % (np.pi / 2)
    return energy, beta


def optimize_angles(g: WeightedGraph) -> Angles:
    """Minimize the depth-1 energy: beta in closed form, gamma by a 1-D search.

    With A(gamma) = sum_e J_e a_e and B(gamma) = sum_e J_e b_e, the minimum
    of the energy over beta is B/2 - sqrt(A^2 + B^2/4) (see _beta_minimum).
    That envelope is scanned on ANGLE_GRID_POINTS values of gamma in
    [0, 2pi), and the winner is refined by parabolic steps on a stencil
    [c - h, c, c + h] inside its bracket, one grid step either side within
    [0, 2pi].  The first parabola runs through the winner and its grid
    neighbours at no cost; a winner at an end of the grid first takes one
    call on the stencil spanning its bracket.  Each step evaluates the
    stencil centred on the last vertex, moved into the bracket, with
    h = min(h/2, max(|d|, 1e-6)) after a step d, until |d| < 1e-10, a
    parabola is not convex, or 10 steps.  The guard: the best point
    evaluated is returned with the beta of that evaluation, and the grid
    winner stays unless a point beats it, which a NaN never does.  So the
    energy never exceeds the best grid energy, and no beta grid can do
    better at the same gamma.  beta lies in [0, pi/2), the period of the
    state up to a global phase.  Deterministic: no randomness anywhere.
    """
    if g.edge_count == 0:
        raise ValueError("cannot optimize angles on an edgeless graph")
    terms = _EdgeTerms(g)

    def best_over_beta(gammas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        av, bv = terms.ab(gammas)
        return _beta_minimum(av @ terms.j, bv @ terms.j)

    step = 2 * np.pi / ANGLE_GRID_POINTS
    gammas = np.linspace(0.0, 2 * np.pi, ANGLE_GRID_POINTS, endpoint=False)
    surface, betas = best_over_beta(gammas)
    gi = int(np.argmin(surface))
    best = surface[gi], gammas[gi], betas[gi]
    lo, hi = max(0.0, gammas[gi] - step), min(2 * np.pi, gammas[gi] + step)

    def stencil(c: float, h: float) -> np.ndarray:
        nonlocal best
        x = np.clip([c - h, c, c + h], lo, hi)
        f, b = best_over_beta(x)
        i = int(np.argmin(f))
        if f[i] < best[0]:
            best = f[i], x[i], b[i]
        return f

    if 0 < gi < ANGLE_GRID_POINTS - 1:
        c, h, f = gammas[gi], step, surface[gi - 1 : gi + 2]
    else:
        c, h = (lo + hi) / 2, (hi - lo) / 2
        f = stencil(c, h)
    for _ in range(10):
        curve = f[0] - 2 * f[1] + f[2]
        if not curve > 0:
            break
        d = h * (f[0] - f[2]) / (2 * curve)
        if not abs(d) >= 1e-10:
            break
        h = min(h / 2, max(abs(d), 1e-6))
        c = min(max(c + d, lo + h), hi - h)
        f = stencil(c, h)
    _, gamma, beta = best
    return Angles(gamma=float(gamma), beta=float(beta))


def statevector_depth1(g: WeightedGraph, a: Angles) -> np.ndarray:
    """The half of exp(-i beta H_M) exp(-i gamma H_C) |+>^n with the top qubit at 0.

    Qubit q is the q-th node in sorted order; bit q of a basis index is
    (index >> q) & 1 and carries spin z = 1 - 2*bit.  H_C has no fields, so
    the state is invariant under the global flip X^(x)n, psi(~x) = psi(x),
    the Z2 symmetry RQAOA is built on (Bravyi, Kliesch, Koenig & Tang,
    arXiv:1910.08980); the 2^(n-1) amplitudes returned, of the basis states
    with qubit n-1 at 0, determine the rest: the full state is
    ``concatenate([half, half[::-1]])``, and the half holds probability 1/2.
    The phased state 2^(-n/2) exp(-i gamma C(z)) is built as complex
    amplitudes by doubling over qubits (_phase_state).  The mixer
    exp(-i beta X) on qubits 0..n-2 is applied MIXER_BLOCK_QUBITS qubits at
    a time: the 2^b x 2^b factor U^(x)b acts by one matmul on
    ``amps.reshape(-1, 2**b, 2**lo)``, the axis of qubits lo..lo+b-1,
    writing into a second buffer of the same size and swapping the two.
    Every factor equals its transpose bit for bit (_mixer_factors), so the
    lowest block, lo = 0, is one matrix product of the rows
    ``amps.reshape(-1, 2**b)`` by the factor, not 2^(n-1-b) products of
    the factor by a column.  On a flip-symmetric state, flipping the top
    qubit complements the lower ones, which reverses the half, so the top
    qubit's mixer is cos(beta) psi - i sin(beta) psi[::-1].
    """
    n = g.node_count
    if not 0 < n <= STATEVECTOR_MAX_QUBITS:
        raise ValueError(f"statevector needs 1 to {STATEVECTOR_MAX_QUBITS} qubits, got {n}")
    amps = np.empty(1 << (n - 1), dtype=complex)
    spare = np.empty_like(amps)
    _phase_state(g, a.gamma, amps, spare)
    factors = _mixer_factors(a.beta, min(n - 1, MIXER_BLOCK_QUBITS))
    for lo in range(0, n - 1, MIXER_BLOCK_QUBITS):
        b = min(MIXER_BLOCK_QUBITS, n - 1 - lo)
        if lo == 0:  # rows of 2^b amplitudes times the symmetric factor: one GEMM
            np.matmul(amps.reshape(-1, 1 << b), factors[b - 1], out=spare.reshape(-1, 1 << b))
        else:
            shape = (-1, 1 << b, 1 << lo)
            np.matmul(factors[b - 1], amps.reshape(shape), out=spare.reshape(shape))
        amps, spare = spare, amps
    np.multiply(amps[::-1], -1j * np.sin(a.beta), out=spare)
    amps *= np.cos(a.beta)
    amps += spare
    return amps


def _phase_state(g: WeightedGraph, gamma: float, out: np.ndarray, scratch: np.ndarray) -> None:
    """Write 2^(-n/2) exp(-i gamma C(z)) into ``out``, the half statevector_depth1 returns.

    Built by doubling over qubits: once ``out[:2**q]`` holds the state of
    the first q qubits, qubit q's field h = sum_{p<q} J_pq z_p gives the
    factor f = exp(-i gamma h) on the half where its bit is 0 and conj(f)
    where it is 1; the top qubit stays at 0, so it only multiplies by f.
    f depends only on the bits up to q's highest lower neighbour p_max, so
    it is built by the same doubling, with the scalars exp(-+i gamma J_pq),
    over 2**(p_max+1) entries of ``scratch`` and broadcast across the rest.
    """
    n = g.node_count
    ends, couplings = g.edge_index()
    lower: list[dict[int, float]] = [{} for _ in range(n)]
    for (p, q), j in zip(ends.tolist(), couplings.tolist()):
        lower[q][p] = j
    out[0] = 2.0 ** (-n / 2)
    for q in range(n):
        top = max(lower[q], default=-1) + 1
        width, size = 1 << top, 1 << q
        f = scratch[:width]
        f[0] = 1.0
        for p in range(top):
            half = 1 << p
            turn = cmath.exp(-1j * gamma * lower[q].get(p, 0.0))
            np.multiply(f[:half], turn.conjugate(), out=f[half : 2 * half])
            f[:half] *= turn
        lo = out[:size].reshape(-1, width)
        if q < n - 1:
            fbar = np.conjugate(f, out=scratch[width : 2 * width])
            np.multiply(lo, fbar, out=out[size : 2 * size].reshape(-1, width))
        lo *= f


def _mixer_factors(beta: float, width: int) -> list[np.ndarray]:
    """exp(-i beta X)^(x)b for b = 1..width, each a 2^b x 2^b matrix.

    u is symmetric and each level multiplies entries of symmetric factors in
    one fixed order, so every factor equals its transpose exactly.
    """
    c, s = np.cos(beta), np.sin(beta)
    u = np.array([[c, -1j * s], [-1j * s, c]])
    factors = [u]
    for _ in range(width - 1):
        f = factors[-1]  # the Kronecker product f (x) u, by one broadcast multiply
        factors.append((f[:, None, :, None] * u[None, :, None, :]).reshape(2 * len(f), -1))
    return factors


def _search_keys(cum: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """The k values whose searches in ``cum`` draw k folded indices (see _sample_indices)."""
    u = rng.random(k)
    w = np.nextafter(2 * cum[-1] - u, -np.inf)
    return np.minimum(u, w, out=w)


def _sample_indices(cum: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Draw k basis-state indices of the half state, each flipped draw folded back.

    ``cum`` is the cumulative distribution of the half state, with total
    S = cum[-1] = 1/2.  By the flip symmetry the full distribution's upper
    half is C[2^(n-1) + j] = 2S - cum[2^(n-1) - 2 - j], so a draw u >= S
    lands on the complement of the first index m with cum[m] >= 2S - u.
    One ``side="right"`` search of min(u, the float just below 2S - u)
    finds m for such a draw and the usual index for a draw u < S.  So each
    index returned is the full-space search's, complemented when its top
    bit is set, which leaves every disagreement count as it was, and the
    stream is consumed as one rng.random(k).  Every searched value is
    below S, so every index is below len(cum).  Indices come in draw order.
    """
    return np.searchsorted(cum, _search_keys(cum, k, rng), side="right")


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
    the binomial model above it.  Statevector sampling above
    STATEVECTOR_MAX_QUBITS, forced or through the threshold, is a
    ValueError.  Either sampled mode yields a ShotPool, and a pool of k
    shots with c disagreements on an edge estimates its correlation as
    (k - 2c) / k.  Estimates and exact values are float arrays in
    ``edge_list()`` order.
    """

    def __init__(
        self,
        g: WeightedGraph,
        a: Angles,
        mode: str = MODE_AUTO,
        sv_threshold: int = STATEVECTOR_SAMPLING_THRESHOLD,
        exact_values: np.ndarray | None = None,
        cumulative_probs: np.ndarray | None = None,
    ):
        self.graph = g
        self.angles = a
        if mode == MODE_AUTO:
            mode = MODE_STATEVECTOR if g.node_count <= sv_threshold else MODE_BINOMIAL
        if mode == MODE_STATEVECTOR and g.node_count > STATEVECTOR_MAX_QUBITS:
            raise ValueError(f"{MODE_STATEVECTOR} is limited to {STATEVECTOR_MAX_QUBITS} qubits, "
                             f"got {g.node_count}")
        if mode not in (MODE_EXACT, MODE_STATEVECTOR, MODE_BINOMIAL):
            raise ValueError(f"unknown sampling mode {mode!r}")
        self.mode = mode

        self._exact = exact_values
        self._cum = cumulative_probs
        # what every statevector draw reads: the qubit shifts and the edges' endpoint columns
        ends, _ = g.edge_index()
        self._shifts = np.arange(g.node_count)[:, None]
        self._u, self._v = ends[:, 0].copy(), ends[:, 1].copy()

    def exact_values(self) -> np.ndarray:
        if self._exact is None:
            self._exact = zz_all_edges(self.graph, self.angles)
        return self._exact

    def cumulative_probs(self) -> np.ndarray:
        if self._cum is None:
            state = statevector_depth1(self.graph, self.angles)
            probs = np.abs(state)
            del state  # freed before the sums, to lower the peak
            np.square(probs, out=probs)
            probs /= 2 * probs.sum()  # the half holds probability 1/2
            self._cum = np.cumsum(probs, out=probs)
        return self._cum

    def draw(self, k: int, rng: np.random.Generator) -> ShotPool:
        """k shots.  Statevector keys are searched sorted, a faster search that
        finds _sample_indices's indices in another order: the same counts."""
        if k < 1:
            raise ValueError("need at least one shot")
        if self.mode == MODE_STATEVECTOR:
            cum = self.cumulative_probs()
            keys = _search_keys(cum, k, rng)
            keys.sort()
            idx = np.searchsorted(cum, keys, side="right")
            bits = (idx >> self._shifts).astype(np.uint8)  # row q: a byte whose lowest bit is q's
            bits &= 1
            flips = bits[self._u] ^ bits[self._v]
            return ShotPool(shots=k, disagree=flips.sum(axis=1, dtype=np.int64))
        if self.mode == MODE_BINOMIAL:
            p = np.clip((1.0 + self.exact_values()) / 2.0, 0.0, 1.0)
            return ShotPool(shots=k, disagree=k - rng.binomial(k, p))
        raise ValueError("exact mode draws no shots")

    @staticmethod
    def merge(a: ShotPool, b: ShotPool) -> ShotPool:
        return ShotPool(shots=a.shots + b.shots, disagree=a.disagree + b.disagree)

    def estimate(self, pool: ShotPool) -> np.ndarray:
        return (pool.shots - 2 * pool.disagree) / pool.shots
