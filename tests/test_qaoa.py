import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import linalg, optimize, stats

from rqshot import qaoa
from rqshot.driver import select_edge
from rqshot.features import edge_order
from rqshot.instance import (
    ContractionRecord,
    WeightedGraph,
    contract,
    generate_regular_gaussian,
)
from rqshot.qaoa import (
    ANGLE_GRID_POINTS,
    MIXER_BLOCK_QUBITS,
    MODE_BINOMIAL,
    MODE_EXACT,
    MODE_STATEVECTOR,
    STATEVECTOR_MAX_QUBITS,
    STATEVECTOR_SAMPLING_THRESHOLD,
    Angles,
    CorrelationSampler,
    ShotPool,
    _beta_minimum,
    _EdgeTerms,
    _mixer_factors,
    _phase_state,
    _sample_indices,
    optimize_angles,
    statevector_depth1,
    zz_all_edges,
)

from .conftest import make_graph, random_weighted_graph


def energy_expectation(g, a):
    """Reference: <H> = sum_e J_e <Z_u Z_v> from the closed form."""
    return float(zz_all_edges(g, a) @ g.edge_index()[1])


class PaddedEdgeTerms:
    """Reference: the closed form over padded neighbour lists that the coupling rows replaced.

    Row e lists, for edge (u, v), the couplings of u's and v's other
    neighbours (nu, nv), of their neighbours not shared with the other
    endpoint (xu, xv), and J_uf + J_vf, J_uf - J_vf over the shared ones
    (sp, sm); padding with 0 is neutral because cos(0) = 1.
    """

    def __init__(self, g):
        edges = list(g.edges().items())
        self.j = np.array([j for _, j in edges]) if edges else np.zeros(0)
        nbr = {u: {} for u in g.nodes}
        for (u, v), j in edges:
            nbr[u][v] = nbr[v][u] = j
        rows = {name: [] for name in ("nu", "nv", "xu", "xv", "sp", "sm")}
        for (u, v), _ in edges:
            nbr_u, nbr_v = nbr[u], nbr[v]
            shared = sorted(set(nbr_u) & set(nbr_v) - {u, v})
            rows["nu"].append([j for w, j in sorted(nbr_u.items()) if w != v])
            rows["nv"].append([j for w, j in sorted(nbr_v.items()) if w != u])
            rows["xu"].append([j for w, j in sorted(nbr_u.items()) if w != v and w not in shared])
            rows["xv"].append([j for w, j in sorted(nbr_v.items()) if w != u and w not in shared])
            rows["sp"].append([nbr_u[f] + nbr_v[f] for f in shared])
            rows["sm"].append([nbr_u[f] - nbr_v[f] for f in shared])
        for name, table in rows.items():
            padded = np.zeros((len(table), max(map(len, table), default=0)))
            for i, r in enumerate(table):
                padded[i, : len(r)] = r
            setattr(self, name, padded)

    def ab(self, gammas):
        g2 = 2.0 * np.asarray(gammas, dtype=float).reshape(-1, 1, 1)

        def prod(rows):
            return np.cos(g2 * rows).prod(axis=2)

        a = 0.5 * np.sin(g2[:, :, 0] * self.j) * (prod(self.nu) + prod(self.nv))
        b = -0.5 * prod(self.xu) * prod(self.xv) * (prod(self.sp) - prod(self.sm))
        return a, b


class RowEdgeTerms:
    """Reference: the closed form over four compacted row arrays, a cosine per entry.

    The E x w arrays ru, rv, ru + rv and ru - rv that _EdgeTerms held before
    it shared one cosine among equal arguments: the endpoints' coupling
    rows with columns u and v zeroed, cut to the columns where either row
    is nonzero, in order, and padded with zeros.
    """

    def __init__(self, g):
        ends, self.j = g.edge_index()
        rows = g.coupling_matrix()
        ru, rv = rows[ends[:, 0]], rows[ends[:, 1]]
        edge = np.arange(len(ends))
        ru[edge, ends[:, 1]] = rv[edge, ends[:, 0]] = 0.0
        live = (ru != 0.0) | (rv != 0.0)
        cols = np.argsort(~live, axis=1, kind="stable")[:, : live.sum(axis=1).max(initial=0)]
        self.ru, self.rv = ru[edge[:, None], cols], rv[edge[:, None], cols]
        self.rsum, self.rdiff = self.ru + self.rv, self.ru - self.rv

    def ab(self, gammas):
        g2 = 2.0 * np.asarray(gammas, dtype=float).reshape(-1, 1, 1)
        pu = np.cos(g2 * self.ru).prod(axis=2)
        pv = np.cos(g2 * self.rv).prod(axis=2)
        a = 0.5 * np.sin(g2[:, :, 0] * self.j) * (pu + pv)
        tp = np.cos(g2 * self.rsum).prod(axis=2)
        tm = np.cos(g2 * self.rdiff).prod(axis=2)
        return a, -0.5 * (tp - tm)


def unfold(half):
    """The full state from the half with the top qubit at 0: psi(~x) = psi(x)."""
    return np.concatenate([half, half[::-1]])


def statevector_zz(g, angles, edge):
    """Oracle: <Z_u Z_v> straight from the simulated state."""
    state = unfold(statevector_depth1(g, angles))
    idx = np.arange(state.size)
    pos = {u: q for q, u in enumerate(g.nodes)}
    z_u = 1 - 2 * ((idx >> pos[edge[0]]) & 1)
    z_v = 1 - 2 * ((idx >> pos[edge[1]]) & 1)
    return float(np.sum(np.abs(state) ** 2 * z_u * z_v))


def edge_cost_diagonal(g):
    """Reference: the Ising energy of every basis state, one pass per edge."""
    n = g.node_count
    pos = {u: q for q, u in enumerate(g.nodes)}
    idx = np.arange(1 << n)
    cost = np.zeros(1 << n)
    for (u, v), j in g.edges().items():
        cost += j * (1 - 2 * (((idx >> pos[u]) ^ (idx >> pos[v])) & 1))
    return cost


def gather_statevector(g, a):
    """Reference: the statevector with the mixer applied by index gathers."""
    n = g.node_count
    amps = np.full(1 << n, 2.0 ** (-n / 2), dtype=complex)
    amps *= np.exp(-1j * a.gamma * edge_cost_diagonal(g))
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


def butterfly_statevector(g, a):
    """Reference: the statevector with the mixer applied qubit by qubit.

    Each qubit's mixer is an in-place butterfly over the two halves of
    ``amps.reshape(-1, 2, 1 << q)``, the amplitude pairs that differ in bit q.
    """
    n = g.node_count
    amps = 2.0 ** (-n / 2) * np.exp(-1j * a.gamma * edge_cost_diagonal(g))
    c, mix = np.cos(a.beta), -1j * np.sin(a.beta)
    scratch = np.empty((2, 1 << max(n - 1, 0)), dtype=complex)
    for q in range(n):
        pairs = amps.reshape(-1, 2, 1 << q)
        a0, a1 = pairs[:, 0, :], pairs[:, 1, :]
        t0, t1 = (half.reshape(a0.shape) for half in scratch)
        np.multiply(a0, mix, out=t0)
        np.multiply(a1, mix, out=t1)
        a0 *= c
        a0 += t1
        a1 *= c
        a1 += t0
    return amps


def phase_state(g, gamma):
    out = np.empty(1 << (g.node_count - 1), dtype=complex)
    _phase_state(g, gamma, out, np.empty_like(out))
    return out


def batched_statevector(g, a):
    """Reference: statevector_depth1 with every mixer block a batched matmul.

    The lowest block too multiplies the factor into each column of
    ``amps.reshape(-1, 2**b, 1)``: 2^(n-1-b) separate matrix-vector products.
    """
    n = g.node_count
    amps = phase_state(g, a.gamma)
    factors = _mixer_factors(a.beta, min(n - 1, MIXER_BLOCK_QUBITS))
    for lo in range(0, n - 1, MIXER_BLOCK_QUBITS):
        b = min(MIXER_BLOCK_QUBITS, n - 1 - lo)
        amps = np.matmul(factors[b - 1], amps.reshape(-1, 1 << b, 1 << lo)).reshape(-1)
    return amps * np.cos(a.beta) + amps[::-1] * (-1j * np.sin(a.beta))


def bench_walks(rng):
    """Graphs of at most STATEVECTOR_SAMPLING_THRESHOLD qubits met along random
    contraction sequences of the bench instances, down to eight qubits."""
    graphs = []
    for n, d in ((14, 8), (16, 3), (16, 5), (22, 3)):
        g = generate_regular_gaussian(n, d, seed=847)
        while g.node_count > 8 and g.edge_count > 0:
            if g.node_count <= STATEVECTOR_SAMPLING_THRESHOLD:
                graphs.append(g)
            edges = g.edge_list()
            u, v = edges[int(rng.integers(len(edges)))]
            g = contract(g, ContractionRecord(max(u, v), min(u, v), int(rng.choice([-1, 1]))))
    return graphs


def dense_statevector(g, a):
    """Reference: exp(-i beta sum X) exp(-i gamma H) |+>^n with dense matrices.

    Qubit q is bit q of the basis index, so it is the (n-1-q)-th kron factor.
    """
    n = g.node_count
    pos = {u: q for q, u in enumerate(g.nodes)}
    eye, x, z = np.eye(2), np.array([[0, 1], [1, 0]]), np.diag([1.0, -1.0])

    def on_qubits(ops):
        out = np.ones((1, 1))
        for q in reversed(range(n)):
            out = np.kron(out, ops.get(q, eye))
        return out

    zero = np.zeros((1 << n, 1 << n))
    h_cost = sum((j * on_qubits({pos[u]: z, pos[v]: z}) for (u, v), j in g.edges().items()), zero)
    h_mix = sum((on_qubits({q: x}) for q in range(n)), zero)
    plus = np.full(1 << n, 2.0 ** (-n / 2), dtype=complex)
    return linalg.expm(-1j * a.beta * h_mix) @ (linalg.expm(-1j * a.gamma * h_cost) @ plus)


class TestStatevector:
    def test_matches_gather_reference(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 13))
            g = random_weighted_graph(n, rng.uniform(0.1, 0.9), rng)
            a = Angles(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi))
            phased = 2.0 ** (-n / 2) * np.exp(-1j * a.gamma * edge_cost_diagonal(g))
            assert np.max(np.abs(phase_state(g, a.gamma) - phased[: phased.size // 2])) < 1e-12
            assert np.max(np.abs(unfold(statevector_depth1(g, a)) - gather_statevector(g, a))) < 1e-12

    @pytest.mark.parametrize("n", range(15, 21))
    def test_matches_butterfly_reference(self, n):
        # n = 15..20 gives the last block of the n - 1 lower qubits every width
        # from 1 to 5, and each n runs outer axes from 2**(n-6) rows down to one
        rng = np.random.default_rng(n)
        g = random_weighted_graph(n, 0.3, rng)
        a = Angles(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi))
        assert np.max(np.abs(unfold(statevector_depth1(g, a)) - butterfly_statevector(g, a))) < 1e-12

    def test_half_is_lower_half_and_reversed_upper_half(self, rng):
        graphs = [random_weighted_graph(n, rng.uniform(0.1, 0.9), rng)
                  for n in range(1, 13) for _ in range(3)]
        graphs += [g for g in reduced_graphs(40, np.random.default_rng(3)) if g.node_count <= 12]
        assert {g.node_count for g in graphs} == set(range(1, 13))
        for g in graphs:
            a = Angles(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi))
            half = statevector_depth1(g, a)
            refs = [butterfly_statevector(g, a)]
            if g.node_count <= 8:  # the dense exponentials are 2^n x 2^n
                refs.append(dense_statevector(g, a))
            for full in refs:
                lower, upper = np.split(full, 2)
                assert half.shape == lower.shape == (1 << (g.node_count - 1),)
                assert np.max(np.abs(half - lower)) < 1e-12
                assert np.max(np.abs(half - upper[::-1])) < 1e-12

    def test_small_and_edgeless_graphs(self):
        a = Angles(0.9, 0.35)
        # one qubit: the half is the single amplitude of |0>
        g = WeightedGraph(range(1), {})
        assert statevector_depth1(g, a).shape == (1,)
        assert np.allclose(unfold(statevector_depth1(g, a)), dense_statevector(g, a), atol=1e-15)
        # no couplings: each qubit is exp(-i beta X)|+> = e^{-i beta}|+>
        g = WeightedGraph(range(7), {})
        assert np.allclose(statevector_depth1(g, a), 2**-3.5 * np.exp(-7j * a.beta), atol=1e-15)
        # qubits 0, 2 and 4 have no lower neighbour; 4 has no neighbour at all
        g = WeightedGraph(range(6), {(0, 1): 0.8, (1, 3): -1.1, (2, 3): 0.5, (2, 5): 1.4})
        assert np.max(np.abs(phase_state(g, a.gamma)
                             - 2**-3 * np.exp(-1j * a.gamma * edge_cost_diagonal(g)[:32]))) < 1e-15
        assert np.allclose(unfold(statevector_depth1(g, a)), dense_statevector(g, a), atol=1e-12)

    def test_no_qubits_rejected(self):
        # the empty state has no top qubit to fold on
        with pytest.raises(ValueError, match="statevector needs 1 to"):
            statevector_depth1(WeightedGraph(range(0), {}), Angles(0.9, 0.35))

    def test_mixer_factors_match_matrix_exponential(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        for beta in (0.0, 0.4, 1.3):
            for b, factor in enumerate(_mixer_factors(beta, 5), start=1):
                sum_x = sum(np.kron(np.kron(np.eye(1 << q), x), np.eye(1 << (b - 1 - q)))
                            for q in range(b))
                assert np.max(np.abs(factor - linalg.expm(-1j * beta * sum_x))) < 1e-12

    def test_mixer_factors_equal_kron_products(self):
        # the broadcast products are np.kron's to the last bit
        for beta in (0.1, 0.7, 1.3, 2.9):
            for width in range(1, 6):
                factors = _mixer_factors(beta, width)
                want = factors[:1]
                for _ in range(width - 1):
                    want.append(np.kron(want[-1], factors[0]))
                assert len(factors) == width
                for got, kron in zip(factors, want):
                    assert got.shape == kron.shape and np.array_equal(got, kron)

    def test_mixer_factors_are_symmetric(self):
        # u is symmetric and each level multiplies symmetric factors in a fixed
        # order, so every factor equals its transpose to the last bit: the lowest
        # block may multiply rows of amplitudes by it from the right
        for beta in (0.1, 0.7, 1.3, 2.9):
            for factor in _mixer_factors(beta, 5):
                assert np.array_equal(factor, factor.T)

    @pytest.mark.parametrize("n", range(2, 21))
    def test_lowest_block_gemm_matches_batched_products(self, n):
        # n = 2..6 gives the lowest block every width from 1 to 5; above that it
        # is 5 qubits wide over 2^(n-6) rows of 32 amplitudes
        rng = np.random.default_rng(100 + n)
        g = random_weighted_graph(n, 0.4, rng)
        a = Angles(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi))
        got, want = statevector_depth1(g, a), batched_statevector(g, a)
        assert got.shape == want.shape and np.max(np.abs(got - want)) < 1e-15

    def test_state_bytes_equal_at_one_and_two_blas_threads(self):
        # byte-identical reruns must not depend on how BLAS splits the GEMM
        probe = (
            "import hashlib, sys; sys.path.insert(0, sys.argv[1]); "
            "from rqshot.instance import generate_regular_gaussian; "
            "from rqshot.qaoa import Angles, statevector_depth1; "
            "print(*(hashlib.sha256(statevector_depth1(generate_regular_gaussian(n, 4, seed=847), "
            "Angles(0.7, 0.3)).tobytes()).hexdigest() for n in range(16, 21)))"
        )
        src = os.path.dirname(os.path.dirname(qaoa.__file__))
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            done = subprocess.run([sys.executable, "-c", probe, src], env=env,
                                  capture_output=True, text=True, check=True, timeout=120)
            digests.append(done.stdout.split())
        assert len(digests[0]) == 5 and digests[0] == digests[1]
        want = [hashlib.sha256(statevector_depth1(generate_regular_gaussian(n, 4, seed=847),
                                                  Angles(0.7, 0.3)).tobytes()).hexdigest()
                for n in range(16, 21)]
        assert digests[0] == want

    def test_matches_dense_matrix_exponentials(self, rng):
        for n in range(1, 6):
            for _ in range(3):
                g = random_weighted_graph(n, 0.7, rng)
                a = Angles(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi))
                assert np.allclose(unfold(statevector_depth1(g, a)), dense_statevector(g, a),
                                   atol=1e-12)

    def test_zero_angles_uniform(self):
        g = make_graph({(0, 1): 1.0, (1, 2): -0.5})
        state = statevector_depth1(g, Angles(0.0, 0.0))
        assert np.allclose(state, 2 ** (-1.5))

    def test_norm_preserved(self, rng):
        for _ in range(5):
            g = random_weighted_graph(6, 0.5, rng)
            a = Angles(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi))
            state = statevector_depth1(g, a)
            assert abs(np.linalg.norm(state) ** 2 - 0.5) < 1e-12

    def test_two_qubit_hand_formula(self):
        # one edge J=1: amp(00)=amp(11)=(cos2b e^{-ig} - i sin2b e^{ig})/2,
        # amp(01)=amp(10) with the phases swapped
        g = make_graph({(0, 1): 1.0})
        gam, bet = 0.7, 0.4
        state = statevector_depth1(g, Angles(gam, bet))
        same = 0.5 * (np.cos(2 * bet) * np.exp(-1j * gam) - 1j * np.sin(2 * bet) * np.exp(1j * gam))
        diff = 0.5 * (np.cos(2 * bet) * np.exp(1j * gam) - 1j * np.sin(2 * bet) * np.exp(-1j * gam))
        assert np.allclose(state, [same, diff], atol=1e-12)

    def test_qubit_bound(self):
        # raised before the 2^22 amplitudes of the half are allocated
        n = STATEVECTOR_MAX_QUBITS + 1
        g = WeightedGraph(range(n), {(q, q + 1): 0.5 for q in range(n - 1)})
        with pytest.raises(ValueError, match="statevector needs 1 to"):
            statevector_depth1(g, Angles(0.1, 0.1))


class TestClosedForm:
    def test_beta_zero_vanishes(self, rng):
        g = random_weighted_graph(6, 0.6, rng)
        assert np.allclose(zz_all_edges(g, Angles(1.3, 0.0)), 0.0)

    def test_gamma_zero_vanishes(self, rng):
        g = random_weighted_graph(6, 0.6, rng)
        assert np.allclose(zz_all_edges(g, Angles(0.0, 0.7)), 0.0)

    def test_matches_statevector(self, rng):
        worst = 0.0
        for _ in range(25):
            n = int(rng.integers(2, 9))
            g = random_weighted_graph(n, 0.5, rng)
            if g.edge_count == 0:
                continue
            a = Angles(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi))
            for edge, value in zip(g.edge_list(), zz_all_edges(g, a)):
                worst = max(worst, abs(statevector_zz(g, a, edge) - value))
        assert worst < 1e-9

    def test_energy_matches_statevector(self, rng):
        for _ in range(5):
            g = random_weighted_graph(7, 0.5, rng)
            a = Angles(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi))
            sv_energy = sum(j * statevector_zz(g, a, e) for e, j in g.edges().items())
            assert energy_expectation(g, a) == pytest.approx(sv_energy, abs=1e-9)

    def test_coupling_rows_match_padded_neighbour_lists(self, rng):
        graphs = [random_weighted_graph(int(rng.integers(0, 12)), rng.uniform(0.1, 0.9), rng)
                  for _ in range(60)]
        graphs += reduced_graphs(60, np.random.default_rng(5))
        gammas = np.concatenate([np.linspace(0.0, 2 * np.pi, 48, endpoint=False),
                                 rng.uniform(0, 2 * np.pi, 16)])
        for g in graphs:
            terms, padded = _EdgeTerms(g), PaddedEdgeTerms(g)
            assert np.array_equal(terms.j, padded.j)
            for got, want in zip(terms.ab(gammas), padded.ab(gammas)):
                assert got.shape == want.shape == (len(gammas), g.edge_count)
                assert np.max(np.abs(got - want), initial=0.0) <= 1e-15


def coupling_graphs(rng):
    """Random graphs on 2 to 22 nodes with tied integer, Gaussian and 1e-3 couplings."""
    scales = [
        lambda: float(rng.choice([-2, -1, 1, 2])),
        lambda: float(rng.standard_normal()),
        lambda: 1e-3 * float(rng.choice([-2, -1, 1, 2])),
        lambda: 1e-3 * float(rng.standard_normal()),
    ]
    graphs = []
    for n in range(2, 23):
        p = rng.uniform(0.2, 0.9) if n <= 12 else rng.uniform(0.1, 0.4)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        graphs += [WeightedGraph(range(n), {e: coupling() for e in pairs}) for coupling in scales]
    return graphs


class TestDistinctCosines:
    """_EdgeTerms, one cosine per distinct argument, against RowEdgeTerms bit for bit."""

    def test_ab_equals_row_arrays_bit_for_bit(self, rng):
        graphs = coupling_graphs(rng) + reduced_graphs(60, np.random.default_rng(5))
        grid = np.linspace(0.0, 2 * np.pi, ANGLE_GRID_POINTS, endpoint=False)
        for g in graphs:
            terms, rows = _EdgeTerms(g), RowEdgeTerms(g)
            assert np.array_equal(terms.j, rows.j)
            assert np.array_equal(terms.values[terms.rows],
                                  np.stack([rows.ru, rows.rv, rows.rsum, rows.rdiff]))
            singles = [np.array([x]) for x in rng.uniform(0, 2 * np.pi, 4)]
            stencil = rng.uniform(0, 2 * np.pi) + np.array([-1e-6, 0.0, 1e-6])
            for gammas in [grid, rng.uniform(0, 2 * np.pi, 16), stencil, *singles]:
                for got, want in zip(terms.ab(gammas), rows.ab(gammas)):
                    assert got.shape == want.shape == (len(gammas), g.edge_count)
                    assert np.array_equal(got, want)
                    # the sums optimize_angles takes: equal bits need equal memory layouts too
                    assert np.array_equal(got @ terms.j, want @ rows.j)

    def test_optimize_angles_equals_row_array_search(self, monkeypatch):
        graphs = [g for g in coupling_graphs(np.random.default_rng(16)) if g.edge_count > 0]
        graphs += reduced_graphs(40, np.random.default_rng(847))
        got = [optimize_angles(g) for g in graphs]
        monkeypatch.setattr(qaoa, "_EdgeTerms", RowEdgeTerms)
        want = [optimize_angles(g) for g in graphs]
        assert [bits(a.gamma, a.beta) for a in got] == [bits(a.gamma, a.beta) for a in want]


def energy_grid(g, gammas, betas):
    """Reference: the energy surface over a gamma x beta grid, shape (len(gammas), len(betas))."""
    terms = _EdgeTerms(g)
    av, bv = terms.ab(np.asarray(gammas))
    big_a = av @ terms.j
    big_b = bv @ terms.j
    betas = np.asarray(betas)
    return np.sin(4 * betas)[None, :] * big_a[:, None] + (np.sin(2 * betas) ** 2)[None, :] * big_b[:, None]


def nelder_mead_angles(g):
    """Reference: the 2-D search the closed-form beta replaced.

    A 48 x 24 (gamma, beta) grid seeds a bounded Nelder-Mead refinement; the
    grid winner is kept if refinement does not improve on it.
    """
    gammas = np.linspace(0.0, 2 * np.pi, 48, endpoint=False)
    betas = np.linspace(0.0, np.pi, 24, endpoint=False)
    surface = energy_grid(g, gammas, betas)
    gi, bi = np.unravel_index(np.argmin(surface), surface.shape)
    x0 = np.array([gammas[gi], betas[bi]])
    terms = _EdgeTerms(g)

    def objective(x):
        av, bv = terms.ab(np.array([x[0]]))
        return float(np.sin(4 * x[1]) * (av[0] @ terms.j) + np.sin(2 * x[1]) ** 2 * (bv[0] @ terms.j))

    result = optimize.minimize(
        objective,
        x0,
        method="Nelder-Mead",
        bounds=[(0.0, 2 * np.pi), (0.0, np.pi)],
        options={"maxfev": 500, "fatol": 1e-8, "xatol": 1e-10},
    )
    x = result.x if result.fun <= surface[gi, bi] else x0
    return Angles(gamma=float(x[0]), beta=float(x[1]))


def reduced_graphs(count, rng):
    """Graphs met along random contraction sequences of regular instances."""
    graphs = []
    seed = 0
    while len(graphs) < count:
        n = int(rng.integers(9, 15))
        d = int(rng.choice([dd for dd in (3, 4, 5, 6) if n * dd % 2 == 0]))
        g = generate_regular_gaussian(n, d, seed=seed)
        seed += 1
        while g.node_count > 8 and g.edge_count > 0:
            graphs.append(g)
            edges = g.edge_list()
            u, v = edges[int(rng.integers(len(edges)))]
            g = contract(g, ContractionRecord(max(u, v), min(u, v), int(rng.choice([-1, 1]))))
    return graphs[:count]


def gamma_envelope(g):
    """The objective optimize_angles searches: for each gamma, the energy minimised over beta."""
    terms = _EdgeTerms(g)

    def envelope(gammas):
        av, bv = terms.ab(gammas)
        return _beta_minimum(av @ terms.j, bv @ terms.j)[0]

    return envelope


def bits(*values):
    return np.array(values, dtype=float).tobytes()


class TestStencilRefinement:
    """The parabolic refinement against SciPy's bounded minimize_scalar, the reference."""

    @pytest.fixture(scope="class")
    def graphs(self):
        graphs = reduced_graphs(200, np.random.default_rng(2282))
        assert len({g.signature() for g in graphs}) >= 150
        return graphs

    def test_close_to_scipy_bounded_search(self, graphs):
        step = 2 * np.pi / ANGLE_GRID_POINTS
        grid = np.linspace(0.0, 2 * np.pi, ANGLE_GRID_POINTS, endpoint=False)
        for g in graphs:
            envelope = gamma_envelope(g)
            winner = grid[np.argmin(envelope(grid))]
            ref = optimize.minimize_scalar(
                lambda x: float(envelope(np.array([x]))[0]),
                bounds=(max(0.0, winner - step), min(2 * np.pi, winner + step)),
                method="bounded", options={"xatol": 1e-10})
            got = optimize_angles(g)
            assert abs(got.gamma - ref.x) <= 1e-8
            assert energy_expectation(g, got) <= ref.fun + 1e-12

    def test_at_most_eight_stencils_after_the_grid(self, graphs, monkeypatch):
        batches = []
        ab = _EdgeTerms.ab

        def counted(self, gammas):
            batches.append(len(gammas))
            return ab(self, gammas)

        monkeypatch.setattr(_EdgeTerms, "ab", counted)
        for g in graphs:
            batches.clear()
            optimize_angles(g)
            assert batches[0] == ANGLE_GRID_POINTS
            assert set(batches[1:]) <= {3} and len(batches) <= 9

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("off_grid", [np.nan, 0.0], ids=["nan", "flat"])
    def test_nan_or_flat_off_the_grid_keeps_grid_winner(self, monkeypatch, off_grid):
        # a NaN never beats the grid winner, and a parabola that is not convex ends the search
        g = generate_regular_gaussian(10, 3, seed=11)
        grid = np.linspace(0.0, 2 * np.pi, ANGLE_GRID_POINTS, endpoint=False)
        terms = _EdgeTerms(g)
        av, bv = terms.ab(grid)
        surface, betas = _beta_minimum(av @ terms.j, bv @ terms.j)
        batches = []
        ab = _EdgeTerms.ab

        def off_the_grid(self, gammas):
            batches.append(len(gammas))
            a, b = ab(self, gammas)
            if len(gammas) == ANGLE_GRID_POINTS:
                return a, b
            return np.full_like(a, off_grid), np.full_like(b, off_grid)

        monkeypatch.setattr(_EdgeTerms, "ab", off_the_grid)
        gi = np.argmin(surface)
        assert optimize_angles(g) == Angles(gamma=grid[gi], beta=betas[gi])
        assert batches == [ANGLE_GRID_POINTS, 3]

    @pytest.mark.parametrize("past_last_point", [0.4, 0.9, 1.3])
    def test_winner_at_the_grid_end(self, past_last_point):
        # one edge of coupling J has energy -|J sin(2 gamma J)|, least at gamma* = pi / (4J)
        grid = np.linspace(0.0, 2 * np.pi, ANGLE_GRID_POINTS, endpoint=False)
        target = (ANGLE_GRID_POINTS - 1 + past_last_point) * grid[1]
        j = np.pi / (4 * target)
        g = make_graph({(0, 1): j})
        assert np.argmin(gamma_envelope(g)(grid)) == ANGLE_GRID_POINTS - 1
        a = optimize_angles(g)
        assert 0 <= a.gamma <= 2 * np.pi
        if target < 2 * np.pi:
            assert abs(a.gamma - target) <= 1e-8
            assert energy_expectation(g, a) == pytest.approx(-j, abs=1e-15)
        else:  # past 2 pi the search ends at the bracket's edge
            assert a.gamma == pytest.approx(2 * np.pi, abs=1e-9)


class TestOptimizeAngles:
    def test_single_edge_reaches_exact_optimum(self):
        # oracle-derived: depth-1 on an isolated edge reaches <ZZ> = -1
        # (Bell-like state at sin(4b) sin(2g) = -1), so min energy is -J
        g = make_graph({(0, 1): 1.0})
        a = optimize_angles(g)
        assert energy_expectation(g, a) == pytest.approx(-1.0, abs=1e-6)

    def test_refinement_never_worse_than_grid(self, rng):
        for _ in range(4):
            g = random_weighted_graph(7, 0.5, rng)
            if g.edge_count == 0:
                continue
            a = optimize_angles(g)
            gammas = np.linspace(0, 2 * np.pi, 48, endpoint=False)
            betas = np.linspace(0, np.pi, 24, endpoint=False)
            grid_min = energy_grid(g, gammas, betas).min()
            assert energy_expectation(g, a) <= grid_min + 1e-12

    def test_matches_dense_grid_oracle(self):
        g = generate_regular_gaussian(10, 3, seed=11)
        a = optimize_angles(g)
        dense = energy_grid(g, np.linspace(0, 2 * np.pi, 512), np.linspace(0, np.pi, 256))
        assert energy_expectation(g, a) <= dense.min() + 1e-3

    def test_deterministic(self):
        g = generate_regular_gaussian(8, 3, seed=4)
        a1, a2 = optimize_angles(g), optimize_angles(g)
        assert a1 == a2

    def test_angles_in_canonical_range(self, rng):
        for seed in range(3):
            g = generate_regular_gaussian(8, 5, seed=seed)
            a = optimize_angles(g)
            assert 0 <= a.gamma <= 2 * np.pi
            assert 0 <= a.beta < np.pi / 2

    def test_closed_form_beta_matches_dense_beta_grid(self, rng):
        betas = np.linspace(0.0, np.pi, 4096, endpoint=False)
        step = betas[1]
        for _ in range(3):
            g = random_weighted_graph(8, 0.5, rng)
            gammas = rng.uniform(0, 2 * np.pi, 8)
            grid = energy_grid(g, gammas, betas)
            terms = _EdgeTerms(g)
            av, bv = terms.ab(gammas)
            envelope, beta_star = _beta_minimum(av @ terms.j, bv @ terms.j)
            at_star = np.diagonal(energy_grid(g, gammas, beta_star))
            assert np.all((0 <= beta_star) & (beta_star < np.pi / 2))
            assert np.allclose(at_star, envelope, atol=1e-12)
            assert np.all(at_star <= grid.min(axis=1) + 1e-12)
            # the grid's best beta lies within one step of beta*, modulo pi/2
            gap = (betas[grid.argmin(axis=1)] - beta_star) % (np.pi / 2)
            assert np.all(np.minimum(gap, np.pi / 2 - gap) <= step)

    def test_no_worse_than_nelder_mead_on_reduced_graphs(self):
        graphs = reduced_graphs(60, np.random.default_rng(847))
        assert len({g.signature() for g in graphs}) >= 50
        for g in graphs:
            new, old = optimize_angles(g), nelder_mead_angles(g)
            assert 0 <= new.beta < np.pi / 2
            assert energy_expectation(g, new) <= energy_expectation(g, old) + 1e-12
            assert np.max(np.abs(zz_all_edges(g, new) - zz_all_edges(g, old))) < 1e-6

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError, match="edgeless"):
            optimize_angles(WeightedGraph(range(3), {}))


def cumulative(half):
    """The cumulative distribution of a half state, normalised to a total of 1/2."""
    probs = np.abs(half) ** 2
    return np.cumsum(probs / (2 * probs.sum()))


def index_bits(idx, n):
    return (idx[:, None] >> np.arange(n)) & 1


def full_space_indices(cum, k, rng):
    """Reference: the full-space sampler the folded search replaced."""
    idx = np.searchsorted(cum, rng.random(k), side="right")
    return np.minimum(idx, len(cum) - 1)


def fold(idx, n):
    """The index of the flipped basis state where the top qubit is 1."""
    top = idx >> (n - 1) == 1
    return np.where(top, (1 << n) - 1 - idx, idx)


class Stream:
    """A stand-in generator whose random() returns given values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, k):
        assert k == len(self.values)
        return self.values.copy()


class TestSampling:
    """The basis-state sampler behind every statevector draw."""

    def test_deterministic_basis_state(self, rng):
        # |010> and its flip |101> in equal parts: every draw folds onto 010
        half = np.zeros(4, dtype=complex)
        half[2] = 2**-0.5
        cum = cumulative(half)
        idx = _sample_indices(cum, 50, rng)
        assert np.all(index_bits(idx, 3) == [0, 1, 0])
        # u = S, the smallest and the largest draw stay on the one live bin
        extremes = Stream([cum[-1], 0.0, np.nextafter(1.0, 0.0)])
        assert _sample_indices(cum, 3, extremes).tolist() == [2, 2, 2]

    def test_uniform_state_bit_means(self, rng):
        half = np.full(8, 0.25, dtype=complex)
        k = 40000
        bits = index_bits(_sample_indices(cumulative(half), k, rng), 4)
        sigma = 0.5 / np.sqrt(k)
        assert np.all(np.abs(bits[:, :3].mean(axis=0) - 0.5) < 3 * sigma)
        assert not bits[:, 3].any()

    def test_chi_square_goodness_of_fit(self):
        rng = np.random.default_rng(99)
        raw = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        half = raw / np.linalg.norm(raw) / np.sqrt(2)
        k = 100_000
        idx = _sample_indices(cumulative(half), k, np.random.default_rng(7))
        observed = np.bincount(idx, minlength=16)
        expected = k * 2 * np.abs(half) ** 2
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert chi2 < stats.chi2.ppf(0.999, df=15)

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 16])
    def test_folded_draws_equal_full_space_draws(self, n):
        # the half search returns the folded full-space index for every draw,
        # including u = S, the boundaries of the lower half, and u = 0
        rng = np.random.default_rng(n)
        g = random_weighted_graph(n, 0.5, rng)
        half_probs = np.abs(statevector_depth1(g, Angles(*rng.uniform(0, np.pi, 2)))) ** 2
        half_probs /= 2 * half_probs.sum()
        half_probs[rng.random(half_probs.size) < 0.1] = 0.0  # zero bins and plateaus
        cum = np.cumsum(half_probs)
        full = np.cumsum(np.concatenate([half_probs, half_probs[::-1]]))
        assert np.array_equal(full[: cum.size], cum)
        u = np.concatenate([rng.random(1 << 16), [cum[-1], 0.0], cum[: 64]])
        want = fold(full_space_indices(full, u.size, Stream(u)), n)
        assert np.array_equal(_sample_indices(cum, u.size, Stream(u)), want)

    @pytest.mark.parametrize("k", [1, 16, 803, 4096])
    def test_sorted_draw_counts_equal_stream_order_counts(self, k):
        # draw searches its keys sorted: _sample_indices's indices in another order,
        # from the same one rng.random(k)
        for n, d in ((6, 3), (12, 5), (14, 8)):
            g = generate_regular_gaussian(n, d, seed=847)
            sampler = CorrelationSampler(g, optimize_angles(g), mode=MODE_STATEVECTOR)
            ends, _ = g.edge_index()
            for seed in range(3):
                ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                pool = sampler.draw(k, ours)
                flips = index_bits(_sample_indices(sampler.cumulative_probs(), k, ref), n)
                want = (flips[:, ends[:, 0]] ^ flips[:, ends[:, 1]]).sum(axis=0)
                assert pool.shots == k and np.array_equal(pool.disagree, want)
                assert ours.bit_generator.state == ref.bit_generator.state

    def test_cumulative_probs_equal_unfused_expression(self):
        # squaring, normalising and summing in place must not change a bit
        for n, d in ((10, 3), (14, 8)):
            g = generate_regular_gaussian(n, d, seed=847)
            a = optimize_angles(g)
            sampler = CorrelationSampler(g, a, mode=MODE_STATEVECTOR)
            cum = sampler.cumulative_probs()
            assert cum.shape == (1 << (n - 1),)
            assert abs(cum[-1] - 0.5) < 1e-12
            assert np.array_equal(cum, cumulative(statevector_depth1(g, a)))

    @pytest.mark.parametrize("n, d", [(14, 8), (16, 5)])
    def test_draws_match_butterfly_reference(self, n, d):
        # the half sampler's counts equal the full-space sampler's, stream for stream
        g = generate_regular_gaussian(n, d, seed=847)
        a = optimize_angles(g)
        sampler = CorrelationSampler(g, a, mode=MODE_STATEVECTOR)
        probs = np.abs(butterfly_statevector(g, a)) ** 2
        full = np.cumsum(probs / probs.sum())
        ends, _ = g.edge_index()
        for seed in range(4):
            for k in (64, 4096):
                got = sampler.draw(k, np.random.default_rng(seed)).disagree
                bits = index_bits(full_space_indices(full, k, np.random.default_rng(seed)), n)
                want = (bits[:, ends[:, 0]] ^ bits[:, ends[:, 1]]).sum(axis=0)
                assert np.array_equal(got, want)

    def test_draws_on_bench_walks_equal_batched_block_draws(self):
        # the GEMM moves amplitudes by ~1e-17, which moves no search key across a bin
        for g in bench_walks(np.random.default_rng(5)):
            a = optimize_angles(g)
            sampler = CorrelationSampler(g, a, mode=MODE_STATEVECTOR)
            ref = CorrelationSampler(g, a, mode=MODE_STATEVECTOR,
                                     cumulative_probs=cumulative(batched_statevector(g, a)))
            for seed in range(3):
                for k in (64, 803):
                    got = sampler.draw(k, np.random.default_rng(seed)).disagree
                    want = ref.draw(k, np.random.default_rng(seed)).disagree
                    assert np.array_equal(got, want)

    def test_shot_count_validated(self, rng):
        g = make_graph({(0, 1): 1.0})
        for mode in (MODE_STATEVECTOR, MODE_BINOMIAL):
            sampler = CorrelationSampler(g, Angles(0.1, 0.1), mode=mode)
            with pytest.raises(ValueError):
                sampler.draw(0, rng)


class TestEstimateCorrelations:
    def test_exact_mode_bit_for_bit(self):
        g = make_graph({(0, 1): 0.8, (1, 2): -0.4})
        a = Angles(0.9, 0.3)
        sampler = CorrelationSampler(g, a, mode=MODE_EXACT)
        assert sampler.mode == MODE_EXACT
        assert np.array_equal(sampler.exact_values(), zz_all_edges(g, a))
        with pytest.raises(ValueError, match="no shots"):
            sampler.draw(1, np.random.default_rng(0))

    def test_binomial_degenerate_plus_one(self, rng):
        # a correlation pinned at +1 estimates to +1 for any k
        g = make_graph({(0, 1): 1.0})
        sampler = CorrelationSampler(g, Angles(0.0, 0.0), mode=MODE_BINOMIAL,
                                     exact_values=np.array([1.0]))
        for k in (1, 7, 100):
            est = sampler.estimate(sampler.draw(k, rng))
            assert est.tolist() == [1.0]

    def test_large_k_converges_to_closed_form(self):
        g = generate_regular_gaussian(6, 3, seed=2)
        a = optimize_angles(g)
        exact = zz_all_edges(g, a)
        sampler = CorrelationSampler(g, a, mode=MODE_STATEVECTOR)
        rng = np.random.default_rng(3)
        pool = sampler.draw(100_000, rng)
        for _ in range(9):
            pool = CorrelationSampler.merge(pool, sampler.draw(100_000, rng))
        assert pool.shots == 1_000_000
        assert np.max(np.abs(sampler.estimate(pool) - exact)) < 0.005

    def test_values_within_unit_interval(self, rng):
        g = generate_regular_gaussian(6, 3, seed=2)
        a = optimize_angles(g)
        for mode in (MODE_STATEVECTOR, MODE_BINOMIAL):
            sampler = CorrelationSampler(g, a, mode=mode)
            pool = sampler.draw(16, rng)
            est = sampler.estimate(pool)
            assert pool.shots == 16
            assert est.shape == (g.edge_count,)
            assert np.all((-1.0 <= est) & (est <= 1.0))

    def test_auto_threshold_picks_mode(self, rng):
        g = generate_regular_gaussian(6, 3, seed=2)
        a = Angles(0.5, 0.5)
        assert CorrelationSampler(g, a, sv_threshold=5).mode == MODE_BINOMIAL
        assert CorrelationSampler(g, a, sv_threshold=6).mode == MODE_STATEVECTOR

    def test_statevector_above_qubit_limit_rejected(self):
        # forced or by a threshold above the limit, a 23-qubit sampler is refused
        n = STATEVECTOR_MAX_QUBITS + 1
        g = WeightedGraph(range(n), {(q, q + 1): 0.5 for q in range(n - 1)})
        a = Angles(0.5, 0.5)
        with pytest.raises(ValueError, match="limited to"):
            CorrelationSampler(g, a, mode=MODE_STATEVECTOR)
        with pytest.raises(ValueError, match="limited to"):
            CorrelationSampler(g, a, sv_threshold=n + 1)
        assert CorrelationSampler(g, a, sv_threshold=n - 1).mode == MODE_BINOMIAL

    def test_pooling_merges_shot_counts(self, rng):
        g = generate_regular_gaussian(6, 3, seed=2)
        a = optimize_angles(g)
        for mode in (MODE_STATEVECTOR, MODE_BINOMIAL):
            sampler = CorrelationSampler(g, a, mode=mode)
            first, second = sampler.draw(16, rng), sampler.draw(48, rng)
            merged = CorrelationSampler.merge(first, second)
            assert merged.shots == 64
            assert np.array_equal(merged.disagree, first.disagree + second.disagree)
            assert np.array_equal(sampler.estimate(merged), (64 - 2 * merged.disagree) / 64)


def bit_matrix_estimate(sampler, ks, rng):
    """Reference: the bit-matrix estimator the disagreement counts replaced.

    Draws each chunk of ks as a (k, n) bit matrix, stacks the chunks, and
    averages the +-1 spin products of every edge.
    """
    n = sampler.graph.node_count
    cum = sampler.cumulative_probs()
    chunks = []
    for k in ks:
        idx = _sample_indices(cum, k, rng)
        chunks.append(((idx[:, None] >> np.arange(n)) & 1).astype(np.uint8))
    z = 1.0 - 2.0 * np.vstack(chunks).astype(float)
    pos = {u: q for q, u in enumerate(sampler.graph.nodes)}
    return np.array([np.mean(z[:, pos[u]] * z[:, pos[v]]) for u, v in sampler.graph.edge_list()])


class TestShotPool:
    @pytest.mark.parametrize("ks", [(1,), (7,), (16, 48), (27, 273), (64, 960)])
    def test_statevector_counts_equal_bit_matrix_means(self, ks):
        # sums of +-1 are exact, so the count form must agree to the last bit
        rng = np.random.default_rng(5)
        for n, density in ((4, 0.8), (9, 0.5), (12, 0.4)):
            g = random_weighted_graph(n, density, rng)
            if g.edge_count == 0:
                continue
            sampler = CorrelationSampler(g, optimize_angles(g), mode=MODE_STATEVECTOR)
            seed = int(rng.integers(2**31))
            draw_rng = np.random.default_rng(seed)
            pool = sampler.draw(ks[0], draw_rng)
            for k in ks[1:]:
                pool = CorrelationSampler.merge(pool, sampler.draw(k, draw_rng))
            got = sampler.estimate(pool)
            want = bit_matrix_estimate(sampler, ks, np.random.default_rng(seed))
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("k, x", [(3, 1), (300, 90)])
    def test_binomial_estimate_sign_symmetric(self, k, x):
        # x and k - x agreements are the same magnitude, so a tie between
        # them breaks lexicographically rather than by rounding error
        g = make_graph({(0, 1): 0.5, (1, 2): 0.5})
        sampler = CorrelationSampler(g, Angles(0.3, 0.2), mode=MODE_BINOMIAL)
        for agree in range(k + 1):
            pool = ShotPool(shots=k, disagree=np.array([k - agree, agree]))
            values = sampler.estimate(pool)
            assert values[0] == -values[1]
        # rounded as 2*agree/k - 1, x agreements read as the larger magnitude
        assert abs(2.0 * x / k - 1.0) > abs(2.0 * (k - x) / k - 1.0)
        pool = ShotPool(shots=k, disagree=np.array([x, k - x]))  # x agreements on (1, 2)
        est = sampler.estimate(pool)
        assert select_edge(g, est, edge_order(est)) == ContractionRecord(1, 0, 1)


class TestEstimatorStatistics:
    @pytest.mark.parametrize("mode", [MODE_STATEVECTOR, MODE_BINOMIAL])
    def test_unbiased_and_variance_law(self, mode):
        # mean within 4 sigma/sqrt(reps), variance within 20% of (1-M^2)/k
        g = generate_regular_gaussian(6, 3, seed=2)
        a = optimize_angles(g)
        sampler = CorrelationSampler(g, a, mode=mode)
        exact = sampler.exact_values()
        edge = int(np.argmin(np.abs(np.abs(exact) - 0.5)))
        m = exact[edge]
        k, reps = 64, 4000
        rng = np.random.default_rng(17)
        draws = np.array([sampler.estimate(sampler.draw(k, rng))[edge] for _ in range(reps)])
        var_theory = (1 - m * m) / k
        assert abs(draws.mean() - m) < 4 * np.sqrt(var_theory / reps)
        assert abs(draws.var() - var_theory) < 0.2 * var_theory
