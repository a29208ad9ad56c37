import itertools
import json
import math
import tracemalloc
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rqshot.instance as instance_mod
from rqshot.instance import (
    COUPLING_EPS,
    UNREACHABLE,
    ContractionError,
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
    reweighted_instance,
)

from .conftest import brute_force_reference, ising_energy, make_graph, random_weighted_graph


def degrees(g):
    return Counter(u for e in g.edges() for u in e)


class TestWeightedGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            WeightedGraph([0, 1], {(0, 0): 1.0})

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            WeightedGraph([0, 1], {(0, 1): float("nan")})

    def test_rejects_unknown_node_and_duplicate_edge(self):
        with pytest.raises(ValueError, match="unknown node"):
            WeightedGraph([0, 1], {(0, 2): 1.0})
        with pytest.raises(ValueError, match="duplicate"):
            WeightedGraph([0, 1], {(0, 1): 1.0, (1, 0): 2.0})

    def test_drops_tiny_couplings(self):
        g = WeightedGraph([0, 1, 2], {(0, 1): 1.0, (1, 2): 1e-13})
        assert g.edge_count == 1
        assert (1, 2) not in g.edges()

    def test_symmetric_storage(self):
        g = WeightedGraph([0, 1], {(1, 0): 0.5})
        assert g.edges() == {(0, 1): 0.5}

    def test_coupling_matrix(self):
        g = WeightedGraph([12, 3, 9, 7], {(9, 3): -0.4, (12, 7): 1.5, (3, 7): 0.25})
        w = g.coupling_matrix()
        assert w.tolist() == [
            [0.0, 0.25, -0.4, 0.0], [0.25, 0.0, 0.0, 1.5], [-0.4, 0.0, 0.0, 0.0], [0.0, 1.5, 0.0, 0.0]
        ]
        w[0, 1] = 9.0  # a fresh copy each call
        assert g.coupling_matrix()[0, 1] == 0.25

    def test_signature_is_the_stored_graph(self):
        g = WeightedGraph([3, 7, 9], {(3, 7): 0.25, (7, 9): -1.0})
        assert g.signature() == WeightedGraph([9, 7, 3], {(9, 7): -1.0, (7, 3): 0.25}).signature()
        assert g.signature() != WeightedGraph([3, 7, 9], {(3, 7): 0.25, (7, 9): 1.0}).signature()
        assert g.signature() != WeightedGraph([3, 7, 9], {(3, 9): 0.25, (7, 9): -1.0}).signature()
        assert g.signature() != WeightedGraph([3, 7, 8], {(3, 7): 0.25, (7, 8): -1.0}).signature()

    def test_edge_index_positions_and_couplings(self):
        # node ids 3, 7, 9, 12 are qubits 0..3; rows follow edge_list()
        g = WeightedGraph([12, 3, 9, 7], {(9, 3): -0.4, (12, 7): 1.5, (3, 7): 0.25, (9, 12): 2.0})
        ends, j = g.edge_index()
        assert g.edge_list() == [(3, 7), (3, 9), (7, 12), (9, 12)]
        assert ends.tolist() == [[0, 1], [0, 2], [1, 3], [2, 3]]
        assert j.tolist() == [0.25, -0.4, 1.5, 2.0]
        assert g.edge_index() is g.edge_index()
        assert g.neighbour_masks() == [0b0110, 0b1001, 0b1001, 0b0110]
        assert g.neighbour_masks() is g.neighbour_masks()
        with pytest.raises(ValueError, match="read-only"):
            ends[0, 0] = 5
        with pytest.raises(ValueError, match="read-only"):
            j[0] = 0.0

    def test_edge_index_of_edgeless_graph(self):
        ends, j = WeightedGraph(range(3), {}).edge_index()
        assert ends.shape == (0, 2) and j.shape == (0,)


class TestGenerate:
    def test_k4_topology_forced(self):
        # only one 3-regular graph on 4 nodes
        for seed in (0, 1, 17):
            g = generate_regular_gaussian(4, 3, seed)
            assert sorted(g.edge_list()) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    def test_eight_regular_on_fourteen_nodes(self):
        g = generate_regular_gaussian(14, 8, seed=42)
        assert g.node_count == 14
        assert g.edge_count == 14 * 8 // 2

    def test_odd_product_rejected(self):
        with pytest.raises(ValueError, match="even"):
            generate_regular_gaussian(5, 3, seed=0)

    def test_degree_bounds_rejected(self):
        with pytest.raises(ValueError):
            generate_regular_gaussian(5, 5, seed=0)
        with pytest.raises(ValueError):
            generate_regular_gaussian(5, 0, seed=0)

    @pytest.mark.parametrize("n,d,seed", [(10, 3, 0), (14, 8, 3), (20, 17, 9), (9, 4, 5)])
    def test_every_node_has_degree_d(self, n, d, seed):
        g = generate_regular_gaussian(n, d, seed)
        assert all(degrees(g)[u] == d for u in g.nodes)

    def test_deterministic_for_seed(self):
        a = generate_regular_gaussian(12, 5, seed=7)
        b = generate_regular_gaussian(12, 5, seed=7)
        assert a.edges() == b.edges()

    def test_weight_statistics_standard_normal(self):
        # pool edges from many instances; mean/var in 3-sigma bands
        weights = []
        for seed in range(30):
            weights.extend(generate_regular_gaussian(16, 9, seed).edges().values())
        w = np.array(weights)
        m = len(w)
        assert abs(w.mean()) < 3 / np.sqrt(m)
        assert abs(w.var() - 1.0) < 3 * np.sqrt(2 / m)


def relabelled(g, rng):
    """The same graph on random, non-contiguous node ids (sorted order shuffled too)."""
    new_id = dict(zip(g.nodes, rng.choice(1000, g.node_count, replace=False).tolist()))
    return WeightedGraph(new_id.values(), {(new_id[u], new_id[v]): j for (u, v), j in g.edges().items()})


def dict_contract(nodes, edges, rec):
    """Reference: the dict-based contraction that the coupling-matrix form replaced."""
    u_star, v_star, sign = rec.eliminated, rec.kept, rec.sign
    edges = dict(edges)
    del edges[tuple(sorted((u_star, v_star)))]
    for (a, b), j in list(edges.items()):
        if u_star not in (a, b):
            continue
        del edges[(a, b)]
        key = tuple(sorted((v_star, b if a == u_star else a)))
        merged = edges.get(key, 0.0) + sign * j
        if abs(merged) < COUPLING_EPS:
            edges.pop(key, None)
        else:
            edges[key] = merged
    return tuple(x for x in nodes if x != u_star), dict(sorted(edges.items()))


class TestContract:
    def test_matches_dict_reference_bit_for_bit(self, rng):
        # random contraction sequences on relabelled graphs; integer weights cancel exactly
        steps = cancelled = 0
        for t in range(60):
            n = int(rng.integers(3, 14))
            p = float(rng.uniform(0.3, 0.9))
            g = relabelled((integer_weighted_graph if t % 2 else random_weighted_graph)(n, p, rng), rng)
            red = g
            nodes, edges = g.nodes, g.edges()
            while red.edge_count:
                u, v = red.edge_list()[int(rng.integers(red.edge_count))]
                if rng.random() < 0.5:
                    u, v = v, u
                rec = ContractionRecord(u, v, int(rng.choice([-1, 1])))
                nbrs = {x: {a if b == x else b for a, b in edges if x in (a, b)} for x in (u, v)}
                before = len(edges)
                red = contract(red, rec)
                nodes, edges = dict_contract(nodes, edges, rec)
                assert red.nodes == nodes
                assert red.edge_list() == list(edges)
                assert red.edges() == edges
                steps += 1
                cancelled += before - 1 - len(nbrs[u] & nbrs[v]) - len(edges)
        assert steps > 300 and cancelled > 0

    def test_triangle_merge(self):
        g = make_graph({(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0})
        red = contract(g, ContractionRecord(0, 1, +1))
        assert red.nodes == (1, 2)
        assert red.edges() == {(1, 2): pytest.approx(2.0)}

    def test_exact_cancellation_removes_edge(self):
        g = make_graph({(0, 1): 1.0, (1, 2): 1.0, (0, 2): -1.0})
        red = contract(g, ContractionRecord(0, 1, +1))
        assert red.edge_count == 0

    def test_path_negative_sign(self):
        g = make_graph({(0, 1): 0.5, (1, 2): 0.3})
        red = contract(g, ContractionRecord(0, 1, -1))
        assert red.edges() == {(1, 2): pytest.approx(0.3)}

    def test_missing_edge_rejected(self):
        g = make_graph({(0, 1): 1.0, (2, 3): 1.0})
        with pytest.raises(ContractionError):
            contract(g, ContractionRecord(0, 2, +1))

    def test_inactive_endpoint_rejected(self):
        g = make_graph({(0, 1): 1.0, (1, 2): 1.0})
        red = contract(g, ContractionRecord(0, 1, +1))
        with pytest.raises(ContractionError):
            contract(red, ContractionRecord(0, 1, +1))

    def test_node_count_drops_by_one_no_self_loops(self, rng):
        g = random_weighted_graph(8, 0.6, rng)
        red = g
        while red.edge_count > 0 and red.node_count > 2:
            (u, v), _ = next(iter(red.edges().items()))
            before = red.node_count
            red = contract(red, ContractionRecord(max(u, v), min(u, v), -1))
            assert red.node_count == before - 1
            assert all(u != v for u, v in red.edge_list())

    def test_energy_identity_random_sequences(self, rng):
        # acceptance criterion 3 at unit-test scale
        for _ in range(20):
            n = int(rng.integers(4, 12))
            g = random_weighted_graph(n, 0.5, rng)
            # the constant of each contracted coupling, sign * J, is summed here
            red, stack, offset = g, [], 0.0
            for _ in range(int(rng.integers(1, n - 1))):
                if red.edge_count == 0:
                    break
                edges = red.edges()
                u, v = list(edges)[int(rng.integers(len(edges)))]
                rec = ContractionRecord(max(u, v), min(u, v), int(rng.choice([-1, 1])))
                offset += rec.sign * edges[u, v]
                stack.append(rec)
                red = contract(red, rec)
            residual = {u: int(rng.choice([-1, 1])) for u in red.nodes}
            full = reconstruct_assignment(stack, residual)
            direct = ising_energy(g, full)
            reduced = offset + ising_energy(red, residual)
            assert abs(direct - reduced) < 1e-10


def allocating_brute_force(g):
    """Reference: the edge-by-edge brute-force solver, fresh temporaries per edge and chunk.

    Every mask's cut is summed left to right in edge order from 0.0; the
    production solver must return the same pinning, bit layout, cut bits and
    smallest-mask tie-break from its doubled table and edge-order rescoring.
    """
    n = g.node_count
    nodes = g.nodes
    pos = {u: i for i, u in enumerate(nodes)}
    edge_shifts, weights = [], []
    for (u, v), j in g.edges().items():
        edge_shifts.append((pos[u] - 1, pos[v] - 1))
        weights.append(j)
    total = 1 << (n - 1)
    chunk = 1 << 18
    best_cut, best_mask = -math.inf, 0
    for start in range(0, total, chunk):
        masks = np.arange(start, min(start + chunk, total), dtype=np.int64)
        acc = np.zeros(masks.shape[0])
        for (su, sv), w in zip(edge_shifts, weights):
            bu = (masks >> su) & 1 if su >= 0 else 0
            bv = (masks >> sv) & 1 if sv >= 0 else 0
            acc += w * (bu ^ bv)
        i = int(np.argmax(acc))
        if acc[i] > best_cut:
            best_cut, best_mask = float(acc[i]), int(masks[i])
    assignment = {nodes[0]: 1}
    for i in range(1, n):
        assignment[nodes[i]] = -1 if (best_mask >> (i - 1)) & 1 else 1
    return best_cut, assignment


def integer_weighted_graph(n, p, rng):
    """Couplings drawn from {-2, -1, 1, 2}, so optimal cuts tie often."""
    edges = {
        (u, v): float(rng.choice([-2, -1, 1, 2]))
        for u, v in itertools.combinations(range(n), 2)
        if rng.random() < p
    }
    return WeightedGraph(range(n), edges)


def components_graph(sizes, rng, isolated=0):
    """Gaussian components on consecutive node blocks after `isolated` bare nodes.

    Flipping every spin of one component leaves the cut unchanged, so each
    optimum ties exactly with 2^(components - 1) others.
    """
    edges, start = {}, isolated
    for size in sizes:
        block = range(start, start + size)
        for u, v in itertools.combinations(block, 2):
            if rng.random() < 0.5:
                edges[(u, v)] = float(rng.standard_normal())
        for u in block[1:]:  # keep the block connected
            edges.setdefault((u - 1, u), float(rng.standard_normal()))
        start += size
    return WeightedGraph(range(start), edges)


def all_mask_brute_force(g):
    """Reference: every mask's cut scored by _edge_order_cuts at once, the first maximum kept."""
    n, nodes = g.node_count, g.nodes
    ends, weights = g.edge_index()
    cuts = instance_mod._edge_order_cuts(np.arange(1 << (n - 1), dtype=np.int64), n, ends, weights)
    best_mask = int(np.argmax(cuts))
    assignment = {nodes[0]: 1}
    for i in range(1, n):
        assignment[nodes[i]] = -1 if (best_mask >> (i - 1)) & 1 else 1
    return float(cuts[best_mask]), assignment


def contracted_residuals(inst, walks, rng):
    """The graphs of random elimination walks down an instance, at 8 nodes and below."""
    out = []
    for _ in range(walks):
        g = inst.graph
        while g.edge_count:
            if g.node_count <= 8:
                out.append(g)
            kept, eliminated = g.edge_list()[int(rng.integers(g.edge_count))]
            g = contract(g, ContractionRecord(eliminated, kept, int(rng.choice([-1, 1]))))
    return out


def edge_loop_doubling_terms(n, ends, weights, low):
    """Reference: the Python loop over the edges that once filled _doubled_search's h and k."""
    h = np.zeros(1 << low)
    k = [0.0] * (low + 1)
    fixed = []
    for (p, i), j in zip(ends.tolist(), weights.tolist()):
        if i > low:
            fixed.append((p, i, j))
            if 0 < p <= low:
                k[p] += j
            continue
        k[i] += j
        if p > 0:
            half = 1 << (i - 1)
            h[half:2 * half].reshape(-1, 2, 1 << (p - 1))[:, 1, :] += j
    return h, k, fixed


class TestBruteForce:
    def test_residual_sizes_equal_all_mask_scoring_bit_for_bit(self, rng):
        graphs = []
        for n in range(2, 9):
            for p in (0.3, 0.6, 1.0):
                for _ in range(4):
                    graphs.append(random_weighted_graph(n, p, rng))
                    # couplings of -1, 1 and 2: equal cuts tie exactly
                    graphs.append(WeightedGraph(range(n), {
                        e: float(rng.choice([-1.0, 1.0, 2.0]))
                        for e in itertools.combinations(range(n), 2) if rng.random() < p
                    }))
        for n, d in ((14, 8), (16, 3), (16, 5), (22, 3)):
            graphs += contracted_residuals(generate_instance(n, d, 847, compute_opt=False), 6, rng)
        checked = 0
        for g in graphs:
            if g.edge_count:
                cut, z = brute_force_optimum(g)
                ref_cut, ref_z = all_mask_brute_force(g)
                assert (cut.hex(), z) == (ref_cut.hex(), ref_z)
                checked += 1
        assert checked > 300

    def test_matches_allocating_reference(self, rng, monkeypatch):
        graphs = [integer_weighted_graph(20, 0.15, rng)]  # two chunks of masks
        for n in range(2, 15):
            graphs.append(integer_weighted_graph(n, 0.5, rng))
            graphs.append(random_weighted_graph(n, 0.5, rng))
        for sizes in ((6, 6), (5, 7), (4, 4, 5), (7, 3, 3), (3, 5, 6)):
            graphs.append(components_graph(sizes, rng))
        graphs.append(components_graph((12,), rng, isolated=1))  # node 0 touches no edge
        graphs.append(components_graph((5, 6), rng, isolated=1))
        graphs.append(generate_instance(22, 3, 847, compute_opt=False).graph)  # 8 chunks
        for g in graphs:
            if g.edge_count:
                assert brute_force_optimum(g) == allocating_brute_force(g)

        # chunks of 2^3 masks, so equal optima fall in different chunks
        monkeypatch.setattr(instance_mod, "_TABLE_BITS", 3)
        for n in range(9, 14):
            for p in (0.25, 0.6):
                g = integer_weighted_graph(n, p, rng)
                assert brute_force_optimum(g) == allocating_brute_force(g)
            g = components_graph((n // 2, n - n // 2), rng)
            assert brute_force_optimum(g) == allocating_brute_force(g)

    def test_doubling_terms_equal_the_edge_loop_bit_for_bit(self, rng):
        graphs = []
        for n in range(2, 13):
            for p in (0.3, 0.6, 1.0):
                # couplings of +-1 and 0.5, so that sums cancel exactly, and Gaussian ones, whose
                # sums round differently in another order
                graphs.append(WeightedGraph(range(n), {
                    e: float(rng.choice([-1.0, 1.0, 0.5]))
                    for e in itertools.combinations(range(n), 2) if rng.random() < p
                }))
                graphs.append(random_weighted_graph(n, p, rng))
        for n, d, seed in ((12, 8, 49166), (13, 10, 34185), (16, 8, 45368), (14, 8, 847)):  # hard pool
            graphs += contracted_residuals(generate_instance(n, d, seed, compute_opt=False), 3, rng)
        graphs.append(generate_instance(22, 3, 847, compute_opt=False).graph)  # 2^18-entry h
        checked = 0
        for g in graphs:
            n, (ends, weights) = g.node_count, g.edge_index()
            if not g.edge_count:
                continue
            # the table's own width, and narrower ones that leave chunk qubits above it
            for low in sorted({min(n - 1, instance_mod._TABLE_BITS), min(n - 1, 3), 1}):
                h, k, fixed = instance_mod._doubling_terms(n, ends, weights, low)
                ref_h, ref_k, ref_fixed = edge_loop_doubling_terms(n, ends, weights, low)
                assert h.tobytes() == ref_h.tobytes()
                assert np.array(k).tobytes() == np.array(ref_k).tobytes()
                assert fixed == ref_fixed
                checked += 1
        assert checked > 150

    @pytest.mark.parametrize("n, d, e_opt_hex", [
        (14, 8, "0x1.b6192fa8d43a1p+1"),
        (16, 3, "0x1.c18f6427fa5d5p+3"),
        (16, 5, "0x1.39b49821d369ap+3"),
        (22, 3, "0x1.331b984a4a3d2p+3"),
    ])
    def test_bench_instance_optima_pinned(self, n, d, e_opt_hex):
        assert generate_instance(n, d, 847).e_opt.hex() == e_opt_hex

    def test_memory_stays_bounded(self):
        # the table covers 18 free qubits, never all 2^(n-1) masks at once
        g = generate_regular_gaussian(22, 3, 847)
        tracemalloc.start()
        try:
            brute_force_optimum(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000

    def test_single_edge(self):
        e_opt, z = brute_force_optimum(make_graph({(0, 1): 1.0}))
        assert e_opt == pytest.approx(1.0)
        assert z[0] * z[1] == -1

    def test_uniform_triangle(self):
        e_opt, _ = brute_force_optimum(make_graph({(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0}))
        assert e_opt == pytest.approx(2.0)

    def test_matches_independent_reference(self, rng):
        for _ in range(8):
            g = random_weighted_graph(10, 0.4, rng)
            e_opt, z = brute_force_optimum(g)
            assert e_opt == pytest.approx(brute_force_reference(g), abs=1e-12)
            assert cut_value(g, z) == pytest.approx(e_opt, abs=1e-12)

    def test_global_flip_invariance(self, rng):
        g = random_weighted_graph(9, 0.5, rng)
        e_opt, z = brute_force_optimum(g)
        flipped = {u: -s for u, s in z.items()}
        assert cut_value(g, flipped) == pytest.approx(e_opt)

    def test_relabel_invariance(self, rng):
        g = random_weighted_graph(8, 0.5, rng)
        perm = {u: 7 - u for u in range(8)}
        relabeled = WeightedGraph(
            range(8), {tuple(sorted((perm[u], perm[v]))): j for (u, v), j in g.edges().items()}
        )
        assert brute_force_optimum(g)[0] == pytest.approx(brute_force_optimum(relabeled)[0])

    def test_size_bound(self):
        g = WeightedGraph(range(27), {(0, 1): 1.0})
        with pytest.raises(ValueError, match="26"):
            brute_force_optimum(g)

    def test_edgeless_fast_path(self):
        e_opt, z = brute_force_optimum(WeightedGraph(range(5), {}))
        assert e_opt == 0.0
        assert all(v == 1 for v in z.values())


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(["gaussian", "units"]),
)
def test_cut_value_is_the_python_sum_bit_for_bit(n, p, seed, couplings):
    rng = np.random.default_rng(seed)
    draw = (lambda: float(rng.standard_normal())) if couplings == "gaussian" else (
        lambda: float(rng.choice([-1.0, 1.0, 0.5])))
    g = WeightedGraph(range(n), {e: draw() for e in itertools.combinations(range(n), 2)
                                 if rng.random() < p})
    z = {u: int(rng.choice([-1, 1])) for u in g.nodes}
    uncut = {u: 1 for u in g.nodes}  # cuts nothing: every term is +-0.0
    for spins in (z, uncut, {u: -s for u, s in z.items()}):
        ref = sum(j * (1 - spins[u] * spins[v]) / 2 for (u, v), j in g.edges().items())
        got = cut_value(g, spins)
        assert type(got) is float
        assert got == ref and math.copysign(1.0, got) == math.copysign(1.0, ref)
        assert got.hex() == float(ref).hex()


class TestReconstruct:
    def test_empty_stack_identity(self):
        assert reconstruct_assignment([], {0: 1, 1: -1}) == {0: 1, 1: -1}

    def test_single_record(self):
        assert reconstruct_assignment([ContractionRecord(0, 1, +1)], {1: 1}) == {0: 1, 1: 1}

    def test_chained_substitution(self):
        stack = [ContractionRecord(0, 1, -1), ContractionRecord(1, 2, +1)]
        assert reconstruct_assignment(stack, {2: -1}) == {2: -1, 1: -1, 0: 1}

    def test_missing_variable_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            reconstruct_assignment([ContractionRecord(0, 1, +1)], {2: 1})


def pair_bfs(g, u, v):
    """Reference: BFS hop count between two nodes, the per-pair search hop_distance replaced."""
    adj = {x: set() for x in g.nodes}
    for a, b in g.edges():
        adj[a].add(b)
        adj[b].add(a)
    if u == v:
        return 0
    seen = {u}
    frontier = deque([(u, 0)])
    while frontier:
        x, d = frontier.popleft()
        for w in adj[x]:
            if w == v:
                return d + 1
            if w not in seen:
                seen.add(w)
                frontier.append((w, d + 1))
    return UNREACHABLE


class TestGraphDistance:
    def test_self_distance_zero(self):
        g = make_graph({(0, 1): 1.0})
        assert hop_distance(g, [0], [0]) == 0

    def test_path_distance(self):
        g = make_graph({(0, 1): 1.0, (1, 2): 1.0})
        assert hop_distance(g, [0], [2]) == 2

    def test_disconnected_marker(self):
        g = make_graph({(0, 1): 1.0, (2, 3): 1.0})
        assert hop_distance(g, [0], [3]) == UNREACHABLE

    def test_matches_minimum_of_pairwise_bfs(self, rng):
        # every pair of edges, shared endpoints and disconnected edges included
        seen = Counter()
        for _ in range(40):
            n = int(rng.integers(2, 13))
            g = relabelled(random_weighted_graph(n, float(rng.uniform(0.1, 0.5)), rng), rng)
            ends = g.edge_index()[0]
            for i, k in itertools.product(range(g.edge_count), repeat=2):
                e1, e2 = g.edge_list()[i], g.edge_list()[k]
                want = min(pair_bfs(g, u, v) for u in e1 for v in e2)
                assert hop_distance(g, ends[i].tolist(), ends[k].tolist()) == want
                seen["unreachable" if want == UNREACHABLE else min(want, 3)] += 1
        assert all(seen[d] for d in (0, 1, 2, 3, "unreachable"))


class TestInstanceIO:
    def test_round_trip(self, tmp_path):
        inst = generate_instance(10, 4, seed=5)
        path = tmp_path / "x.json"
        inst.save(path)
        loaded = Instance.load(path)
        assert loaded.graph.edges() == inst.graph.edges()
        assert loaded.e_opt == inst.e_opt
        assert loaded.instance_id == inst.instance_id

    def test_file_schema(self, tmp_path):
        inst = generate_instance(6, 3, seed=2)
        inst.save(tmp_path / "x.json")
        data = json.loads((tmp_path / "x.json").read_text())
        assert set(data) == {"n", "d", "seed", "weight_dist", "edges", "e_opt", "category"}
        assert data["edges"] == sorted(data["edges"])
        assert data["e_opt"] > 0

    @pytest.mark.parametrize("edit", [
        lambda d: d.update(bogus=1),
        lambda d: d.pop("d"),
    ], ids=["unknown-key", "missing-key"])
    def test_malformed_file_rejected(self, edit):
        data = generate_instance(6, 3, seed=2).to_dict()
        edit(data)
        with pytest.raises(ValueError, match="malformed instance"):
            Instance.from_dict(data)

    def test_reweighted_same_topology_new_weights(self):
        base = generate_instance(10, 4, seed=5)
        var = reweighted_instance(base, seed=1)
        assert var.graph.edge_list() == base.graph.edge_list()
        assert var.graph.edges() != base.graph.edges()
        assert var.e_opt > 0
        assert var.category == "reweighted"
        assert var.instance_id != base.instance_id


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=2, max_value=20),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_generate_degree_property(n, d, seed):
    if d >= n or (n * d) % 2 == 1:
        with pytest.raises(ValueError):
            generate_regular_gaussian(n, d, seed)
    else:
        g = generate_regular_gaussian(n, d, seed)
        assert all(degrees(g)[u] == d for u in g.nodes)
        assert g.edge_count == n * d // 2
