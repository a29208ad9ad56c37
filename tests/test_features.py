import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqshot.allocation import heuristic_index
from rqshot.features import (
    DIST_SENTINEL,
    ZGAP_LITERAL,
    ZGAP_RELATIVE,
    ZGAP_SENTINEL,
    BinBoundaries,
    DiscreteState,
    StepState,
    conflict_ratio,
    discretize,
    edge_distance,
    edge_order,
    extract_state,
    probe_shot_count,
    zgap,
)

from .conftest import edge_estimate, make_graph, random_weighted_graph


def ranked_edges(g, est) -> list[tuple[int, int]]:
    """Reference: the dict sort edge_order replaced, |correlation| descending, then the edge."""
    values = dict(zip(g.edge_list(), est.tolist()))
    return sorted(values, key=lambda e: (-abs(values[e]), e))


def zgap_of(values: dict, **kwargs) -> float:
    _, est = edge_estimate(values)
    return zgap(est, edge_order(est), **kwargs)


def conflict_ratio_of(values: dict) -> float:
    g, est = edge_estimate(values)
    return conflict_ratio(g, edge_order(est))


def edge_distance_of(g, values: dict) -> int:
    est = np.array([values[e] for e in g.edge_list()])
    return edge_distance(g, edge_order(est))


class TestEdgeOrder:
    def assert_matches_reference(self, g, est):
        assert [g.edge_list()[i] for i in edge_order(est)] == ranked_edges(g, est)

    def test_exact_ties_and_signed_zeros(self, rng):
        # few distinct magnitudes, both signs, and 0.0 beside -0.0
        for _ in range(200):
            g = random_weighted_graph(int(rng.integers(2, 10)), 0.6, rng)
            levels = np.array([0.0, -0.0, 0.25, -0.25, 0.5, -0.5, 1.0])
            self.assert_matches_reference(g, levels[rng.integers(len(levels), size=g.edge_count)])

    def test_signed_zeros_keep_edge_order(self):
        g, est = edge_estimate({(0, 1): 0.0, (0, 2): -0.0, (1, 2): 0.0, (2, 3): -0.0})
        assert edge_order(est).tolist() == [0, 1, 2, 3]

    @pytest.mark.parametrize("k", [1, 3, 16, 300])
    def test_binomial_x_and_k_minus_x_ties(self, k, rng):
        # (k - 2c) / k for c and k - c are exact negatives, so they tie in magnitude
        for _ in range(100):
            g = random_weighted_graph(int(rng.integers(2, 10)), 0.6, rng)
            disagree = rng.integers(0, k + 1, size=g.edge_count)
            flip = rng.random(g.edge_count) < 0.5
            disagree[flip] = k - disagree[flip]
            self.assert_matches_reference(g, (k - 2 * disagree) / k)


class TestProbeShots:
    @pytest.mark.parametrize("n,expected", [(14, 16), (16, 16), (17, 32), (20, 32), (1, 16)])
    def test_boundaries(self, n, expected):
        assert probe_shot_count(n) == expected

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            probe_shot_count(0)


class TestZGap:
    def test_simple_ratio(self):
        assert zgap_of({(0, 1): 0.8, (1, 2): 0.4, (2, 3): 0.1}) == pytest.approx(2.0)

    def test_exact_tie(self):
        assert zgap_of({(0, 1): 0.5, (1, 2): -0.5}) == pytest.approx(1.0)

    def test_epsilon_floor(self):
        assert zgap_of({(0, 1): 0.3, (1, 2): 0.0}) == pytest.approx(3e11)

    def test_single_edge_sentinel(self):
        assert zgap_of({(0, 1): 0.3}) == ZGAP_SENTINEL

    def test_all_zero_is_tie(self):
        assert zgap_of({(0, 1): 0.0, (1, 2): 0.0}) == 1.0

    def test_relative_variant_in_unit_interval(self):
        assert zgap_of({(0, 1): 0.8, (1, 2): 0.4}, variant=ZGAP_RELATIVE) == pytest.approx(0.5)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            zgap_of({(0, 1): 0.1, (1, 2): 0.1}, variant="nope")


class TestConflictRatio:
    def test_disjoint_top_three(self):
        est = {(0, 1): 0.9, (2, 3): 0.8, (4, 5): 0.7, (0, 5): 0.1}
        assert conflict_ratio_of(est) == pytest.approx(0.0)

    def test_shared_vertex(self):
        # three strongest edges share vertex 0: four unique endpoints
        est = {(0, 1): 0.9, (0, 2): 0.8, (0, 3): 0.7, (4, 5): 0.1}
        assert conflict_ratio_of(est) == pytest.approx(1 / 3)

    def test_single_edge_degenerate(self):
        assert conflict_ratio_of({(0, 1): 0.5}) == pytest.approx(0.0)

    def test_ties_broken_lexicographically(self):
        # all equal: top-3 must be (0,1), (0,2), (0,3), not an arbitrary subset
        est = {(0, 1): 0.5, (0, 2): 0.5, (0, 3): 0.5, (4, 5): 0.5}
        assert conflict_ratio_of(est) == pytest.approx(1 / 3)

    def test_requires_an_edge(self):
        with pytest.raises(ValueError):
            conflict_ratio_of({})


class TestEdgeDistance:
    def test_shared_endpoint_zero(self):
        g = make_graph({(0, 1): 1.0, (1, 2): 1.0})
        assert edge_distance_of(g, {(0, 1): 0.9, (1, 2): 0.8}) == 0

    def test_path_distance_one(self):
        g = make_graph({(0, 1): 1.0, (1, 2): 0.1, (2, 3): 1.0})
        assert edge_distance_of(g, {(0, 1): 0.9, (2, 3): 0.8, (1, 2): 0.1}) == 1

    def test_disconnected_sentinel(self):
        g = make_graph({(0, 1): 1.0, (2, 3): 1.0})
        assert edge_distance_of(g, {(0, 1): 0.9, (2, 3): 0.8}) == DIST_SENTINEL

    def test_single_edge_sentinel(self):
        g = make_graph({(0, 1): 1.0})
        assert edge_distance_of(g, {(0, 1): 0.9}) == DIST_SENTINEL


class TestDiscretize:
    def test_zeta_top_bin(self):
        s = StepState(m=10, zeta=4.5, kappa=0.0, dist=0)
        assert discretize(s, n=14, n_c=8).zeta_bin == 6

    def test_kappa_bottom_bin(self):
        s = StepState(m=10, zeta=1.0, kappa=0.05, dist=0)
        assert discretize(s, n=14, n_c=8).kappa_bin == 0

    def test_dist_zero_bin(self):
        s = StepState(m=10, zeta=1.0, kappa=0.0, dist=0)
        assert discretize(s, n=14, n_c=8).dist_bin == 0

    def test_sentinels_map_to_top_bins(self):
        s = StepState(m=10, zeta=ZGAP_SENTINEL, kappa=0.0, dist=DIST_SENTINEL)
        d = discretize(s, n=14, n_c=8)
        assert d.zeta_bin == 6
        assert d.dist_bin == 4

    def test_m_bin_range(self):
        bins = BinBoundaries()
        for m in range(9, 15):
            d = discretize(StepState(m=m, zeta=1.0, kappa=0.0, dist=0), n=14, n_c=8, bins=bins)
            assert d.m_bin == m - 9
        with pytest.raises(ValueError):
            discretize(StepState(m=8, zeta=1.0, kappa=0.0, dist=0), n=14, n_c=8)
        with pytest.raises(ValueError):
            discretize(StepState(m=15, zeta=1.0, kappa=0.0, dist=0), n=14, n_c=8)

    def test_bin_cardinalities(self):
        # 7 zeta, 5 kappa and 5 distance bins: values past the last edge land in the top bins
        bins = BinBoundaries()
        top = discretize(StepState(m=9, zeta=1e9, kappa=1.0, dist=DIST_SENTINEL), n=14, n_c=8, bins=bins)
        assert (top.zeta_bin, top.kappa_bin, top.dist_bin) == (6, 4, 4)
        low = discretize(StepState(m=9, zeta=0.0, kappa=0.0, dist=0), n=14, n_c=8, bins=bins)
        assert (low.zeta_bin, low.kappa_bin, low.dist_bin) == (0, 0, 0)

    def test_key_format(self):
        d = DiscreteState(2, 6, 0, 4)
        assert d.key() == "2:6:0:4"
        assert d.as_tuple() == (2, 6, 0, 4)

    def test_boundaries_round_trip(self):
        bins = BinBoundaries()
        assert BinBoundaries(**json.loads(json.dumps(asdict(bins)))) == bins


class TestExtractState:
    def test_assembles_all_features(self):
        g = make_graph({(0, 1): 1.0, (1, 2): 0.5, (2, 3): 0.2})
        s = extract_state(g, np.array([0.8, 0.4, 0.1]))
        assert s.m == 4
        assert s.zeta == pytest.approx(2.0)
        assert s.kappa == pytest.approx(1 - 4 / 6)
        assert s.dist == 0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-1, max_value=1, allow_nan=False), min_size=2, max_size=12))
def test_zgap_literal_at_least_one(mags):
    assert zgap_of({(i, i + 1): v for i, v in enumerate(mags)}) >= 1.0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-1, max_value=1, allow_nan=False), min_size=1, max_size=12))
def test_conflict_ratio_bounds(mags):
    assert 0.0 <= conflict_ratio_of({(i, i + 1): v for i, v in enumerate(mags)}) <= 2 / 3


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0, max_value=50, allow_nan=False),
    st.floats(min_value=0, max_value=50, allow_nan=False),
    st.floats(min_value=0, max_value=1),
    st.floats(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=20),
)
def test_discretize_monotone(z1, z2, k1, k2, d1, d2):
    bins = BinBoundaries()
    lo = StepState(m=10, zeta=min(z1, z2), kappa=min(k1, k2), dist=min(d1, d2))
    hi = StepState(m=10, zeta=max(z1, z2), kappa=max(k1, k2), dist=max(d1, d2))
    dlo = discretize(lo, n=14, n_c=8, bins=bins)
    dhi = discretize(hi, n=14, n_c=8, bins=bins)
    assert dlo.zeta_bin <= dhi.zeta_bin
    assert dlo.kappa_bin <= dhi.kappa_bin
    assert dlo.dist_bin <= dhi.dist_bin


# the zeta edges each variant is run with: the default [bins] for literal, CI's toy.ini for
# relative_gap; and the zeta bins and heuristic rungs an estimate can reach under each.  literal
# zeta is at least 1, so bin 0 and rung 4 (zeta < 0.9) never occur; relative_gap lies in [0, 1)
# but for the one-edge sentinel, which always takes rung 0 (kappa 0, dist DIST_SENTINEL), so
# rung 1 (1 < 2 <= zeta) never occurs and rung 0 needs a one-edge graph
ZETA_SCALES = {
    ZGAP_LITERAL: (BinBoundaries().zeta_edges, {1, 2, 3, 4, 5, 6}, {0, 1, 2}),
    ZGAP_RELATIVE: ((0.1, 0.2, 0.4, 0.6), {0, 1, 2, 3, 4}, {0, 2, 4}),
}


def zeta_bin_and_rung(g, est, variant, k_top=3):
    s = extract_state(g, np.asarray(est, dtype=float), k_top=k_top, zgap_variant=variant)
    bins = BinBoundaries(zeta_edges=ZETA_SCALES[variant][0])
    return discretize(s, n=s.m, n_c=s.m - 1, bins=bins).zeta_bin, heuristic_index(s)


@st.composite
def graph_estimates(draw):
    """A unit-coupling graph on 2 to 8 nodes, an estimate in [-1, 1] per edge, and a k_top."""
    n = draw(st.integers(min_value=2, max_value=8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=12, unique=True))
    est = draw(st.lists(st.floats(min_value=-1, max_value=1, allow_nan=False),
                        min_size=len(edges), max_size=len(edges)))
    return make_graph({e: 1.0 for e in edges}), est, draw(st.integers(min_value=1, max_value=5))


@pytest.mark.parametrize("variant", [ZGAP_LITERAL, ZGAP_RELATIVE])
@settings(max_examples=300, deadline=None)
@given(case=graph_estimates())
def test_zeta_bins_and_rungs_stay_reachable(variant, case):
    g, est, k_top = case
    zeta_bin, rung = zeta_bin_and_rung(g, est, variant, k_top)
    _, zeta_bins, rungs = ZETA_SCALES[variant]
    assert zeta_bin in zeta_bins and rung in rungs
    if variant == ZGAP_RELATIVE and rung == 0:
        assert g.edge_count == 1


# a path 0-1-...-7: its edges (0, 1), (3, 4) and (6, 7) are disjoint, the outer two 5 hops apart
PATH = [(i, i + 1) for i in range(7)]


def on_path(values):
    return {e: values.get(e, 0.0) for e in PATH}


# one estimate for each zeta bin and heuristic rung that ZETA_SCALES admits
ZETA_EXAMPLES = [
    (ZGAP_LITERAL, {(0, 1): 0.5, (1, 2): 0.5}, 1, 2),
    (ZGAP_LITERAL, {(0, 1): 0.7, (1, 2): 0.5}, 2, 2),
    (ZGAP_LITERAL, {(0, 1): 0.9, (1, 2): 0.5}, 3, 2),
    (ZGAP_LITERAL, {(0, 1): 0.5, (1, 2): 0.2}, 4, 2),
    (ZGAP_LITERAL, {(0, 1): 0.9, (1, 2): 0.25}, 5, 2),
    (ZGAP_LITERAL, {(0, 1): 0.9, (1, 2): 0.1}, 6, 2),
    (ZGAP_LITERAL, {(0, 1): -0.4}, 6, 0),
    (ZGAP_LITERAL, on_path({(0, 1): 0.9, (6, 7): 0.2, (3, 4): 0.1}), 6, 0),
    (ZGAP_LITERAL, on_path({(0, 1): 0.5, (6, 7): 0.2, (3, 4): 0.1}), 4, 1),
    (ZGAP_RELATIVE, {(0, 1): 0.5, (1, 2): 0.5}, 0, 4),
    (ZGAP_RELATIVE, {(0, 1): 0.5, (1, 2): 0.43}, 1, 4),
    (ZGAP_RELATIVE, {(0, 1): 0.5, (1, 2): 0.35}, 2, 4),
    (ZGAP_RELATIVE, {(0, 1): 0.5, (1, 2): 0.25}, 3, 4),
    (ZGAP_RELATIVE, {(0, 1): 0.5, (1, 2): 0.1}, 4, 4),
    (ZGAP_RELATIVE, {(0, 1): 0.5, (1, 2): 0.01}, 4, 2),
    (ZGAP_RELATIVE, on_path({(0, 1): 0.5, (6, 7): 0.1}), 4, 2),
    (ZGAP_RELATIVE, {(0, 1): -0.4}, 4, 0),
]


@pytest.mark.parametrize("variant,values,zeta_bin,rung", ZETA_EXAMPLES)
def test_each_reachable_zeta_bin_and_rung(variant, values, zeta_bin, rung):
    g, est = edge_estimate(values)
    assert zeta_bin_and_rung(g, est, variant) == (zeta_bin, rung)


def test_every_reachable_zeta_bin_and_rung_has_an_example():
    for variant, (_, zeta_bins, rungs) in ZETA_SCALES.items():
        examples = [x for x in ZETA_EXAMPLES if x[0] == variant]
        assert {x[2] for x in examples} == zeta_bins and {x[3] for x in examples} == rungs
