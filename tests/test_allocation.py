import itertools
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqshot.allocation import (
    ACTIONS,
    FRACTIONS,
    N_ACTIONS,
    AllocationDecision,
    HeuristicPolicy,
    RLPolicy,
    UniformPolicy,
    best_action,
    compose,
    greedy_action,
    heuristic_index,
    round_half_away,
)
from rqshot.features import DIST_SENTINEL, BinBoundaries, DiscreteState, StepState, discretize


def state(zeta=1.5, kappa=0.25, dist=1, m=10):
    return StepState(m=m, zeta=zeta, kappa=kappa, dist=dist)


class TestLadder:
    def test_fraction_ladder_shape(self):
        assert FRACTIONS == (0.20, 0.35, 0.50, 0.65, 0.80, 1.00)
        assert list(FRACTIONS) == sorted(FRACTIONS)
        assert FRACTIONS[-1] == 1.00

    def test_actions(self):
        assert ACTIONS == (-3, -2, -1, 0, 1, 2)


class TestHeuristic:
    def test_confident_case_20_percent(self):
        assert heuristic_index(state(zeta=4.5, kappa=0.05, dist=3)) == 0

    def test_moderate_case_35_percent(self):
        assert heuristic_index(state(zeta=2.5, kappa=0.15, dist=2)) == 1

    def test_default_case_50_percent(self):
        assert heuristic_index(state(zeta=1.5, kappa=0.25, dist=1)) == 2

    def test_hard_case_80_percent_via_relative_variant(self):
        # reachable only when zeta < 0.9 (relative-gap variant territory)
        assert heuristic_index(state(zeta=0.5, kappa=0.35, dist=2)) == 4
        assert heuristic_index(state(zeta=0.5, kappa=0.05, dist=1)) == 4

    def test_sentinel_distance_counts_as_far(self):
        assert heuristic_index(state(zeta=4.5, kappa=0.05, dist=DIST_SENTINEL)) == 0

    def test_top_down_order(self):
        # satisfies both case 1 and case 2 preconditions: case 1 wins
        assert heuristic_index(state(zeta=5.0, kappa=0.05, dist=5)) == 0


class TestCompose:
    def test_midpoint(self):
        d = compose(2, 0, cap=1000, k_probe=16)
        assert (d.final_index, d.shots) == (2, 500)

    def test_clip_low(self):
        d = compose(0, -3, cap=1000, k_probe=16)
        assert (d.final_index, d.shots) == (0, 200)

    def test_probe_floor(self):
        d = compose(0, 0, cap=64, k_probe=16)
        assert d.shots == 16  # max(16, round(12.8))

    def test_clip_high(self):
        d = compose(5, 2, cap=100, k_probe=16)
        assert (d.final_index, d.shots) == (5, 100)

    def test_rounding_half_away(self):
        assert round_half_away(12.5) == 13
        assert round_half_away(12.4) == 12
        assert round_half_away(-12.5) == -13

    def test_invalid_probe(self):
        with pytest.raises(ValueError):
            compose(0, 0, cap=8, k_probe=16)


class TestUniform:
    def test_returns_cap(self):
        for cap in (512, 4096):
            assert UniformPolicy().decide(state(), DiscreteState(0, 0, 0, 0), cap, 16).shots == cap

    def test_positive_cap_required(self):
        with pytest.raises(ValueError):
            UniformPolicy().decide(state(), DiscreteState(0, 0, 0, 0), 0, 16)

    def test_policy_ignores_state(self):
        p = UniformPolicy()
        for z in (0.5, 4.5):
            d = p.decide(state(zeta=z), DiscreteState(0, 0, 0, 0), 300, 16)
            assert d.shots == 300

    def test_equals_compose_at_the_top_rung(self):
        # the full cap is the top rung of the ladder, resolved by the one shot rule
        for cap, k_probe in ((16, 16), (17, 16), (32, 32), (301, 16), (4096, 32)):
            d = UniformPolicy().decide(state(), DiscreteState(0, 0, 0, 0), cap, k_probe)
            assert asdict(d) == asdict(compose(N_ACTIONS - 1, 0, cap, k_probe))
            assert d == AllocationDecision(baseline_index=N_ACTIONS - 1, residual=0,
                                           final_index=N_ACTIONS - 1, shots=cap)

    def test_cap_below_probe_raises(self):
        with pytest.raises(ValueError):
            UniformPolicy().decide(state(), DiscreteState(0, 0, 0, 0), 31, 32)


class TestGreedyTieBreak:
    def test_zero_tables_choose_zero(self):
        assert greedy_action({}, {}, DiscreteState(0, 0, 0, 0)) == 0

    def test_peaked_table(self):
        key = (0, 0, 0, 0)
        q1 = {key: [0, 0, 0, 0, 0, 5.0]}
        assert greedy_action(q1, {}, DiscreteState(*key)) == 2

    def test_tie_prefers_closest_to_zero_then_smaller(self):
        key = (0, 0, 0, 0)
        q = {key: [1.0, 0, 1.0, 0, 1.0, 0]}  # actions -3, -1, +1 tied
        assert greedy_action(q, {}, DiscreteState(*key)) == -1


def greedy_sum_tie_break(row):
    """Reference: the greatest value's actions, then the action nearest 0, then the smaller."""
    top = max(row)
    return min((ACTIONS[i] for i in range(N_ACTIONS) if row[i] == top), key=lambda a: (abs(a), a))


def keyed_max_tie_break(row):
    """Reference: the index maximising (value, -|action|, -action)."""
    return max(range(N_ACTIONS), key=lambda k: (row[k], -abs(ACTIONS[k]), -ACTIONS[k]))


class TestBestAction:
    def check(self, row):
        i = best_action(row)
        assert ACTIONS[i] == greedy_sum_tie_break(row)
        assert i == keyed_max_tie_break(row)

    def test_equals_both_tie_breaks_on_every_tied_row(self):
        # every row over four values, signed zeros included, so each tie pattern occurs
        for row in itertools.product((-1.0, -0.0, 0.0, 0.5), repeat=N_ACTIONS):
            self.check(list(row))

    def test_equals_both_tie_breaks_on_random_rows(self):
        rng = np.random.default_rng(17)
        for _ in range(5000):
            pool = np.r_[-0.0, 0.0, rng.standard_normal(2)]
            self.check(rng.choice(pool, N_ACTIONS).tolist())
            self.check(rng.standard_normal(N_ACTIONS).tolist())

    def test_greedy_action_reads_the_sum_of_both_tables(self):
        key = (1, 2, 3, 4)
        q1 = {key: [0.0, 1.0, -0.0, 0.0, 2.0, 0.5]}
        q2 = {key: [0.0, 1.0, 0.0, -0.0, 0.0, 1.5]}
        assert greedy_action(q1, q2, DiscreteState(*key)) == 1  # +1 and +2 tie at 2.0


class TestPolicies:
    def test_heuristic_matches_rule(self):
        p = HeuristicPolicy()
        d = p.decide(state(zeta=4.5, kappa=0.05, dist=3), DiscreteState(0, 6, 0, 3), 1000, 16)
        assert (d.baseline_index, d.residual, d.shots) == (0, 0, 200)

    def test_fresh_rl_equals_heuristic_exhaustive(self):
        # acceptance criterion 7: sweep one raw state per discrete cell
        bins = BinBoundaries()
        rl = RLPolicy({}, {})
        heuristic = HeuristicPolicy()
        n, n_c, cap, k_probe = 14, 8, 1000, 16
        zeta_reps = [0.5, 1.1, 1.4, 1.8, 2.5, 3.5, 4.5]
        kappa_reps = [0.05, 0.15, 0.25, 0.35, 0.6]
        dist_reps = [0, 1, 2, 3, 9]
        count = 0
        for m, zeta, kappa, dist in itertools.product(
            range(n_c + 1, n + 1), zeta_reps, kappa_reps, dist_reps
        ):
            s = StepState(m=m, zeta=zeta, kappa=kappa, dist=dist)
            disc = discretize(s, n, n_c, bins)
            assert rl.decide(s, disc, cap, k_probe) == heuristic.decide(s, disc, cap, k_probe)
            count += 1
        assert count == (n - n_c) * 7 * 5 * 5


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=-3, max_value=2),
    st.integers(min_value=-3, max_value=2),
    st.integers(min_value=64, max_value=4096),
)
def test_compose_monotone_in_residual(baseline, a1, a2, cap):
    lo, hi = min(a1, a2), max(a1, a2)
    assert compose(baseline, lo, cap, 16).shots <= compose(baseline, hi, cap, 16).shots


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0, max_value=30, allow_nan=False),
    st.floats(min_value=0, max_value=0.7, allow_nan=False),
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=64, max_value=4096),
)
def test_heuristic_never_exceeds_uniform(zeta, kappa, dist, cap):
    d = HeuristicPolicy().decide(state(zeta=zeta, kappa=kappa, dist=dist), None, cap, 16)
    assert d.shots <= UniformPolicy().decide(state(), None, cap, 16).shots
