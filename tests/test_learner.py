import copy
import json
from dataclasses import asdict, replace

import numpy as np
import pytest
from scipy import stats

from rqshot.allocation import ACTIONS, HeuristicPolicy, RLPolicy
from rqshot.driver import DriverConfig
from rqshot.features import BinBoundaries, DiscreteState, StepState, discretize
from rqshot.instance import generate_instance
from rqshot.learner import (
    CheckpointError,
    LagrangianController,
    PolicyCheckpoint,
    QTables,
    TrainConfig,
    double_q_update,
    select_action,
    step_reward,
    terminal_penalty,
    train,
)

S0 = DiscreteState(0, 0, 0, 0)
S1 = DiscreteState(1, 0, 0, 0)


class TestSelectAction:
    def test_full_exploration_uniform(self):
        rng = np.random.default_rng(5)
        draws = [select_action(QTables(), S0, 1.0, rng) for _ in range(10_000)]
        counts = [draws.count(a) for a in ACTIONS]
        chi2 = sum((c - len(draws) / 6) ** 2 / (len(draws) / 6) for c in counts)
        assert chi2 < stats.chi2.ppf(0.999, df=5)

    def test_greedy_zero_tables(self):
        assert select_action(QTables(), S0, 0.0, np.random.default_rng(0)) == 0

    def test_greedy_peaked(self):
        t = QTables(q1={S0.as_tuple(): [0.0, 0.0, 0.0, 0.0, 0.0, 3.0]})
        assert select_action(t, S0, 0.0, np.random.default_rng(0)) == 2

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            select_action(QTables(), S0, 1.5, np.random.default_rng(0))


class TestDoubleQUpdate:
    def test_terminal_full_alpha(self):
        t = QTables()
        double_q_update(t, S0, 0, -0.5, None, True, 1.0, 0.97, np.random.default_rng(0))
        a0 = ACTIONS.index(0)
        written = t.q1.get(S0.as_tuple(), [0.0] * 6)[a0] + t.q2.get(S0.as_tuple(), [0.0] * 6)[a0]
        assert written == pytest.approx(-0.5)

    def test_zero_alpha_no_change(self):
        t = QTables()
        double_q_update(t, S0, 1, 5.0, S1, False, 0.0, 0.97, np.random.default_rng(0))
        assert all(v == 0.0 for v in t.q1.get(S0.as_tuple(), [0.0] * 6))
        assert all(v == 0.0 for v in t.q2.get(S0.as_tuple(), [0.0] * 6))

    def test_unseen_states_get_fresh_rows_in_the_learning_table_only(self):
        # a terminal update draws only the coin, 0 for q1 to learn and 1 for q2
        t = QTables()
        rng, coins = np.random.default_rng(3), np.random.default_rng(3)
        states = [DiscreteState(m, 1, 2, 3) for m in range(8)]
        for i, s in enumerate(states):
            learn, other = (t.q1, t.q2) if coins.integers(2) == 0 else (t.q2, t.q1)
            double_q_update(t, s, ACTIONS[i % 6], -(i + 1.0), None, True, 1.0, 0.97, rng)
            assert s.as_tuple() in learn and s.as_tuple() not in other
        assert t.q1 and t.q2  # both tables learned
        # each row holds its own write alone, so no two rows share a list
        for i, s in enumerate(states):
            expected = [0.0] * 6
            expected[i % 6] = -(i + 1.0)
            assert (t.q1.get(s.as_tuple()) or t.q2[s.as_tuple()]) == expected

    def test_update_writes_one_row_of_the_learning_table(self):
        t = QTables(q1={S1.as_tuple(): [0.5] * 6}, q2={S1.as_tuple(): [0.25] * 6})
        before = copy.deepcopy(t)
        double_q_update(t, S0, 2, -1.0, S1, False, 0.5, 0.9, np.random.default_rng(0))
        q1_learned = S0.as_tuple() in t.q1
        assert q1_learned != (S0.as_tuple() in t.q2)
        learn, other = (t.q1, t.q2) if q1_learned else (t.q2, t.q1)
        assert other == (before.q1 if not q1_learned else before.q2)
        assert learn[S1.as_tuple()] == [0.5 if q1_learned else 0.25] * 6
        # bootstrap: the other table's value at the learning table's argmax, action 0 on a tie
        bootstrap = 0.25 if q1_learned else 0.5
        assert learn[S0.as_tuple()] == [0.0] * 5 + [0.5 * (-1.0 + 0.9 * bootstrap)]

    def test_toy_mdp_matches_value_iteration(self):
        # 2 states, 2 actions: the action selects the next state
        # deterministically; reward depends on (state, action)
        actions = (0, 1)  # drawn from the real action set by index below
        reward = {(0, 0): 1.0, (0, 1): 0.0, (1, 0): 2.0, (1, 1): 3.0}
        step_to = {(s, a): a for s in (0, 1) for a in actions}
        gamma = 0.9

        # independent oracle: plain value iteration to fixpoint
        q_star = {k: 0.0 for k in reward}
        for _ in range(2000):
            q_star = {
                (s, a): reward[(s, a)]
                + gamma * max(q_star[(step_to[(s, a)], b)] for b in actions)
                for (s, a) in q_star
            }

        states = {0: S0, 1: S1}
        act_of = {0: ACTIONS[0], 1: ACTIONS[1]}  # two distinct real actions
        t = QTables()
        rng = np.random.default_rng(12)
        s = 0
        for _ in range(100_000):
            a = int(rng.integers(2))
            s_next = step_to[(s, a)]
            double_q_update(
                t, states[s], act_of[a], reward[(s, a)], states[s_next], False, 0.2, gamma, rng
            )
            s = s_next

        for (s, a), q in q_star.items():
            idx = ACTIONS.index(act_of[a])
            key = states[s].as_tuple()
            for table in (t.q1, t.q2):
                # other 4 actions were never taken; only compare the trained pair
                assert table[key][idx] == pytest.approx(q, abs=1e-3)

    def test_double_q_underestimates_noisy_bandit(self):
        # all actions have true value 0 with N(0,1) rewards; the single
        # estimator's max is biased upward, the double estimator's is not
        reps, steps, alpha = 50, 2000, 0.15
        rng = np.random.default_rng(77)
        single_max, double_max = [], []
        for _ in range(reps):
            q_single = [0.0] * 6
            t = QTables()
            for _ in range(steps):
                a = int(rng.integers(6))
                r = float(rng.standard_normal())
                q_single[a] = (1 - alpha) * q_single[a] + alpha * r
                double_q_update(t, S0, ACTIONS[a], r, None, True, alpha, 1.0, rng)
            single_max.append(max(q_single))
            key = S0.as_tuple()
            q1, q2 = t.q1[key], t.q2[key]
            totals = [q1[i] + q2[i] for i in range(6)]
            best = max(range(6), key=lambda i: totals[i])
            double_max.append((q1[best] + q2[best]) / 2)
        diff = np.array(single_max) - np.array(double_max)
        assert diff.mean() > 3 * diff.std(ddof=1) / np.sqrt(reps)


class TestRewards:
    @pytest.mark.parametrize("k,cap,expected", [(1000, 1000, -1.0), (500, 1000, -0.5), (200, 1000, -0.2)])
    def test_step_reward(self, k, cap, expected):
        assert step_reward(k, cap, 1.0) == pytest.approx(expected)

    def test_step_reward_bounds(self):
        with pytest.raises(ValueError):
            step_reward(0, 100, 1.0)
        with pytest.raises(ValueError):
            step_reward(101, 100, 1.0)

    def test_terminal_penalty(self):
        assert terminal_penalty(1, 50.0, 0.0) == 0.0
        assert terminal_penalty(0, 2.0, 0.0) == -2.0
        assert terminal_penalty(0, 0.0, 0.0) == 0.0

    def test_extra_fail_penalty_only_on_failure(self):
        assert terminal_penalty(0, 2.0, extra_fail_penalty=5.0) == -7.0
        assert terminal_penalty(1, 2.0, extra_fail_penalty=5.0) == 0.0


class TestLagrangian:
    def test_warmup_freeze(self):
        ctrl = LagrangianController(TrainConfig())
        for _ in range(100):
            ctrl.update(0)
        assert ctrl.lam == 2.0
        assert ctrl.p_hat == 0.95
        ctrl.update(0)
        assert ctrl.lam > 2.0

    def test_update_arithmetic(self):
        ctrl = LagrangianController(TrainConfig(warmup=0))
        ctrl.p_hat = 17 / 18  # EMA lands exactly on 0.85 after one failure
        ctrl.update(0)
        assert ctrl.p_hat == pytest.approx(0.85, abs=1e-12)
        assert ctrl.lam == pytest.approx(2.1, abs=1e-12)

    def test_sustained_success_decays_to_zero(self):
        ctrl = LagrangianController(TrainConfig(warmup=0, lambda0=0.5))
        for _ in range(500):
            ctrl.update(1)
        assert ctrl.lam == 0.0

    def test_clip_at_lambda_max(self):
        ctrl = LagrangianController(TrainConfig(warmup=0, lambda0=80.0))
        for _ in range(50):
            ctrl.update(0)
        assert ctrl.lam == 80.0

    def test_trace_recorded_per_episode(self):
        ctrl = LagrangianController(TrainConfig())
        for _ in range(7):
            ctrl.update(1)
        assert len(ctrl.trace) == 7


class TestTrainConfig:
    def test_standard_defaults(self):
        c = TrainConfig()
        assert (c.alpha, c.discount, c.episodes) == (0.15, 0.97, 1200)
        assert (c.lambda0, c.mu_lambda, c.lambda_max) == (2.0, 1.0, 80.0)
        assert (c.ema_beta, c.warmup, c.p_star) == (0.10, 100, 0.95)
        assert (c.eps_start, c.eps_min, c.eps_decay) == (1.0, 0.02, 0.995)

    def test_aggressive_overrides(self):
        c = TrainConfig.preset("aggressive")
        assert (c.lambda0, c.lambda_max, c.mu_lambda) == (8.0, 150.0, 2.0)
        assert (c.warmup, c.extra_fail_penalty, c.episodes) == (50, 5.0, 2400)
        # everything else stays at the standard values
        assert (c.alpha, c.discount, c.p_star) == (0.15, 0.97, 0.95)

    def test_epsilon_schedule_floor(self):
        c = TrainConfig()
        eps = c.eps_start
        for _ in range(c.episodes):
            eps = max(c.eps_min, eps * c.eps_decay)
        assert eps == 0.02

    def test_round_trip(self):
        c = TrainConfig.preset("aggressive")
        assert TrainConfig(**json.loads(json.dumps(asdict(c)))) == c


class TestCheckpoint:
    def _checkpoint(self):
        t = QTables(q1={(0, 1, 2, 3): [0.0, 0.0, -0.75, 0.0, 0.0, 0.0]},
                    q2={(1, 6, 0, 4): [0.5, 0.0, 0.0, 0.0, 0.0, 0.0]})
        return PolicyCheckpoint(
            qtables=t, config=TrainConfig(), bin_boundaries=BinBoundaries(), n=14, n_c=8,
            zgap_variant="literal", k_top=3, instance_id="n14d08s1", validation_sr=0.95,
            lambda_trace=[2.0, 2.1],
        )

    def test_round_trip_greedy_identical(self, tmp_path):
        ckpt = self._checkpoint()
        path = tmp_path / "ckpt.json"
        ckpt.save(path)
        loaded = PolicyCheckpoint.load(path)
        assert loaded.qtables.q1 == ckpt.qtables.q1
        assert loaded.qtables.q2 == ckpt.qtables.q2
        p0, p1 = RLPolicy(ckpt.qtables), RLPolicy(loaded.qtables)
        for m_bin in range(6):
            for z in range(7):
                for kp in range(5):
                    for db in range(5):
                        s = DiscreteState(m_bin, z, kp, db)
                        raw = StepState(m=m_bin + 9, zeta=1.0, kappa=0.0, dist=0)
                        assert p0.decide(raw, s, 500, 16) == p1.decide(raw, s, 500, 16)

    def test_binning_mismatch_rejected(self, tmp_path):
        ckpt = self._checkpoint()
        path = tmp_path / "ckpt.json"
        ckpt.save(path)
        other = BinBoundaries(zeta_edges=(1.0, 1.5, 2.0, 2.5, 3.0, 4.0))
        with pytest.raises(CheckpointError, match="bin boundaries"):
            PolicyCheckpoint.load(path, DriverConfig(bins=other))

    def test_matching_bins_accepted(self, tmp_path):
        ckpt = self._checkpoint()
        path = tmp_path / "ckpt.json"
        ckpt.save(path)
        PolicyCheckpoint.load(path, DriverConfig())

    def test_n_c_mismatch_rejected(self, tmp_path):
        # n_c keys the rows, zgap_variant sets the scale of zeta and k_top the edges kappa counts:
        # a table trained under CI's toy config means other states under any one of them changed
        path = tmp_path / "ckpt.json"
        toy = DriverConfig(zgap_variant="relative_gap", k_top=4,
                           bins=BinBoundaries(zeta_edges=(0.1, 0.2, 0.4, 0.6)))
        replace(self._checkpoint(), bin_boundaries=toy.bins, zgap_variant=toy.zgap_variant,
                k_top=toy.k_top).save(path)
        assert PolicyCheckpoint.load(path, toy).n_c == 8
        for other, message in [
            (replace(toy, n_c=6), "n_c = 8, not 6"),
            (replace(toy, zgap_variant="literal"), "zgap_variant = relative_gap, not literal"),
            (replace(toy, k_top=3), "k_top = 4, not 3"),
            (replace(toy, bins=BinBoundaries(zeta_edges=(0.1, 0.2, 0.4, 0.5))), "bin boundaries"),
        ]:
            with pytest.raises(CheckpointError, match=message):
                PolicyCheckpoint.load(path, other)


@pytest.fixture(scope="module")
def tiny_instance():
    return generate_instance(10, 4, seed=3)


class TestTrain:
    def test_zero_episode_checkpoint_is_heuristic(self, tiny_instance):
        cfg = TrainConfig(episodes=0)
        ckpt = train(tiny_instance, 128, cfg, DriverConfig(), master_seed=1)
        rl = RLPolicy(ckpt.qtables)
        heuristic = HeuristicPolicy()
        for zeta, kappa, dist in [(4.5, 0.05, 3), (2.5, 0.15, 2), (1.5, 0.25, 1), (0.5, 0.5, 0)]:
            s = StepState(m=9, zeta=zeta, kappa=kappa, dist=dist)
            disc = discretize(s, 10, 8, BinBoundaries())
            assert rl.decide(s, disc, 128, 16) == heuristic.decide(s, disc, 128, 16)

    def test_training_deterministic_given_seed(self, tiny_instance):
        cfg = TrainConfig(episodes=12, validation_every=6, validation_trials=3)
        a = train(tiny_instance, 128, cfg, DriverConfig(), master_seed=9)
        b = train(tiny_instance, 128, cfg, DriverConfig(), master_seed=9)
        assert a.qtables.q1 == b.qtables.q1
        assert a.qtables.q2 == b.qtables.q2
        assert a.lambda_trace == b.lambda_trace
        assert a.validation_history == b.validation_history

    def test_lambda_trace_length_and_bounds(self, tiny_instance):
        cfg = TrainConfig(episodes=30, validation_every=15, validation_trials=2)
        ckpt = train(tiny_instance, 128, cfg, DriverConfig(), master_seed=2)
        assert len(ckpt.lambda_trace) == 30
        assert all(0.0 <= lam <= cfg.lambda_max for lam in ckpt.lambda_trace)
        # warm-up freeze: whole run is inside warmup here
        assert all(lam == cfg.lambda0 for lam in ckpt.lambda_trace)

    def test_checkpoint_selection_prefers_high_sr(self, tiny_instance):
        cfg = TrainConfig(episodes=20, validation_every=10, validation_trials=4)
        ckpt = train(tiny_instance, 128, cfg, DriverConfig(), master_seed=4)
        assert ckpt.validation_sr is not None
        assert ckpt.validation_sr == max(v["sr"] for v in ckpt.validation_history)

    def test_cap_below_probe_rejected(self, tiny_instance):
        with pytest.raises(ValueError, match="probe"):
            train(tiny_instance, 8, TrainConfig(episodes=1), DriverConfig(), master_seed=0)
