import json

import numpy as np
import pytest

import rqshot.driver
from rqshot.allocation import HeuristicPolicy, UniformPolicy
from rqshot.driver import DriverConfig, StepCache, run_episode, select_edge, success
from rqshot.features import edge_order, probe_shot_count
from rqshot.instance import (
    ContractionRecord,
    Instance,
    ReducedInstance,
    WeightedGraph,
    contract,
    generate_instance,
)

from .conftest import edge_estimate, make_graph


def select_from(values: dict) -> tuple[int, int, int]:
    g, est = edge_estimate(values)
    return select_edge(g, est, edge_order(est))


@pytest.fixture(scope="module")
def inst10():
    return generate_instance(10, 4, seed=3)


@pytest.fixture(scope="module")
def exact_cfg():
    return DriverConfig(sampling_mode="exact")


class TestSelectEdge:
    def test_largest_magnitude_wins(self):
        elim, kept, sign = select_from({(0, 1): 0.9, (1, 2): -0.95})
        assert (elim, kept, sign) == (2, 1, -1)

    def test_lexicographic_tie_break(self):
        elim, kept, sign = select_from({(0, 1): 0.5, (0, 2): 0.5})
        assert (elim, kept) == (1, 0)

    def test_zero_sign_convention(self):
        _, _, sign = select_from({(0, 1): 0.0})
        assert sign == 1

    def test_larger_endpoint_eliminated(self):
        elim, kept, _ = select_from({(3, 7): -0.4})
        assert (elim, kept) == (7, 3)

    def test_empty_estimate_rejected(self):
        with pytest.raises(ValueError):
            select_from({})


class TestSuccess:
    def test_exact_optimum(self):
        assert success(10.0, 10.0) == 1

    def test_just_below_threshold(self):
        assert success(0.989, 1.0) == 0

    def test_threshold_inclusive(self):
        assert success(0.99, 1.0) == 1

    def test_invalid_optimum(self):
        with pytest.raises(ValueError):
            success(1.0, 0.0)


class TestRunEpisode:
    def test_step_count_is_n_minus_nc(self, inst10, exact_cfg):
        res = run_episode(inst10, HeuristicPolicy(), 256, exact_cfg, np.random.default_rng(0))
        assert len(res.steps) == 10 - exact_cfg.n_c == 2

    def test_exact_mode_seed_independent(self, inst10, exact_cfg):
        outs = {
            run_episode(inst10, HeuristicPolicy(), 256, exact_cfg, np.random.default_rng(s)).e_out
            for s in range(10)
        }
        assert len(outs) == 1

    def test_uniform_spends_cap_every_step(self, inst10):
        cfg = DriverConfig()
        res = run_episode(inst10, UniformPolicy(), 300, cfg, np.random.default_rng(1))
        assert res.total_shots == (10 - cfg.n_c) * 300
        assert all(s.shots == 300 for s in res.steps)

    def test_shot_accounting(self, inst10):
        cfg = DriverConfig()
        k_probe = probe_shot_count(10)
        res = run_episode(inst10, HeuristicPolicy(), 256, cfg, np.random.default_rng(2))
        assert res.total_shots == sum(s.shots for s in res.steps)
        assert all(s.shots >= k_probe for s in res.steps if not s.trivial)

    def test_output_never_beats_optimum(self, inst10):
        cfg = DriverConfig()
        for seed in range(5):
            res = run_episode(inst10, UniformPolicy(), 64, cfg, np.random.default_rng(seed))
            assert res.e_out <= res.e_opt + 1e-12
            assert res.approx_ratio <= 1.0 + 1e-12

    def test_sigma_matches_ratio(self, inst10):
        cfg = DriverConfig()
        for seed in range(5):
            res = run_episode(inst10, HeuristicPolicy(), 64, cfg, np.random.default_rng(seed))
            assert res.sigma == (1 if res.approx_ratio >= cfg.rho_star else 0)

    def test_requires_recorded_optimum(self, exact_cfg):
        inst = generate_instance(10, 4, seed=3, compute_opt=False)
        with pytest.raises(ValueError, match="optimum"):
            run_episode(inst, UniformPolicy(), 256, exact_cfg, np.random.default_rng(0))

    def test_requires_size_above_threshold(self, exact_cfg):
        inst = generate_instance(8, 3, seed=1)
        with pytest.raises(ValueError, match="threshold"):
            run_episode(inst, UniformPolicy(), 256, exact_cfg, np.random.default_rng(0))

    def test_cap_below_probe_rejected(self, inst10, exact_cfg):
        with pytest.raises(ValueError, match="probe"):
            run_episode(inst10, UniformPolicy(), 8, exact_cfg, np.random.default_rng(0))

    def test_early_exhaustion_pads_trivial_steps(self):
        # one coupled pair plus isolated spectators: the single contraction
        # leaves an edgeless graph with three variables still above n_c
        graph = WeightedGraph(range(4), {(0, 1): 1.0})
        inst = Instance(graph=graph, n=4, d=1, seed=0, e_opt=1.0)
        cfg = DriverConfig(n_c=1, sampling_mode="exact")
        res = run_episode(inst, HeuristicPolicy(), 64, cfg, np.random.default_rng(0))
        assert len(res.steps) == 4 - 1
        assert res.early_exhausted
        assert [s.trivial for s in res.steps] == [False, True, True]
        assert all(s.shots == 0 for s in res.steps if s.trivial)
        assert json.loads(json.dumps(res.steps[1].to_dict())) == {
            "step": 2, "m": 3, "zeta": None, "kappa": None, "dist": None, "disc": None,
            "baseline_index": 0, "residual": 0, "shots": 0, "edge": None, "sign": 1,
            "top_two": [], "trivial": True,
        }
        assert res.e_out == pytest.approx(1.0)
        assert res.sigma == 1

    def test_step_logs_serializable(self, inst10):
        cfg = DriverConfig()
        res = run_episode(inst10, HeuristicPolicy(), 128, cfg, np.random.default_rng(3))
        lines = [json.dumps(s.to_dict(), sort_keys=True) for s in res.steps]
        parsed = [json.loads(line) for line in lines]
        assert [p["step"] for p in parsed] == [1, 2]
        assert all(p["shots"] >= 16 for p in parsed)
        assert json.dumps(res.to_dict())

    def test_cache_reuse_is_behavior_neutral(self, inst10):
        cfg = DriverConfig()
        cache = StepCache()
        warm = run_episode(inst10, HeuristicPolicy(), 128, cfg, np.random.default_rng(7), cache=cache)
        cached = run_episode(inst10, HeuristicPolicy(), 128, cfg, np.random.default_rng(7), cache=cache)
        cold = run_episode(inst10, HeuristicPolicy(), 128, cfg, np.random.default_rng(7))
        for res in (cached, cold):
            assert res.to_dict() == warm.to_dict()
            assert [s.to_dict() for s in res.steps] == [s.to_dict() for s in warm.steps]

    def test_binomial_mode_runs(self, inst10):
        cfg = DriverConfig(sampling_mode="binomial")
        res = run_episode(inst10, HeuristicPolicy(), 128, cfg, np.random.default_rng(4))
        assert len(res.steps) == 2
        assert 0 <= res.approx_ratio <= 1.0 + 1e-12

    def test_angles_reoptimized_each_step(self, inst10, exact_cfg, monkeypatch):
        calls = count_calls(monkeypatch, "optimize_angles")
        cache = StepCache()
        for _ in range(2):
            run_episode(inst10, HeuristicPolicy(), 256, exact_cfg, np.random.default_rng(0), cache=cache)
        # one angle search per distinct reduced graph seen (2 steps), none on the rerun
        assert calls["optimize_angles"] == 2


def count_calls(monkeypatch, *names) -> dict[str, int]:
    """Wrap each named rqshot.driver function with a call counter; returns the counts."""
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(rqshot.driver, name, counted(name, getattr(rqshot.driver, name)))
    return calls


def edge_record(g: WeightedGraph, i: int, sign: int) -> ContractionRecord:
    """The contraction run_episode makes of edge i: its larger endpoint eliminated."""
    kept, eliminated = g.edge_list()[i]
    return ContractionRecord(eliminated=eliminated, kept=kept, sign=sign)


class TestStepCacheNodes:
    def test_warm_rerun_contracts_and_solves_nothing(self, inst10, monkeypatch):
        cfg = DriverConfig()
        cold = run_episode(inst10, HeuristicPolicy(), 128, cfg, np.random.default_rng(5))
        cache = StepCache()
        run_episode(inst10, HeuristicPolicy(), 128, cfg, np.random.default_rng(5), cache=cache)
        calls = count_calls(monkeypatch, "contract", "brute_force_optimum")
        warm = run_episode(inst10, HeuristicPolicy(), 128, cfg, np.random.default_rng(5), cache=cache)
        assert calls == {"contract": 0, "brute_force_optimum": 0}
        assert warm.to_dict() == cold.to_dict()
        assert [s.to_dict() for s in warm.steps] == [s.to_dict() for s in cold.steps]

    def test_two_orders_to_one_graph_share_a_node(self, inst10, monkeypatch):
        # contract two edges with no coupling between their endpoints, in
        # either order: the merges commute bit for bit, so both episodes
        # reach one graph, whose node both then share
        g0 = inst10.graph
        w, pos, edges = g0.coupling_matrix(), {u: q for q, u in enumerate(g0.nodes)}, g0.edge_list()
        e1, e2 = next((a, b) for a in edges for b in edges
                      if not any(w[pos[x], pos[y]] for x in a for y in b))
        fresh = ReducedInstance.fresh(g0)
        g1, g2 = (contract(fresh, edge_record(g0, edges.index(e), 1)).graph for e in (e1, e2))
        script = [edges.index(e1), g1.edge_list().index(e2), 0,
                  edges.index(e2), g2.edge_list().index(e1), 0]

        def scripted_order(est):
            i = script.pop(0)
            return np.r_[i, np.delete(np.arange(len(est)), i)]

        real_select = rqshot.driver.select_edge
        monkeypatch.setattr(rqshot.driver, "edge_order", scripted_order)
        monkeypatch.setattr(rqshot.driver, "select_edge", lambda g, est, order: real_select(g, abs(est), order))
        calls = count_calls(monkeypatch, "optimize_angles", "brute_force_optimum")
        cfg = DriverConfig(n_c=7, sampling_mode="exact")
        cache = StepCache()
        for _ in range(2):
            run_episode(inst10, UniformPolicy(), 64, cfg, np.random.default_rng(0), cache=cache)
        # searched once each: g0, g1, g2 and the shared g12; one residual, reached from g12
        assert not script
        assert calls == {"optimize_angles": 4, "brute_force_optimum": 1}

    def test_hit_path_equals_contract_bit_for_bit(self):
        # contract's offset and stack are covered in test_instance.py; a node holds the graph
        rng = np.random.default_rng(11)
        for _ in range(20):
            # couplings of +-1 and 0.5, so that merges also cancel edges exactly
            g = make_graph({
                (u, v): float(rng.choice([-1.0, 1.0, 0.5]))
                for u in range(7) for v in range(u + 1, 7) if rng.random() < 0.6
            })
            cache = StepCache()
            walk, seen = [], []
            for warm in (False, True):
                node, ref = cache.node(g), ReducedInstance.fresh(g)
                for step in range(4):
                    if node.graph.edge_count == 0:
                        break
                    if not warm:
                        walk.append((int(rng.integers(node.graph.edge_count)), int(rng.choice([-1, 1]))))
                    i, sign = walk[step]
                    rec = edge_record(node.graph, i, sign)
                    ref = contract(ref, rec)
                    node = cache.descend(node, i, rec)
                    assert node.graph.nodes == ref.graph.nodes
                    for a, b in zip(node.graph.edge_index(), ref.graph.edge_index()):
                        assert a.dtype == b.dtype and a.shape == b.shape
                        assert a.tobytes() == b.tobytes()
                    if warm:  # read off the children the cold walk made
                        assert node is seen[step]
                    else:
                        seen.append(node)
