import itertools
from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest

from rqshot import benchmark as bm
from rqshot.allocation import HeuristicPolicy, QTables, RLPolicy, UniformPolicy
from rqshot.cli import _map_instances
from rqshot.driver import DriverConfig, EpisodeResult
from rqshot.instance import generate_instance


def fake_results(shots_and_sigma):
    return [
        EpisodeResult(steps=[], total_shots=s, e_out=1.0, e_opt=1.0, sigma=sig, approx_ratio=1.0)
        for s, sig in shots_and_sigma
    ]


def record_with(policy="heuristic", sr=1.0, median=1000.0, esp=None, uniform_sr=1.0,
                reduction=None, esp_ratio=None, instance_id="i0", category="cross_size", n=14):
    return bm.EvaluationRecord(
        instance_id=instance_id, category=category, n=n, d=8, policy=policy, cap=1000,
        sr=sr, median_shots=median, mean_shots=median, p90_shots=median, esp=esp,
        esp_ratio=esp_ratio, reduction=reduction,
        restart_cost=None if sr == 0 else median / sr, uniform_sr=uniform_sr,
    )


FLOOR = bm.ProtocolConfig().operational_floor


class TestTrialSummary:
    def test_reduction_fixture(self):
        # median 640 vs uniform 1000 -> reduction 0.36
        method = bm.TrialSummary.from_results(fake_results([(640, 1), (700, 1), (600, 1)]))
        uniform = bm.TrialSummary.from_results(fake_results([(1000, 1), (1000, 1), (1000, 1)]))
        assert 1 - method.median_shots / uniform.median_shots == pytest.approx(0.36)

    def test_esp_fixture(self):
        # median successful shots 1000 at SR 0.5 -> ESP 2000
        results = fake_results([(1000, 1), (1000, 0), (1000, 1), (1000, 0)])
        s = bm.TrialSummary.from_results(results)
        assert s.sr == 0.5
        assert s.esp == pytest.approx(2000.0)

    def test_esp_undefined_at_zero_sr(self):
        s = bm.TrialSummary.from_results(fake_results([(100, 0), (200, 0)]))
        assert s.esp is None
        assert s.median_success_shots is None
        assert s.restart_cost is None

    def test_restart_cost(self):
        s = bm.TrialSummary.from_results(fake_results([(100, 1), (300, 0)]))
        assert s.restart_cost == pytest.approx(200.0 / 0.5)

    def test_p90_ordering(self):
        shots = [(s, 1) for s in (100, 200, 300, 400, 500, 600, 700, 800, 900, 1000)]
        s = bm.TrialSummary.from_results(fake_results(shots))
        assert s.p90_shots >= s.median_shots >= 0
        assert min(x for x, _ in shots) <= s.mean_shots <= max(x for x, _ in shots)


class TestHardScreen:
    def test_threshold_inclusive(self):
        # hard means a mean ratio at most the threshold: equal is hard, just above is easy
        inst = generate_instance(10, 5, seed=2)
        protocol = bm.ProtocolConfig(screen_trials=6, screen_cap=32)
        _, ratio = bm.hard_screen(inst, DriverConfig(), protocol, master_seed=4)
        for threshold, label in ((ratio, "hard"), (np.nextafter(ratio, -np.inf), "easy")):
            screened = bm.hard_screen(inst, DriverConfig(),
                                      replace(protocol, hard_threshold=threshold), master_seed=4)
            assert screened == (label, ratio)

    def test_easy_instance_classified_easy(self):
        inst = generate_instance(10, 4, seed=3)
        protocol = bm.ProtocolConfig(screen_trials=20, screen_cap=1024)
        label, ratio = bm.hard_screen(inst, DriverConfig(), protocol, master_seed=1)
        assert label == "easy"
        assert ratio > 0.95

    def test_deterministic(self):
        inst = generate_instance(10, 4, seed=3)
        protocol = bm.ProtocolConfig(screen_trials=10, screen_cap=256)
        a = bm.hard_screen(inst, DriverConfig(), protocol, master_seed=5)
        b = bm.hard_screen(inst, DriverConfig(), protocol, master_seed=5)
        assert a == b


class TestCalibration:
    def test_easy_instance_hits_grid_floor(self):
        inst = generate_instance(10, 4, seed=3)
        cal = bm.calibrate_cap(inst, DriverConfig(), bm.ProtocolConfig(cal_trials=20), master_seed=2)
        assert cal.cap == 64
        assert not cal.budget_limited
        assert cal.sr_at_cap >= 0.95

    def test_budget_limited_flag(self, monkeypatch):
        # synthetic SR: one trial in seven succeeds at every cap, so no grid cap reaches the target
        def fake_run_trials(inst, policy, cap, n_trials, cfg, seed_parts, cache=None):
            return fake_results([(cap, int(t == 0)) for t in range(n_trials)])

        monkeypatch.setattr(bm, "run_trials", fake_run_trials)
        protocol = bm.ProtocolConfig(cal_trials=7, cap_grid=(64, 128))
        cal = bm.calibrate_cap(generate_instance(10, 4, seed=3), DriverConfig(), protocol, master_seed=0)
        assert (cal.cap, cal.budget_limited, cal.sr_at_cap) == (128, True, 1 / 7)
        assert [p["cap"] for p in cal.probes] == [64, 128]

    def test_stage2_refines_within_bracket(self, monkeypatch):
        # synthetic SR: every trial succeeds iff cap >= 300; the grid brackets it
        # in (256, 512] and bisection at resolution 16 lands on 304
        def fake_run_trials(inst, policy, cap, n_trials, cfg, seed_parts, cache=None):
            return fake_results([(cap, int(cap >= 300))] * n_trials)

        monkeypatch.setattr(bm, "run_trials", fake_run_trials)
        protocol = bm.ProtocolConfig(cal_trials=5, cap_grid=(64, 128, 256, 512), cal_resolution=16)
        cal = bm.calibrate_cap(generate_instance(10, 4, seed=3), DriverConfig(), protocol, master_seed=0)
        assert (cal.cap, cal.budget_limited, cal.sr_at_cap) == (304, False, 1.0)
        assert [p["cap"] for p in cal.probes] == [64, 128, 256, 512, 384, 320, 288, 304]

    def test_parallel_jobs_match_serial(self):
        # screen label and ratio, every calibration probe and the cap, with each instance
        # run whole in a worker; the bracket 16..64 makes calibration bisect
        insts = [generate_instance(10, 5, seed=s) for s in (2, 3)]
        protocol = bm.ProtocolConfig(screen_trials=8, screen_cap=64, cal_trials=8, cap_grid=(16, 64))
        for harness in (bm.hard_screen, bm.calibrate_cap):
            fn = partial(harness, cfg=DriverConfig(), protocol=protocol, master_seed=4)
            serial, parallel = (_map_instances(jobs, fn, insts) for jobs in (1, 2))
            assert parallel == serial
        assert all(len(cal.probes) > 2 for cal in serial)

    def test_probes_recorded(self):
        inst = generate_instance(10, 4, seed=3)
        cal = bm.calibrate_cap(inst, DriverConfig(), bm.ProtocolConfig(cal_trials=10), master_seed=2)
        assert cal.probes[0]["cap"] == 64
        assert all(set(p) == {"cap", "sr"} for p in cal.probes)


@pytest.fixture(scope="module")
def records():
    inst = generate_instance(10, 4, seed=3)
    recs, trials = bm.evaluate_methods(
        inst, {"uniform": UniformPolicy(), "heuristic": HeuristicPolicy()},
        cap=128, cfg=DriverConfig(), protocol=bm.ProtocolConfig(eval_trials=20), master_seed=3,
    )
    return recs, trials


class TestEvaluateMethods:

    def test_uniform_self_comparison(self, records):
        recs, _ = records
        uni = next(r for r in recs if r.policy == "uniform")
        assert uni.reduction == pytest.approx(0.0)
        assert uni.esp_ratio == pytest.approx(1.0)

    def test_same_cap_for_all_policies(self, records):
        recs, _ = records
        assert len({r.cap for r in recs}) == 1

    def test_heuristic_spends_less(self, records):
        recs, _ = records
        heur = next(r for r in recs if r.policy == "heuristic")
        assert heur.median_shots <= 128 * 2
        assert heur.reduction is not None and heur.reduction >= 0.0

    def test_trials_keyed_by_policy(self, records):
        _, trials = records
        assert set(trials) == {"uniform", "heuristic"}
        assert all(len(v) == 20 for v in trials.values())

    def test_parallel_jobs_match_serial(self):
        # every output, step logs included, with each instance run whole in a worker; the RL
        # table sends a different residual from every cell, so a lost table would show
        cells = itertools.product(range(6), range(7), range(5), range(5))
        q1 = {c: [float(a == sum(c) % 6) for a in range(6)] for c in cells}
        insts = [generate_instance(10, 4, seed=s) for s in (3, 4)]
        policies = {"uniform": UniformPolicy(), "heuristic": HeuristicPolicy(), "rl": RLPolicy(QTables(q1=q1))}
        fn = partial(bm.evaluate_methods, cfg=DriverConfig(),
                     protocol=bm.ProtocolConfig(eval_trials=8), master_seed=9)
        serial, parallel = (_map_instances(jobs, fn, insts, [policies] * 2, [256] * 2)
                            for jobs in (1, 2))
        for (recs_s, trials_s), (recs_p, trials_p) in zip(serial, parallel):
            assert recs_p == recs_s
            for name in policies:
                assert [r.to_dict() for r in trials_p[name]] == [r.to_dict() for r in trials_s[name]]
                assert [[s.to_dict() for s in r.steps] for r in trials_p[name]] == [
                    [s.to_dict() for s in r.steps] for r in trials_s[name]
                ]
                assert all(r.steps for r in trials_p[name])


class TestOperationalFilter:
    def test_threshold_inclusive(self):
        records = [
            record_with(instance_id="a", uniform_sr=0.89),
            record_with(instance_id="b", uniform_sr=0.90),
            record_with(instance_id="c", uniform_sr=1.0),
        ]
        assert [r.instance_id for r in bm.operational_filter(records, FLOOR)] == ["b", "c"]

    def test_empty_input(self):
        assert bm.operational_filter([], FLOOR) == []

    def test_filter_preserves_metric_values(self):
        rec = record_with(uniform_sr=0.95, reduction=0.25)
        assert bm.operational_filter([rec], FLOOR)[0].reduction == 0.25


class TestSrFloorCoverage:
    def test_all_perfect(self):
        pairs = [(1.0, 1.0)] * 5
        rows = bm.sr_floor_coverage(pairs, [0.95])
        assert rows[0] == {"tau": 0.95, "first": 5, "second": 5, "delta": 0}

    def test_zero_threshold_counts_everything(self):
        pairs = [(0.1, 0.2), (0.5, 0.4)]
        rows = bm.sr_floor_coverage(pairs, [0.0])
        assert rows[0]["first"] == rows[0]["second"] == 2

    def test_synthetic_22_pair_fixture(self):
        # constructed to land on 13/22 vs 5/22 at tau=0.95
        pairs = [(0.97, 0.96)] * 5 + [(0.96, 0.85)] * 8 + [(0.80, 0.70)] * 9
        rows = bm.sr_floor_coverage(pairs, [0.95])
        assert rows[0]["first"] == 13
        assert rows[0]["second"] == 5
        assert rows[0]["delta"] == 8


class TestAggregate:
    def test_single_pair_identity(self):
        rec = record_with(reduction=0.3, esp_ratio=0.7, sr=0.9)
        rows = bm.aggregate([rec], "policy")
        assert rows == [{
            "group": "heuristic", "pairs": 1, "mean_sr": 0.9,
            "mean_reduction": 0.3, "mean_esp_ratio": 0.7,
        }]

    def test_known_means(self):
        recs = [
            record_with(instance_id="a", reduction=0.2, esp_ratio=0.8, sr=1.0),
            record_with(instance_id="b", reduction=0.4, esp_ratio=0.6, sr=0.8),
        ]
        row = bm.aggregate(recs, "policy")[0]
        assert row["mean_reduction"] == pytest.approx(0.3)
        assert row["mean_esp_ratio"] == pytest.approx(0.7)
        assert row["mean_sr"] == pytest.approx(0.9)

    def test_undefined_esp_excluded_from_mean(self):
        recs = [
            record_with(instance_id="a", reduction=0.2, esp_ratio=0.8),
            record_with(instance_id="b", reduction=0.4, esp_ratio=None),
        ]
        row = bm.aggregate(recs, "policy")[0]
        assert row["mean_esp_ratio"] == pytest.approx(0.8)
        assert row["mean_reduction"] == pytest.approx(0.3)

    def test_per_size_grouping(self):
        recs = [record_with(instance_id="a", n=12), record_with(instance_id="b", n=14)]
        rows = bm.aggregate(recs, "size")
        assert [r["group"] for r in rows] == ["heuristic/12", "heuristic/14"]


class TestCsvRoundTrip:
    def test_records_csv(self, tmp_path):
        recs = [
            record_with(instance_id="a", reduction=0.3, esp_ratio=0.7, esp=100.0),
            record_with(instance_id="b", policy="uniform", reduction=0.0, esp_ratio=1.0),
        ]
        path = tmp_path / "records.csv"
        bm.write_records_csv(recs, path)
        loaded = bm.read_records_csv(path)
        assert [r.instance_id for r in loaded] == ["a", "b"]
        assert loaded[0].reduction == 0.3
        assert loaded[0].esp == 100.0
        assert loaded[1].esp_ratio == 1.0
        assert loaded == recs
        header = path.read_text().splitlines()[0]
        assert header.split(",") == [f.name for f in fields(bm.EvaluationRecord)]

    def test_cells_parse_by_declared_type(self, tmp_path):
        # an int-valued median comes back a float, an empty optional cell None
        rec = record_with(median=640, esp=None, reduction=None)
        path = tmp_path / "records.csv"
        bm.write_records_csv([rec], path)
        (loaded,) = bm.read_records_csv(path)
        assert type(loaded.median_shots) is float and loaded.median_shots == 640.0
        assert type(loaded.n) is int and type(loaded.cap) is int
        assert loaded.esp is None and loaded.reduction is None
