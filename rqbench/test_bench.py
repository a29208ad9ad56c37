"""Self-tests of the benchmark: planted faults are caught, the tracer holds.

    python3 rqbench/test_bench.py        (or: python3 -m pytest rqbench/test_bench.py)
"""

from __future__ import annotations

import json
import math
import sys
import types
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import outcome  # noqa: E402
import spans  # noqa: E402
from rqshot.allocation import HeuristicPolicy, UniformPolicy  # noqa: E402
from rqshot.driver import DriverConfig, run_episode  # noqa: E402
from rqshot.features import probe_shot_count  # noqa: E402
from rqshot.instance import brute_force_optimum, generate_instance  # noqa: E402
from rqshot.seeding import make_rng  # noqa: E402

CAP = 128


def _episode(policy=None, seed=3):
    inst = generate_instance(12, 3, 5)
    nodes = tuple(inst.graph.nodes)
    couplings = inst.graph.edges()
    spec = outcome.EpisodeSpec(
        nodes=nodes, couplings=couplings, e_opt=outcome.max_cut(list(nodes), couplings),
        n_c=8, rho_star=0.99, cap=CAP, k_probe=probe_shot_count(inst.n),
        uniform=isinstance(policy, UniformPolicy),
    )
    ep = run_episode(inst, policy or HeuristicPolicy(), CAP, DriverConfig(), make_rng(seed, "t"))
    return ep, spec


def test_clean_episodes_pass():
    for seed in range(4):
        for policy in (UniformPolicy(), HeuristicPolicy()):
            ep, spec = _episode(policy, seed)
            assert outcome.episode_problems(ep, spec) == []


def test_exhaustive_search_matches_program_optimum():
    for n, d, s in ((10, 3, 1), (12, 5, 2), (9, 4, 3)):
        inst = generate_instance(n, d, s)
        mine = outcome.max_cut(list(inst.graph.nodes), inst.graph.edges())
        assert math.isclose(mine, brute_force_optimum(inst.graph)[0], abs_tol=1e-9)


def test_replay_by_hand():
    # triangle 0-1-2; eliminate 2 onto 1 with z2 = -z1: J01 stays, J02 merges
    # into J01 with sign -1, J12 becomes offset -J12.
    couplings = {(0, 1): 1.0, (0, 2): 2.0, (1, 2): 0.5}

    class Step:
        step, trivial, edge, sign = 1, False, (1, 2), -1

    # residual J01 = 1 - 2 = -1 -> min E = -1 (z0 = z1), offset -0.5
    expected = 0.5 * (3.5 - (-1.0 - 0.5))
    assert math.isclose(outcome.replay_cut([0, 1, 2], couplings, [Step()]), expected)


def test_e_out_off_by_one_edge_weight_is_caught():
    ep, spec = _episode()
    weight = next(iter(spec.couplings.values()))
    problems = outcome.episode_problems(replace(ep, e_out=ep.e_out - abs(weight)), spec)
    assert any("replayed" in p for p in problems)


def test_shot_sum_off_by_one_is_caught():
    ep, spec = _episode()
    problems = outcome.episode_problems(replace(ep, total_shots=ep.total_shots + 1), spec)
    assert any("step sum" in p for p in problems)


def test_sigma_inconsistent_with_ratio_is_caught():
    ep, spec = _episode()
    problems = outcome.episode_problems(replace(ep, sigma=1 - ep.sigma), spec)
    assert any("sigma" in p for p in problems)


def test_wrong_sign_in_a_replayed_contraction_is_caught():
    ep, spec = _episode()
    steps = list(ep.steps)
    steps[0] = replace(steps[0], sign=-steps[0].sign)
    problems = outcome.episode_problems(replace(ep, steps=steps), spec)
    assert any("replayed" in p for p in problems)


def test_uniform_step_below_cap_is_caught():
    ep, spec = _episode(UniformPolicy())
    steps = list(ep.steps)
    steps[0] = replace(steps[0], shots=CAP - 1)
    ep = replace(ep, steps=steps, total_shots=ep.total_shots - 1)
    assert any("uniform step" in p for p in outcome.episode_problems(ep, spec))


def test_checkpoint_faults_are_caught():
    good = {"lambda_trace": [2.0, 2.5], "qtables": {"q1": {"0:0:0:0": [0.0] * 6}, "q2": {}}}
    assert outcome.checkpoint_problems(good, good, 2, 80.0) == []
    bad_lambda = dict(good, lambda_trace=[2.0, 81.0])
    assert outcome.checkpoint_problems(bad_lambda, bad_lambda, 2, 80.0)
    assert outcome.checkpoint_problems(good, good, 3, 80.0)
    bad_q = dict(good, qtables={"q1": {"0:0:0:0": [math.nan] + [0.0] * 5}, "q2": {}})
    assert outcome.checkpoint_problems(bad_q, bad_q, 2, 80.0)
    assert outcome.checkpoint_problems(good, dict(good, lambda_trace=[2.0, 2.6]), 2, 80.0)


def test_tracer_reports_absent_names_and_nests_spans():
    mod = types.ModuleType("rqbench_fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    sys.modules[mod.__name__] = mod
    tracer = spans.Tracer()
    try:
        tracer.install([
            ("fake.outer", mod.__name__, "outer", None),
            ("fake.inner", mod.__name__, "inner",
             lambda counters, args, result: counters.__setitem__("seen", result)),
            ("fake.gone", mod.__name__, "no_such_name", None),
            ("fake.nomodule", "no_such_module_anywhere", "f", None),
        ])
        assert mod.outer(1) == 4  # not recording: no spans
        assert tracer.spans == []
        tracer.recording = True
        assert mod.outer(1) == 4
        tracer.recording = False
        recorded, counters = tracer.take()
    finally:
        tracer.uninstall()
        del sys.modules[mod.__name__]
    assert mod.outer is outer and mod.inner is inner
    assert len(tracer.absent) == 2
    assert [s[0] for s in recorded] == ["fake.outer", "fake.inner"]
    assert recorded[1][3] == 0 and recorded[0][3] == -1
    assert counters == {"seen": 2}
    calls, own, total = spans.self_times(recorded)
    assert calls == {"fake.outer": 1, "fake.inner": 1}
    assert math.isclose(total, recorded[0][2] - recorded[0][1], rel_tol=1e-9)


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    import layers
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    print(f"{len(tests)} passed")
