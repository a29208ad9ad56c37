"""Which rqshot names the traced run wraps, and the per-layer metrics.

Every hook names a public function or method where its caller looks it up.
Observers read arguments and results (never the random stream) to keep the
counts that spans alone cannot give: shots drawn, sampler modes, work per
episode, and greedy decisions made in states neither Q table holds.
"""

from __future__ import annotations


def _on_draw(counters, args, result):
    counters["qaoa.draw.shots"] += args[1]


def _on_sampler(counters, args, result):
    counters["sampler." + args[0].mode] += 1


def _on_episode(counters, args, result):
    from rqshot.features import probe_shot_count

    k_probe = probe_shot_count(args[0].n)
    for s in result.steps:
        if not s.trivial:
            counters["driver.steps"] += 1
            counters["driver.shots_probe"] += k_probe
            counters["driver.shots_topup"] += s.shots - k_probe


def _on_train(counters, args, result):
    tables = result.qtables
    counters["learner.q_states"] += len(set(tables.q1) | set(tables.q2))


def _on_greedy(counters, args, result):
    q1, q2, state = args[:3]
    key = state.as_tuple()
    if key not in q1 and key not in q2:
        counters["allocation.unseen_state_decisions"] += 1


HOOKS = (
    ("benchmark.run_trials", "rqshot.benchmark", "run_trials", None),
    ("learner.train", "rqshot.learner", "train", _on_train),
    ("driver.run_episode", "rqshot.benchmark", "run_episode", _on_episode),
    ("driver.run_episode", "rqshot.learner", "run_episode", _on_episode),
    ("seeding.make_rng", "rqshot.benchmark", "make_rng", None),
    ("seeding.make_rng", "rqshot.learner", "make_rng", None),
    ("qaoa.optimize_angles", "rqshot.driver", "optimize_angles", None),
    ("qaoa.CorrelationSampler", "rqshot.qaoa:CorrelationSampler", "__init__", _on_sampler),
    ("qaoa.draw", "rqshot.qaoa:CorrelationSampler", "draw", _on_draw),
    ("qaoa.merge", "rqshot.qaoa:CorrelationSampler", "merge", None),
    ("qaoa.estimate", "rqshot.qaoa:CorrelationSampler", "estimate", None),
    ("qaoa.statevector_depth1", "rqshot.qaoa", "statevector_depth1", None),
    ("qaoa.zz_all_edges", "rqshot.qaoa", "zz_all_edges", None),
    ("features.extract_state", "rqshot.driver", "extract_state", None),
    ("features.discretize", "rqshot.driver", "discretize", None),
    ("allocation.decide", "rqshot.allocation:UniformPolicy", "decide", None),
    ("allocation.decide", "rqshot.allocation:HeuristicPolicy", "decide", None),
    ("allocation.decide", "rqshot.allocation:RLPolicy", "decide", None),
    ("allocation.decide", "rqshot.learner:_TrainingPolicy", "decide", None),
    ("allocation.greedy_action", "rqshot.allocation", "greedy_action", _on_greedy),
    ("allocation.greedy_action", "rqshot.learner", "greedy_action", _on_greedy),
    ("learner.select_action", "rqshot.learner", "select_action", None),
    ("learner.double_q_update", "rqshot.learner", "double_q_update", None),
    ("driver.select_edge", "rqshot.driver", "select_edge", None),
    ("instance.contract", "rqshot.driver", "contract", None),
    ("instance.brute_force_optimum", "rqshot.driver", "brute_force_optimum", None),
    ("instance.brute_force_optimum", "rqshot.instance", "brute_force_optimum", None),
)

# (metric, unit, better).  Timed-phase metrics are per round; set-up ones per
# set-up pass.  Calls and shots are exact counts.
PER_LAYER = (
    ("qaoa.estimate.calls", "count", "lower"),
    ("qaoa.estimate.self_s", "s", "lower"),
    ("qaoa.draw.calls", "count", "lower"),
    ("qaoa.draw.self_s", "s", "lower"),
    ("qaoa.draw.shots", "count", "lower"),
    ("qaoa.merge.calls", "count", "lower"),
    ("qaoa.merge.self_s", "s", "lower"),
    ("qaoa.optimize_angles.calls", "count", "lower"),
    ("qaoa.optimize_angles.self_s", "s", "lower"),
    ("driver.angle_cache_lookups", "count", "lower"),
    ("driver.angle_cache_hit_ratio", "ratio", "higher"),
    ("qaoa.statevector_depth1.calls", "count", "lower"),
    ("qaoa.statevector_depth1.self_s", "s", "lower"),
    ("driver.state_cache_lookups", "count", "lower"),
    ("driver.state_cache_hit_ratio", "ratio", "higher"),
    ("qaoa.zz_all_edges.calls", "count", "lower"),
    ("qaoa.zz_all_edges.self_s", "s", "lower"),
    ("qaoa.CorrelationSampler.self_s", "s", "lower"),
    ("features.extract_state.self_s", "s", "lower"),
    ("features.discretize.self_s", "s", "lower"),
    ("allocation.decide.calls", "count", "lower"),
    ("allocation.decide.self_s", "s", "lower"),
    ("allocation.greedy_action.calls", "count", "lower"),
    ("allocation.greedy_action.self_s", "s", "lower"),
    ("allocation.unseen_state_decisions", "count", "lower"),
    ("driver.select_edge.self_s", "s", "lower"),
    ("driver.run_episode.calls", "count", "higher"),
    ("driver.run_episode.self_s", "s", "lower"),
    ("instance.contract.self_s", "s", "lower"),
    ("instance.brute_force_optimum.calls", "count", "lower"),
    ("instance.brute_force_optimum.self_s", "s", "lower"),
    ("benchmark.run_trials.self_s", "s", "lower"),
    ("seeding.make_rng.self_s", "s", "lower"),
    ("learner.train.self_s", "s", "lower"),
    ("learner.select_action.self_s", "s", "lower"),
    ("learner.double_q_update.calls", "count", "lower"),
    ("learner.double_q_update.self_s", "s", "lower"),
    ("learner.q_states", "count", "higher"),
    ("driver.steps", "count", "lower"),
    ("driver.shots_probe", "count", "lower"),
    ("driver.shots_topup", "count", "lower"),
    ("setup.instance.brute_force_optimum.calls", "count", "lower"),
    ("setup.instance.brute_force_optimum.self_s", "s", "lower"),
    ("setup.qaoa.optimize_angles.calls", "count", "lower"),
    ("setup.qaoa.optimize_angles.self_s", "s", "lower"),
    ("setup.qaoa.statevector_depth1.calls", "count", "lower"),
    ("setup.qaoa.statevector_depth1.self_s", "s", "lower"),
    ("setup.traced_s", "s", "lower"),
    ("trace.rounds", "count", "higher"),
    ("trace.round_s", "s", "lower"),
    ("trace.hooked_share", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.absent_layers", "count", "lower"),
)

_SETUP_LAYERS = (
    "instance.brute_force_optimum", "qaoa.optimize_angles", "qaoa.statevector_depth1",
)


def _ratio(hits: float, base: float) -> float:
    return hits / base if base else 0.0


def layer_metrics(calls, own, counters, rounds: int, setup_calls, setup_own) -> dict:
    """Per-round layer figures from a traced timed phase and one traced set-up."""
    out: dict[str, float] = {}
    for name, unit, _ in PER_LAYER:
        if name.startswith(("setup.", "trace.", "driver.angle", "driver.state")):
            continue
        if name.endswith(".calls"):
            out[name] = calls.get(name[: -len(".calls")], 0) / rounds
        elif name.endswith(".self_s"):
            out[name] = own.get(name[: -len(".self_s")], 0.0) / rounds
        else:
            out[name] = counters.get(name, 0) / rounds
    samplers = sum(v for k, v in counters.items() if k.startswith("sampler."))
    statevector = counters.get("sampler.statevector_sampled", 0)
    out["driver.angle_cache_lookups"] = samplers / rounds
    out["driver.angle_cache_hit_ratio"] = _ratio(
        samplers - calls.get("qaoa.optimize_angles", 0), samplers)
    out["driver.state_cache_lookups"] = statevector / rounds
    out["driver.state_cache_hit_ratio"] = _ratio(
        statevector - calls.get("qaoa.statevector_depth1", 0), statevector)
    for layer in _SETUP_LAYERS:
        out[f"setup.{layer}.calls"] = setup_calls.get(layer, 0)
        out[f"setup.{layer}.self_s"] = setup_own.get(layer, 0.0)
    return out
