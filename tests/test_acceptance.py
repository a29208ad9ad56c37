"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The two desk-scale reproduction criteria train and evaluate real policies on
hard instances.  Hard instances are screened at reference cap 128: at the
sizes used here (n <= 16, dense d-regular), instances that still fail with a
1024-shot budget fail because their exact-correlation elimination path is
wrong, and no budget can rescue them; 128 isolates the noise-fragile but
solvable population that per-step budgeting is about.  The candidate seeds
below were found by that screen offline; every property claimed for them
(hardness, calibration) is re-verified here from scratch.
"""

import itertools
import statistics

import numpy as np
import pytest

from rqshot import benchmark as bm
from rqshot.allocation import ACTIONS, HeuristicPolicy, RLPolicy, UniformPolicy
from rqshot.driver import DriverConfig, StepCache, run_episode
from rqshot.features import BinBoundaries, DiscreteState, StepState, discretize
from rqshot.instance import (
    ContractionRecord,
    contract,
    generate_instance,
    reconstruct_assignment,
    reweighted_instance,
)
from rqshot.learner import (
    LagrangianController,
    QTables,
    TrainConfig,
    double_q_update,
    train,
)
from rqshot.qaoa import (
    MODE_BINOMIAL,
    MODE_STATEVECTOR,
    Angles,
    CorrelationSampler,
    _sample_indices,
    optimize_angles,
    statevector_depth1,
    zz_all_edges,
)
from rqshot.seeding import make_rng

from .conftest import ising_energy, random_weighted_graph

# the reference protocol, screened at cap 128
PROTOCOL = bm.ProtocolConfig(screen_cap=128)
POOL_MASTER_SEED = 7  # screening/calibration streams for the curated pools

# hard, calibratable (n, d, seed) candidates inside n in [12,16], d in [6,10];
# criterion 9 re-screens and re-calibrates each and keeps the first ten hard ones
HARD_POOL_CANDIDATES: list[tuple[int, int, int]] = [
    (12, 8, 49166),
    (14, 8, 8232),
    (13, 10, 34185),
    (16, 8, 45368),
    (12, 8, 6544),
    (13, 8, 36928),
    (14, 8, 847),
    (12, 10, 33130),
    (14, 10, 9498),
    (13, 8, 31653),
    (15, 8, 33341),
    (15, 10, 23213),
    (14, 8, 51909),
]

# the criterion-10 training base: hard n=14, d=8
TRAIN_BASE = (14, 8, 847)
TRAIN_MASTER_SEED = 77
EVAL_MASTER_SEED = 9090

# screened-easy, quickly calibrating instances for criterion 8
EASY_POOL = [(12, 6, 38), (10, 4, 3), (12, 6, 112)]


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def dcfg():
    return DriverConfig()


@pytest.fixture(scope="module")
def trained(dcfg):
    """Criterion 10/11 training run, shared: standard preset, 1200 episodes."""
    n, d, seed = TRAIN_BASE
    inst = generate_instance(n, d, seed=seed)
    label, _ = bm.hard_screen(inst, dcfg, PROTOCOL, master_seed=POOL_MASTER_SEED)
    assert label == "hard", "criterion 10 training base must screen hard"
    cal = bm.calibrate_cap(inst, dcfg, PROTOCOL, master_seed=POOL_MASTER_SEED)
    assert not cal.budget_limited
    ckpt = train(inst, cal.cap, TrainConfig(), dcfg, master_seed=TRAIN_MASTER_SEED)
    return inst, cal.cap, ckpt


def test_c01_oracle_equivalence(rng):
    worst = 0.0
    cases = 0
    while cases < 200:
        n = int(rng.integers(2, 13))
        g = random_weighted_graph(n, 0.5, rng)
        if g.edge_count == 0:
            continue
        cases += 1
        a = Angles(float(rng.uniform(0, 2 * np.pi)), float(rng.uniform(0, np.pi)))
        # the half with the top qubit at 0; its flip has the same ZZ products
        probs = 2 * np.abs(statevector_depth1(g, a)) ** 2
        idx = np.arange(probs.size)
        pos = {u: q for q, u in enumerate(g.nodes)}
        closed = zz_all_edges(g, a)
        for (u, v), cf in zip(g.edge_list(), closed):
            z = 1 - 2 * (((idx >> pos[u]) ^ (idx >> pos[v])) & 1)
            worst = max(worst, abs(float(probs @ z) - cf))
    report(1, "oracle-equivalence", worst <= 1e-9, f"max |delta| {worst:.2e} over 200 cases")


def test_c02_estimator_statistics():
    g = generate_instance(6, 3, seed=2, compute_opt=False).graph
    a = optimize_angles(g)
    reps = 10_000
    failures = []
    for mode in (MODE_STATEVECTOR, MODE_BINOMIAL):
        sampler = CorrelationSampler(g, a, mode=mode)
        exact = sampler.exact_values()
        edge = int(np.argmin(np.abs(np.abs(exact) - 0.5)))
        m = exact[edge]
        cu, cv = g.edge_index()[0][edge]
        for k in (16, 64, 256, 1024):
            rng = make_rng(2, "acceptance-estimator", mode, k)
            if mode == MODE_STATEVECTOR:
                idx = _sample_indices(sampler.cumulative_probs(), reps * k, rng)
                zz = (1 - 2 * (((idx >> cu) ^ (idx >> cv)) & 1)).reshape(reps, k)
                draws = zz.mean(axis=1)
            else:
                p = (1.0 + m) / 2.0
                draws = 2.0 * rng.binomial(k, p, size=reps) / k - 1.0
            var_theory = (1 - m * m) / k
            bias = abs(draws.mean() - m)
            var_err = abs(draws.var() - var_theory)
            if bias > 4 * np.sqrt(var_theory / reps):
                failures.append(f"{mode} k={k} bias {bias:.2e}")
            if var_err > 0.2 * var_theory:
                failures.append(f"{mode} k={k} var off {var_err / var_theory:.1%}")
    report(2, "estimator-statistics", not failures,
           "; ".join(failures) if failures else "8 mode/k combos within bands")


def test_c02b_estimator_matches_production_sampler():
    # the vectorized draws above mirror the sampler; spot-check the real path
    g = generate_instance(6, 3, seed=2, compute_opt=False).graph
    a = optimize_angles(g)
    for mode in (MODE_STATEVECTOR, MODE_BINOMIAL):
        sampler = CorrelationSampler(g, a, mode=mode)
        exact = sampler.exact_values()
        edge = int(np.argmin(np.abs(np.abs(exact) - 0.5)))
        m = exact[edge]
        rng = make_rng(3, "acceptance-estimator-spot", mode)
        reps, k = 2000, 64
        draws = np.array([sampler.estimate(sampler.draw(k, rng))[edge] for _ in range(reps)])
        var_theory = (1 - m * m) / k
        assert abs(draws.mean() - m) < 4 * np.sqrt(var_theory / reps)
        assert abs(draws.var() - var_theory) < 0.2 * var_theory


def test_c03_contraction_identity(rng):
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 13))
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
        worst = max(worst, abs(ising_energy(g, full) - (offset + ising_energy(red, residual))))
    report(3, "contraction-identity", worst <= 1e-10, f"max |delta| {worst:.2e} over 100 graphs")


def test_c04_exact_mode_determinism(dcfg):
    from dataclasses import replace

    inst = generate_instance(12, 6, seed=1)
    cfg = replace(dcfg, sampling_mode="exact")
    cache = StepCache()
    results = [
        run_episode(inst, HeuristicPolicy(), 256, cfg, np.random.default_rng(s), cache=cache)
        for s in range(10)
    ]
    outs = {r.e_out for r in results}
    shots = {r.total_shots for r in results}
    ok = len(outs) == 1 and len(shots) == 1
    report(4, "exact-mode-determinism", ok, f"E_out values {sorted(outs)} over 10 seeds")


def test_c05_double_q_convergence():
    # toy 2-state MDP with a value-iteration oracle
    actions = (0, 1)
    reward = {(0, 0): 1.0, (0, 1): 0.0, (1, 0): 2.0, (1, 1): 3.0}
    step_to = {(s, a): a for s in (0, 1) for a in actions}
    gamma = 0.9
    q_star = {k: 0.0 for k in reward}
    for _ in range(2000):
        q_star = {
            (s, a): reward[(s, a)] + gamma * max(q_star[(step_to[(s, a)], b)] for b in actions)
            for (s, a) in q_star
        }
    states = {0: DiscreteState(0, 0, 0, 0), 1: DiscreteState(1, 0, 0, 0)}
    act_of = {0: ACTIONS[0], 1: ACTIONS[1]}
    tables = QTables()
    rng = np.random.default_rng(12)
    s = 0
    for _ in range(100_000):
        a = int(rng.integers(2))
        double_q_update(tables, states[s], act_of[a], reward[(s, a)], states[step_to[(s, a)]],
                        False, 0.2, gamma, rng)
        s = step_to[(s, a)]
    worst = max(
        abs(table[states[s].as_tuple()][ACTIONS.index(act_of[a])] - q)
        for (s, a), q in q_star.items()
        for table in (tables.q1, tables.q2)
    )

    # noisy bandit: the double estimator's max must not exceed the single one's
    reps, steps, alpha = 50, 2000, 0.15
    brng = np.random.default_rng(77)
    single_max, double_max = [], []
    s0 = DiscreteState(0, 0, 0, 0)
    for _ in range(reps):
        q_single = [0.0] * 6
        t = QTables()
        for _ in range(steps):
            a = int(brng.integers(6))
            r = float(brng.standard_normal())
            q_single[a] = (1 - alpha) * q_single[a] + alpha * r
            double_q_update(t, s0, ACTIONS[a], r, None, True, alpha, 1.0, brng)
        single_max.append(max(q_single))
        q1, q2 = t.q1[s0.as_tuple()], t.q2[s0.as_tuple()]
        best = max(range(6), key=lambda i: q1[i] + q2[i])
        double_max.append((q1[best] + q2[best]) / 2)
    diff = np.array(single_max) - np.array(double_max)
    gap_sigmas = diff.mean() / (diff.std(ddof=1) / np.sqrt(reps))
    ok = worst <= 1e-3 and gap_sigmas > 3
    report(5, "double-q-convergence", ok,
           f"VI gap {worst:.2e}, overestimation gap {gap_sigmas:.1f} sigma")


def test_c06_lagrangian_mechanics():
    checks = []
    # warm-up freeze under failures
    ctrl = LagrangianController(TrainConfig())
    for _ in range(100):
        ctrl.update(0)
    checks.append(ctrl.lam == 2.0 and ctrl.p_hat == 0.95)
    ctrl.update(0)
    checks.append(ctrl.lam > 2.0)
    # exact arithmetic of the multiplier step
    ctrl = LagrangianController(TrainConfig(warmup=0))
    ctrl.p_hat = 17 / 18
    ctrl.update(0)
    checks.append(abs(ctrl.p_hat - 0.85) < 1e-12 and abs(ctrl.lam - 2.1) < 1e-12)
    # clip bounds both ways
    ctrl = LagrangianController(TrainConfig(warmup=0, lambda0=0.5))
    for _ in range(500):
        ctrl.update(1)
    checks.append(ctrl.lam == 0.0)
    ctrl = LagrangianController(TrainConfig(warmup=0, lambda0=80.0))
    for _ in range(50):
        ctrl.update(0)
    checks.append(ctrl.lam == 80.0)
    report(6, "lagrangian-mechanics", all(checks),
           f"{sum(checks)}/5 scripted stream checks exact")


def test_c07_heuristic_equivalence():
    rl = RLPolicy(QTables())
    heuristic = HeuristicPolicy()
    bins = BinBoundaries()
    n, n_c, cap, k_probe = 14, 8, 1000, 16
    zeta_reps = [0.5, 1.1, 1.4, 1.8, 2.5, 3.5, 4.5]
    kappa_reps = [0.05, 0.15, 0.25, 0.35, 0.6]
    dist_reps = [0, 1, 2, 3, 9]
    mismatches = 0
    total = 0
    for m, zeta, kappa, dist in itertools.product(
        range(n_c + 1, n + 1), zeta_reps, kappa_reps, dist_reps
    ):
        s = StepState(m=m, zeta=zeta, kappa=kappa, dist=dist)
        disc = discretize(s, n, n_c, bins)
        total += 1
        if rl.decide(s, disc, cap, k_probe) != heuristic.decide(s, disc, cap, k_probe):
            mismatches += 1
    report(7, "heuristic-equivalence", mismatches == 0,
           f"{total - mismatches}/{total} discrete states identical")


def test_c08_cap_calibration(dcfg):
    successes = 0
    total = 0
    for n, d, seed in EASY_POOL:
        inst = generate_instance(n, d, seed=seed)
        label, _ = bm.hard_screen(inst, dcfg, PROTOCOL, master_seed=POOL_MASTER_SEED)
        assert label == "easy", f"criterion 8 wants easy instances, {inst.instance_id} is not"
        for rep in range(20):
            total += 1
            cal = bm.calibrate_cap(inst, dcfg, PROTOCOL, master_seed=POOL_MASTER_SEED,
                                   cal_tag=f"c8-rep{rep}")
            fresh = bm.run_trials(inst, UniformPolicy(), cal.cap, 60, dcfg,
                                  (POOL_MASTER_SEED, "c8-fresh", inst.instance_id, rep))
            if sum(r.sigma for r in fresh) / 60 >= 0.95:
                successes += 1
    ok = successes >= 0.90 * total
    report(8, "cap-calibration", ok, f"{successes}/{total} repeated calibrations held at SR>=0.95")


@pytest.fixture(scope="module")
def hard_pool(dcfg):
    """Re-verify candidates and keep the first ten hard+calibratable ones."""
    pool = []
    for n, d, seed in HARD_POOL_CANDIDATES:
        if len(pool) == 10:
            break
        inst = generate_instance(n, d, seed=seed)
        label, _ = bm.hard_screen(inst, dcfg, PROTOCOL, master_seed=POOL_MASTER_SEED)
        if label != "hard":
            continue
        cal = bm.calibrate_cap(inst, dcfg, PROTOCOL, master_seed=POOL_MASTER_SEED)
        if cal.budget_limited:
            continue
        pool.append((inst, cal.cap))
    assert len(pool) == 10, f"only {len(pool)} hard calibratable instances available"
    return pool


def test_c09_heuristic_desk_scale(dcfg, hard_pool):
    reductions, srs = [], []
    for inst, cap in hard_pool:
        records, _ = bm.evaluate_methods(
            inst, {"heuristic": HeuristicPolicy()}, cap, dcfg, PROTOCOL,
            master_seed=EVAL_MASTER_SEED,
        )
        heu = next(r for r in records if r.policy == "heuristic")
        reductions.append(heu.reduction)
        srs.append(heu.sr)
    mean_red = statistics.fmean(reductions)
    mean_sr = statistics.fmean(srs)
    ok = mean_red >= 0.10 and mean_sr >= 0.85
    report(9, "heuristic-desk-scale", ok,
           f"mean reduction {mean_red:.1%}, mean SR {mean_sr:.3f} over 10 hard instances")


def test_c10_rl_desk_scale(dcfg, trained):
    inst, cap, ckpt = trained
    policies = {"heuristic": HeuristicPolicy(), "rl": RLPolicy(ckpt.qtables)}
    records, _ = bm.evaluate_methods(inst, policies, cap, dcfg, PROTOCOL,
                                     master_seed=EVAL_MASTER_SEED)
    rl = next(r for r in records if r.policy == "rl")
    base_ok = rl.reduction >= 0.15 and rl.sr >= 0.85

    wins = 0
    for i in range(5):
        var = reweighted_instance(inst, seed=i)
        cal = bm.calibrate_cap(var, dcfg, PROTOCOL, master_seed=POOL_MASTER_SEED)
        recs, _ = bm.evaluate_methods(var, policies, cal.cap, dcfg, PROTOCOL,
                                      master_seed=EVAL_MASTER_SEED + i)
        heu_v = next(r for r in recs if r.policy == "heuristic")
        rl_v = next(r for r in recs if r.policy == "rl")
        if rl_v.reduction >= heu_v.reduction:
            wins += 1
    ok = base_ok and wins >= 3
    report(10, "rl-desk-scale", ok,
           f"train instance: reduction {rl.reduction:.1%} SR {rl.sr:.3f}; "
           f"variant wins {wins}/5")


def test_c11_lambda_trace(trained):
    _, _, ckpt = trained
    trace = ckpt.lambda_trace
    warmup = ckpt.config.warmup
    window = trace[warmup : warmup + 400]
    ema = []
    v = window[0]
    for x in window:
        v = 0.95 * v + 0.05 * x
        ema.append(v)
    slope = float(np.polyfit(np.arange(len(ema)), ema, 1)[0])
    ok = ema[-1] >= ema[0] and slope >= 0 and 0.0 <= trace[-1] <= 80.0
    report(11, "lambda-trace", ok,
           f"EMA {ema[0]:.2f}->{ema[-1]:.2f}, slope {slope:.2e}, final lambda {trace[-1]:.2f}")


def test_c12_metric_arithmetic():
    checks = []
    # shot reduction: medians 640 vs 1000
    checks.append(abs((1 - 640 / 1000) - 0.36) < 1e-12)
    # effective shots per success
    summary = bm.TrialSummary.from_results([
        _episode(1000, 1), _episode(1000, 0), _episode(1000, 1), _episode(1000, 0),
    ])
    checks.append(summary.esp == 2000.0)
    # restart cost: mean shots / SR
    summary = bm.TrialSummary.from_results([_episode(100, 1), _episode(300, 0)])
    checks.append(summary.restart_cost == 400.0)
    # P90 ordering
    summary = bm.TrialSummary.from_results([_episode(s, 1) for s in range(100, 1100, 100)])
    checks.append(summary.p90_shots >= summary.median_shots >= 0)
    # SR-floor coverage counting fixture: 13/22 vs 5/22 at tau=0.95
    pairs = [(0.97, 0.96)] * 5 + [(0.96, 0.85)] * 8 + [(0.80, 0.70)] * 9
    rows = bm.sr_floor_coverage(pairs, [0.95])
    checks.append(rows[0]["first"] == 13 and rows[0]["second"] == 5 and rows[0]["delta"] == 8)
    # uniform self-comparison
    inst = generate_instance(10, 4, seed=3)
    records, _ = bm.evaluate_methods(inst, {}, 64, DriverConfig(), bm.ProtocolConfig(eval_trials=10),
                                     master_seed=1)
    uni = records[0]
    checks.append(uni.reduction == 0.0 and uni.esp_ratio == 1.0)
    report(12, "metric-arithmetic", all(checks),
           f"{sum(checks)}/6 hand-computed fixtures exact")


def _episode(shots, sigma):
    from rqshot.driver import EpisodeResult

    return EpisodeResult(steps=[], total_shots=shots, e_out=1.0, e_opt=1.0,
                         sigma=sigma, approx_ratio=1.0)
