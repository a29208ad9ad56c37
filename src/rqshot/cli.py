"""Command-line workflow: gen -> screen -> calibrate -> train -> eval -> report.

Every command is idempotent (outputs are overwritten, never appended), and
every stochastic step derives its streams from the master seed, so a whole
pipeline rerun with the same config reproduces its result files byte for
byte.  With --jobs N, screen, calibrate and eval run up to N instances at
once in one process pool, each instance whole in one worker, so every output
equals the serial run's.  Exit codes: 0 success, 1 usage error,
2 validation/oracle failure, 3 missing upstream artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import benchmark as bm
from .allocation import RLPolicy
from .config import RunConfig, load_config
from .driver import check_episode
from .instance import (
    BRUTE_FORCE_MAX_NODES,
    Instance,
    brute_force_optimum,
    check_regular,
    cut_value,
    generate_instance,
)
from .learner import CheckpointError, PolicyCheckpoint, TrainConfig, train
from .qaoa import (
    Angles,
    CorrelationSampler,
    _EdgeTerms,
    optimize_angles,
    statevector_depth1,
    zz_all_edges,
)
from .seeding import make_rng

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_MISSING = 3

# the commands that run episodes: they draw their streams from the master seed and read jobs
EPISODE_COMMANDS = ("screen", "calibrate", "train", "eval")
# oracle-check enumerates 2^n x E spin products per case, so its sizes stop here
ORACLE_MAX_QUBITS = 16


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _instance_paths(spec: str) -> list[Path]:
    p = Path(spec)
    if p.is_dir():
        if paths := sorted(q for q in p.glob("*.json") if not q.name.endswith(".cap.json")):
            return paths
        raise ValueError(f"no instance file in directory {spec}")
    if p.exists():
        return [p]
    raise FileNotFoundError(f"no instance file or directory at {spec}")


def _map_instances(jobs: int, fn, *columns: list) -> list:
    """fn over the columns' rows in order; with jobs > 1 and two or more rows, in one process pool."""
    if jobs < 2 or len(columns[0]) < 2:
        return list(map(fn, *columns))
    from concurrent.futures import ProcessPoolExecutor  # a serial run starts no multiprocessing

    with ProcessPoolExecutor(max_workers=min(jobs, len(columns[0]))) as pool:
        return list(pool.map(fn, *columns))


def cmd_gen(args, cfg: RunConfig) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    if args.n > BRUTE_FORCE_MAX_NODES:
        raise ValueError(f"exact optima are limited to {BRUTE_FORCE_MAX_NODES} nodes, got -n {args.n}")
    check_regular(args.n, args.d)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i in range(args.count):
        inst = generate_instance(args.n, args.d, args.gen_seed + i)
        inst.category = args.category
        inst.save(out / f"{inst.instance_id}.json")
        print(f"wrote {inst.instance_id}: {inst.graph.edge_count} edges, e_opt={inst.e_opt:.6f}")
    return EXIT_OK


def cmd_screen(args, cfg: RunConfig) -> int:
    paths = _instance_paths(args.instances)
    instances = [Instance.load(path) for path in paths]
    for inst in instances:  # every instance is checked before any is relabelled
        check_episode(inst, cfg.protocol.screen_cap, cfg.driver)
    screen = partial(bm.hard_screen, cfg=cfg.driver, protocol=cfg.protocol,
                     master_seed=cfg.master_seed)
    for path, inst, (label, mean_ratio) in zip(paths, instances,
                                               _map_instances(cfg.jobs, screen, instances)):
        inst.category = label
        inst.save(path)
        print(f"{inst.instance_id}: mean uniform ratio {mean_ratio:.4f} -> {label}")
    return EXIT_OK


def cmd_calibrate(args, cfg: RunConfig) -> int:
    paths = _instance_paths(args.instance)
    if args.out and len(paths) > 1:
        raise ValueError(f"--out names one calibration file, but {args.instance} holds "
                         f"{len(paths)} instances; omit it to write each beside its instance")
    instances = [Instance.load(path) for path in paths]
    for inst in instances:  # every instance is checked before any is calibrated
        check_episode(inst, cfg.protocol.cap_grid[0], cfg.driver)
    calibrate = partial(bm.calibrate_cap, cfg=cfg.driver, protocol=cfg.protocol,
                        master_seed=cfg.master_seed)
    for path, inst, result in zip(paths, instances, _map_instances(cfg.jobs, calibrate, instances)):
        out = Path(args.out) if args.out else path.with_suffix(".cap.json")
        _write_json(out, {"instance_id": inst.instance_id, **asdict(result)})
        flag = " (budget-limited)" if result.budget_limited else ""
        print(f"{inst.instance_id}: cap {result.cap}{flag}, SR at cap {result.sr_at_cap:.3f}")
    return EXIT_OK


def _resolve_cap(arg: str | None, inst: Instance, caps_dir: str | None) -> int:
    """A cap from --cap (a number or a calibration file) or from --caps-dir, not both."""
    if arg is not None and caps_dir is not None:
        raise ValueError("--cap and --caps-dir both give the cap; pass one of them")
    if arg is not None:
        path = Path(arg)
        if not path.exists():
            try:
                return int(arg)
            except ValueError:
                raise FileNotFoundError(f"--cap {arg}: no such calibration file") from None
    elif caps_dir is not None:
        path = Path(caps_dir) / f"{inst.instance_id}.cap.json"
        if not path.exists():
            raise FileNotFoundError(f"no calibration file for {inst.instance_id} in {caps_dir}")
    else:
        raise FileNotFoundError("no cap given: pass --cap or --caps-dir")
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError) as exc:  # a directory, no permission, not UTF-8 or not JSON
        raise ValueError(f"unreadable calibration file {path}: {exc}") from None
    cap = data.get("cap") if isinstance(data, dict) else None
    if type(cap) is not int:  # a bool is an int subclass, and a float is truncated by int()
        raise ValueError(f"calibration file {path} must be a JSON object whose cap is an integer")
    return cap


def cmd_train(args, cfg: RunConfig) -> int:
    if cfg.jobs > 1:
        raise ValueError("train runs serially (one random stream, one Q table); set jobs to 1")
    tcfg = cfg.train if args.preset is None else TrainConfig.preset(args.preset)
    if args.episodes is not None:
        tcfg = replace(tcfg, episodes=args.episodes)
    inst = Instance.load(args.instance)
    cap = _resolve_cap(args.cap, inst, args.caps_dir)
    ckpt = train(inst, cap, tcfg, cfg.driver, master_seed=cfg.master_seed)
    ckpt.save(args.out)
    sr = "n/a" if ckpt.validation_sr is None else f"{ckpt.validation_sr:.3f}"
    print(
        f"trained {inst.instance_id} at cap {cap} ({tcfg.episodes} episodes): "
        f"best validation SR {sr}, final lambda "
        f"{ckpt.lambda_trace[-1] if ckpt.lambda_trace else tcfg.lambda0:.3f}"
    )
    return EXIT_OK


def cmd_eval(args, cfg: RunConfig) -> int:
    names = [name.strip() for name in args.policies.split(",")]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:  # policies are keyed by name, so a repeat would run once
        raise ValueError(f"--policies names {', '.join(repeated)} more than once")
    if args.checkpoint and "rl" not in names:
        raise ValueError("--checkpoint is read by the rl policy only, and --policies does not name it")
    policies: dict[str, object] = {}
    for name in names:
        if name == "rl":
            if not args.checkpoint:
                raise FileNotFoundError("rl policy requested but no --checkpoint given")
            policies[name] = RLPolicy(PolicyCheckpoint.load(args.checkpoint, cfg.driver).qtables)
        else:
            policies[name] = bm.make_policy(name)

    # every instance and its cap are checked before anything is written
    instances = [Instance.load(path) for path in _instance_paths(args.instances)]
    caps = [_resolve_cap(args.cap, inst, args.caps_dir) for inst in instances]
    for inst, cap in zip(instances, caps):
        check_episode(inst, cap, cfg.driver)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    all_records: list[bm.EvaluationRecord] = []
    trial_lines: list[str] = []
    step_lines: list[str] = []
    evaluate = partial(bm.evaluate_methods, cfg=cfg.driver, protocol=cfg.protocol,
                       master_seed=cfg.master_seed)
    runs = _map_instances(cfg.jobs, evaluate, instances, [policies] * len(instances), caps)
    for inst, cap, (records, trials) in zip(instances, caps, runs):
        all_records.extend(records)
        for policy_name, results in trials.items():
            for t, r in enumerate(results):
                head = {"instance_id": inst.instance_id, "policy": policy_name, "trial": t,
                        "cap": cap}
                trial_lines.append(json.dumps({**head, **r.to_dict()}, sort_keys=True))
                if args.log_steps:
                    for s in r.steps:
                        step_lines.append(json.dumps({**head, **s.to_dict()}, sort_keys=True))
                    step_lines.append(json.dumps({**head, "summary": r.to_dict()}, sort_keys=True))
        print(f"evaluated {inst.instance_id} at cap {cap} over {cfg.protocol.eval_trials} trials")

    bm.write_records_csv(all_records, out / "records.csv")
    (out / "trials.jsonl").write_text("\n".join(trial_lines) + ("\n" if trial_lines else ""))
    if args.log_steps:
        (out / "steps.jsonl").write_text("\n".join(step_lines) + ("\n" if step_lines else ""))
    print(f"wrote {out / 'records.csv'} ({len(all_records)} rows)")
    return EXIT_OK


def cmd_report(args, cfg: RunConfig) -> int:
    records: list[bm.EvaluationRecord] = []
    src = Path(args.records)
    if src.is_dir():
        for f in sorted(src.glob("**/records.csv")):
            records.extend(bm.read_records_csv(f))
    elif src.exists():
        records.extend(bm.read_records_csv(src))
    else:
        raise FileNotFoundError(f"no records at {src}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    operational = bm.operational_filter(records, cfg.protocol.operational_floor)
    held = [r for r in operational if r.category not in ("training", "validation")]

    views = {
        "complete": records,
        "operational": operational,
        "held_out_operational": held,
    }
    lines = ["shot-allocation benchmark report", "=" * 34, ""]
    for name, rows in views.items():
        lines.append(f"[{name}] {len(rows)} policy-instance rows")
        for agg in bm.aggregate(rows, "policy"):
            red = "n/a" if agg["mean_reduction"] is None else f"{agg['mean_reduction']:.1%}"
            esp = "n/a" if agg["mean_esp_ratio"] is None else f"{agg['mean_esp_ratio']:.3f}"
            lines.append(
                f"  {agg['group']:<10} pairs={agg['pairs']:<4} mean SR={agg['mean_sr']:.3f} "
                f"reduction={red} ESP ratio={esp}"
            )
        lines.append("")

    bm.write_rows_csv(bm.aggregate(operational, "policy"), out / "aggregate_by_policy.csv")
    bm.write_rows_csv(bm.aggregate(operational, "category"), out / "aggregate_by_category.csv")
    bm.write_rows_csv(bm.aggregate(operational, "size"), out / "aggregate_by_size.csv")
    bm.write_records_csv(operational, out / "operational_records.csv")
    bm.write_records_csv(records, out / "complete_records.csv")

    # metric-robustness view: pairwise reductions under four summary metrics
    uniform_rows = {r.instance_id: r for r in operational if r.policy == "uniform"}
    method_names = sorted({r.policy for r in operational} - {"uniform"})
    if method_names and uniform_rows:
        lines.append("metric robustness (mean pairwise reduction vs uniform)")
        for name in method_names:
            rows = [r for r in operational if r.policy == name and r.instance_id in uniform_rows]
            by_metric = {"median": [], "mean": [], "p90": [], "restart": []}
            for r in rows:
                u = uniform_rows[r.instance_id]
                if u.median_shots:
                    by_metric["median"].append(1 - r.median_shots / u.median_shots)
                if u.mean_shots:
                    by_metric["mean"].append(1 - r.mean_shots / u.mean_shots)
                if u.p90_shots:
                    by_metric["p90"].append(1 - r.p90_shots / u.p90_shots)
                if r.restart_cost is not None and u.restart_cost:
                    by_metric["restart"].append(1 - r.restart_cost / u.restart_cost)
            cells = "  ".join(
                f"{metric}={np.mean(vals):.1%}" if vals else f"{metric}=n/a"
                for metric, vals in by_metric.items()
            )
            lines.append(f"  {name:<10} {cells}")
        lines.append("")

    # SR-floor coverage for each non-uniform policy pair on matched instances
    names = sorted({r.policy for r in records} - {"uniform"})
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            sr_a = {r.instance_id: r.sr for r in operational if r.policy == a}
            sr_b = {r.instance_id: r.sr for r in operational if r.policy == b}
            matched = sorted(set(sr_a) & set(sr_b))
            if not matched:
                continue
            pairs = [(sr_a[k], sr_b[k]) for k in matched]
            rows = bm.sr_floor_coverage(pairs, [0.90, 0.92, 0.94, 0.95])
            lines.append(f"SR-floor coverage ({a} vs {b}, {len(pairs)} matched instances)")
            for row in rows:
                lines.append(
                    f"  tau={row['tau']:.2f}  {a}={row['first']}/{len(pairs)} "
                    f"{b}={row['second']}/{len(pairs)}  delta={row['delta']:+d}"
                )
            lines.append("")

    summary = "\n".join(lines) + "\n"
    (out / "summary.txt").write_text(summary)
    print(summary, end="")
    return EXIT_OK


def _statevector_zz(g, a: Angles) -> np.ndarray:
    """<Z_u Z_v> of every edge in edge_list() order, read off the simulated state.

    The flipped half of the state has the same products, so the half's sum
    is doubled.
    """
    probs = np.abs(statevector_depth1(g, a)) ** 2
    ends, _ = g.edge_index()
    idx = np.arange(probs.size)
    z = 1 - 2 * ((idx[:, None] >> np.arange(g.node_count)) & 1)
    return 2 * probs @ (z[:, ends[:, 0]] * z[:, ends[:, 1]])


def _grid_minimum(g) -> float:
    """Lowest closed-form energy on the 48 x 24 (gamma, beta) grid."""
    terms = _EdgeTerms(g)
    av, bv = terms.ab(np.linspace(0.0, 2 * np.pi, 48, endpoint=False))
    betas = np.linspace(0.0, np.pi, 24, endpoint=False)
    surface = np.outer(av @ terms.j, np.sin(4 * betas)) + np.outer(bv @ terms.j, np.sin(2 * betas) ** 2)
    return float(surface.min())


def _enumerated_max_cut(g) -> float:
    """The largest cut over every +-1 assignment of all the graph's spins, no pinning."""
    n = g.node_count
    ends, j = g.edge_index()
    z = 1 - 2 * ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1)
    return float((((1 - z[:, ends[:, 0]] * z[:, ends[:, 1]]) / 2) @ j).max())


def cmd_oracle_check(args, cfg: RunConfig) -> int:
    """Closed form vs statevector, angle search vs the grid, brute force vs enumeration.

    The angle search passes when the energy of its angles, computed from the
    statevector, is no higher than the best point of the 48 x 24 grid.  The
    brute-force optimum passes when it is within 1e-9 of a direct evaluation
    of every assignment and the cut of its assignment, summed by cut_value,
    equals it exactly.  An estimator sanity check follows.  Nonzero exit on
    any failure.
    """
    if args.cases < 1:
        raise ValueError(f"--cases must be at least 1, got {args.cases}")
    if not 2 <= args.n_max <= ORACLE_MAX_QUBITS:
        raise ValueError(f"--n-max must be 2 to {ORACLE_MAX_QUBITS}, got {args.n_max}")
    rng = make_rng(args.check_seed, "oracle")
    worst = 0.0
    worst_angles = -np.inf
    worst_opt = 0.0
    assignments_exact = True
    for _ in range(args.cases):
        n = int(rng.integers(2, args.n_max + 1))
        degrees = [d for d in range(1, n) if (n * d) % 2 == 0]
        d = degrees[int(rng.integers(len(degrees)))]
        inst = generate_instance(n, d, int(rng.integers(0, 2**31)), compute_opt=False)
        g = inst.graph
        if g.edge_count == 0:
            continue
        a = Angles(gamma=float(rng.uniform(0, 2 * np.pi)), beta=float(rng.uniform(0, np.pi)))
        worst = max(worst, float(np.max(np.abs(_statevector_zz(g, a) - zz_all_edges(g, a)))))
        energy = float(_statevector_zz(g, optimize_angles(g)) @ g.edge_index()[1])
        worst_angles = max(worst_angles, energy - _grid_minimum(g))
        e_opt, z = brute_force_optimum(g)
        worst_opt = max(worst_opt, abs(e_opt - _enumerated_max_cut(g)))
        assignments_exact = assignments_exact and cut_value(g, z) == e_opt
    print(f"closed form vs statevector: max |delta| = {worst:.3e} over {args.cases} cases")
    print(f"angle search energy minus 48x24 grid minimum: max {worst_angles:.3e}")
    print(f"brute force vs enumeration: max |delta| = {worst_opt:.3e}; "
          f"cut of the returned assignment equals e_opt: {'yes' if assignments_exact else 'NO'}")
    failed = worst > 1e-9 or worst_angles > 1e-12 or worst_opt > 1e-9 or not assignments_exact

    # estimator sanity: unbiasedness of the sampled mean at k=256
    inst = generate_instance(6, 3, seed=7, compute_opt=False)
    a = optimize_angles(inst.graph)
    sampler = CorrelationSampler(inst.graph, a, mode="statevector_sampled")
    exact = sampler.exact_values()
    edge = int(np.argmax(np.abs(exact)))
    reps, k = 2000, 256
    est_rng = make_rng(args.check_seed, "oracle-estimator")
    means = [sampler.estimate(sampler.draw(k, est_rng))[edge] for _ in range(reps)]
    m = exact[edge]
    se = np.sqrt((1 - m**2) / k / reps)
    bias = abs(np.mean(means) - m)
    print(f"estimator bias at k={k}: {bias:.5f} (4-sigma band {4 * se:.5f})")
    failed = failed or bias > 4 * se

    if failed:
        print("ORACLE CHECK FAILED")
        return EXIT_VALIDATION
    print("oracle check passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rqshot",
        description="Adaptive shot allocation for depth-1 recursive QAOA on weighted Max-Cut.",
    )
    parser.add_argument("--config", help="INI config file (defaults reproduce the reference protocol)")
    parser.add_argument(
        "--seed", type=int, help="override the master seed of screen, calibrate, train and eval"
    )
    parser.add_argument("--jobs", type=int, help="instances at once in screen, calibrate and eval")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate regular Gaussian instances with exact optima")
    p.add_argument("-n", type=int, required=True, help="node count")
    p.add_argument("-d", type=int, required=True, help="degree")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0, dest="gen_seed", help="seed of the first instance")
    p.add_argument("--category", default="unscreened")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("screen", help="annotate instances as hard/easy under uniform allocation")
    p.add_argument("--instances", required=True)
    p.set_defaults(func=cmd_screen)

    p = sub.add_parser("calibrate", help="two-stage uniform cap calibration")
    p.add_argument("--instance", required=True, help="an instance file or a directory of them")
    p.add_argument("--out", help="the calibration file of a single instance")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("train", help="train the residual Double Q policy on one instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--cap", help="cap value or calibration JSON path")
    p.add_argument("--caps-dir", help="directory of <instance_id>.cap.json files")
    p.add_argument(
        "--preset", choices=("standard", "aggressive"),
        help="start from this preset instead of the config's [train] section",
    )
    p.add_argument("--episodes", type=int, help="override the episode count")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate policies on instances under calibrated caps")
    p.add_argument("--instances", required=True)
    p.add_argument("--policies", default="uniform,heuristic")
    p.add_argument("--checkpoint")
    p.add_argument("--cap", help="cap value or calibration JSON applied to every instance")
    p.add_argument("--caps-dir")
    p.add_argument("--log-steps", action="store_true", help="also write per-step logs")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="aggregate evaluation records into CSV tables")
    p.add_argument("--records", required=True, help="records.csv or a directory of them")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "oracle-check", help="validate the closed form, angle search and brute force against references"
    )
    p.add_argument("--n-max", type=int, default=12, dest="n_max")
    p.add_argument("--cases", type=int, default=200)
    p.add_argument("--seed", type=int, default=0, dest="check_seed")
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE

    try:
        cfg = load_config(args.config)
        for flag in ("seed", "jobs"):
            if getattr(args, flag) is not None and args.command not in EPISODE_COMMANDS:
                raise ValueError(f"{args.command} runs no episodes; the global --{flag} does not apply")
        overrides = {"master_seed": args.seed, "jobs": args.jobs}
        cfg = replace(cfg, **{name: value for name, value in overrides.items() if value is not None})
        return args.func(args, cfg)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
