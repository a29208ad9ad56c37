"""Benchmark harness: screening, cap calibration, evaluation, and metrics.

The fairness protocol fixes one per-instance cap, calibrated so the uniform
baseline meets a success-rate target, and evaluates every policy under that
same cap.  Reported metrics per policy: success rate, median / mean / P90
total shots, effective shots per success (median successful shots divided
by SR), shot reduction versus uniform, and the restart cost mean/SR.

Trials are embarrassingly parallel; each derives its own random stream from
(master seed, instance, policy, trial index), so results are identical
whatever the worker count.
"""

from __future__ import annotations

import csv
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .allocation import HeuristicPolicy, UniformPolicy
from .driver import DriverConfig, EpisodeResult, StepCache, run_episode
from .instance import Instance
from .seeding import make_rng

CAP_GRID: tuple[int, ...] = (64, 128, 256, 512, 1024, 2048, 4096)
HARD_RATIO_THRESHOLD = 0.95
SCREEN_CAP = 1024
OPERATIONAL_SR_FLOOR = 0.90


def make_policy(name: str, checkpoint=None):
    """Build a policy object from its name; 'rl' needs a checkpoint."""
    if name == "uniform":
        return UniformPolicy()
    if name == "heuristic":
        return HeuristicPolicy()
    if name == "rl":
        if checkpoint is None:
            raise ValueError("rl policy needs a checkpoint")
        return checkpoint.policy()
    raise ValueError(f"unknown policy {name!r}")


def _trial_chunk(payload) -> list[EpisodeResult]:
    inst_data, policy, cap, cfg, seed_parts, indices = payload
    inst = Instance.from_dict(inst_data)
    cache = StepCache()
    return [
        run_episode(inst, policy, cap, cfg, make_rng(*seed_parts, t), cache=cache)
        for t in indices
    ]


def run_trials(
    inst: Instance,
    policy,
    cap: int,
    n_trials: int,
    cfg: DriverConfig,
    seed_parts: tuple,
    cache: StepCache | None = None,
    jobs: int = 1,
) -> list[EpisodeResult]:
    """N independent episodes with per-trial derived streams, optionally parallel.

    Workers run contiguous chunks of trial indices and return their
    EpisodeResults whole, so the parallel list equals the serial one.
    """
    if jobs <= 1:
        cache = cache if cache is not None else StepCache()
        return [
            run_episode(inst, policy, cap, cfg, make_rng(*seed_parts, t), cache=cache)
            for t in range(n_trials)
        ]
    chunks = [c.tolist() for c in np.array_split(np.arange(n_trials), jobs) if len(c)]
    payloads = [(inst.to_dict(), policy, cap, cfg, seed_parts, chunk) for chunk in chunks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return [r for part in pool.map(_trial_chunk, payloads) for r in part]


@dataclass
class TrialSummary:
    """Distribution statistics over one policy's trials."""

    n_trials: int
    sr: float
    median_shots: float
    mean_shots: float
    p90_shots: float
    median_success_shots: float | None
    esp: float | None
    restart_cost: float | None

    @classmethod
    def from_results(cls, results: list[EpisodeResult]) -> "TrialSummary":
        shots = [r.total_shots for r in results]
        successes = [r.total_shots for r in results if r.sigma == 1]
        sr = len(successes) / len(results)
        med_succ = statistics.median(successes) if successes else None
        return cls(
            n_trials=len(results),
            sr=sr,
            median_shots=statistics.median(shots),
            mean_shots=statistics.fmean(shots),
            p90_shots=float(np.percentile(shots, 90)),
            median_success_shots=med_succ,
            esp=None if sr == 0 else med_succ / sr,
            restart_cost=None if sr == 0 else statistics.fmean(shots) / sr,
        )


@dataclass
class EvaluationRecord:
    """One policy-instance row under the shared calibrated cap."""

    instance_id: str
    category: str
    n: int
    d: int
    policy: str
    cap: int
    summary: TrialSummary
    uniform_sr: float
    reduction: float | None = None
    esp_ratio: float | None = None

    def to_row(self) -> dict:
        s = self.summary
        return {
            "instance_id": self.instance_id,
            "category": self.category,
            "n": self.n,
            "d": self.d,
            "policy": self.policy,
            "cap": self.cap,
            "sr": s.sr,
            "median_shots": s.median_shots,
            "mean_shots": s.mean_shots,
            "p90_shots": s.p90_shots,
            "esp": s.esp,
            "esp_ratio": self.esp_ratio,
            "reduction": self.reduction,
            "restart_cost": s.restart_cost,
            "uniform_sr": self.uniform_sr,
        }

    @classmethod
    def from_row(cls, row: dict) -> "EvaluationRecord":
        summary = TrialSummary(
            n_trials=0,
            sr=float(row["sr"]),
            median_shots=float(row["median_shots"]),
            mean_shots=float(row["mean_shots"]),
            p90_shots=float(row["p90_shots"]),
            median_success_shots=None,
            esp=None if row["esp"] in (None, "") else float(row["esp"]),
            restart_cost=None if row["restart_cost"] in (None, "") else float(row["restart_cost"]),
        )
        return cls(
            instance_id=row["instance_id"],
            category=row["category"],
            n=int(row["n"]),
            d=int(row["d"]),
            policy=row["policy"],
            cap=int(row["cap"]),
            summary=summary,
            uniform_sr=float(row["uniform_sr"]),
            reduction=None if row["reduction"] in (None, "") else float(row["reduction"]),
            esp_ratio=None if row["esp_ratio"] in (None, "") else float(row["esp_ratio"]),
        )


def is_hard(mean_ratio: float, threshold: float = HARD_RATIO_THRESHOLD) -> bool:
    """Hard means the uniform approximation ratio is at most the threshold."""
    return mean_ratio <= threshold


def hard_screen(
    inst: Instance,
    cfg: DriverConfig,
    n_trials: int = 60,
    cap: int = SCREEN_CAP,
    master_seed: int = 0,
    threshold: float = HARD_RATIO_THRESHOLD,
    jobs: int = 1,
) -> tuple[str, float]:
    """Classify an instance by its mean uniform approximation ratio."""
    results = run_trials(
        inst, UniformPolicy(), cap, n_trials, cfg,
        (master_seed, "screen", inst.instance_id, cap), jobs=jobs,
    )
    mean_ratio = statistics.fmean(r.approx_ratio for r in results)
    return ("hard" if is_hard(mean_ratio, threshold) else "easy"), mean_ratio


@dataclass
class CalibrationResult:
    cap: int
    budget_limited: bool
    sr_at_cap: float
    probes: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "cap": self.cap,
            "budget_limited": self.budget_limited,
            "sr_at_cap": self.sr_at_cap,
            "probes": self.probes,
        }


def calibrate_cap(
    inst: Instance,
    cfg: DriverConfig,
    n_cal: int = 60,
    target: float = 0.95,
    grid: tuple[int, ...] = CAP_GRID,
    resolution: int = 16,
    master_seed: int = 0,
    cal_tag: str | int = "calibrate",
    jobs: int = 1,
) -> CalibrationResult:
    """Two-stage search for the smallest cap where uniform meets the target.

    Stage 1 scans the power-of-two grid upward; stage 2 binary-searches the
    bracket below the first passing grid point at 16-shot resolution.  Every
    probe point uses a fresh batch of trials to avoid adaptive-stopping
    bias.  If even the top of the grid fails, that cap is returned flagged
    as budget-limited.
    """
    cache = StepCache()
    probes: list[dict] = []

    def sr_at(cap: int) -> float:
        results = run_trials(
            inst, UniformPolicy(), cap, n_cal, cfg,
            (master_seed, cal_tag, inst.instance_id, cap), cache=cache, jobs=jobs,
        )
        sr = sum(r.sigma for r in results) / n_cal
        probes.append({"cap": cap, "sr": sr})
        return sr

    found = None
    found_sr = 0.0
    for i, cap in enumerate(grid):
        sr = sr_at(cap)
        if sr >= target:
            found, found_sr = i, sr
            break
    if found is None:
        return CalibrationResult(cap=grid[-1], budget_limited=True,
                                 sr_at_cap=probes[-1]["sr"], probes=probes)
    if found == 0:
        return CalibrationResult(cap=grid[0], budget_limited=False,
                                 sr_at_cap=found_sr, probes=probes)

    lo, hi = grid[found - 1], grid[found]
    hi_sr = found_sr
    while hi - lo > resolution:
        mid = ((lo + hi) // 2) // resolution * resolution
        if mid <= lo or mid >= hi:
            break
        sr = sr_at(mid)
        if sr >= target:
            hi, hi_sr = mid, sr
        else:
            lo = mid
    return CalibrationResult(cap=hi, budget_limited=False, sr_at_cap=hi_sr, probes=probes)


def evaluate_methods(
    inst: Instance,
    policies: dict[str, object],
    cap: int,
    cfg: DriverConfig,
    n_trials: int = 60,
    master_seed: int = 0,
    jobs: int = 1,
) -> tuple[list[EvaluationRecord], dict[str, list[EpisodeResult]]]:
    """Evaluate named policies on one instance under its shared cap.

    A uniform reference is always evaluated (reusing the caller's entry if
    present) so reductions and ESP ratios are well defined.
    """
    all_policies = dict(policies)
    if "uniform" not in all_policies:
        all_policies = {"uniform": UniformPolicy(), **all_policies}

    cache = StepCache()
    trials: dict[str, list[EpisodeResult]] = {}
    for name, policy in all_policies.items():
        trials[name] = run_trials(
            inst, policy, cap, n_trials, cfg,
            (master_seed, "eval", inst.instance_id, name), cache=cache, jobs=jobs,
        )
    summaries = {name: TrialSummary.from_results(r) for name, r in trials.items()}
    uni = summaries["uniform"]

    records = []
    for name in all_policies:
        s = summaries[name]
        records.append(
            EvaluationRecord(
                instance_id=inst.instance_id,
                category=inst.category,
                n=inst.n,
                d=inst.d,
                policy=name,
                cap=cap,
                summary=s,
                uniform_sr=uni.sr,
                reduction=None if uni.median_shots == 0 else 1 - s.median_shots / uni.median_shots,
                esp_ratio=None if (s.esp is None or uni.esp in (None, 0)) else s.esp / uni.esp,
            )
        )
    return records, trials


def operational_filter(
    records: list[EvaluationRecord], floor: float = OPERATIONAL_SR_FLOOR
) -> tuple[list[EvaluationRecord], list[EvaluationRecord]]:
    """Split records into the operational subset and the excluded remainder."""
    kept = [r for r in records if r.uniform_sr >= floor]
    dropped = [r for r in records if r.uniform_sr < floor]
    return kept, dropped


def sr_floor_coverage(
    matched_srs: list[tuple[float, float]], thresholds: list[float]
) -> list[dict]:
    """Coverage counts: how many matched pairs reach SR >= tau per policy."""
    rows = []
    for tau in thresholds:
        a = sum(1 for sa, _ in matched_srs if sa >= tau)
        b = sum(1 for _, sb in matched_srs if sb >= tau)
        rows.append({"tau": tau, "first": a, "second": b, "delta": a - b})
    return rows


def aggregate(records: list[EvaluationRecord], group_by: str = "policy") -> list[dict]:
    """Mean reduction / ESP ratio / SR per group; ESP means skip undefined pairs."""
    keys = {
        "policy": lambda r: r.policy,
        "category": lambda r: (r.policy, r.category),
        "size": lambda r: (r.policy, r.n),
    }
    if group_by not in keys:
        raise ValueError(f"unknown grouping {group_by!r}")
    key_fn = keys[group_by]
    groups: dict = {}
    for r in records:
        groups.setdefault(key_fn(r), []).append(r)

    rows = []
    for key in sorted(groups, key=str):
        rs = groups[key]
        reductions = [r.reduction for r in rs if r.reduction is not None]
        ratios = [r.esp_ratio for r in rs if r.esp_ratio is not None]
        row = {
            "group": key if isinstance(key, str) else "/".join(str(k) for k in key),
            "pairs": len(rs),
            "mean_sr": statistics.fmean(r.summary.sr for r in rs),
            "mean_reduction": statistics.fmean(reductions) if reductions else None,
            "mean_esp_ratio": statistics.fmean(ratios) if ratios else None,
        }
        rows.append(row)
    return rows


CSV_COLUMNS = [
    "instance_id", "category", "n", "d", "policy", "cap", "sr",
    "median_shots", "mean_shots", "p90_shots", "esp", "esp_ratio",
    "reduction", "restart_cost", "uniform_sr",
]


def write_records_csv(records: list[EvaluationRecord], path: Path | str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for r in records:
            writer.writerow({k: _csv_cell(v) for k, v in r.to_row().items()})


def read_records_csv(path: Path | str) -> list[EvaluationRecord]:
    with open(path, newline="") as fh:
        return [EvaluationRecord.from_row(row) for row in csv.DictReader(fh)]


def write_rows_csv(rows: list[dict], path: Path | str) -> None:
    if not rows:
        Path(path).write_text("")
        return
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _csv_cell(v) for k, v in row.items()})


def _csv_cell(v):
    return "" if v is None else v
