"""Benchmark harness: screening, cap calibration, evaluation, and metrics.

The fairness protocol fixes one per-instance cap, calibrated so the uniform
baseline meets a success-rate target, and evaluates every policy under that
same cap.  Reported metrics per policy: success rate, median / mean / P90
total shots, effective shots per success (median successful shots divided
by SR), shot reduction versus uniform, and the restart cost mean/SR.

The harness is serial: each call runs one instance's trials in order over
one StepCache, and each trial derives its own random stream from (master
seed, tag, instance, cap or policy, trial index).  Instances share nothing,
so a caller may run several at once; the CLI does, one instance per worker.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .allocation import HeuristicPolicy, UniformPolicy
from .driver import DriverConfig, EpisodeResult, StepCache, run_episode
from .instance import Instance
from .seeding import make_rng


@dataclass(frozen=True)
class ProtocolConfig:
    """The fixed-cap protocol's knobs, the INI section [benchmark].

    The defaults are the reference protocol.  Screening runs screen_trials
    uniform episodes at screen_cap and calls an instance hard when their mean
    approximation ratio is at most hard_threshold.  Calibration probes
    cal_trials fresh uniform episodes per cap, up cap_grid and then bisecting
    at cal_resolution shots, for the smallest cap reaching cal_target.
    Evaluation runs eval_trials episodes per policy.  The operational subset
    of a report keeps the instances whose uniform SR is at least
    operational_floor.
    """

    screen_trials: int = 60
    screen_cap: int = 1024
    hard_threshold: float = 0.95
    cal_trials: int = 60
    cal_target: float = 0.95
    cal_resolution: int = 16
    cap_grid: tuple[int, ...] = (64, 128, 256, 512, 1024, 2048, 4096)
    eval_trials: int = 60
    operational_floor: float = 0.90

    def __post_init__(self):
        for name in ("screen_trials", "screen_cap", "cal_trials", "cal_resolution", "eval_trials"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        for name in ("hard_threshold", "cal_target", "operational_floor"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        grid = self.cap_grid
        if not grid or grid[0] < 1 or any(a >= b for a, b in zip(grid, grid[1:])):
            raise ValueError(f"cap_grid must be positive and strictly increasing, got {grid}")


def make_policy(name: str):
    """A checkpoint-free policy by name: uniform or heuristic."""
    if name == "uniform":
        return UniformPolicy()
    if name == "heuristic":
        return HeuristicPolicy()
    raise ValueError(f"unknown policy {name!r}")


def run_trials(
    inst: Instance,
    policy,
    cap: int,
    n_trials: int,
    cfg: DriverConfig,
    seed_parts: tuple,
    cache: StepCache | None = None,
) -> list[EpisodeResult]:
    """N independent episodes over one cache, trial t on the stream (*seed_parts, t)."""
    cache = cache if cache is not None else StepCache()
    return [
        run_episode(inst, policy, cap, cfg, make_rng(*seed_parts, t), cache=cache)
        for t in range(n_trials)
    ]


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
    """One policy-instance row under the shared calibrated cap.

    The fields are the records.csv columns, in order.  The metrics are the
    policy's TrialSummary; reduction and esp_ratio compare it with the
    uniform reference run under the same cap, whose SR is uniform_sr.
    """

    instance_id: str
    category: str
    n: int
    d: int
    policy: str
    cap: int
    sr: float
    median_shots: float
    mean_shots: float
    p90_shots: float
    esp: float | None
    esp_ratio: float | None
    reduction: float | None
    restart_cost: float | None
    uniform_sr: float

    @classmethod
    def from_row(cls, row: dict) -> "EvaluationRecord":
        """Parse a records.csv row by each field's declared type; an empty optional cell is None."""
        return cls(**{f.name: _parse_cell(f.type, row[f.name]) for f in fields(cls)})


def _parse_cell(type_name: str, raw: str | None):
    if raw in ("", None) and type_name.endswith(" | None"):
        return None
    return {"str": str, "int": int, "float": float}[type_name.removesuffix(" | None")](raw)


def hard_screen(
    inst: Instance,
    cfg: DriverConfig,
    protocol: ProtocolConfig,
    master_seed: int,
) -> tuple[str, float]:
    """Classify an instance by its mean uniform approximation ratio.

    Hard means the ratio is at most the protocol's hard_threshold.
    """
    cap = protocol.screen_cap
    results = run_trials(
        inst, UniformPolicy(), cap, protocol.screen_trials, cfg,
        (master_seed, "screen", inst.instance_id, cap),
    )
    mean_ratio = statistics.fmean(r.approx_ratio for r in results)
    return ("hard" if mean_ratio <= protocol.hard_threshold else "easy"), mean_ratio


@dataclass
class CalibrationResult:
    cap: int
    budget_limited: bool
    sr_at_cap: float
    probes: list[dict] = field(default_factory=list)


def calibrate_cap(
    inst: Instance,
    cfg: DriverConfig,
    protocol: ProtocolConfig,
    master_seed: int,
    cal_tag: str | int = "calibrate",
) -> CalibrationResult:
    """Two-stage search for the smallest cap where uniform meets the target.

    Stage 1 scans the cap grid upward; stage 2 binary-searches the bracket
    below the first passing grid point at the protocol's resolution.  Every
    probe point uses a fresh batch of trials to avoid adaptive-stopping
    bias.  If even the top of the grid fails, that cap is returned flagged
    as budget-limited.
    """
    n_cal, target, grid = protocol.cal_trials, protocol.cal_target, protocol.cap_grid
    resolution = protocol.cal_resolution
    cache = StepCache()
    probes: list[dict] = []

    def sr_at(cap: int) -> float:
        results = run_trials(
            inst, UniformPolicy(), cap, n_cal, cfg,
            (master_seed, cal_tag, inst.instance_id, cap), cache=cache,
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
    protocol: ProtocolConfig,
    master_seed: int,
) -> tuple[list[EvaluationRecord], dict[str, list[EpisodeResult]]]:
    """Evaluate named policies on one instance under its shared cap.

    Each policy runs the protocol's eval_trials episodes.

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
            inst, policy, cap, protocol.eval_trials, cfg,
            (master_seed, "eval", inst.instance_id, name), cache=cache,
        )
    summaries = {name: TrialSummary.from_results(r) for name, r in trials.items()}
    uni = summaries["uniform"]

    records = [
        EvaluationRecord(
            instance_id=inst.instance_id, category=inst.category, n=inst.n, d=inst.d,
            policy=name, cap=cap, sr=s.sr, median_shots=s.median_shots,
            mean_shots=s.mean_shots, p90_shots=s.p90_shots, esp=s.esp,
            esp_ratio=None if (s.esp is None or uni.esp in (None, 0)) else s.esp / uni.esp,
            reduction=None if uni.median_shots == 0 else 1 - s.median_shots / uni.median_shots,
            restart_cost=s.restart_cost, uniform_sr=uni.sr,
        )
        for name, s in summaries.items()
    ]
    return records, trials


def operational_filter(records: list[EvaluationRecord], floor: float) -> list[EvaluationRecord]:
    """The operational subset: the records whose uniform SR is at least floor."""
    return [r for r in records if r.uniform_sr >= floor]


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
            "mean_sr": statistics.fmean(r.sr for r in rs),
            "mean_reduction": statistics.fmean(reductions) if reductions else None,
            "mean_esp_ratio": statistics.fmean(ratios) if ratios else None,
        }
        rows.append(row)
    return rows


def write_records_csv(records: list[EvaluationRecord], path: Path | str) -> None:
    _write_csv(path, [f.name for f in fields(EvaluationRecord)], map(asdict, records))


def read_records_csv(path: Path | str) -> list[EvaluationRecord]:
    with open(path, newline="") as fh:
        return [EvaluationRecord.from_row(row) for row in csv.DictReader(fh)]


def write_rows_csv(rows: list[dict], path: Path | str) -> None:
    """A header from the first row's keys, then the rows; no rows give an empty file."""
    if not rows:
        Path(path).write_text("")
        return
    _write_csv(path, list(rows[0]), rows)


def _write_csv(path: Path | str, columns: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: "" if v is None else v for k, v in row.items()})
