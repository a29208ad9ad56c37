"""Lagrangian-constrained residual Double Q-learning over episode budgets.

Two sparse tabular Q functions are trained online: per step the reward is
the negative fraction of the cap spent, and the terminal step additionally
pays a failure penalty weighted by an adaptive multiplier.  The multiplier
chases a target success rate through an exponential moving average of
episode outcomes, frozen during a warm-up phase so the policy can find
successful trajectories before the constraint tightens.

Checkpoints carry everything needed to replay the greedy policy: both
tables, the training configuration, and everything that defines a table
row: the exact bin boundaries, n_c, the z-gap variant and k_top.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .allocation import (ACTIONS, N_ACTIONS, RLPolicy, best_action, compose, greedy_action,
                         heuristic_index)
from .benchmark import TrialSummary
from .driver import DriverConfig, StepCache, check_episode, run_episode
from .features import BinBoundaries, DiscreteState
from .instance import Instance
from .seeding import make_rng

CHECKPOINT_FORMAT_VERSION = 3


class CheckpointError(ValueError):
    """Raised when a checkpoint cannot be used under the current configuration."""


@dataclass
class QTables:
    """Twin sparse Q tables; missing states read as zeros."""

    q1: dict[tuple, list[float]] = field(default_factory=dict)
    q2: dict[tuple, list[float]] = field(default_factory=dict)

    def row(self, which: int, s: tuple) -> list[float]:
        return (self.q1 if which == 1 else self.q2).setdefault(s, [0.0] * N_ACTIONS)

    def lookup(self, which: int, s: tuple) -> list[float]:
        table = self.q1 if which == 1 else self.q2
        return table.get(s, [0.0] * N_ACTIONS)

    def copy(self) -> "QTables":
        return QTables(q1=copy.deepcopy(self.q1), q2=copy.deepcopy(self.q2))


def select_action(
    tables: QTables, s: DiscreteState, epsilon: float, rng: np.random.Generator
) -> int:
    """Epsilon-greedy over Q1+Q2 with the frugal deterministic tie-break."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must be in [0, 1]")
    if rng.random() < epsilon:
        return ACTIONS[int(rng.integers(N_ACTIONS))]
    return greedy_action(tables.q1, tables.q2, s)


def double_q_update(
    tables: QTables,
    s: DiscreteState,
    action: int,
    reward: float,
    s_next: DiscreteState | None,
    terminal: bool,
    alpha: float,
    discount: float,
    rng: np.random.Generator,
) -> None:
    """One Double Q update; a fair coin picks which table learns.

    The learning table supplies the argmax at the next state, the other
    table supplies the bootstrap value, which is what breaks the
    maximization bias of the single-estimator update.
    """
    i = 1 + int(rng.integers(2))
    j = 2 if i == 1 else 1
    a_idx = ACTIONS.index(action)
    key = s.as_tuple()
    if terminal:
        target = reward
    else:
        next_key = s_next.as_tuple()
        best = best_action(tables.lookup(i, next_key))
        target = reward + discount * tables.lookup(j, next_key)[best]
    row = tables.row(i, key)
    row[a_idx] = (1 - alpha) * row[a_idx] + alpha * target


def step_reward(k_t: int, cap: int, eta: float = 1.0) -> float:
    """Per-step cost: the fraction of the cap spent, negated and scaled."""
    if not 1 <= k_t <= cap:
        raise ValueError(f"need 1 <= k_t <= cap, got k_t={k_t}, cap={cap}")
    return -eta * k_t / cap


def terminal_penalty(sigma: int, lam: float, extra_fail_penalty: float = 0.0) -> float:
    """Failure penalty added to the final step's reward; zero on success."""
    if lam < 0:
        raise ValueError("lambda must be non-negative")
    return -(lam + extra_fail_penalty) * (1 - sigma)


@dataclass
class TrainConfig:
    """Hyperparameters for one training run; defaults are the standard preset."""

    alpha: float = 0.15
    discount: float = 0.97
    eps_start: float = 1.0
    eps_min: float = 0.02
    eps_decay: float = 0.995
    episodes: int = 1200
    lambda0: float = 2.0
    mu_lambda: float = 1.0
    lambda_max: float = 80.0
    ema_beta: float = 0.10
    warmup: int = 100
    p_star: float = 0.95
    eta: float = 1.0
    extra_fail_penalty: float = 0.0
    validation_every: int = 50
    validation_trials: int = 20

    def __post_init__(self):
        for name in ("episodes", "warmup", "validation_every", "lambda0", "lambda_max",
                     "mu_lambda", "eta", "extra_fail_penalty"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        for name in ("alpha", "discount", "eps_start", "eps_min", "eps_decay", "ema_beta", "p_star"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        if self.validation_trials < 1:
            raise ValueError(f"validation_trials must be at least 1, got {self.validation_trials}")

    @classmethod
    def preset(cls, name: str) -> "TrainConfig":
        """A named preset: "standard" (the defaults) or "aggressive", the stress
        test with stronger penalties, a shorter warm-up and more episodes."""
        if name == "standard":
            return cls()
        if name == "aggressive":
            return cls(lambda0=8.0, lambda_max=150.0, mu_lambda=2.0, warmup=50,
                       extra_fail_penalty=5.0, episodes=2400)
        raise ValueError(f"unknown preset {name!r}")


class LagrangianController:
    """Adaptive multiplier tracking a target success rate across episodes.

    The EMA of success starts at the target itself, so the multiplier only
    moves once outcomes provide evidence; it is clipped to [0, lambda_max]
    and completely frozen for the first `warmup` episodes.
    """

    def __init__(self, config: TrainConfig):
        self.config = config
        self.lam = config.lambda0
        self.p_hat = config.p_star
        self.episode_count = 0
        self.trace: list[float] = []

    def update(self, sigma: int) -> None:
        self.episode_count += 1
        if self.episode_count > self.config.warmup:
            c = self.config
            self.p_hat = (1 - c.ema_beta) * self.p_hat + c.ema_beta * sigma
            self.lam = min(max(self.lam + c.mu_lambda * (c.p_star - self.p_hat), 0.0), c.lambda_max)
        self.trace.append(self.lam)


@dataclass
class PolicyCheckpoint:
    """Self-describing snapshot of a trained policy."""

    qtables: QTables
    config: TrainConfig
    bin_boundaries: BinBoundaries
    n: int
    n_c: int
    zgap_variant: str
    k_top: int
    instance_id: str
    validation_sr: float | None = None
    validation_median_shots: float | None = None
    validation_mean_shots: float | None = None
    lambda_trace: list[float] = field(default_factory=list)
    validation_history: list[dict] = field(default_factory=list)

    def policy(self) -> RLPolicy:
        return RLPolicy(self.qtables.q1, self.qtables.q2)

    def to_dict(self) -> dict:
        """The checkpoint file: format_version, then the fields by name, Q-table keys encoded."""
        data = asdict(self)
        data["qtables"] = {
            name: {DiscreteState(*k).key(): v for k, v in sorted(table.items())}
            for name, table in data["qtables"].items()
        }
        return {"format_version": CHECKPOINT_FORMAT_VERSION, **data}

    @classmethod
    def from_dict(cls, data: dict) -> "PolicyCheckpoint":
        """Rebuild a checkpoint; a wrong version or a malformed field raises CheckpointError."""
        if not isinstance(data, dict):
            raise CheckpointError(f"malformed checkpoint: not a JSON object but {type(data).__name__}")
        if data.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            raise CheckpointError(f"unsupported checkpoint format {data.get('format_version')}: this "
                                  f"version reads format {CHECKPOINT_FORMAT_VERSION}, which records "
                                  "the zgap_variant and k_top the tables were trained under; retrain")

        def table_load(t: dict) -> dict:
            return {tuple(int(x) for x in k.split(":")): list(map(float, v)) for k, v in t.items()}

        rest = {k: v for k, v in data.items() if k != "format_version"}
        try:
            tables = rest.pop("qtables")
            return cls(
                qtables=QTables(q1=table_load(tables["q1"]), q2=table_load(tables["q2"])),
                config=TrainConfig(**rest.pop("config")),
                bin_boundaries=BinBoundaries(**rest.pop("bin_boundaries")),
                **rest,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed checkpoint: {type(exc).__name__}: {exc}") from exc

    def save(self, path: Path | str) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n")

    @classmethod
    def load(cls, path: Path | str, driver_cfg: DriverConfig | None = None) -> "PolicyCheckpoint":
        """Read a checkpoint.  Under a ``driver_cfg`` whose bins, n_c, zgap_variant or k_top
        differ from those of training, its table rows would mean other states: CheckpointError."""
        try:
            data = json.loads(Path(path).read_text())
        except ValueError as exc:  # not JSON, or not text
            raise CheckpointError(f"malformed checkpoint: {type(exc).__name__}: {exc}") from exc
        ckpt = cls.from_dict(data)
        if driver_cfg is None:
            return ckpt
        if ckpt.bin_boundaries != driver_cfg.bins:
            raise CheckpointError(
                "checkpoint was trained under different bin boundaries; "
                "its greedy policy is not valid under this configuration"
            )
        for name, role in (("n_c", "its table rows are keyed by m - n_c - 1"),
                           ("zgap_variant", "it sets the scale of zeta"),
                           ("k_top", "it sets which edges kappa counts")):
            trained, now = getattr(ckpt, name), getattr(driver_cfg, name)
            if trained != now:
                raise CheckpointError(f"checkpoint was trained under {name} = {trained}, not {now}; "
                                      f"{role}")
        return ckpt


class _TrainingPolicy:
    """Epsilon-greedy residual policy that performs online updates in place.

    Non-terminal transitions are updated the moment the next state is
    observed; the final transition of an episode is left pending so the
    trainer can add the terminal penalty once the outcome is known.
    """

    def __init__(self, tables: QTables, config: TrainConfig, cap: int):
        self.tables = tables
        self.config = config
        self.cap = cap
        self.epsilon = config.eps_start
        self.pending: tuple[DiscreteState, int, float] | None = None

    def decide(self, state, disc, cap, k_probe, rng):
        if self.pending is not None:
            ps, pa, pr = self.pending
            double_q_update(
                self.tables, ps, pa, pr, disc, False, self.config.alpha, self.config.discount, rng
            )
        action = select_action(self.tables, disc, self.epsilon, rng)
        decision = compose(heuristic_index(state), action, cap, k_probe)
        self.pending = (disc, action, step_reward(decision.shots, cap, self.config.eta))
        return decision

    def finish_episode(self, sigma: int, lam: float, rng: np.random.Generator) -> None:
        if self.pending is None:
            return
        ps, pa, pr = self.pending
        reward = pr + terminal_penalty(sigma, lam, self.config.extra_fail_penalty)
        double_q_update(
            self.tables, ps, pa, reward, None, True, self.config.alpha, self.config.discount, rng
        )
        self.pending = None


def _validate_greedy(
    inst: Instance,
    tables: QTables,
    cap: int,
    driver_cfg: DriverConfig,
    trials: int,
    master_seed: int,
    episode: int,
    cache: StepCache,
) -> dict:
    policy = RLPolicy(tables.q1, tables.q2)
    s = TrialSummary.from_results([
        run_episode(inst, policy, cap, driver_cfg,
                    make_rng(master_seed, "train-val", inst.instance_id, episode, t), cache=cache)
        for t in range(trials)
    ])
    return {"episode": episode, "sr": s.sr, "median_shots": s.median_shots, "mean_shots": s.mean_shots}


def train(
    inst: Instance,
    cap: int,
    config: TrainConfig,
    driver_cfg: DriverConfig | None = None,
    master_seed: int = 0,
) -> PolicyCheckpoint:
    """Train a residual policy on one instance at a calibrated cap.

    Follows the online loop exactly: probe, encode, epsilon-greedy residual,
    allocate, contract, immediate Q update; at episode end the classical
    solve yields the success bit, the terminal transition is updated with
    the penalty, the multiplier adapts, and epsilon decays.  The checkpoint
    returned is the validation winner: highest success rate, ties broken by
    lower median then lower mean total shots.
    """
    driver_cfg = driver_cfg or DriverConfig()
    check_episode(inst, cap, driver_cfg)

    tables = QTables()
    controller = LagrangianController(config)
    trainer = _TrainingPolicy(tables, config, cap)
    cache = StepCache()
    rng = make_rng(master_seed, "train", inst.instance_id)

    best: tuple[tuple, QTables, dict] | None = None
    history: list[dict] = []

    for episode in range(1, config.episodes + 1):
        result = run_episode(inst, trainer, cap, driver_cfg, rng, cache=cache)
        trainer.finish_episode(result.sigma, controller.lam, rng)
        controller.update(result.sigma)
        trainer.epsilon = max(config.eps_min, trainer.epsilon * config.eps_decay)

        if config.validation_every > 0 and episode % config.validation_every == 0:
            record = _validate_greedy(
                inst, tables, cap, driver_cfg, config.validation_trials, master_seed, episode, cache
            )
            history.append(record)
            # maximize SR, then minimize median and mean shots
            rank = (-record["sr"], record["median_shots"], record["mean_shots"])
            if best is None or rank < best[0]:
                best = (rank, tables.copy(), record)

    final_tables, final_record = (tables, {}) if best is None else best[1:]

    return PolicyCheckpoint(
        qtables=final_tables,
        config=config,
        bin_boundaries=driver_cfg.bins,
        n=inst.n,
        n_c=driver_cfg.n_c,
        zgap_variant=driver_cfg.zgap_variant,
        k_top=driver_cfg.k_top,
        instance_id=inst.instance_id,
        validation_sr=final_record.get("sr"),
        validation_median_shots=final_record.get("median_shots"),
        validation_mean_shots=final_record.get("mean_shots"),
        lambda_trace=list(controller.trace),
        validation_history=history,
    )
