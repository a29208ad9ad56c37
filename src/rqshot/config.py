"""Run configuration: one plain-text INI file covering every knob.

Every hyperparameter has a default equal to the standard experimental
setting, so running with no config file reproduces the reference protocol.
Sections: [run], [sampling], [bins], [train], [benchmark].
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

from .benchmark import CAP_GRID, HARD_RATIO_THRESHOLD, OPERATIONAL_SR_FLOOR, SCREEN_CAP
from .driver import DriverConfig
from .features import BinBoundaries
from .learner import TrainConfig
from .qaoa import MODE_AUTO, STATEVECTOR_MAX_QUBITS, STATEVECTOR_SAMPLING_THRESHOLD


@dataclass
class RunConfig:
    """Everything a command needs beyond its own flags."""

    master_seed: int = 12345
    n_c: int = 8
    rho_star: float = 0.99
    sampling_mode: str = MODE_AUTO
    sv_threshold: int = STATEVECTOR_SAMPLING_THRESHOLD
    sv_max_qubits: int = STATEVECTOR_MAX_QUBITS
    zgap_variant: str = "literal"
    k_top: int = 3
    bins: BinBoundaries = field(default_factory=BinBoundaries)
    train: TrainConfig = field(default_factory=TrainConfig)
    screen_trials: int = 60
    screen_cap: int = SCREEN_CAP
    hard_threshold: float = HARD_RATIO_THRESHOLD
    cal_trials: int = 60
    cal_target: float = 0.95
    cal_resolution: int = 16
    cap_grid: tuple[int, ...] = CAP_GRID
    eval_trials: int = 60
    operational_floor: float = OPERATIONAL_SR_FLOOR
    jobs: int = 1

    def driver_config(self) -> DriverConfig:
        return DriverConfig(
            n_c=self.n_c,
            rho_star=self.rho_star,
            sampling_mode=self.sampling_mode,
            sv_threshold=self.sv_threshold,
            sv_max_qubits=self.sv_max_qubits,
            zgap_variant=self.zgap_variant,
            k_top=self.k_top,
            bins=self.bins,
        )


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(x) for x in raw.replace(",", " ").split())


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(x) for x in raw.replace(",", " ").split())


def load_config(path: Path | str | None = None) -> RunConfig:
    """Parse an INI config; missing file or keys fall back to defaults."""
    cfg = RunConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")

    if parser.has_section("run"):
        run = parser["run"]
        cfg.master_seed = run.getint("master_seed", cfg.master_seed)
        cfg.n_c = run.getint("n_c", cfg.n_c)
        cfg.rho_star = run.getfloat("rho_star", cfg.rho_star)
        cfg.jobs = run.getint("jobs", cfg.jobs)
    if parser.has_section("sampling"):
        s = parser["sampling"]
        cfg.sampling_mode = s.get("mode", cfg.sampling_mode)
        cfg.sv_threshold = s.getint("sv_threshold", cfg.sv_threshold)
        cfg.sv_max_qubits = s.getint("sv_max_qubits", cfg.sv_max_qubits)
        cfg.zgap_variant = s.get("zgap_variant", cfg.zgap_variant)
        cfg.k_top = s.getint("k_top", cfg.k_top)
    if parser.has_section("bins"):
        b = parser["bins"]
        cfg.bins = BinBoundaries(
            zeta_edges=_floats(b.get("zeta_edges", "1.0 1.2 1.6 2.0 3.0 4.0")),
            kappa_edges=_floats(b.get("kappa_edges", "0.10 0.20 0.30 0.40")),
            dist_bins=b.getint("dist_bins", 5),
        )
    if parser.has_section("train"):
        t = parser["train"]
        base = TrainConfig.preset(t.get("preset", "standard"))
        for key in base.__dict__:
            if key in t:
                current = getattr(base, key)
                if isinstance(current, int):
                    setattr(base, key, t.getint(key))
                else:
                    setattr(base, key, t.getfloat(key))
        cfg.train = base
    if parser.has_section("benchmark"):
        b = parser["benchmark"]
        cfg.screen_trials = b.getint("screen_trials", cfg.screen_trials)
        cfg.screen_cap = b.getint("screen_cap", cfg.screen_cap)
        cfg.hard_threshold = b.getfloat("hard_threshold", cfg.hard_threshold)
        cfg.cal_trials = b.getint("cal_trials", cfg.cal_trials)
        cfg.cal_target = b.getfloat("cal_target", cfg.cal_target)
        cfg.cal_resolution = b.getint("cal_resolution", cfg.cal_resolution)
        if "cap_grid" in b:
            cfg.cap_grid = _ints(b["cap_grid"])
        cfg.eval_trials = b.getint("eval_trials", cfg.eval_trials)
        cfg.operational_floor = b.getfloat("operational_floor", cfg.operational_floor)
    return cfg
