"""Run configuration: one plain-text INI file covering every knob.

Every hyperparameter has a default equal to the standard experimental
setting, so running with no config file reproduces the reference protocol.
Sections: [run], [sampling], [bins], [train], [benchmark].
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .benchmark import CAP_GRID, HARD_RATIO_THRESHOLD, OPERATIONAL_SR_FLOOR, SCREEN_CAP
from .driver import DriverConfig
from .features import BinBoundaries
from .learner import TrainConfig
from .qaoa import MODE_AUTO, STATEVECTOR_SAMPLING_THRESHOLD


@dataclass
class RunConfig:
    """Everything a command needs beyond its own flags."""

    master_seed: int = 12345
    n_c: int = 8
    rho_star: float = 0.99
    sampling_mode: str = MODE_AUTO
    sv_threshold: int = STATEVECTOR_SAMPLING_THRESHOLD
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
            zgap_variant=self.zgap_variant,
            k_top=self.k_top,
            bins=self.bins,
        )


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(x) for x in raw.replace(",", " ").split())


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(x) for x in raw.replace(",", " ").split())


_PARSE = {"int": int, "float": float, "str": str, "tuple[int, ...]": _ints, "tuple[float, ...]": _floats}

# INI section -> the RunConfig fields it sets; [bins] and [train] set every field of
# BinBoundaries and TrainConfig, [sampling] calls sampling_mode "mode", and [train]
# also takes "preset", the TrainConfig the section starts from.
_RUN_SECTIONS = {
    "run": ("master_seed", "n_c", "rho_star", "jobs"),
    "sampling": ("sampling_mode", "sv_threshold", "zgap_variant", "k_top"),
    "benchmark": ("screen_trials", "screen_cap", "hard_threshold", "cal_trials", "cal_target",
                  "cal_resolution", "cap_grid", "eval_trials", "operational_floor"),
}


def _keys(cls, names=None) -> dict:
    """INI key -> (field name, parser by the field's type) for fields of cls."""
    return {("mode" if f.name == "sampling_mode" else f.name): (f.name, _PARSE[f.type])
            for f in fields(cls) if names is None or f.name in names}


_SECTIONS = {name: _keys(RunConfig, names) for name, names in _RUN_SECTIONS.items()} | {
    "bins": _keys(BinBoundaries), "train": {"preset": ("preset", str), **_keys(TrainConfig)}}


def load_config(path: Path | str | None = None) -> RunConfig:
    """Parse an INI config; missing file or keys fall back to defaults.

    A malformed file (a repeated key, no section header) or an unknown
    section or key raises ValueError, so a typo cannot quietly run the
    reference protocol.
    """
    cfg = RunConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser()
    try:
        found = parser.read(path)
        sections = {name: dict(parser[name]) for name in parser.sections()}
    except configparser.Error as exc:
        raise ValueError(f"malformed config file {path}: {exc}") from None
    if not found:
        raise FileNotFoundError(f"config file not found: {path}")
    if parser.defaults():
        raise ValueError(f"unknown config section [{parser.default_section}]")
    values: dict[str, dict] = {}
    for section, items in sections.items():
        if section not in _SECTIONS:
            raise ValueError(f"unknown config section [{section}]")
        for key, raw in items.items():
            if key not in _SECTIONS[section]:
                raise ValueError(f"unknown key {key!r} in config section [{section}]")
            name, parse = _SECTIONS[section][key]
            values.setdefault(section, {})[name] = parse(raw)
    if "train" in values:
        train = values.pop("train")
        cfg.train = replace(TrainConfig.preset(train.pop("preset", "standard")), **train)
    if "bins" in values:
        cfg.bins = replace(cfg.bins, **values.pop("bins"))
    for section in values.values():
        cfg = replace(cfg, **section)
    return cfg
