"""Run configuration: one plain-text INI file covering every knob.

Each section sets fields of the dataclasses a command reads, and its keys
are those fields' names, parsed by their declared types:

  [run]        master_seed, jobs (RunConfig); n_c, rho_star (DriverConfig)
  [sampling]   mode (DriverConfig.sampling_mode), sv_threshold, zgap_variant, k_top
  [bins]       BinBoundaries, the binning of DriverConfig.bins
  [train]      TrainConfig, starting from the one its "preset" key names
  [benchmark]  ProtocolConfig

Every field defaults to the reference setting, so running with no config
file reproduces the reference protocol.  The dataclasses check their own
ranges when built, so a bad value is rejected at load; so is a float that
is not finite.
"""

from __future__ import annotations

import configparser
import math
from collections import defaultdict
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path

from .benchmark import ProtocolConfig
from .driver import DriverConfig
from .features import BinBoundaries
from .learner import TrainConfig


@dataclass
class RunConfig:
    """Everything a command needs beyond its own flags."""

    master_seed: int = 12345
    jobs: int = 1
    driver: DriverConfig = field(default_factory=DriverConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")


def _float(raw: str) -> float:
    if not math.isfinite(value := float(raw)):  # NaN passes every range check
        raise ValueError(f"must be finite, got {raw.strip()!r}")
    return value


def _tuple(parse, raw: str) -> tuple:
    return tuple(parse(x) for x in raw.replace(",", " ").split())


_PARSE = {"int": int, "float": _float, "str": str,
          "tuple[int, ...]": partial(_tuple, int), "tuple[float, ...]": partial(_tuple, _float)}


def _keys(cls, names=None) -> dict:
    """INI key -> (cls, field name, parser by the field's type) for fields of cls."""
    return {("mode" if f.name == "sampling_mode" else f.name): (cls, f.name, _PARSE[f.type])
            for f in fields(cls) if names is None or f.name in names}


_SECTIONS = {
    "run": _keys(RunConfig, ("master_seed", "jobs")) | _keys(DriverConfig, ("n_c", "rho_star")),
    "sampling": _keys(DriverConfig, ("sampling_mode", "sv_threshold", "zgap_variant", "k_top")),
    "bins": _keys(BinBoundaries),
    "train": {"preset": (TrainConfig, "preset", str), **_keys(TrainConfig)},
    "benchmark": _keys(ProtocolConfig),
}


def load_config(path: Path | str | None = None) -> RunConfig:
    """Parse an INI config; missing file or keys fall back to defaults.

    A malformed file (a repeated key, no section header), an unknown
    section or key, or a value out of its field's range raises ValueError,
    so a typo cannot quietly run the reference protocol.
    """
    if path is None:
        return RunConfig()
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
    values: dict[type, dict] = defaultdict(dict)
    for section, items in sections.items():
        if section not in _SECTIONS:
            raise ValueError(f"unknown config section [{section}]")
        for key, raw in items.items():
            if key not in _SECTIONS[section]:
                raise ValueError(f"unknown key {key!r} in config section [{section}]")
            cls, name, parse = _SECTIONS[section][key]
            try:
                values[cls][name] = parse(raw)
            except ValueError as exc:
                raise ValueError(f"[{section}] {key}: {exc}") from None
    train = values[TrainConfig]
    return RunConfig(
        **values[RunConfig],
        driver=DriverConfig(**values[DriverConfig], bins=BinBoundaries(**values[BinBoundaries])),
        train=replace(TrainConfig.preset(train.pop("preset", "standard")), **train),
        protocol=ProtocolConfig(**values[ProtocolConfig]),
    )
