"""Run configuration: an INI-style file with typed sections mapping onto
the world, model, data, and trainer dataclasses. Every key has a default;
unknown sections or keys are rejected. Each section is built once from its
parsed values, and its type checks its own fields."""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields

from .model import TowerConfig
from .pipeline import ABLATION_CELLS
from .synth import SynthConfig
from .train import TrainConfig
from .types import check_least


class ConfigError(ValueError):
    pass


@dataclass
class DataConfig:
    delay: int = 1
    include_web: bool = True
    test_days: int = 10
    eval_groups_per_user: int = 2

    def __post_init__(self):
        # a test window of 0 days holds no evaluation day
        check_least(vars(self), (("delay", 0), ("test_days", 1), ("eval_groups_per_user", 1)))


@dataclass
class EvalConfig:
    seeds: str = "0,1,2"
    cells: str = ""  # empty -> full ablation matrix

    def __post_init__(self):
        try:
            seeds = self.seed_list()
        except ValueError:
            seeds = []
        if not seeds or min(seeds) < 0:
            raise ValueError(f"seeds must be one or more comma-separated integers >= 0, "
                             f"got {self.seeds!r}")
        cells = self.cell_list() or []
        unknown = [c for c in cells if c not in ABLATION_CELLS]
        if unknown:
            raise ValueError(f"unknown cells {unknown}; valid cells are "
                             f"{', '.join(ABLATION_CELLS)}")
        # ablate trains each cell once per seed and writes one row for each
        for name, values in (("seeds", seeds), ("cells", cells)):
            repeated = next((v for i, v in enumerate(values) if v in values[:i]), None)
            if repeated is not None:
                raise ValueError(f"{name} name {repeated!r} more than once")

    def seed_list(self) -> list[int]:
        return [int(s) for s in self.seeds.split(",") if s.strip() != ""]

    def cell_list(self) -> list[str] | None:
        items = [c.strip() for c in self.cells.split(",") if c.strip()]
        return items or None


@dataclass
class RunConfig:
    world: SynthConfig
    model: TowerConfig
    data: DataConfig
    pretrain: TrainConfig
    finetune: TrainConfig


# each section's type, [world] first: [model] takes its context sizes
_TYPES = {"world": SynthConfig, "model": TowerConfig, "data": DataConfig,
          "pretrain": TrainConfig, "finetune": TrainConfig, "eval": EvalConfig}

# keys a section does not take, with the reason; fine-tuning takes its group
# batch from finetune_run
_NOT_SETTABLE = {
    ("model", "n_surfaces"): "comes from [world] n_surfaces",
    ("model", "n_devices"): "comes from [world] n_devices",
    ("finetune", "batch_size"): "is never read by that stage",
    ("pretrain", "use_context"): "is never read by that stage",
    ("pretrain", "pointwise_weight"): "is never read by that stage",
}


def _coerce(value: str, target_type):
    if target_type is bool:
        low = value.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"expected boolean, got {value!r}")
    return target_type(value)


def _set_key(values: dict, section: str, key: str, value: str) -> None:
    """Coerce `value` to the type of `key`'s default and store it in the
    section's `values`."""
    if (section, key) in _NOT_SETTABLE:
        raise ConfigError(f"key {key!r} in section [{section}] {_NOT_SETTABLE[section, key]}")
    defaults = {f.name: f.default for f in fields(_TYPES[section])}
    if key not in defaults:
        raise ConfigError(f"unknown key {key!r} in section [{section}]")
    try:
        values[key] = _coerce(value, type(defaults[key]))
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


def load_config(path: str | None = None, overrides: list[str] | None = None,
                seed: int | None = None) -> tuple[RunConfig, EvalConfig]:
    """Parse a config file plus `section.key=value` overrides into each
    section's values, then build each section once; `seed` sets the seed of
    [world], [pretrain] and [finetune] over any other."""
    values: dict[str, dict] = {section: {} for section in _TYPES}
    values["finetune"]["epochs"] = 1  # the one default that differs from its type's
    if path is not None:
        parser = configparser.ConfigParser()
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
            for section in parser.sections():
                if section not in values:
                    raise ConfigError(f"unknown section [{section}]")
                for key, value in parser.items(section):
                    _set_key(values[section], section, key, value)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: {exc}") from None

    for ov in overrides or []:
        if "=" not in ov or "." not in ov.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value: {ov!r}")
        dotted, value = ov.split("=", 1)
        section, key = dotted.split(".", 1)
        if section not in values:
            raise ConfigError(f"unknown section {section!r} in override {ov!r}")
        _set_key(values[section], section, key, value)

    if seed is not None:
        for section in ("world", "pretrain", "finetune"):
            values[section]["seed"] = seed
    built = {}
    for section, cls in _TYPES.items():
        if section == "model":
            values[section].update(n_surfaces=built["world"].n_surfaces,
                                   n_devices=built["world"].n_devices)
        try:
            built[section] = cls(**values[section])
        except ValueError as exc:
            raise ConfigError(f"[{section}] {exc}") from exc
    if built["data"].test_days >= built["world"].days:
        raise ConfigError(f"[data] test_days must be below [world] days of "
                          f"{built['world'].days}, got {built['data'].test_days}")
    ec = built.pop("eval")
    return RunConfig(**built), ec
