"""Run configuration: an INI-style file with typed sections mapping onto
the world, model, data, and trainer dataclasses. Every key has a default;
unknown sections or keys are rejected."""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass, field, fields

from .model import GROUP_NAMES, TowerConfig
from .synth import SynthConfig
from .train import TrainConfig


class ConfigError(ValueError):
    pass


@dataclass
class DataConfig:
    vocab_size: int = 2048
    delay: int = 1
    include_web: bool = True
    test_days: int = 10
    eval_groups_per_user: int = 2


@dataclass
class EvalConfig:
    seeds: str = "0,1,2"
    cells: str = ""  # empty -> full ablation matrix

    def seed_list(self) -> list[int]:
        return [int(s) for s in self.seeds.split(",") if s.strip() != ""]

    def cell_list(self) -> list[str] | None:
        items = [c.strip() for c in self.cells.split(",") if c.strip()]
        return items or None


@dataclass
class RunConfig:
    world: SynthConfig = field(default_factory=SynthConfig)
    model: TowerConfig = field(default_factory=TowerConfig)
    data: DataConfig = field(default_factory=DataConfig)
    pretrain: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=3))
    finetune: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=1))
    seed: int = 0

    def apply_seed(self, seed: int) -> None:
        self.seed = seed
        self.world.seed = seed
        self.pretrain.seed = seed
        self.finetune.seed = seed


_SECTIONS = {
    "world": lambda rc: rc.world,
    "model": lambda rc: rc.model,
    "data": lambda rc: rc.data,
    "pretrain": lambda rc: rc.pretrain,
    "finetune": lambda rc: rc.finetune,
}

# TrainConfig.lrs / .clips are dicts; they surface as lr_<group> / clip_<group>
_DICT_KEYS = {f"lr_{g}": ("lrs", g) for g in GROUP_NAMES}
_DICT_KEYS.update({f"clip_{g}": ("clips", g) for g in GROUP_NAMES})


def _coerce(value: str, target_type):
    if target_type is bool:
        low = value.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"expected boolean, got {value!r}")
    return target_type(value)


def _set_key(obj, key: str, value: str, section: str) -> None:
    if isinstance(obj, TrainConfig) and key in _DICT_KEYS:
        attr, group = _DICT_KEYS[key]
        getattr(obj, attr)[group] = float(value)
        return
    valid = {f.name: f for f in fields(obj)}
    if key not in valid or valid[key].type in ("dict",):
        raise ConfigError(f"unknown key {key!r} in section [{section}]")
    f = valid[key]
    current = getattr(obj, key)
    target = type(current) if current is not None else str
    try:
        setattr(obj, key, _coerce(value, target))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


def load_config(path: str | None = None, overrides: list[str] | None = None,
                seed: int | None = None) -> tuple[RunConfig, EvalConfig]:
    """Parse a config file plus `section.key=value` overrides."""
    rc = RunConfig()
    ec = EvalConfig()
    sections = dict(_SECTIONS)
    sections["eval"] = lambda _rc: ec
    model_keys: set[str] = set()

    def assign(section: str, key: str, value: str) -> None:
        _set_key(sections[section](rc), key, value, section)
        if section == "model":
            model_keys.add(key)

    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise FileNotFoundError(path)
        for section in parser.sections():
            if section not in sections:
                raise ConfigError(f"unknown section [{section}]")
            for key, value in parser.items(section):
                assign(section, key, value)

    for ov in overrides or []:
        if "=" not in ov or "." not in ov.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value: {ov!r}")
        dotted, value = ov.split("=", 1)
        section, key = dotted.split(".", 1)
        if section not in sections:
            raise ConfigError(f"unknown section {section!r} in override {ov!r}")
        assign(section, key, value)

    # TowerConfig derives user_ffn_hidden, item_hidden and max_positions from
    # d and max_history when it is built, so build it from the keys that were set
    try:
        rc.model = TowerConfig(**{k: getattr(rc.model, k) for k in model_keys})
    except ValueError as exc:
        raise ConfigError(f"[model] {exc}") from exc

    if seed is not None:
        rc.apply_seed(seed)
    return rc, ec


def config_as_dict(rc: RunConfig) -> dict:
    return {name: dataclasses.asdict(getattr(rc, name))
            for name in ("world", "model", "data", "pretrain", "finetune")}
