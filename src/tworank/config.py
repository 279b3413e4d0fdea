"""Run configuration: an INI-style file with typed sections mapping onto
the world, model, data, and trainer dataclasses. Every key has a default;
unknown sections or keys are rejected."""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass, field, fields

from .model import GROUP_NAMES, TowerConfig
from .pipeline import ABLATION_CELLS
from .synth import SynthConfig
from .train import TrainConfig


class ConfigError(ValueError):
    pass


@dataclass
class DataConfig:
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

# keys a section does not take, with the reason: the context tables are
# sized by the world, fine-tuning takes finetune_run's group batch, and only
# fine-tuning scores the context and weighs the pointwise loss
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
        raise ConfigError(f"expected boolean, got {value!r}")
    return target_type(value)


def _set_key(obj, key: str, value: str, section: str) -> None:
    if (section, key) in _NOT_SETTABLE:
        raise ConfigError(f"key {key!r} in section [{section}] {_NOT_SETTABLE[section, key]}")
    if isinstance(obj, TrainConfig) and key in _DICT_KEYS:
        attr, group = _DICT_KEYS[key]
        getattr(obj, attr)[group] = float(value)
        return
    valid = {f.name: f for f in fields(obj)}
    if key not in valid or valid[key].type in ("dict",):
        raise ConfigError(f"unknown key {key!r} in section [{section}]")
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

    # TowerConfig derives user_ffn_hidden from d when it is built, so build
    # it from the keys that were set, and the context sizes of the world
    try:
        rc.model = TowerConfig(**{k: getattr(rc.model, k) for k in model_keys},
                               n_surfaces=rc.world.n_surfaces, n_devices=rc.world.n_devices)
    except ValueError as exc:
        raise ConfigError(f"[model] {exc}") from exc
    for section in ("pretrain", "finetune"):
        tc = getattr(rc, section)
        checks = [("epochs", tc.epochs, ">= 1", tc.epochs >= 1),
                  ("max_steps", tc.max_steps, ">= 0", tc.max_steps >= 0),
                  ("warmup_steps", tc.warmup_steps, ">= 0", tc.warmup_steps >= 0)]
        checks += [(f"lr_{g}", lr, "finite and >= 0", 0 <= lr < math.inf)
                   for g, lr in tc.lrs.items()]
        checks += [(f"clip_{g}", clip, "> 0", clip > 0) for g, clip in tc.clips.items()]
        for key, value, rule, ok in checks:
            if not ok:
                raise ConfigError(f"[{section}] {key} must be {rule}, got {value}")
    if rc.pretrain.batch_size < 2:
        raise ConfigError("[pretrain] batch_size must be >= 2 to give in-batch negatives")
    try:
        ec.seed_list()
    except ValueError:
        raise ConfigError(f"[eval] seeds must be comma-separated integers, "
                          f"got {ec.seeds!r}") from None
    unknown = [c for c in ec.cell_list() or () if c not in ABLATION_CELLS]
    if unknown:
        raise ConfigError(f"[eval] unknown cells {unknown}; valid cells are "
                          f"{', '.join(ABLATION_CELLS)}")

    if seed is not None:
        rc.apply_seed(seed)
    return rc, ec


def config_as_dict(rc: RunConfig) -> dict:
    return {name: dataclasses.asdict(getattr(rc, name))
            for name in ("world", "model", "data", "pretrain", "finetune")}
