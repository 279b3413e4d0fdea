"""Config file parsing, overrides, and error reporting."""

import math
import re
from dataclasses import fields
from pathlib import Path

import pytest

from tworank.cli import EXIT_CONFIG, main
from tworank.config import _NOT_SETTABLE, ConfigError, load_config
from tworank.model import GROUP_NAMES
from tworank.pipeline import ABLATION_CELLS

_GROUP_KEYS = [f"lr_{g}" for g in GROUP_NAMES]
_TRAIN_KEYS = ["epochs", "max_steps", "warmup_steps", "seed", *_GROUP_KEYS]

# every key each section takes; a new knob has to be added here
SETTABLE = {
    "world": ["n_items", "n_users", "n_categories", "latent_dim", "n_surfaces", "n_devices",
              "days", "bias_strength", "relevance_scale", "click_offset", "organic_rate",
              "impressions_per_day", "group_size", "query_rate", "query_lead_days", "seed"],
    "model": ["d", "user_layers", "user_heads", "user_ffn_hidden", "item_layers",
              "max_history", "vocab_size"],
    "data": ["delay", "include_web", "test_days", "eval_groups_per_user"],
    "pretrain": ["batch_size", *_TRAIN_KEYS],
    "finetune": ["pointwise_weight", "use_context", *_TRAIN_KEYS],
    "eval": ["seeds", "cells"],
}

# keys that a section took before they were dropped or derived from another
# section; each is a configuration error now
REMOVED = ["model.item_hidden", "model.max_positions", "model.n_surfaces", "model.n_devices",
           "data.vocab_size", *[f"{stage}.{key}" for stage in ("pretrain", "finetune")
                                for key in ("adam_beta1", "adam_beta2", "adam_eps",
                                            "schedule_mode", *(f"clip_{g}" for g in GROUP_NAMES))]]


def test_defaults_without_file():
    rc, ec = load_config(None)
    assert rc.world.n_items == 2000
    assert rc.model.d == 32
    assert rc.pretrain.epochs == 3
    assert rc.finetune.epochs == 1
    assert ec.seed_list() == [0, 1, 2]


def test_file_parsing(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[world]\nn_items = 120\ndays = 12\n"
        "[model]\nd = 16\nuser_heads = 2\n"
        "[pretrain]\nmax_steps = 50\nlr_loss_params = 0.05\n"
        "[eval]\nseeds = 0,1\n")
    rc, ec = load_config(str(path))
    assert rc.world.n_items == 120
    assert rc.model.d == 16
    assert rc.model.user_ffn_hidden == 64  # derived from the file's d
    assert rc.pretrain.max_steps == 50
    assert rc.pretrain.lr_loss_params == 0.05
    assert ec.seed_list() == [0, 1]


def test_missing_file():
    with pytest.raises(FileNotFoundError):
        load_config("/nonexistent/run.ini")


def test_unknown_section(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[mystery]\nx = 1\n")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_unknown_key(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[world]\nflux_capacity = 3\n")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_overrides():
    rc, _ = load_config(None, overrides=["world.n_users=42", "finetune.use_context=false"])
    assert rc.world.n_users == 42
    assert rc.finetune.use_context is False


def test_override_bad_shape():
    with pytest.raises(ConfigError):
        load_config(None, overrides=["justakey"])
    with pytest.raises(ConfigError):
        load_config(None, overrides=["nodot=3"])


def test_override_bad_bool():
    with pytest.raises(ConfigError):
        load_config(None, overrides=["finetune.use_context=maybe"])


def test_override_bad_number():
    with pytest.raises(ConfigError):
        load_config(None, overrides=["world.n_items=many"])


def test_seed_propagates():
    rc, _ = load_config(None, seed=7)
    assert rc.world.seed == 7
    assert rc.pretrain.seed == 7
    assert rc.finetune.seed == 7


def test_seed_flag_wins_over_overrides_and_is_checked():
    rc, _ = load_config(None, overrides=["world.seed=3", "finetune.seed=4"], seed=7)
    assert (rc.world.seed, rc.pretrain.seed, rc.finetune.seed) == (7, 7, 7)
    with pytest.raises(ConfigError, match=r"\[world\] seed"):
        load_config(None, seed=-1)


def test_test_window_must_leave_training_days():
    rc, _ = load_config(None, overrides=["world.days=10", "data.test_days=9"])
    assert rc.data.test_days == 9
    with pytest.raises(ConfigError, match="test_days"):
        load_config(None, overrides=["world.days=10", "data.test_days=10"])


def test_model_derived_fields_follow_overrides():
    rc, _ = load_config(None, overrides=["model.d=16"])
    assert rc.model.user_ffn_hidden == 64
    rc, _ = load_config(None, overrides=["world.n_surfaces=6", "world.n_devices=3"])
    assert (rc.model.n_surfaces, rc.model.n_devices) == (6, 3)


def test_model_invariant_violation_is_config_error():
    with pytest.raises(ConfigError, match="user_heads"):
        load_config(None, overrides=["model.d=10", "model.user_heads=4"])


def test_eval_graded_key_removed():
    with pytest.raises(ConfigError):
        load_config(None, overrides=["eval.graded=true"])


def _accepts(section: str, key: str, value) -> bool:
    try:
        load_config(None, overrides=[f"{section}.{key}={value}"])
    except ConfigError:
        return False
    return True


def test_settable_keys_are_pinned():
    """Each field of each section's dataclass is tried at its default
    value: exactly the pinned keys take it, and every other field is a
    key that the section names as not settable. So each field is a key."""
    rc, ec = load_config(None)
    for section, keys in SETTABLE.items():
        obj = ec if section == "eval" else getattr(rc, section)
        names = {f.name for f in fields(obj)}
        accepted = {n for n in names if _accepts(section, n, getattr(obj, n))}
        assert accepted == set(keys), section
        assert names - accepted == {k for s, k in _NOT_SETTABLE if s == section}, section


def _rejected_everywhere(tmp_path, key: str, value: str) -> None:
    """`key=value` is a ConfigError naming the key, as an override and in a
    config file, and makes the CLI exit 2."""
    section, name = key.split(".")
    with pytest.raises(ConfigError, match=name):
        load_config(None, overrides=[f"{key}={value}"])
    path = tmp_path / "run.ini"
    path.write_text(f"[{section}]\n{name} = {value}\n")
    with pytest.raises(ConfigError, match=name):
        load_config(str(path))
    assert main(["gen-data", "--out", str(tmp_path), "--set", f"{key}={value}"]) == EXIT_CONFIG


@pytest.mark.parametrize("key", ["finetune.batch_size", "pretrain.use_context",
                                 "pretrain.pointwise_weight", *REMOVED])
def test_stage_keys_never_read_are_rejected(tmp_path, key):
    _rejected_everywhere(tmp_path, key, "false" if key.endswith("use_context") else "3")


@pytest.mark.parametrize("key, value", [
    ("pretrain.clip_embeddings", "0"), ("pretrain.clip_loss_params", "-1"),
    ("finetune.clip_transformer", "0"), ("finetune.clip_candidate_tower", "nan"),
    ("pretrain.batch_size", "1"), ("pretrain.batch_size", "0"),
    ("pretrain.epochs", "0"), ("finetune.epochs", "-1"),
    ("pretrain.max_steps", "-3"), ("finetune.max_steps", "-1"),
    ("pretrain.warmup_steps", "-5"), ("finetune.warmup_steps", "-1"),
    ("pretrain.lr_embeddings", "-1"), ("pretrain.lr_transformer", "nan"),
    ("finetune.lr_loss_params", "inf"), ("finetune.lr_candidate_tower", "-1e-9"),
])
def test_trainer_values_that_cannot_run_are_rejected(tmp_path, key, value):
    _rejected_everywhere(tmp_path, key, value)


def test_trainer_edge_values_that_run_are_accepted():
    rc, _ = load_config(None, overrides=["pretrain.lr_embeddings=0", "finetune.max_steps=0",
                                         "finetune.warmup_steps=0", "pretrain.epochs=1"])
    assert rc.pretrain.lr_embeddings == 0.0 and rc.finetune.max_steps == 0


@pytest.mark.parametrize("key, value", [
    ("model.user_heads", "0"), ("model.user_heads", "-2"), ("model.d", "0"), ("model.d", "1"),
    ("model.max_history", "0"), ("model.vocab_size", "0"), ("model.user_ffn_hidden", "-1"),
    ("model.user_layers", "-1"), ("model.item_layers", "-1"),
])
def test_tower_sizes_that_cannot_build_a_tower_are_rejected(tmp_path, key, value):
    _rejected_everywhere(tmp_path, key, value)


def test_tower_edge_sizes_that_build_a_tower_are_accepted():
    rc, _ = load_config(None, overrides=["model.user_layers=0", "model.item_layers=0",
                                         "model.user_ffn_hidden=0", "model.d=2",
                                         "model.max_history=1", "model.vocab_size=1"])
    assert (rc.model.user_layers, rc.model.item_layers, rc.model.user_ffn_hidden) == (0, 0, 8)


@pytest.mark.parametrize("key, value", [
    ("eval.cells", "bogus"), ("eval.cells", "both, both_no_webb"),
    ("eval.seeds", "1,x"), ("eval.seeds", "1.5"), ("eval.seeds", ""), ("eval.seeds", " , "),
    ("eval.seeds", "0,-1"), ("eval.seeds", "0,0"), ("eval.seeds", "2,1,02"),
    ("eval.cells", "both,both"), ("eval.cells", "both, pretrain_only , both"),
])
def test_eval_values_that_cannot_run_are_rejected(tmp_path, key, value):
    _rejected_everywhere(tmp_path, key, value)


@pytest.mark.parametrize("override, first", [
    ("eval.seeds=3,1,3,1", "seeds name 3 more"), ("eval.seeds=0,1,2,1", "seeds name 1 more"),
    ("eval.cells=both_no_web,both,both_no_web,both", "cells name 'both_no_web' more"),
])
def test_repeated_seed_or_cell_error_names_the_first_repeat(override, first):
    """`ablate` would train a repeated seed or cell twice and write its rows
    twice; the error names the first value seen again."""
    with pytest.raises(ConfigError, match=first):
        load_config(None, overrides=[override])


def test_unknown_cell_error_names_it_and_the_valid_cells():
    with pytest.raises(ConfigError) as exc:
        load_config(None, overrides=["eval.cells=both,bogus"])
    assert "'bogus'" in str(exc.value) and "'both'" not in str(exc.value)
    assert all(cell in str(exc.value) for cell in ABLATION_CELLS)


# ---------------------------------------------------------------------------
# the README's tables of legal values
# ---------------------------------------------------------------------------

_README = Path(__file__).resolve().parents[1] / "README.md"
_BOUND = re.compile(r"(int|float)s? (≥|>) (\d+)")


def _documented_rules() -> dict[str, dict[str, str]]:
    """{section: {key: legal values}} from the README's config tables, one
    table under each `#### `[section]`` heading."""
    rules: dict[str, dict[str, str]] = {}
    sections: list[str] = []
    for line in _README.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            sections = re.findall(r"`\[(\w+)\]`", line) if line.startswith("#### ") else []
        elif sections and (row := re.match(r"\| (`[\w<>]+`(?:, `[\w<>]+`)*) \| ([^|]+) \|", line)):
            for name in re.findall(r"`([\w<>]+)`", row.group(1)):
                for key in [name.replace("<group>", g) for g in GROUP_NAMES] if "<group>" in name \
                        else [name]:
                    assert any(key in SETTABLE[s] for s in sections), f"README names {key}"
                    for s in sections:
                        if key in SETTABLE[s]:
                            rules.setdefault(s, {})[key] = row.group(2).strip()
    return rules


def _loaded(section: str, key: str, raw: str):
    """The value `section.key=raw` loads as; seeds and cells as lists."""
    rc, ec = load_config(None, overrides=[f"{section}.{key}={raw}"])
    if section == "eval":
        return ec.seed_list() if key == "seeds" else ec.cell_list() or []
    return getattr(getattr(rc, section), key)


def _legal(rule: str, value) -> bool:
    """Whether `value` lies in the README's legal values `rule`; a list of
    seeds or cells when it is not empty and each entry does."""
    if isinstance(value, list):
        return bool(value) and all(_legal(rule, v) for v in value)
    if bound := _BOUND.search(rule):
        kind, op, least = bound.groups()
        return (type(value) is {"int": int, "float": float}[kind] and math.isfinite(value)
                and (value >= int(least) if op == "≥" else value > int(least)))
    if rule == "finite float":
        return type(value) is float and math.isfinite(value)
    return str(value).lower() in re.findall(r"`(\w+)`", rule)


def test_readme_documents_every_settable_key():
    assert {s: set(keys) for s, keys in _documented_rules().items()} == \
        {s: set(keys) for s, keys in SETTABLE.items()}


@pytest.mark.parametrize("section, key", [(s, k) for s, keys in SETTABLE.items() for k in keys]
                         + [tuple(k.split(".")) for k in REMOVED])
@pytest.mark.parametrize("raw", ["0", "-1", "nan", "inf", "x"])
def test_every_key_rejects_or_loads_a_documented_value(section, key, raw):
    """Each probe value is a config error or loads as a value that the
    README calls legal; nothing else gets through to a command. A removed
    key takes no value at all."""
    if key not in SETTABLE[section]:
        with pytest.raises(ConfigError, match=key):
            _loaded(section, key, raw)
        return
    try:
        value = _loaded(section, key, raw)
    except ConfigError:
        return
    assert _legal(_documented_rules()[section][key], value), (raw, value)


@pytest.mark.parametrize("section, key, rule", [
    (s, k, rule) for s, rules in _documented_rules().items() for k, rule in rules.items()
    if _BOUND.search(rule)])
def test_documented_least_value_is_the_least_that_loads(section, key, rule):
    """The README's bound is the type's: its least value loads and the
    value just past it is a config error. [world] days is tried above a
    one-day test window, the least that [data] takes."""
    kind, op, least = _BOUND.search(rule).groups()
    least = int(least) if kind == "int" else float(least)
    below = least - 1 if kind == "int" else math.nextafter(least, -math.inf)
    legal, illegal = (least, below) if op == "≥" else (math.nextafter(least, math.inf), least)

    def load(value):
        return load_config(None, overrides=["data.test_days=1", f"{section}.{key}={value!r}"])

    load(legal)
    with pytest.raises(ConfigError, match=key):
        load(illegal)
