"""Config file parsing, overrides, and error reporting."""

from dataclasses import fields

import pytest

from tworank.cli import EXIT_CONFIG, main
from tworank.config import ConfigError, load_config
from tworank.model import GROUP_NAMES
from tworank.pipeline import ABLATION_CELLS

_GROUP_KEYS = [f"{kind}_{g}" for kind in ("lr", "clip") for g in GROUP_NAMES]
_TRAIN_KEYS = ["epochs", "max_steps", "warmup_steps", "schedule_mode", "seed", *_GROUP_KEYS]

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
           "data.vocab_size", *[f"{stage}.adam_{k}" for stage in ("pretrain", "finetune")
                                for k in ("beta1", "beta2", "eps")]]


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
    assert rc.pretrain.lrs["loss_params"] == 0.05
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
    assert rc.seed == 7
    assert rc.world.seed == 7
    assert rc.pretrain.seed == 7
    assert rc.finetune.seed == 7


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
    """Each field of each section's dataclass, plus the per-group trainer
    keys, is tried at its default value: exactly the pinned keys take it."""
    rc, ec = load_config(None)
    for section, keys in SETTABLE.items():
        obj = ec if section == "eval" else getattr(rc, section)
        defaults = {f.name: getattr(obj, f.name) for f in fields(obj)
                    if not isinstance(getattr(obj, f.name), dict)}
        if section in ("pretrain", "finetune"):
            defaults.update({f"lr_{g}": v for g, v in obj.lrs.items()})
            defaults.update({f"clip_{g}": v for g, v in obj.clips.items()})
        accepted = {k for k, v in defaults.items() if _accepts(section, k, v)}
        assert accepted == set(keys), section


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
    assert rc.pretrain.lrs["embeddings"] == 0.0 and rc.finetune.max_steps == 0


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
    ("eval.seeds", "1,x"), ("eval.seeds", "1.5"),
])
def test_eval_values_that_cannot_run_are_rejected(tmp_path, key, value):
    _rejected_everywhere(tmp_path, key, value)


def test_unknown_cell_error_names_it_and_the_valid_cells():
    with pytest.raises(ConfigError) as exc:
        load_config(None, overrides=["eval.cells=both,bogus"])
    assert "'bogus'" in str(exc.value) and "'both'" not in str(exc.value)
    assert all(cell in str(exc.value) for cell in ABLATION_CELLS)
