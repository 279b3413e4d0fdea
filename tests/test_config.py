"""Config file parsing, overrides, and error reporting."""

import pytest

from tworank.config import ConfigError, load_config


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
    assert rc.model.item_hidden == 16  # derived from the file's d
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
    assert rc.model.item_hidden == 16
    assert rc.model.user_ffn_hidden == 64
    rc, _ = load_config(None, overrides=["model.max_history=128"])
    assert rc.model.max_positions == 129


def test_model_invariant_violation_is_config_error():
    with pytest.raises(ConfigError, match="item_hidden"):
        load_config(None, overrides=["model.d=16", "model.item_hidden=8"])


def test_eval_graded_key_removed():
    with pytest.raises(ConfigError):
        load_config(None, overrides=["eval.graded=true"])
