"""Optimization: schedule values, groupwise clipping, Adam arithmetic,
freezing, and run-level determinism."""

import numpy as np
import pytest

from tworank.dataset import build_finetune_groups, build_pretrain_samples
from tworank.model import TowerConfig, init_params
from tworank.train import (AdamOptimizer, Schedule, TrainConfig, clip_group,
                           continuous_finetune, finetune_run, lr_at,
                           pretrain_run)

TINY = TowerConfig(d=8, user_layers=1, user_heads=2, user_ffn_hidden=16,
                   item_layers=1, max_history=4, vocab_size=32,
                   n_surfaces=4, n_devices=2)


@pytest.fixture(scope="module")
def training_data(small_world, small_logs, word_tokenizer):
    samples = build_pretrain_samples(small_logs, max_history=4)[:96]
    groups = build_finetune_groups(small_logs, max_history=4)[:48]
    titles = dict(enumerate(small_world.titles))
    return samples, groups, titles


# module-scoped fixtures need module-scoped providers; re-declare the two
# session fixtures locally so `training_data` can depend on them
@pytest.fixture(scope="module")
def word_tokenizer():
    def tok(text):
        return [3 + (sum(map(ord, w)) % 29) for w in text.lower().split()]
    return tok


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------


def test_lr_warmup_midpoint():
    sched = Schedule(warmup_steps=2500, total_steps=10_000)
    assert lr_at(1250, sched, 1e-3) == pytest.approx(5e-4, abs=1e-12)


def test_lr_peak_at_warmup_end():
    sched = Schedule(warmup_steps=100, total_steps=1000)
    assert lr_at(100, sched, 3e-3) == pytest.approx(3e-3, abs=1e-12)


def test_lr_linear_decay_to_zero():
    sched = Schedule(warmup_steps=100, total_steps=1000)
    assert lr_at(550, sched, 1e-3) == pytest.approx(5e-4, abs=1e-12)
    assert lr_at(1000, sched, 1e-3) == 0.0


def test_lr_constant_mode():
    sched = Schedule(warmup_steps=0, total_steps=100, mode="constant")
    for step in (0, 50, 100):
        assert lr_at(step, sched, 2e-3) == 2e-3


def test_lr_step_out_of_range():
    sched = Schedule(warmup_steps=10, total_steps=100)
    with pytest.raises(ValueError):
        lr_at(-1, sched, 1e-3)
    with pytest.raises(ValueError):
        lr_at(101, sched, 1e-3)


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule(warmup_steps=10, total_steps=5)
    with pytest.raises(ValueError):
        Schedule(warmup_steps=0, total_steps=10, mode="cosine")


# ---------------------------------------------------------------------------
# clipping
# ---------------------------------------------------------------------------


def test_clip_group_scales_to_max_norm():
    grads = {"a": np.array([3.0, 0.0]), "b": np.array([0.0, 4.0])}  # joint norm 5
    clipped = clip_group(grads, 1.0)
    joint = np.sqrt(sum(float((g * g).sum()) for g in clipped.values()))
    assert joint == pytest.approx(1.0, abs=1e-12)
    # direction preserved
    assert clipped["a"][0] / clipped["b"][1] == pytest.approx(0.75, abs=1e-12)


def test_clip_group_leaves_small_gradients():
    grads = {"a": np.array([0.1, 0.1])}
    assert clip_group(grads, 1.0) is grads


def test_clip_group_rejects_nonpositive_norm():
    with pytest.raises(ValueError):
        clip_group({"a": np.ones(2)}, 0.0)


# ---------------------------------------------------------------------------
# Adam arithmetic
# ---------------------------------------------------------------------------


def test_adam_first_step_hand_computed():
    params = init_params(TINY, seed=0)
    name = "loss_params.tau_raw"
    before = float(params[name].data)
    cfg = TrainConfig(lrs={g: 0.0 for g in ("embeddings", "transformer", "candidate_tower")}
                      | {"loss_params": 0.01},
                      clips={g: 1.0 for g in ("embeddings", "transformer",
                                              "candidate_tower", "loss_params")},
                      schedule_mode="constant")
    opt = AdamOptimizer(params, cfg, Schedule(0, 10, mode="constant"))
    g = 0.5  # group norm 0.5 < clip, no rescale
    opt.step({name: np.asarray(g)})
    # first Adam step: mhat = g, vhat = g^2, update = lr * g / (|g| + eps)
    expect = before - 0.01 * g / (abs(g) + cfg.adam_eps)
    assert float(params[name].data) == pytest.approx(expect, abs=1e-12)


def test_adam_respects_group_clip():
    params = init_params(TINY, seed=0)
    name = "loss_params.tau_raw"
    before = float(params[name].data)
    cfg = TrainConfig(schedule_mode="constant",
                      clips={g: 1.0 for g in ("embeddings", "transformer",
                                              "candidate_tower", "loss_params")})
    opt = AdamOptimizer(params, cfg, Schedule(0, 10, mode="constant"))
    opt.step({name: np.asarray(500.0)})  # clipped to norm 1
    lr = cfg.lrs["loss_params"]
    expect = before - lr * 1.0 / (1.0 + cfg.adam_eps)
    assert float(params[name].data) == pytest.approx(expect, rel=1e-9)


def test_adam_frozen_prefix_never_moves():
    params = init_params(TINY, seed=0)
    before = float(params["loss_params.alpha_cl"].data)
    opt = AdamOptimizer(params, TrainConfig(schedule_mode="constant"),
                        Schedule(0, 10, mode="constant"),
                        frozen_prefixes=("loss_params.alpha",))
    opt.step({"loss_params.alpha_cl": np.asarray(10.0)})
    assert float(params["loss_params.alpha_cl"].data) == before


# ---------------------------------------------------------------------------
# training runs
# ---------------------------------------------------------------------------


def _run_cfg(**kw):
    base = dict(batch_size=16, epochs=1, max_steps=4, warmup_steps=2, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def test_pretrain_deterministic(training_data, word_tokenizer):
    samples, _, titles = training_data
    a = pretrain_run(samples, _run_cfg(), TINY, word_tokenizer, titles)
    b = pretrain_run(samples, _run_cfg(), TINY, word_tokenizer, titles)
    for n in a.names():
        assert np.array_equal(a[n].data, b[n].data), n


def test_pretrain_moves_parameters(training_data, word_tokenizer):
    samples, _, titles = training_data
    init = init_params(TINY, seed=0)
    out = pretrain_run(samples, _run_cfg(), TINY, word_tokenizer, titles)
    assert not np.array_equal(out["embeddings.content"].data,
                              init["embeddings.content"].data)


def test_zero_lr_is_identity(training_data, word_tokenizer):
    samples, groups, titles = training_data
    zero = {g: 0.0 for g in ("embeddings", "transformer", "candidate_tower", "loss_params")}
    init = init_params(TINY, seed=0)
    out = pretrain_run(samples, _run_cfg(lrs=dict(zero)), TINY, word_tokenizer, titles)
    for n in init.names():
        assert np.array_equal(out[n].data, init[n].data), n
    out = finetune_run(groups, init, _run_cfg(lrs=dict(zero)), word_tokenizer, titles)
    for n in init.names():
        assert np.array_equal(out[n].data, init[n].data), n


def test_finetune_does_not_mutate_init(training_data, word_tokenizer):
    _, groups, titles = training_data
    init = init_params(TINY, seed=0)
    snapshot = {n: init[n].data.copy() for n in init.names()}
    finetune_run(groups, init, _run_cfg(), word_tokenizer, titles)
    for n in init.names():
        assert np.array_equal(init[n].data, snapshot[n]), n


def test_finetune_deterministic(training_data, word_tokenizer):
    _, groups, titles = training_data
    init = init_params(TINY, seed=0)
    a = finetune_run(groups, init, _run_cfg(), word_tokenizer, titles)
    b = finetune_run(groups, init, _run_cfg(), word_tokenizer, titles)
    for n in a.names():
        assert np.array_equal(a[n].data, b[n].data), n


def test_continuous_freezes_calibration_scalars(training_data, word_tokenizer):
    _, groups, titles = training_data
    init = init_params(TINY, seed=0)
    tuned = finetune_run(groups, init, _run_cfg(), word_tokenizer, titles)
    cont = continuous_finetune(tuned, groups, _run_cfg(max_steps=3), word_tokenizer, titles)
    frozen = [n for n in tuned.names()
              if n.startswith(("loss_params.alpha", "loss_params.beta", "loss_params.gamma"))]
    assert frozen
    for n in frozen:
        assert np.array_equal(cont[n].data, tuned[n].data), n
    # towers keep adapting
    assert not np.array_equal(cont["embeddings.content"].data,
                              tuned["embeddings.content"].data)


def test_empty_streams_rejected(training_data, word_tokenizer):
    samples, _, titles = training_data
    with pytest.raises(ValueError):
        pretrain_run([], _run_cfg(), TINY, word_tokenizer, titles)
    # fewer samples than one batch would train zero steps
    with pytest.raises(ValueError, match="10 pretrain samples.*batch_size 16"):
        pretrain_run(samples[:10], _run_cfg(), TINY, word_tokenizer, titles)
    with pytest.raises(ValueError):
        finetune_run([], init_params(TINY, seed=0), _run_cfg(), word_tokenizer, titles)


def test_warmup_longer_than_run_is_clamped(training_data, word_tokenizer):
    samples, groups, titles = training_data
    cfg = _run_cfg(max_steps=1, warmup_steps=100)
    init = init_params(TINY, seed=0)
    for out in (pretrain_run(samples, cfg, TINY, word_tokenizer, titles),
                finetune_run(groups, init, cfg, word_tokenizer, titles)):
        # one step at the clamped warmup's end: lr reaches its base value
        assert not np.array_equal(out["embeddings.content"].data,
                                  init["embeddings.content"].data)
