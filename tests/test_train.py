"""Optimization: schedule values, groupwise clipping, Adam arithmetic,
freezing, and run-level determinism."""

import copy
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tworank import autodiff, train
from tworank.autodiff import Tensor
from tworank.dataset import attach_history, build_finetune_groups, build_pretrain_samples
from tworank.losses import finetune_objective
from tworank.model import (FROZEN_IN_CONTINUOUS, GROUP_NAMES, TowerConfig, init_params,
                           param_layout)
from tworank.train import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamOptimizer, Schedule,
                           TrainConfig, continuous_finetune, finetune_run, lr_at,
                           pretrain_run)
from tworank.types import SIGNALS

from conftest import params_digest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

TINY = TowerConfig(d=8, user_layers=1, user_heads=2, user_ffn_hidden=16,
                   item_layers=1, max_history=4, vocab_size=32,
                   n_surfaces=4, n_devices=2)


@pytest.fixture(scope="module")
def training_data(small_world, small_logs, word_tokenizer):
    samples = build_pretrain_samples(small_logs)[:96]
    groups = build_finetune_groups(small_logs)[:48]
    attach_history(samples + groups, small_logs, delay=1, max_history=4, include_web=True)
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
    sched = Schedule(warmup_steps=10, total_steps=100, constant=True)
    for step in (1, 5, 50, 100):
        assert lr_at(step, sched, 2e-3) == 2e-3


# ---------------------------------------------------------------------------
# clipping
# ---------------------------------------------------------------------------


def test_step_clips_a_group_to_max_norm():
    """After one step the first moment is (1 - beta1) times the clipped
    gradient: joint norm CLIP_NORM, direction kept."""
    params = init_params(TINY, seed=0)
    opt = AdamOptimizer(params, TrainConfig(), Schedule(0, 10, constant=True))
    a, b = "loss_params.tau_raw", "loss_params.calib.click"
    opt.step({a: np.asarray(3.0), b: np.array([-4.0, 0.0, 0.0])})  # joint norm 5
    clipped = [float(opt.m[opt._spans[n]][0]) / (1 - ADAM_BETA1) for n in (a, b)]
    assert np.hypot(*clipped) == pytest.approx(train.CLIP_NORM, abs=1e-12)
    assert clipped[0] / clipped[1] == pytest.approx(-0.75, abs=1e-12)


def test_step_leaves_small_gradients_unclipped():
    params = init_params(TINY, seed=0)
    opt = AdamOptimizer(params, TrainConfig(), Schedule(0, 10, constant=True))
    g = np.full(TINY.d, 0.1)  # joint norm 0.28
    opt.step({"embeddings.cls": g})
    assert opt.m[opt._spans["embeddings.cls"]].tobytes() == ((1 - ADAM_BETA1) * g).tobytes()


# ---------------------------------------------------------------------------
# Adam arithmetic
# ---------------------------------------------------------------------------


def test_adam_first_step_hand_computed():
    params = init_params(TINY, seed=0)
    name = "loss_params.tau_raw"
    before = float(params[name].data)
    cfg = TrainConfig(lr_embeddings=0.0, lr_transformer=0.0, lr_candidate_tower=0.0,
                      lr_loss_params=0.01)
    opt = AdamOptimizer(params, cfg, Schedule(0, 10, constant=True))
    g = 0.5
    assert g < train.CLIP_NORM  # no rescale
    opt.step({name: np.asarray(g)})
    # first Adam step: mhat = g, vhat = g^2, update = lr * g / (|g| + eps)
    expect = before - 0.01 * g / (abs(g) + ADAM_EPS)
    assert float(params[name].data) == pytest.approx(expect, abs=1e-12)


def test_adam_respects_group_clip():
    params = init_params(TINY, seed=0)
    name = "loss_params.tau_raw"
    before = float(params[name].data)
    cfg = TrainConfig()
    opt = AdamOptimizer(params, cfg, Schedule(0, 10, constant=True))
    opt.step({name: np.asarray(500.0)})  # clipped to norm CLIP_NORM
    lr = cfg.lr_loss_params
    expect = before - lr * train.CLIP_NORM / (train.CLIP_NORM + ADAM_EPS)
    assert float(params[name].data) == pytest.approx(expect, rel=1e-9)


class _PerTensorAdam:
    """The per-tensor Adam step the flat optimizer replaced, kept as its
    reference: moments in a dict by name and a fresh array per operation."""

    def __init__(self, params, config, schedule):
        self.params, self.config, self.schedule = params, config, schedule
        self.step_count = 0
        self.m = {n: np.zeros_like(t.data) for n, t in params.tensors.items()}
        self.v = {n: np.zeros_like(t.data) for n, t in params.tensors.items()}

    def step(self, grads):
        self.step_count += 1
        by_group = {g: {} for g in GROUP_NAMES}
        for name, g in grads.items():
            by_group[self.params.group_of(name)][name] = g
        for group, group_grads in by_group.items():
            if not group_grads:
                continue
            norm = np.sqrt(sum(float((g * g).sum()) for g in group_grads.values()))
            if norm > train.CLIP_NORM:
                group_grads = {k: g * (train.CLIP_NORM / norm) for k, g in group_grads.items()}
            lr = lr_at(self.step_count, self.schedule, getattr(self.config, f"lr_{group}"))
            for name, g in group_grads.items():
                m = self.m[name] = ADAM_BETA1 * self.m[name] + (1 - ADAM_BETA1) * g
                v = self.v[name] = ADAM_BETA2 * self.v[name] + (1 - ADAM_BETA2) * g * g
                mhat = m / (1 - ADAM_BETA1 ** self.step_count)
                vhat = v / (1 - ADAM_BETA2 ** self.step_count)
                p = self.params.tensors[name]
                p.data = p.data - lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


def test_flat_adam_matches_the_per_tensor_step():
    """Over warmup and decay, the flat optimizer's parameters and moments
    have the reference's bytes, for a group whose gradients are clipped, a
    group that is not, a tensor that goes idle with non-zero moments and a
    frozen tensor that never gets a gradient."""
    params = init_params(TINY, seed=0)
    params["embeddings.cls"].requires_grad = False
    ref_params = params.copy()
    cfg = TrainConfig(lr_embeddings=1e-3, lr_transformer=2e-3, lr_candidate_tower=4e-3,
                      lr_loss_params=8e-3)
    schedule = Schedule(warmup_steps=2, total_steps=6)
    opt = AdamOptimizer(params, cfg, schedule)
    ref = _PerTensorAdam(ref_params, cfg, schedule)
    rng = np.random.default_rng(5)
    idle_after = 2  # loss_params.tau_raw gets gradients at steps 1 and 2 only
    for step in range(1, 6):
        grads = {}
        for name, t in params.tensors.items():
            if not t.requires_grad or (name == "loss_params.tau_raw" and step > idle_after):
                continue
            scale = 10.0 if name.startswith("transformer.") else 1e-3  # clipped, unclipped
            grads[name] = rng.normal(scale=scale, size=t.shape)
        opt.step(grads)
        ref.step(grads)
        for name, t in params.tensors.items():
            span = opt._spans[name]
            assert t.data.tobytes() == ref_params[name].data.tobytes(), (step, name)
            assert opt.m[span].tobytes() == ref.m[name].tobytes(), (step, name)
            assert opt.v[span].tobytes() == ref.v[name].tobytes(), (step, name)
    assert np.any(ref.m["loss_params.tau_raw"]) and np.any(ref.v["loss_params.tau_raw"])
    assert not np.any(opt.m[opt._spans["embeddings.cls"]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_gradient_raises_before_anything_changes(bad):
    """A step whose gradients hold NaN or an infinity raises ValueError
    naming the step and each group that holds one; the parameters and
    both moments keep their bytes."""
    params = init_params(TINY, seed=0)
    opt = AdamOptimizer(params, TrainConfig(), Schedule(0, 10, constant=True))
    rng = np.random.default_rng(0)
    grads = {n: rng.normal(size=t.shape) for n, t in params.tensors.items()}
    opt.step(grads)

    def state():
        return ([t.data.tobytes() for t in params.tensors.values()],
                opt.m.tobytes(), opt.v.tobytes())

    before = state()
    grads["transformer.L0.wq"][1, 2] = bad
    grads["loss_params.tau_raw"] = np.asarray(bad)
    with pytest.raises(ValueError, match=r"^step 2: non-finite gradients in groups "
                                         r"\['transformer', 'loss_params'\]$"):
        opt.step(grads)
    assert state() == before


def test_finetune_with_a_nan_loss_raises_at_step_one(training_data, word_tokenizer):
    _, groups, titles = training_data
    init = init_params(TINY, seed=0)
    init["loss_params.calib.pointwise"].data[0] = np.nan
    with pytest.raises(ValueError, match=r"^step 1: non-finite gradients in groups"):
        finetune_run(groups, init, _run_cfg(), word_tokenizer, titles)


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
    zero = {f"lr_{g}": 0.0 for g in GROUP_NAMES}
    init = init_params(TINY, seed=0)
    out = pretrain_run(samples, _run_cfg(**zero), TINY, word_tokenizer, titles)
    for n in init.names():
        assert np.array_equal(out[n].data, init[n].data), n
    out = finetune_run(groups, init, _run_cfg(**zero), word_tokenizer, titles)
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


def test_finetune_stays_finite_at_extreme_calibrated_logits(training_data, word_tokenizer):
    """From a finite checkpoint whose calibrated logits all lie far below
    -745, where every sigmoid underflows to 0, fine-tuning leaves every
    tensor finite."""
    _, groups, titles = training_data
    init = init_params(TINY, seed=0)
    for signal in SIGNALS:
        init[f"loss_params.calib.{signal}"].data[2] = -800.0
    out = finetune_run(groups, init, _run_cfg(max_steps=3), word_tokenizer, titles)
    assert [n for n in out.names() if not np.all(np.isfinite(out[n].data))] == []


def test_signal_without_pairs_leaves_its_scalars_and_moments_alone():
    """A step whose batch has no (positive, negative) pair of a signal
    leaves that signal's calibration vector and its Adam moments
    byte-equal, while the other signals' vectors move."""
    params = init_params(TINY, seed=0)
    opt = AdamOptimizer(params, TrainConfig(), Schedule(0, 10, constant=True))
    rng = np.random.default_rng(3)
    r, r_ctx = Tensor(rng.normal(size=4)), Tensor(np.full(4, 0.2))
    every = {s: [1, 0, 1, 0] for s in SIGNALS}
    opt.step(train._grads_by_name(finetune_objective(r, r_ctx, [every], params), params))
    names = [f"loss_params.calib.{s}" for s in SIGNALS]

    def state():
        return {n: (params[n].data.tobytes(), opt.m[opt._spans[n]].tobytes(),
                    opt.v[opt._spans[n]].tobytes()) for n in names}

    before = state()
    # fvrt has no positive, prch no negative
    some = {"click": [1, 0, 0, 0], "cart": [1, 1, 0, 0], "fvrt": [0] * 4, "prch": [1] * 4}
    opt.step(train._grads_by_name(finetune_objective(r, r_ctx, [some], params), params))
    after = state()
    for n in names:
        if n.endswith(("fvrt", "prch")):
            assert after[n] == before[n], n
        else:
            assert after[n][0] != before[n][0], n


def test_continuous_freezes_calibration_scalars(training_data, word_tokenizer):
    _, groups, titles = training_data
    init = init_params(TINY, seed=0)
    tuned = finetune_run(groups, init, _run_cfg(), word_tokenizer, titles)
    cont = continuous_finetune(tuned, groups, _run_cfg(max_steps=3), word_tokenizer, titles)
    frozen = [n for n in tuned.names() if n.startswith("loss_params.calib.")]
    assert len(frozen) == 1 + len(SIGNALS)
    for n in frozen:
        assert np.array_equal(cont[n].data, tuned[n].data), n
    # towers keep adapting
    assert not np.array_equal(cont["embeddings.content"].data,
                              tuned["embeddings.content"].data)


def test_continuous_finetune_marks_frozen_tensors_constant(training_data, word_tokenizer,
                                                           monkeypatch):
    """The frozen calibration vectors are constants while continuous
    fine-tuning runs: backward gives them no gradient, so no step names
    them. Before and after the run every tensor trains."""
    _, groups, titles = training_data
    prev = init_params(TINY, seed=0)
    snapshot = {n: prev[n].data.copy() for n in prev.names()}
    frozen = [n for n in prev.names() if n.startswith(FROZEN_IN_CONTINUOUS)]
    reached, stepped = [], []
    backward, grads_by_name = train.backward, train._grads_by_name

    def recording_backward(root, *args):
        grads = backward(root, *args)
        reached.append(set(grads))
        return grads

    def recording_grads_by_name(loss, params):
        grads = grads_by_name(loss, params)
        stepped.append(set(grads))
        return grads

    monkeypatch.setattr(train, "backward", recording_backward)
    monkeypatch.setattr(train, "_grads_by_name", recording_grads_by_name)
    cont = continuous_finetune(prev, groups, _run_cfg(max_steps=3), word_tokenizer, titles)
    monkeypatch.undo()

    assert len(reached) == len(stepped) == 3
    frozen_ids = {id(cont[n]) for n in frozen}
    assert all(r and not r & frozen_ids for r in reached)
    assert all(s and not s & set(frozen) for s in stepped)
    for n in frozen:
        assert np.array_equal(cont[n].data, prev[n].data), n
    for n in prev.names():
        assert np.array_equal(prev[n].data, snapshot[n]), n
        assert prev[n].requires_grad and cont[n].requires_grad, n


def test_continuous_steps_at_each_groups_configured_rate(training_data, word_tokenizer,
                                                          monkeypatch):
    """Every step of continuous fine-tuning takes each group's configured
    learning rate, while fine-tuning on the same config warms up to it and
    decays from it."""
    _, groups, titles = training_data
    rates = {"lr_embeddings": 1e-3, "lr_transformer": 2e-3, "lr_candidate_tower": 4e-3,
             "lr_loss_params": 8e-3}
    cfg = _run_cfg(max_steps=3, warmup_steps=2, **rates)
    taken = []  # (optimizer step, the group's configured rate, the rate taken)
    real = train.lr_at

    def spy(step, schedule, base):
        lr = real(step, schedule, base)
        taken.append((step, base, lr))
        return lr

    monkeypatch.setattr(train, "lr_at", spy)
    tuned = finetune_run(groups, init_params(TINY, seed=0), cfg, word_tokenizer, titles)
    warm = taken[:]
    taken.clear()
    continuous_finetune(tuned, groups, cfg, word_tokenizer, titles)

    for run in (warm, taken):
        # every group steps at every step, each at its own configured rate
        assert sorted((step, base) for step, base, _ in run) == \
            sorted((step, base) for step in (1, 2, 3) for base in rates.values())
    assert all(lr == base for _, base, lr in taken)
    assert [lr / base for step, base, lr in warm if base == 1e-3] == [0.5, 1.0, 0.0]


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


# ---------------------------------------------------------------------------
# the step loop both stages share
# ---------------------------------------------------------------------------


def _recorded_batches(monkeypatch, examples, run):
    """Call `run(examples)` and return each step's example indices, read off
    the histories that reach `train.batch_histories`."""
    # each example gets its own history object, so a batch's histories name it
    examples = [replace(e, history=copy.copy(e.history)) for e in examples]
    index = {id(e.history): i for i, e in enumerate(examples)}
    batches = []
    real = train.batch_histories

    def spy(histories, *args):
        batches.append([index[id(h)] for h in histories])
        return real(histories, *args)

    with monkeypatch.context() as m:
        m.setattr(train, "batch_histories", spy)
        run(examples)
    return batches


def _epochs(batches, per_epoch, seed, n):
    """(indices visited in epoch k, the k-th permutation from default_rng(seed))."""
    rng = np.random.default_rng(seed)
    return [(sum(batches[k: k + per_epoch], []), rng.permutation(n))
            for k in range(0, len(batches), per_epoch)]


@pytest.mark.parametrize("max_steps", [0, 7], ids=["uncapped", "capped"])
def test_stages_batch_fresh_permutations(training_data, word_tokenizer, monkeypatch,
                                         max_steps):
    """Each epoch visits the examples in the next permutation of the stage's
    generator, so none twice; pre-training drops the short last batch and
    fine-tuning keeps it; the step count is the one the benchmark plans."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import lifecycle

    samples, groups, titles = training_data
    cfg = _run_cfg(epochs=3, max_steps=max_steps)

    # 90 samples: 5 full batches of 16 an epoch, 10 samples left over
    batches = _recorded_batches(monkeypatch, samples[:90], lambda examples: pretrain_run(
        examples, cfg, TINY, word_tokenizer, titles))
    assert len(batches) == lifecycle.pretrain_steps(90, cfg) == (7 if max_steps else 15)
    assert all(len(b) == 16 for b in batches)
    for visited, order in _epochs(batches, 5, cfg.seed, 90):
        assert visited == order[: len(visited)].tolist()

    # 45 groups: batches of 16, 16 and 13 an epoch
    batches = _recorded_batches(monkeypatch, groups[:45], lambda examples: finetune_run(
        examples, init_params(TINY, seed=0), cfg, word_tokenizer, titles))
    assert len(batches) == lifecycle.finetune_work(45, cfg)[0] == (7 if max_steps else 9)
    epochs = _epochs(batches, 3, cfg.seed + 7, 45)
    assert [len(b) for b in batches[:3]] == [16, 16, 13]
    assert sorted(epochs[0][0]) == sorted(epochs[1][0]) == list(range(45))
    for visited, order in epochs:
        assert visited == order[: len(visited)].tolist()


# test_acceptance.TOWER, the tower of the benchmark's train-small workload
ACCEPTANCE_TOWER = TowerConfig(d=16, user_layers=1, user_heads=2, user_ffn_hidden=32,
                               item_layers=1, max_history=24, vocab_size=300,
                               n_surfaces=4, n_devices=2)


def test_primitive_calls_per_step_are_pinned(training_data, word_tokenizer, monkeypatch):
    """One step of each stage on the acceptance tower dispatches exactly
    these primitives, so a change that adds or removes dispatches shows
    here and not only in the benchmark's traced runs."""
    samples, groups, titles = training_data
    calls = []
    real = autodiff.apply_primitive

    def counting(name, inputs, attrs=None):
        calls.append(name)
        return real(name, inputs, attrs)

    monkeypatch.setattr(autodiff, "apply_primitive", counting)
    pretrain_run(samples[:32], _run_cfg(batch_size=32, max_steps=1), ACCEPTANCE_TOWER,
                 word_tokenizer, titles)
    pretrain_calls = len(calls)
    finetune_run(groups[:16], init_params(ACCEPTANCE_TOWER, seed=0), _run_cfg(max_steps=1),
                 word_tokenizer, titles)
    assert (pretrain_calls, len(calls) - pretrain_calls) == (58, 77)


def test_every_parameter_gets_a_gradient(training_data, word_tokenizer, monkeypatch):
    """Three pre-training steps and three fine-tuning steps on the
    acceptance tower give every tensor of the layout a gradient above
    1e-12 in some stage: no parameter is one that no output depends on."""
    samples, groups, titles = training_data
    peak = dict.fromkeys((n for n, _shape, _init in param_layout(ACCEPTANCE_TOWER)), 0.0)
    grads_by_name = train._grads_by_name

    def recording(loss, params):
        grads = grads_by_name(loss, params)
        for name, g in grads.items():
            peak[name] = max(peak[name], float(np.max(np.abs(g))))
        return grads

    monkeypatch.setattr(train, "_grads_by_name", recording)
    pre = pretrain_run(samples, _run_cfg(batch_size=32, max_steps=3), ACCEPTANCE_TOWER,
                       word_tokenizer, titles)
    finetune_run(groups, pre, _run_cfg(max_steps=3), word_tokenizer, titles)
    assert {n: p for n, p in peak.items() if not p > 1e-12} == {}


def test_runs_tokenize_only_their_own_titles(training_data, word_tokenizer):
    """A run featurizes the titles of the items its examples name and the
    texts of their histories, never the rest of the catalog."""
    samples, groups, titles = training_data
    samples, groups = samples[:32], groups[:16]

    def only(item_ids, histories):
        allowed = {titles[i] for i in item_ids} | {e.text for h in histories for e in h.events}
        assert set(titles.values()) - allowed  # the catalog holds titles to skip

        def tok(text):
            assert text in allowed, f"tokenized {text!r}, which the run does not name"
            return word_tokenizer(text)
        return tok

    pretrain_run(samples, _run_cfg(max_steps=2), TINY,
                 only([s.item_id for s in samples], [s.history for s in samples]), titles)
    finetune_run(groups, init_params(TINY, seed=0), _run_cfg(max_steps=1),
                 only([i for g in groups for i in g.item_ids], [g.history for g in groups]),
                 titles)


# Two user layers, so that the square attention of the first layer runs as
# well as the last layer's one-query attention (TINY's only layer)
TWO_LAYERS = replace(TINY, user_layers=2)

# SHA-256 of the parameters after 4 pre-training steps and after 3 further
# fine-tuning steps, taken with numpy 2.4.6 when the calibration scalars
# became vectors and the key bias went (the pre-trained values kept their
# bits, the fine-tuned ones moved by at most 1.4e-17); a kernel that moves
# one bit moves them
TRAINED_DIGESTS = ("1d47dbe6d0b540b68660985bac5e08ce27b5d9ea97b168e8711aa140da19ba47",
                   "70754db4a72d00afcd56824ae7303f4033165a4edbc04c12436eeb0e6260a1a8")


def test_trained_bits_are_pinned(training_data, word_tokenizer):
    samples, groups, titles = training_data
    pre = pretrain_run(samples, _run_cfg(), TWO_LAYERS, word_tokenizer, titles)
    tuned = finetune_run(groups, pre, _run_cfg(max_steps=3), word_tokenizer, titles)
    assert (params_digest(pre), params_digest(tuned)) == TRAINED_DIGESTS
