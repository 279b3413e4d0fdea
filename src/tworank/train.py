"""Two-stage training: retrieval pre-training with in-batch negatives,
ranking fine-tuning, and continuous fine-tuning with frozen calibration
scalars, all run by one step loop. Parameters update per named group with
groupwise gradient norm clipping and a warmup + linear-decay schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, backward
from .model import (FROZEN_IN_CONTINUOUS, GROUP_NAMES, ModelParams, TowerConfig,
                    batch_histories, content_embed_batch, init_params, item_context,
                    item_tower_forward_batch, pad_tokens, similarity_matrix,
                    user_tower_forward_batch)
from .losses import finetune_objective, pretrain_loss_matrix, temperature
from .types import ImpressionGroup, PretrainSample, check_least


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
CLIP_NORM = 1.0  # each group's joint gradient norm is clipped to this


@dataclass
class Schedule:
    warmup_steps: int
    total_steps: int
    constant: bool = False


def lr_at(step: int, schedule: Schedule, base: float) -> float:
    """Linear warmup to `base`, then linear decay to zero at total_steps;
    `base` at every step of a constant schedule."""
    if schedule.constant:
        return base
    if step < schedule.warmup_steps:
        return base * step / schedule.warmup_steps
    tail = schedule.total_steps - schedule.warmup_steps
    if tail <= 0:
        return base
    return base * (schedule.total_steps - step) / tail


def _merged(spans: list[slice]) -> list[slice]:
    """The slices, each joined to the one before it where they touch."""
    out: list[slice] = []
    for span in spans:
        if out and out[-1].stop == span.start:
            out[-1] = slice(out[-1].start, span.stop)
        else:
            out.append(span)
    return out


@dataclass
class TrainConfig:
    batch_size: int = 64
    epochs: int = 3
    max_steps: int = 0  # 0 = no cap
    warmup_steps: int = 100
    # one learning rate per parameter group (model.GROUP_NAMES); 0 leaves
    # the group as it is
    lr_embeddings: float = 3e-3
    lr_transformer: float = 3e-3
    lr_candidate_tower: float = 3e-3
    lr_loss_params: float = 3e-2
    pointwise_weight: float = 0.1
    use_context: bool = True
    seed: int = 0

    def __post_init__(self):
        check_least(vars(self), (
            ("batch_size", 2), ("epochs", 1), ("max_steps", 0), ("warmup_steps", 0),
            ("pointwise_weight", 0), ("seed", 0), *((f"lr_{g}", 0) for g in GROUP_NAMES)))


class AdamOptimizer:
    """Adaptive moment estimation with per-group learning rates,
    groupwise clipping, and a shared schedule.

    The optimizer owns the parameters' storage: it copies every tensor, in
    `params.tensors` order, into one flat buffer and rebinds each tensor's
    `.data` to a view of its slice. The two moments and the gradient live in
    buffers of the same layout, and a step updates them all in place with
    the per-tensor formula's operations in its order, so its bits. A tensor
    that gets no gradient in a step keeps its value and moments: its slices
    are put back after the update."""

    def __init__(self, params: ModelParams, config: TrainConfig, schedule: Schedule):
        self.config = config
        self.schedule = schedule
        self.step_count = 0
        tensors = params.tensors
        size = sum(t.data.size for t in tensors.values())
        dtype = np.result_type(*(t.data.dtype for t in tensors.values()))
        self._flat = np.empty(size, dtype)
        self._grad = np.zeros(size, dtype)
        self.m, self.v = np.zeros(size, dtype), np.zeros(size, dtype)
        self._scratch = (np.empty(size, dtype), np.empty(size, dtype))
        self._group = {n: params.group_of(n) for n in tensors}
        self._spans: dict[str, slice] = {}
        self._grad_views: dict[str, np.ndarray] = {}
        start = 0
        for name, t in tensors.items():
            span = self._spans[name] = slice(start, start + t.data.size)
            view = self._flat[span].reshape(t.data.shape)
            view[...] = t.data
            t.data = view
            self._grad_views[name] = self._grad[span].reshape(view.shape)
            start = span.stop
        self._group_runs = {g: _merged([s for n, s in self._spans.items() if self._group[n] == g])
                           for g in GROUP_NAMES}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        """One Adam step on `grads` (name -> gradient). A non-finite
        gradient raises ValueError before anything changes."""
        cfg, flat, g, m, v = self.config, self._flat, self._grad, self.m, self.v
        t = self.step_count + 1
        idle = _merged([s for n, s in self._spans.items() if n not in grads])
        for span in idle:
            g[span] = 0.0
        sq: dict[str, float] = {}  # each group's squared gradient norm
        for name, grad in grads.items():
            np.copyto(self._grad_views[name], grad)
            group = self._group[name]
            sq[group] = sq.get(group, 0) + float((grad * grad).sum())
        if not np.isfinite(g).all():
            bad = [grp for grp in GROUP_NAMES if any(
                self._group[n] == grp and not np.isfinite(x).all() for n, x in grads.items())]
            raise ValueError(f"step {t}: non-finite gradients in groups {bad}")
        self.step_count = t
        lrs = []
        for group in GROUP_NAMES:
            if group not in sq:
                continue
            norm = np.sqrt(sq[group])
            if norm > CLIP_NORM:  # clip the group's joint norm to CLIP_NORM
                factor = CLIP_NORM / norm
                for span in self._group_runs[group]:
                    g[span] *= factor
            lrs.append((group, lr_at(t, self.schedule, getattr(cfg, f"lr_{group}"))))
        kept = [(span, flat[span].copy(), m[span].copy(), v[span].copy()) for span in idle]
        s, r = self._scratch
        m *= ADAM_BETA1
        np.multiply(g, 1 - ADAM_BETA1, out=s)
        m += s
        v *= ADAM_BETA2
        np.multiply(g, 1 - ADAM_BETA2, out=s)
        s *= g
        v += s
        np.divide(m, 1 - ADAM_BETA1 ** t, out=s)  # mhat
        for group, lr in lrs:
            for span in self._group_runs[group]:
                s[span] *= lr
        np.divide(v, 1 - ADAM_BETA2 ** t, out=r)  # vhat
        np.sqrt(r, out=r)
        r += ADAM_EPS
        s /= r
        flat -= s
        for span, p0, m0, v0 in kept:
            flat[span], m[span], v[span] = p0, m0, v0


def _grads_by_name(loss, params: ModelParams) -> dict[str, np.ndarray]:
    """The loss's non-zero gradients by parameter name. Backward reaches no
    constant tensor, and Adam skips a tensor that got no gradient."""
    grads = backward(loss)
    return {n: g for n, t in params.tensors.items()
            if (g := grads.get(id(t))) is not None and np.any(g)}


def item_embeddings_for(item_ids, titles: list[str], tokenize_fn,
                        params: ModelParams) -> Tensor:
    """Item tower outputs (B, d) over the padded CBOW of each item's title."""
    ids, mask = pad_tokens([tokenize_fn(titles[i]) for i in item_ids])
    return item_tower_forward_batch(content_embed_batch(ids, mask, params), params)


def _train(params: ModelParams, config: TrainConfig, n: int, batch_size: int,
           n_batches: int, seed: int, batch_loss, *, constant_lr: bool = False) -> ModelParams:
    """The step loop of both stages. Each epoch visits the n examples in a
    fresh `rng.permutation(n)` of `default_rng(seed)`, cut into n_batches
    slices of batch_size indices; `batch_loss(indices)` gives each slice's
    loss, and Adam steps once per slice until min(n_batches * epochs,
    max_steps) steps are spent, at a constant learning rate if `constant_lr`."""
    n_steps = n_batches * config.epochs
    if config.max_steps:
        n_steps = min(n_steps, config.max_steps)
    schedule = Schedule(min(config.warmup_steps, n_steps), n_steps, constant_lr)
    opt = AdamOptimizer(params, config, schedule)
    rng = np.random.default_rng(seed)
    for step in range(n_steps):
        k = step % n_batches
        if k == 0:
            order = rng.permutation(n)
        loss = batch_loss(order[k * batch_size: (k + 1) * batch_size])
        opt.step(_grads_by_name(loss, params))
    return params


def pretrain_run(samples: list[PretrainSample], config: TrainConfig,
                 tower_config: TowerConfig, tokenize_fn, titles: list[str]) -> ModelParams:
    """Retrieval pre-training: each sample's in-batch negatives are the
    other samples' positive items; sampled softmax over cosine scores.
    Only full batches of `config.batch_size` samples are taken.

    `tokenize_fn` is called for every distinct event text and every item
    title of every step, so it should cache (as `Bundle.tokenize_fn` does)."""
    if len(samples) < config.batch_size:
        raise ValueError(f"{len(samples)} pretrain samples fill no batch of "
                         f"batch_size {config.batch_size}")
    params = init_params(tower_config, seed=config.seed)

    def batch_loss(indices):
        batch = [samples[i] for i in indices]
        hb = batch_histories([s.history for s in batch], tokenize_fn, tower_config)
        users = user_tower_forward_batch(hb, params)
        items = item_embeddings_for([s.item_id for s in batch], titles, tokenize_fn, params)
        return pretrain_loss_matrix(similarity_matrix(users, items), temperature(params))

    return _train(params, config, len(samples), config.batch_size,
                  len(samples) // config.batch_size, config.seed, batch_loss)


def finetune_run(groups: list[ImpressionGroup], init: ModelParams,
                 config: TrainConfig, tokenize_fn, titles: list[str],
                 group_batch: int = 16, *, constant_lr: bool = False) -> ModelParams:
    """Ranking fine-tuning on impression groups, `group_batch` groups a
    step; the last batch of an epoch may be short. The learning rate warms
    up and decays unless `constant_lr`. Tensors of `init` whose
    requires_grad is False stay as they are."""
    if not groups:
        raise ValueError("empty fine-tuning group stream")
    params = init.copy()  # never mutate the caller's checkpoint

    def batch_loss(indices):
        batch = [groups[i] for i in indices]
        hb = batch_histories([g.history for g in batch], tokenize_fn, params.config)
        users = user_tower_forward_batch(hb, params)
        owner = np.repeat(np.arange(len(batch)), [len(g.item_ids) for g in batch])
        item_embs = item_embeddings_for([i for g in batch for i in g.item_ids], titles,
                                        tokenize_fn, params)
        r_items = ad.tsum(ad.mul(item_embs, ad.gather(users, owner)), axis=1)
        return finetune_objective(r_items, item_context(batch, owner, params, config.use_context),
                                  [g.labels for g in batch], params, config.pointwise_weight)

    n_batches = (len(groups) + group_batch - 1) // group_batch
    return _train(params, config, len(groups), group_batch, n_batches, config.seed + 7,
                  batch_loss, constant_lr=constant_lr)


def continuous_finetune(prev: ModelParams, new_groups: list[ImpressionGroup],
                        config: TrainConfig, tokenize_fn, titles: list[str]) -> ModelParams:
    """Continuous fine-tuning contract: the calibration vectors frozen (a
    constant gets no gradient), constant learning rate, fresh optimizer
    state, fine-tune objective only. Every returned tensor trains again."""
    start = prev.copy()
    for name, t in start.tensors.items():
        t.requires_grad = not name.startswith(FROZEN_IN_CONTINUOUS)
    params = finetune_run(new_groups, start, config, tokenize_fn, titles, constant_lr=True)
    for t in params.tensors.values():
        t.requires_grad = True
    return params
