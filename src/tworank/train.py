"""Two-stage training: retrieval pre-training with in-batch negatives,
ranking fine-tuning, and continuous fine-tuning with frozen calibration
scalars. Parameters update per named group with groupwise gradient norm
clipping and a warmup + linear-decay schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, backward
from .model import (FROZEN_IN_CONTINUOUS, GROUP_NAMES, ModelParams, TowerConfig,
                    batch_histories, context_score, init_params,
                    item_tower_forward_batch, similarity_matrix,
                    user_tower_forward_batch)
from .losses import finetune_objective, pretrain_loss_matrix, temperature
from .types import ContextFeatures, ImpressionGroup, PretrainSample


@dataclass
class Schedule:
    warmup_steps: int
    total_steps: int
    mode: str = "warmup_linear_decay"

    def __post_init__(self):
        if self.mode not in ("warmup_linear_decay", "constant"):
            raise ValueError(f"unknown schedule mode {self.mode!r}")
        if self.warmup_steps > self.total_steps:
            raise ValueError("warmup_steps must be <= total_steps")


def lr_at(step: int, schedule: Schedule, base: float) -> float:
    """Linear warmup to `base`, then linear decay to zero at total_steps."""
    if step < 0 or step > schedule.total_steps:
        raise ValueError(f"step {step} outside [0, {schedule.total_steps}]")
    if schedule.mode == "constant":
        return base
    if step < schedule.warmup_steps:
        return base * step / schedule.warmup_steps
    tail = schedule.total_steps - schedule.warmup_steps
    if tail <= 0:
        return base
    return base * (schedule.total_steps - step) / tail


def clip_group(grads: dict[str, np.ndarray], max_norm: float) -> dict[str, np.ndarray]:
    """Scale a parameter group's gradients so their joint L2 norm is at
    most max_norm."""
    if max_norm <= 0:
        raise ValueError("max_norm must be > 0")
    sq = sum(float((g * g).sum()) for g in grads.values())
    norm = np.sqrt(sq)
    if norm <= max_norm:
        return grads
    factor = max_norm / norm
    return {k: g * factor for k, g in grads.items()}


def _default_lrs():
    return {"embeddings": 3e-3, "transformer": 3e-3,
            "candidate_tower": 3e-3, "loss_params": 3e-2}


def _default_clips():
    return {g: 1.0 for g in GROUP_NAMES}


@dataclass
class TrainConfig:
    batch_size: int = 64
    epochs: int = 3
    max_steps: int = 0  # 0 = no cap
    warmup_steps: int = 100
    schedule_mode: str = "warmup_linear_decay"
    lrs: dict = field(default_factory=_default_lrs)
    clips: dict = field(default_factory=_default_clips)
    pointwise_weight: float = 0.1
    use_context: bool = True
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0


class AdamOptimizer:
    """Adaptive moment estimation with per-group learning rates,
    groupwise clipping, and a shared schedule."""

    def __init__(self, params: ModelParams, config: TrainConfig, schedule: Schedule,
                 frozen_prefixes: tuple[str, ...] = ()):
        self.params = params
        self.config = config
        self.schedule = schedule
        self.frozen_prefixes = frozen_prefixes
        self.step_count = 0
        self.m = {n: np.zeros_like(t.data) for n, t in params.tensors.items()}
        self.v = {n: np.zeros_like(t.data) for n, t in params.tensors.items()}

    def _frozen(self, name: str) -> bool:
        return any(name.startswith(p) for p in self.frozen_prefixes)

    def step(self, grads: dict[str, np.ndarray]) -> None:
        cfg = self.config
        self.step_count += 1
        t = min(self.step_count, self.schedule.total_steps)
        by_group: dict[str, dict[str, np.ndarray]] = {g: {} for g in GROUP_NAMES}
        for name, g in grads.items():
            if self._frozen(name):
                continue
            by_group[self.params.group_of(name)][name] = g
        for group, group_grads in by_group.items():
            if not group_grads:
                continue
            clipped = clip_group(group_grads, cfg.clips[group])
            lr = lr_at(t, self.schedule, cfg.lrs[group])
            for name, g in clipped.items():
                m = self.m[name] = cfg.adam_beta1 * self.m[name] + (1 - cfg.adam_beta1) * g
                v = self.v[name] = cfg.adam_beta2 * self.v[name] + (1 - cfg.adam_beta2) * g * g
                mhat = m / (1 - cfg.adam_beta1 ** self.step_count)
                vhat = v / (1 - cfg.adam_beta2 ** self.step_count)
                p = self.params.tensors[name]
                p.data = p.data - lr * mhat / (np.sqrt(vhat) + cfg.adam_eps)


def _grads_by_name(loss, params: ModelParams) -> dict[str, np.ndarray]:
    tensor_grads = backward(loss, params.parameters())
    names = params.names()
    return {n: tensor_grads[params.tensors[n]] for n in names
            if np.any(tensor_grads[params.tensors[n]])}


class TitleEmbedder:
    """Precomputed token ids for catalog titles, padded per batch."""

    def __init__(self, titles: dict[int, str], tokenize_fn):
        self.token_ids = {i: tokenize_fn(t) for i, t in titles.items()}

    def batch(self, item_ids):
        toks = [self.token_ids[i] for i in item_ids]
        L = max((len(t) for t in toks), default=1)
        L = max(L, 1)
        ids = np.zeros((len(toks), L), dtype=np.int64)
        mask = np.zeros((len(toks), L))
        for r, t in enumerate(toks):
            ids[r, : len(t)] = t
            mask[r, : len(t)] = 1.0
        return ids, mask


def content_embed_batch(ids: np.ndarray, mask: np.ndarray, params: ModelParams) -> Tensor:
    """(B, L) padded token ids -> (B, d) CBOW sums."""
    B, L = ids.shape
    d = params.config.d
    rows = ad.gather(params["embeddings.content"], ids.reshape(-1))
    rows = ad.reshape(rows, (B, L, d))
    rows = ad.mul(rows, Tensor(mask[..., None]))
    return ad.tsum(rows, axis=1)


def item_embeddings_for(item_ids, embedder: TitleEmbedder, params: ModelParams) -> Tensor:
    ids, mask = embedder.batch(item_ids)
    return item_tower_forward_batch(content_embed_batch(ids, mask, params), params)


def _num_steps(n_records: int, config: TrainConfig) -> int:
    total = (n_records // config.batch_size) * config.epochs
    if config.max_steps:
        total = min(total, config.max_steps)
    return total


def pretrain_run(samples: list[PretrainSample], config: TrainConfig,
                 tower_config: TowerConfig, tokenize_fn, titles: dict[int, str],
                 init: ModelParams | None = None) -> ModelParams:
    """Retrieval pre-training: each sample's in-batch negatives are the
    other samples' positive items; sampled softmax over cosine scores.

    `tokenize_fn` is called for every history event of every step, so it
    should cache (as `Bundle.tokenize_fn` does)."""
    if len(samples) < config.batch_size:
        raise ValueError(f"{len(samples)} pretrain samples fill no batch of "
                         f"batch_size {config.batch_size}")
    params = init.copy() if init is not None else init_params(tower_config, seed=config.seed)
    n_steps = _num_steps(len(samples), config)
    schedule = Schedule(min(config.warmup_steps, n_steps), n_steps, config.schedule_mode)
    opt = AdamOptimizer(params, config, schedule)
    embedder = TitleEmbedder(titles, tokenize_fn)
    rng = np.random.default_rng(config.seed)
    order = np.arange(len(samples))
    step = 0
    done = False
    for _epoch in range(config.epochs):
        rng.shuffle(order)
        for lo in range(0, len(samples) - config.batch_size + 1, config.batch_size):
            batch = [samples[i] for i in order[lo: lo + config.batch_size]]
            hb = batch_histories([s.history for s in batch], tokenize_fn, tower_config)
            users = user_tower_forward_batch(hb, params)
            items = item_embeddings_for([s.item_id for s in batch], embedder, params)
            scores = similarity_matrix(users, items)
            loss = pretrain_loss_matrix(scores, temperature(params))
            opt.step(_grads_by_name(loss, params))
            step += 1
            if step >= schedule.total_steps:
                done = True
                break
        if done:
            break
    return params


def _finetune_epoch(groups: list[ImpressionGroup], params: ModelParams,
                    opt: AdamOptimizer, config: TrainConfig, tower_config: TowerConfig,
                    tokenize_fn, embedder: TitleEmbedder, rng, max_steps: int,
                    group_batch: int = 16) -> int:
    order = np.arange(len(groups))
    rng.shuffle(order)
    steps = 0
    for lo in range(0, len(groups), group_batch):
        batch = [groups[i] for i in order[lo: lo + group_batch]]
        hb = batch_histories([g.history for g in batch], tokenize_fn, tower_config)
        users = user_tower_forward_batch(hb, params)
        all_items = [i for g in batch for i in g.item_ids]
        item_embs = item_embeddings_for(all_items, embedder, params)
        total = Tensor(np.zeros(()))
        offset = 0
        for gi, g in enumerate(batch):
            n = len(g.item_ids)
            items_g = ad.gather(item_embs, np.arange(offset, offset + n))
            user_g = ad.gather(users, np.array([gi]))
            r_items = ad.tsum(ad.mul(items_g, user_g), axis=1)
            if config.use_context:
                r_ctx = context_score(ContextFeatures(g.surface_id, g.device_id), params)
            else:
                r_ctx = Tensor(np.zeros(()))
            total = total + finetune_objective(r_items, r_ctx, g.labels, params,
                                               config.pointwise_weight)
            offset += n
        loss = ad.scale(total, 1.0 / len(batch))
        opt.step(_grads_by_name(loss, params))
        steps += 1
        if opt.step_count >= max_steps:
            break
    return steps


def finetune_run(groups: list[ImpressionGroup], init: ModelParams,
                 config: TrainConfig, tokenize_fn, titles: dict[int, str],
                 group_batch: int = 16,
                 frozen_prefixes: tuple[str, ...] = ()) -> ModelParams:
    """Ranking fine-tuning on impression groups (single epoch by default
    at production scale; epochs configurable here)."""
    if not groups:
        raise ValueError("empty fine-tuning group stream")
    params = init.copy()  # never mutate the caller's checkpoint
    n_steps = max((len(groups) + group_batch - 1) // group_batch, 1) * config.epochs
    if config.max_steps:
        n_steps = min(n_steps, config.max_steps)
    schedule = Schedule(min(config.warmup_steps, n_steps), n_steps, config.schedule_mode)
    opt = AdamOptimizer(params, config, schedule, frozen_prefixes=frozen_prefixes)
    embedder = TitleEmbedder(titles, tokenize_fn)
    rng = np.random.default_rng(config.seed + 7)
    tower_config = params.config
    for _epoch in range(config.epochs):
        _finetune_epoch(groups, params, opt, config, tower_config, tokenize_fn,
                        embedder, rng, n_steps, group_batch)
        if opt.step_count >= n_steps:
            break
    return params


def continuous_finetune(prev: ModelParams, new_groups: list[ImpressionGroup],
                        config: TrainConfig, tokenize_fn, titles: dict[int, str],
                        group_batch: int = 16) -> ModelParams:
    """Continuous fine-tuning contract: sigmoid inner scalars frozen,
    constant learning rate, fresh optimizer state, fine-tune objective
    only."""
    cfg = replace(config, schedule_mode="constant")
    return finetune_run(new_groups, prev, cfg, tokenize_fn, titles,
                        group_batch=group_batch,
                        frozen_prefixes=FROZEN_IN_CONTINUOUS)
