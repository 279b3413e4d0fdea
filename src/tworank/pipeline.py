"""End-to-end orchestration: world generation, vocabulary, dataset
construction, two-stage training, model scoring, metric computation, and
the ablation matrix. Shared by the CLI and the acceptance suite."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import Tensor, no_grad
from .dataset import (attach_history, build_finetune_groups,
                      build_pretrain_samples, time_split)
from .evaluate import EvalReport, discovery_subset, mean_ndcg
from .losses import click_logit, temperature
from .model import (ModelParams, TowerConfig, batch_histories, context_score,
                    init_params, user_tower_forward_batch)
from .synth import (EventRecord, SynthConfig, SynthWorld, generate_world,
                    make_balanced_eval_groups, simulate_logs)
from .text import Vocab, build_vocab, tokenize
from .train import (TitleEmbedder, TrainConfig, finetune_run,
                    item_embeddings_for, pretrain_run)
from .types import ContextFeatures, ImpressionGroup

TEST_DAYS = 10
REGIMES = ("pretrain_only", "finetune_only", "both")


@dataclass
class Bundle:
    """Everything derived from one world + one data configuration."""

    world: SynthWorld
    records: list
    titles: dict[int, str]
    vocab: Vocab
    boundary: int
    pretrain_train: list
    finetune_train: list
    finetune_test: list
    eval_groups: list[ImpressionGroup]
    interacted_categories: dict[int, list[tuple[int, int]]]
    include_web: bool
    max_history: int
    _tok_cache: dict = field(default_factory=dict)

    def tokenize_fn(self, text: str):
        out = self._tok_cache.get(text)
        if out is None:
            out = self._tok_cache[text] = tokenize(text, self.vocab)
        return out

    def item_category(self, item_id: int) -> int:
        return int(self.world.item_categories[item_id])

    def known_categories(self, user_id: int, day: int) -> set[int]:
        return {c for d, c in self.interacted_categories.get(user_id, []) if d < day}


def build_bundle(world_cfg: SynthConfig, vocab_size: int = 2048,
                 max_history: int = 64, include_web: bool = True,
                 delay: int = 1, test_days: int = TEST_DAYS,
                 eval_groups_per_user: int = 2, world: SynthWorld | None = None,
                 records=None, vocab: Vocab | None = None) -> Bundle:
    if world is None:
        world = generate_world(world_cfg)
    if records is None:
        records = simulate_logs(world)
    titles = dict(enumerate(world.titles))
    if vocab is None:
        vocab = build_vocab(world.title_corpus(), vocab_size)
    boundary = world_cfg.days - test_days

    samples = build_pretrain_samples(records, delay=delay, max_history=max_history,
                                     include_web=include_web)
    groups = build_finetune_groups(records, delay=delay, max_history=max_history,
                                   include_web=include_web)
    pre_train, _ = time_split(samples, boundary)
    ft_train, ft_test = time_split(groups, boundary)

    eval_groups = make_balanced_eval_groups(world, boundary, world_cfg.days,
                                            seed=world_cfg.seed + 17,
                                            groups_per_user=eval_groups_per_user)
    for g in eval_groups:
        attach_history(g, records, delay=delay, max_history=max_history,
                       include_web=include_web)

    interacted = defaultdict(list)
    for rec in records:
        if isinstance(rec, EventRecord) and rec.event.item_id is not None:
            cat = int(world.item_categories[rec.event.item_id])
            interacted[rec.user_id].append((rec.event.day, cat))

    return Bundle(world=world, records=records, titles=titles, vocab=vocab,
                  boundary=boundary, pretrain_train=pre_train,
                  finetune_train=ft_train, finetune_test=ft_test,
                  eval_groups=eval_groups, interacted_categories=dict(interacted),
                  include_web=include_web, max_history=max_history)


def train_regime(bundle: Bundle, regime: str, tower_cfg: TowerConfig,
                 pre_cfg: TrainConfig, ft_cfg: TrainConfig) -> ModelParams:
    """One of: pretrain_only, finetune_only (random init), both."""
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}; expected one of {REGIMES}")
    if regime == "finetune_only":
        params = init_params(tower_cfg, seed=ft_cfg.seed)
    else:
        params = pretrain_run(bundle.pretrain_train, pre_cfg, tower_cfg,
                              bundle.tokenize_fn, bundle.titles)
    if regime in ("finetune_only", "both"):
        params = finetune_run(bundle.finetune_train, params, ft_cfg,
                              bundle.tokenize_fn, bundle.titles)
    return params


def score_table(bundle: Bundle, params: ModelParams, groups,
                batch_size: int = 64) -> dict[int, np.ndarray]:
    """Similarity scores for every group's items, keyed by id(group)."""
    with no_grad():
        user_vecs = np.empty((len(groups), params.config.d))
        for lo in range(0, len(groups), batch_size):
            chunk = groups[lo: lo + batch_size]
            hb = batch_histories([g.history.truncated(params.config.max_history)
                                  for g in chunk], bundle.tokenize_fn, params.config)
            user_vecs[lo: lo + len(chunk)] = user_tower_forward_batch(hb, params).data

        unique_items = sorted({i for g in groups for i in g.item_ids})
        embedder = TitleEmbedder({i: bundle.titles[i] for i in unique_items},
                                 bundle.tokenize_fn)
        item_vecs = np.empty((len(unique_items), params.config.d))
        for lo in range(0, len(unique_items), batch_size):
            chunk = unique_items[lo: lo + batch_size]
            item_vecs[lo: lo + len(chunk)] = item_embeddings_for(
                chunk, embedder, params).data
    item_row = {item: r for r, item in enumerate(unique_items)}
    out = {}
    for gi, g in enumerate(groups):
        rows = [item_row[i] for i in g.item_ids]
        out[id(g)] = item_vecs[rows] @ user_vecs[gi]
    return out


def eval_metrics(bundle: Bundle, params: ModelParams, groups=None) -> dict[str, float]:
    """Test nDCG on the context-balanced evaluation groups, for the
    retargeting-like (all items) and discovery-like (previously
    undiscovered categories) filters."""
    if groups is None:
        groups = bundle.eval_groups
    scores = score_table(bundle, params, groups)
    retarget = mean_ndcg(groups, lambda g: scores[id(g)])
    disc_groups, disc_scores = [], {}
    for g in groups:
        known = bundle.known_categories(g.user_id, g.day)
        sub = discovery_subset(g, known, bundle.item_category)
        if sub is None:
            continue
        keep = [i for i, item in enumerate(g.item_ids) if item in set(sub.item_ids)]
        disc_scores[id(sub)] = scores[id(g)][keep]
        disc_groups.append(sub)
    discovery = (mean_ndcg(disc_groups, lambda g: disc_scores[id(g)])
                 if disc_groups else float("nan"))
    return {"retargeting": retarget, "discovery": discovery}


def calibration_report(bundle: Bundle, params: ModelParams, groups,
                       use_context: bool = True) -> dict[str, float]:
    """Mean predicted click probability vs empirical click rate on
    held-out impression groups."""
    if not groups:
        raise ValueError("calibration report needs at least one impression group")
    scores = score_table(bundle, params, groups)
    with no_grad():
        # one context score per distinct (surface, device) pair, not per group
        ctx = {(g.surface_id, g.device_id): 0.0 for g in groups}
        if use_context:
            ctx = {k: context_score(ContextFeatures(*k), params).data for k in ctx}
        r_ctx = [ctx[g.surface_id, g.device_id] for g in groups]
        z = click_logit(Tensor(np.concatenate([scores[id(g)] for g in groups])),
                        Tensor(np.repeat(r_ctx, [len(g.item_ids) for g in groups])),
                        params).data
    preds = 1.0 / (1.0 + np.exp(-z))
    ys = np.concatenate([g.labels["click"] for g in groups])
    return {"mean_predicted": float(np.mean(preds)),
            "empirical_rate": float(np.mean(ys)),
            "temperature": float(temperature(params).data)}


# ---------------------------------------------------------------------------
# ablation matrix
# ---------------------------------------------------------------------------

ABLATION_CELLS = (
    "pretrain_only",
    "finetune_only",
    "both",
    "both_no_context",
    "both_no_web",
    "both_short_history",
)


def run_ablation_cell(cell: str, world_cfg: SynthConfig, tower_cfg: TowerConfig,
                      pre_cfg: TrainConfig, ft_cfg: TrainConfig, seed: int,
                      vocab_size: int = 2048, test_days: int = TEST_DAYS,
                      delay: int = 1) -> dict[str, float]:
    """Train one ablation cell on a fresh world for `seed` and return its
    test metrics."""
    wc = replace(world_cfg, seed=seed)
    include_web = cell != "both_no_web"
    max_history = tower_cfg.max_history
    tc = tower_cfg
    if cell == "both_short_history":
        max_history = max(tower_cfg.max_history // 2, 4)
        tc = replace(tower_cfg, max_history=max_history,
                     max_positions=max_history + 1)
    bundle = build_bundle(wc, vocab_size=vocab_size, max_history=max_history,
                          include_web=include_web, delay=delay,
                          test_days=test_days)
    regime = cell if cell in REGIMES else "both"
    pc = replace(pre_cfg, seed=seed)
    fc = replace(ft_cfg, seed=seed,
                 use_context=(cell != "both_no_context") and ft_cfg.use_context)
    params = train_regime(bundle, regime, tc, pc, fc)
    return eval_metrics(bundle, params)


def ablation_runner(world_cfg: SynthConfig, tower_cfg: TowerConfig,
                    pre_cfg: TrainConfig, ft_cfg: TrainConfig,
                    seeds=(0, 1, 2), cells=ABLATION_CELLS,
                    vocab_size: int = 2048, test_days: int = TEST_DAYS,
                    delay: int = 1) -> list[EvalReport]:
    """One EvalReport row per cell x seed x surface filter."""
    rows = []
    for cell in cells:
        for seed in seeds:
            metrics = run_ablation_cell(cell, world_cfg, tower_cfg, pre_cfg,
                                        ft_cfg, seed, vocab_size=vocab_size,
                                        test_days=test_days, delay=delay)
            for surface, value in metrics.items():
                rows.append(EvalReport(metric=f"ndcg/{cell}", surface_filter=surface,
                                       value=value, seed_count=1))
    return rows
