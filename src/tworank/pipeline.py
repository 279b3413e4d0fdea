"""End-to-end orchestration: world generation, vocabulary, dataset
construction, two-stage training, model scoring, metric computation, and
the ablation matrix. Shared by the CLI and the acceptance suite."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import chain

import numpy as np

from .autodiff import Tensor, no_grad
from .dataset import (attach_history, build_finetune_groups,
                      build_pretrain_samples, time_split)
from .evaluate import discovery_subset, length_blocks, mean_ndcg, near_tie_groups
from .losses import calibrated_logits, temperature
from .model import (EMBED_BATCH, ModelParams, TowerConfig, batch_histories, init_params,
                    item_context, user_tower_forward_batch)
from .synth import (SynthConfig, SynthWorld, generate_world, make_balanced_eval_groups,
                    simulate_logs)
from .text import Vocab, build_vocab, tokenize
from .train import TrainConfig, finetune_run, item_embeddings_for, pretrain_run
from .types import ImpressionGroup

TEST_DAYS = 10


@dataclass
class Bundle:
    """Everything derived from one world + one data configuration."""

    world: SynthWorld
    records: list
    titles: list[str]  # world.titles itself: item i's title is titles[i]
    vocab: Vocab
    pretrain_train: list
    finetune_train: list
    finetune_test: list
    eval_groups: list[ImpressionGroup]
    first_touch: np.ndarray  # (n_users, n_categories) first item-event day; `days` if none
    include_web: bool
    _tok_cache: dict = field(default_factory=dict)

    def tokenize_fn(self, text: str):
        out = self._tok_cache.get(text)
        if out is None:
            out = self._tok_cache[text] = tokenize(text, self.vocab)
        return out


def build_bundle(world_cfg: SynthConfig, vocab_size: int = 2048,
                 max_history: int = 64, include_web: bool = True,
                 delay: int = 1, test_days: int = TEST_DAYS,
                 eval_groups_per_user: int = 2, *, world: SynthWorld, records,
                 vocab: Vocab | None = None) -> Bundle:
    if vocab is None:
        vocab = build_vocab(world.title_corpus(), vocab_size)
    boundary = world_cfg.days - test_days

    samples = build_pretrain_samples(records)
    groups = build_finetune_groups(records)
    eval_groups = make_balanced_eval_groups(world, boundary, world_cfg.days,
                                            seed=world_cfg.seed + 17,
                                            groups_per_user=eval_groups_per_user)
    pre_train, _ = time_split(samples, boundary)
    ft_train, ft_test = time_split(groups, boundary)
    # one cut for every history the bundle holds; test-window samples get none
    attach_history(pre_train + groups + eval_groups, records, delay, max_history, include_web)

    # every item event of the logs is a pre-training sample
    touches = np.array([(s.user_id, s.item_id, s.day) for s in samples],
                       dtype=np.int64).reshape(-1, 3)
    cfg = world.config
    first_touch = np.full((cfg.n_users, cfg.n_categories), cfg.days)
    np.minimum.at(first_touch, (touches[:, 0], world.item_categories[touches[:, 1]]),
                  touches[:, 2])

    return Bundle(world=world, records=records, titles=world.titles, vocab=vocab,
                  pretrain_train=pre_train, finetune_train=ft_train,
                  finetune_test=ft_test, eval_groups=eval_groups,
                  first_touch=first_touch, include_web=include_web)


def score_table(bundle: Bundle, params: ModelParams, groups) -> list[np.ndarray]:
    """Similarity scores of every group's items, in group order. Groups that
    share one history object share one user vector."""
    histories = list({id(g.history): g.history for g in groups}.values())
    user_row = {id(h): r for r, h in enumerate(histories)}
    with no_grad():
        user_vecs = np.empty((len(histories), params.config.d))
        for lo in range(0, len(histories), EMBED_BATCH):
            chunk = histories[lo: lo + EMBED_BATCH]
            hb = batch_histories(chunk, bundle.tokenize_fn, params.config)
            user_vecs[lo: lo + len(chunk)] = user_tower_forward_batch(hb, params).data

        unique_items = sorted({i for g in groups for i in g.item_ids})
        item_vecs = np.empty((len(unique_items), params.config.d))
        for lo in range(0, len(unique_items), EMBED_BATCH):
            chunk = unique_items[lo: lo + EMBED_BATCH]
            item_vecs[lo: lo + len(chunk)] = item_embeddings_for(
                chunk, bundle.titles, bundle.tokenize_fn, params).data
    sizes = np.fromiter((len(g.item_ids) for g in groups), np.intp, len(groups))
    item_rows = np.searchsorted(np.array(unique_items, dtype=np.int64), np.fromiter(
        chain.from_iterable(g.item_ids for g in groups), np.int64, int(sizes.sum())))
    users = user_vecs[[user_row[id(g.history)] for g in groups]][:, :, None]
    out = [None] * len(groups)
    # one stacked product per group length: (G_n, n, d) @ (G_n, d, 1) runs
    # each group's own matrix-vector product, so it keeps that product's bits
    for rows, at in length_blocks(np.cumsum(sizes) - sizes, sizes):
        block = np.matmul(item_vecs[item_rows[at]], users[rows])[..., 0]
        for r, row in zip(rows.tolist(), block):
            out[r] = row
    return out


def eval_metrics(bundle: Bundle, params: ModelParams) -> dict[str, float]:
    """Test nDCG on the context-balanced evaluation groups, for the
    retargeting-like (all items) and discovery-like (previously
    undiscovered categories) filters, and under "groups" how many groups
    each filter kept, and under "near_ties" how many groups hold two items
    of different relevance scored within `evaluate.NEAR_TIE` of each other.
    Discovery is NaN when it keeps none."""
    groups = bundle.eval_groups
    scores = score_table(bundle, params, groups)
    retarget = mean_ndcg(groups, scores)
    keeps = [discovery_subset(g, bundle.first_touch[g.user_id], bundle.world.item_categories)
             for g in groups]
    kept = [(g, s, keep) for g, s, keep in zip(groups, scores, keeps) if keep is not None]
    discovery = mean_ndcg(*zip(*kept)) if kept else float("nan")
    return {"retargeting": retarget, "discovery": discovery,
            "groups": {"retargeting": len(groups), "discovery": len(kept)},
            "near_ties": near_tie_groups(groups, scores)}


def calibration_report(bundle: Bundle, params: ModelParams, groups,
                       use_context: bool = True) -> dict[str, float]:
    """Mean predicted click probability vs empirical click rate on
    held-out impression groups."""
    if not groups:
        raise ValueError("calibration report needs at least one impression group")
    scores = score_table(bundle, params, groups)
    owner = np.repeat(np.arange(len(groups)), [len(g.item_ids) for g in groups])
    with no_grad():
        z = calibrated_logits(Tensor(np.concatenate(scores)),
                              item_context(groups, owner, params, use_context), params).data[:, 0]
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


def train_ablation(cells, world_cfg: SynthConfig, tower_cfg: TowerConfig,
                   pre_cfg: TrainConfig, ft_cfg: TrainConfig, seed: int, *,
                   delay: int = 1, include_web: bool = True, test_days: int = TEST_DAYS,
                   eval_groups_per_user: int = 2) -> dict[str, tuple[Bundle, ModelParams]]:
    """Train the ablation `cells` on one world for `seed`: cell -> (the
    bundle it is evaluated on, its trained parameters). The world, its logs
    and the vocabulary are made once; cells whose histories match share one
    bundle, the cells of one bundle share one pre-training, and cells whose
    fine-tunings have the same bundle, start and context term share one."""
    wc = replace(world_cfg, seed=seed)
    world = generate_world(wc)
    records = simulate_logs(world)
    vocab = build_vocab(world.title_corpus(), tower_cfg.vocab_size)
    bundles, pretrained, finetuned, out = {}, {}, {}, {}
    for cell in cells:
        tc = tower_cfg
        if cell == "both_short_history":
            tc = replace(tower_cfg, max_history=max(tower_cfg.max_history // 2, 4))
        key = (include_web and cell != "both_no_web", tc.max_history)
        if key not in bundles:
            bundles[key] = build_bundle(wc, vocab_size=tc.vocab_size, max_history=key[1],
                                        include_web=key[0], delay=delay, test_days=test_days,
                                        eval_groups_per_user=eval_groups_per_user,
                                        world=world, records=records, vocab=vocab)
        bundle = bundles[key]
        if cell != "finetune_only" and key not in pretrained:
            pretrained[key] = pretrain_run(bundle.pretrain_train, replace(pre_cfg, seed=seed),
                                           tc, bundle.tokenize_fn, bundle.titles)
        if cell == "pretrain_only":
            out[cell] = (bundle, pretrained[key])
            continue
        use_context = cell != "both_no_context" and ft_cfg.use_context
        ft_key = (key, cell == "finetune_only", use_context)
        if ft_key not in finetuned:
            start = init_params(tc, seed=seed) if cell == "finetune_only" else pretrained[key]
            finetuned[ft_key] = finetune_run(bundle.finetune_train, start,
                                             replace(ft_cfg, seed=seed, use_context=use_context),
                                             bundle.tokenize_fn, bundle.titles)
        out[cell] = (bundle, finetuned[ft_key])
    return out
