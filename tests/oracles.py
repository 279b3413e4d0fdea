"""Single-sample references that the tests hold the package's batched code
against. No command runs them, so they live here and not in `tworank`."""

from __future__ import annotations

import numpy as np

from tworank import autodiff as ad
from tworank.autodiff import Tensor, no_grad
from tworank.evaluate import group_relevance
from tworank.model import (EMBED_BATCH, ModelParams, batch_histories,
                           user_tower_forward_batch)
from tworank.synth import _ADJECTIVES, _COMMON, _NOUNS
from tworank.text import Vocab, _segment_word
from tworank.train import item_embeddings_for
from tworank.types import SIGNALS


def pieces_of(word: str, vocab: Vocab) -> list[str]:
    """Piece strings for a word (for round-trip checks)."""
    return [vocab.tokens[i] for i in _segment_word(word, vocab)]


def content_embed(token_ids, matrix: Tensor) -> Tensor:
    """Sum of embedding rows; zero vector for an empty sequence. The
    reference for `model.content_embed_batch`."""
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.size == 0:
        return Tensor(np.zeros(matrix.shape[1], dtype=matrix.data.dtype))
    if ids.min() < 0 or ids.max() >= matrix.shape[0]:
        raise IndexError(f"token id out of range [0, {matrix.shape[0]})")
    rows = ad.gather(matrix, ids)
    return ad.tsum(rows, axis=0)


def similarity(v_u: Tensor, v_i: Tensor) -> Tensor:
    """Inner product of unit-norm embeddings (cosine similarity). The
    reference for `model.similarity_matrix`."""
    return ad.tsum(ad.mul(v_u, v_i))


def pretrain_loss(r_up: Tensor, r_un: Tensor, tau: Tensor) -> Tensor:
    """Single-sample sampled softmax: positive score r_up (scalar) against
    negatives r_un (N,). The reference for `losses.pretrain_loss_matrix`."""
    if r_un.data.size < 1:
        raise ValueError("need at least one negative")
    zp = ad.mul(r_up, tau)
    zn = ad.mul(r_un, tau)
    allz = ad.concat([ad.reshape(zp, (1,)), ad.reshape(zn, (-1,))])
    m = float(allz.data.max())
    lse = ad.log(ad.tsum(ad.exp(allz - Tensor(np.full((), m))))) + m
    return lse - zp


def bpr_original(r_up: Tensor, r_un: Tensor, gamma_k: Tensor) -> Tensor:
    """-log sigmoid(gamma_k * (r_up - r_un)), via softplus(-z): the
    uncalibrated pairwise loss, the analytic check of the calibrated one."""
    z = ad.mul(gamma_k, r_up - r_un)
    return ad.softplus(-z)


def finetune_objective_bruteforce(r_items: np.ndarray, r_ctx: float,
                                  labels: dict[str, np.ndarray], params: ModelParams,
                                  pointwise_weight: float = 0.1) -> float:
    """Independent oracle of `losses.finetune_objective` for one group:
    explicit scalar enumeration of every pair and impression, no tensor
    machinery.

    It keeps the paper's sigmoid form, so it is finite only while every
    calibrated and click logit z is above about -709, where exp(-z)
    overflows and f rounds to 0, and every click logit is below about 37,
    where f rounds to 1 and the BCE takes log 0. Near that upper end
    log(1 - f) also loses precision, by a relative error of about
    e^z * 1e-16. `tests/test_losses.py` checks extreme logits against a
    logaddexp closed form instead."""

    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-x))

    def scalars(key):
        """The weights of r and r_ctx and the offset of one calibrated logit."""
        return [float(x) for x in params[f"loss_params.calib.{key}"].data]

    total = 0.0
    for signal in SIGNALS:
        y = list(labels[signal])
        g, gc, b = scalars(signal)
        pair_vals = []
        for i, yi in enumerate(y):
            if not yi:
                continue
            for j, yj in enumerate(y):
                if yj:
                    continue
                f_p = sigmoid(g * r_items[i] + gc * r_ctx + b)
                f_n = sigmoid(g * r_items[j] + gc * r_ctx + b)
                pair_vals.append(-np.log(f_p / (f_p + f_n)))
        if pair_vals:
            total += float(np.mean(pair_vals))
    a_cl, a_ctx, b_cl = scalars("pointwise")
    bce_vals = []
    for i, yi in enumerate(labels["click"]):
        f = sigmoid(a_cl * r_items[i] + a_ctx * r_ctx + b_cl)
        bce_vals.append(-yi * np.log(f) - (1 - yi) * np.log(1 - f))
    total += pointwise_weight * float(np.mean(bce_vals))
    return total


def world_per_item(config) -> dict:
    """Every drawn array of `synth.generate_world`'s world, with the titles
    drawn one item at a time by `rng.choice` and `rng.integers` and the
    latents made per item with np.mean and np.linalg.norm: the reference for
    its batched title draws and latents. It replays all of the world's
    draws, the users' after the item loop included."""
    rng = np.random.default_rng(config.seed)
    m, C = config.latent_dim, config.n_categories
    centers = rng.normal(size=(C, m))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    item_categories = rng.integers(0, C, size=config.n_items)
    flat = sorted({w for a in _ADJECTIVES for n in _NOUNS for w in (a, n)})
    perm = rng.permutation(len(flat))
    per_cat = max(4, len(flat) // C)
    category_words = [[flat[perm[(c * per_cat + i) % len(flat)]] for i in range(per_cat)]
                      for c in range(C)]
    word_vectors = {}
    for c in range(C):
        for w in category_words[c]:
            v = centers[c] + 1.0 * rng.normal(size=m)
            word_vectors[w] = v / np.linalg.norm(v)

    titles = []
    item_latents = np.empty((config.n_items, m))
    for i in range(config.n_items):
        words = category_words[item_categories[i]]
        picks = rng.choice(len(words), size=3, replace=False)
        title_words = [words[j] for j in picks]
        z = np.mean([word_vectors[w] for w in title_words], axis=0)
        item_latents[i] = z / np.linalg.norm(z)
        title = list(title_words)
        title.append(_COMMON[rng.integers(0, len(_COMMON))])
        title.append(f"sku{i % 97}")
        titles.append(" ".join(title))

    user_primary = rng.integers(0, C, size=config.n_users)
    user_secondary = (user_primary + rng.integers(1, C, size=config.n_users)) % C
    lo = int(config.days * 0.3)
    user_switch_day = rng.integers(lo, max(int(config.days * 0.95), lo + 1), size=config.n_users)
    user_base = 0.25 * rng.normal(size=(config.n_users, m))
    user_device = rng.integers(0, config.n_devices, size=config.n_users)
    return dict(category_centers=centers, item_categories=item_categories,
                category_words=category_words, item_latents=item_latents, titles=titles,
                user_primary=user_primary, user_secondary=user_secondary,
                user_switch_day=user_switch_day, user_base=user_base, user_device=user_device)


def world_items_per_item(config) -> tuple[np.ndarray, list[str]]:
    """The item latents and titles of `world_per_item`."""
    world = world_per_item(config)
    return world["item_latents"], world["titles"]


def title_draws_per_item(rng, per_cat: int, n_items: int) -> tuple[np.ndarray, np.ndarray]:
    """Each item's title picks and `_COMMON` index drawn one item at a time:
    the reference for `synth._title_draws`."""
    picks = np.empty((n_items, 3), dtype=np.intp)
    common = np.empty(n_items, dtype=np.intp)
    for i in range(n_items):
        picks[i] = rng.choice(per_cat, size=3, replace=False)
        common[i] = rng.integers(0, len(_COMMON))
    return picks, common


def ndcg_one(scores, relevances, item_ids) -> float:
    """nDCG of one group, ranked by itself: the reference for each row of
    `evaluate.ndcg`."""
    scores = np.asarray(scores, dtype=np.float64)
    rel = np.asarray(relevances, dtype=np.float64)
    ids = np.asarray(item_ids)
    if not np.any(rel > 0):
        raise ValueError("ndcg needs at least one positive relevance")
    order = np.lexsort((ids, -scores))

    def dcg(ranked_rel):
        ranks = np.arange(1, len(ranked_rel) + 1)
        return float(((2.0 ** ranked_rel - 1.0) / np.log2(ranks + 1)).sum())

    got = dcg(rel[order])
    ideal = dcg(np.sort(rel)[::-1])
    return got / ideal


def mean_ndcg_per_group(groups, scores, keep=None) -> float:
    """`ndcg_one` of each group with a positive, averaged in group order:
    the reference for `evaluate.mean_ndcg`."""
    vals = []
    for k, (g, s) in enumerate(zip(groups, scores)):
        rel, ids = group_relevance(g), np.asarray(g.item_ids)
        if keep is not None:
            rel, ids, s = rel[keep[k]], ids[keep[k]], s[keep[k]]
        if np.any(rel > 0):
            vals.append(ndcg_one(s, rel, ids))
    if not vals:
        raise ValueError("no scorable groups")
    return float(np.mean(vals))


def score_table_per_group(bundle, params: ModelParams, groups) -> list[np.ndarray]:
    """The user and item vectors of `pipeline.score_table`, each group
    scored by its own matrix-vector product: the reference for its stacked
    products."""
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
    item_row = {item: r for r, item in enumerate(unique_items)}
    return [item_vecs[[item_row[i] for i in g.item_ids]] @ user_vecs[user_row[id(g.history)]]
            for g in groups]
