"""Loss terms: sampled-softmax pre-training, pointwise click BCE,
calibrated BPR, and the combined fine-tuning objective.

All terms are expressed through the autodiff primitives so gradients flow
to the towers and to the calibration scalars.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .model import ModelParams
from .types import SIGNALS


def temperature(params: ModelParams) -> Tensor:
    """tau > 0 via softplus reparameterization."""
    return ad.softplus(params["loss_params.tau_raw"])


def pretrain_loss_matrix(scores: Tensor, tau: Tensor) -> Tensor:
    """Mean sampled-softmax loss over a batch.

    `scores` is (B, B) with scores[i, i] the positive pair and scores[i, j]
    (j != i) the in-batch negatives. Stable log-sum-exp with constant max
    subtraction.
    """
    B = scores.shape[0]
    if B < 2:
        raise ValueError("need at least one in-batch negative (batch size >= 2)")
    z = ad.mul(scores, ad.reshape(tau, (1, 1)))
    m = float(z.data.max())  # constant shift, exact for gradients
    lse = ad.log(ad.tsum(ad.exp(z - Tensor(np.full((), m))), axis=1)) + m
    diag = ad.tsum(ad.mul(z, Tensor(np.eye(B))), axis=1)
    return ad.tmean(lse - diag)


def click_logit(r_ui: Tensor, r_ctx: Tensor, params: ModelParams) -> Tensor:
    """alpha_cl * r + alpha_ctx * r_ctx + beta_cl, the logit of the click
    probability."""
    return (ad.mul(params["loss_params.alpha_cl"], r_ui)
            + ad.mul(params["loss_params.alpha_ctx"], r_ctx)
            + params["loss_params.beta_cl"])


def bce_click(r_ui: Tensor, r_ctx: Tensor, y, params: ModelParams) -> Tensor:
    """Per-item pointwise click loss on f = sigmoid(alpha_cl*r +
    alpha_ctx*r_ctx + beta_cl), computed stably from logits: softplus(z) -
    y*z. Not reduced; the caller weights the items."""
    z = click_logit(r_ui, r_ctx, params)
    y_t = Tensor(np.asarray(y, dtype=np.float64))
    return ad.softplus(z) - ad.mul(y_t, z)


def _calibrated_f_logit(r: Tensor, r_ctx: Tensor, signal: str, params: ModelParams) -> Tensor:
    return (ad.mul(params[f"loss_params.gamma.{signal}"], r)
            + ad.mul(params[f"loss_params.gamma_ctx.{signal}"], r_ctx)
            + params[f"loss_params.beta.{signal}"])


def bpr_calibrated(r_up: Tensor, r_un: Tensor, r_ctx: Tensor, signal: str,
                   params: ModelParams) -> Tensor:
    """-log( f_up / (f_up + f_un) ) with f = sigmoid of the calibrated
    logit; the shared context score enters both items."""
    f_up = ad.sigmoid(_calibrated_f_logit(r_up, r_ctx, signal, params))
    f_un = ad.sigmoid(_calibrated_f_logit(r_un, r_ctx, signal, params))
    return ad.log(f_up + f_un) - ad.log(f_up)


def finetune_objective(r_items: Tensor, r_ctx: Tensor, labels: list[dict],
                       params: ModelParams, pointwise_weight: float = 0.1) -> Tensor:
    """Combined ranking objective, averaged over a batch of impression groups.

    r_items and r_ctx are (N,): each item's similarity to its group's user
    and its group's context score, the groups' items concatenated in order;
    `labels` holds one label dict per group. Per group: for each signal, the
    mean calibrated BPR over all (positive, non-positive) pairs (zero without
    a pair), plus `pointwise_weight` times the mean click BCE over its items.
    """
    sizes = np.array([len(g["click"]) for g in labels])
    owner = np.repeat(np.arange(len(labels)), sizes)
    r_col = ad.reshape(r_items, (-1, 1))
    ctx_col = ad.reshape(r_ctx, (-1, 1))
    total = Tensor(np.zeros(()))
    for signal in SIGNALS:
        y = np.concatenate([g[signal] for g in labels])
        pos, neg = np.flatnonzero(y), np.flatnonzero(y == 0)
        # every (positive, negative) pair within a group, group by group
        pi, ni = np.nonzero(owner[pos, None] == owner[None, neg])
        if pi.size == 0:
            continue
        p_idx, n_idx, pair_owner = pos[pi], neg[ni], owner[pos[pi]]
        r_p = ad.reshape(ad.gather(r_col, p_idx), (-1,))
        r_n = ad.reshape(ad.gather(r_col, n_idx), (-1,))
        ctx = ad.reshape(ad.gather(ctx_col, p_idx), (-1,))
        pair_losses = bpr_calibrated(r_p, r_n, ctx, signal, params)
        weights = 1.0 / np.bincount(pair_owner)[pair_owner]  # 1 / pairs of the group
        total = total + ad.tsum(ad.mul(pair_losses, Tensor(weights)))
    bce = bce_click(r_items, r_ctx, np.concatenate([g["click"] for g in labels]), params)
    total = total + ad.tsum(ad.mul(bce, Tensor(pointwise_weight / sizes[owner])))
    return ad.scale(total, 1.0 / len(labels))
