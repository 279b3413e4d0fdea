"""Loss terms: sampled-softmax pre-training, pointwise click BCE,
original and calibrated BPR, and the combined fine-tuning objective.

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


def pretrain_loss(r_up: Tensor, r_un: Tensor, tau: Tensor) -> Tensor:
    """Single-sample sampled softmax: positive score r_up (scalar) against
    negatives r_un (N,)."""
    if r_un.data.size < 1:
        raise ValueError("need at least one negative")
    zp = ad.mul(r_up, tau)
    zn = ad.mul(r_un, tau)
    allz = ad.concat([ad.reshape(zp, (1,)), ad.reshape(zn, (-1,))])
    m = float(allz.data.max())
    lse = ad.log(ad.tsum(ad.exp(allz - Tensor(np.full((), m))))) + m
    return lse - zp


def click_logit(r_ui: Tensor, r_ctx: Tensor, params: ModelParams) -> Tensor:
    """alpha_cl * r + alpha_ctx * r_ctx + beta_cl, the logit of the click
    probability."""
    return (ad.mul(params["loss_params.alpha_cl"], r_ui)
            + ad.mul(params["loss_params.alpha_ctx"], r_ctx)
            + params["loss_params.beta_cl"])


def bce_click(r_ui: Tensor, r_ctx: Tensor, y, params: ModelParams) -> Tensor:
    """Pointwise click loss on f = sigmoid(alpha_cl*r + alpha_ctx*r_ctx +
    beta_cl), computed stably from logits: softplus(z) - y*z."""
    z = click_logit(r_ui, r_ctx, params)
    y_t = Tensor(np.asarray(y, dtype=np.float64))
    per = ad.softplus(z) - ad.mul(y_t, z)
    return ad.tmean(per) if per.data.ndim else per


def bpr_original(r_up: Tensor, r_un: Tensor, gamma_k: Tensor) -> Tensor:
    """-log sigmoid(gamma_k * (r_up - r_un)), via softplus(-z)."""
    z = ad.mul(gamma_k, r_up - r_un)
    return ad.softplus(-z)


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


def finetune_objective(r_items: Tensor, r_ctx: Tensor, labels: dict[str, np.ndarray],
                       params: ModelParams, pointwise_weight: float = 0.1) -> Tensor:
    """Combined ranking objective for one impression group.

    r_items: (n,) similarities of the group's items to the user. For each
    signal, the mean calibrated BPR over all (positive, non-positive)
    pairs; plus `pointwise_weight` times the mean click BCE over all
    impressed items. Signals without a valid pair contribute zero.
    """
    n = r_items.shape[0]
    total = Tensor(np.zeros(()))
    for signal in SIGNALS:
        y = np.asarray(labels[signal])
        pos = np.nonzero(y)[0]
        neg = np.nonzero(y == 0)[0]
        if pos.size == 0 or neg.size == 0:
            continue
        p_idx = np.repeat(pos, neg.size)
        n_idx = np.tile(neg, pos.size)
        r2 = ad.reshape(r_items, (n, 1))
        r_p = ad.reshape(ad.gather(r2, p_idx), (-1,))
        r_n = ad.reshape(ad.gather(r2, n_idx), (-1,))
        pair_losses = bpr_calibrated(r_p, r_n, r_ctx, signal, params)
        total = total + ad.tmean(pair_losses)
    click_y = np.asarray(labels["click"], dtype=np.float64)
    total = total + ad.scale(bce_click(r_items, r_ctx, click_y, params), pointwise_weight)
    return total


def finetune_objective_bruteforce(r_items: np.ndarray, r_ctx: float,
                                  labels: dict[str, np.ndarray], params: ModelParams,
                                  pointwise_weight: float = 0.1) -> float:
    """Independent oracle: explicit scalar enumeration of every pair and
    impression, no tensor machinery."""

    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-x))

    def scalar(name):
        return float(params[name].data)

    total = 0.0
    for signal in SIGNALS:
        y = list(labels[signal])
        g = scalar(f"loss_params.gamma.{signal}")
        gc = scalar(f"loss_params.gamma_ctx.{signal}")
        b = scalar(f"loss_params.beta.{signal}")
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
    a_cl = scalar("loss_params.alpha_cl")
    a_ctx = scalar("loss_params.alpha_ctx")
    b_cl = scalar("loss_params.beta_cl")
    bce_vals = []
    for i, yi in enumerate(labels["click"]):
        f = sigmoid(a_cl * r_items[i] + a_ctx * r_ctx + b_cl)
        bce_vals.append(-yi * np.log(f) - (1 - yi) * np.log(1 - f))
    total += pointwise_weight * float(np.mean(bce_vals))
    return total
