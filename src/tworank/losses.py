"""Loss terms: sampled-softmax pre-training, pointwise click BCE,
calibrated BPR, and the combined fine-tuning objective.

All terms are expressed through the autodiff primitives so gradients flow
to the towers and to the calibration vectors.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .model import CALIBRATED, ModelParams
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


def bce_click(z: Tensor, y) -> Tensor:
    """Pointwise click loss -y log f - (1 - y) log(1 - f) of f = sigmoid(z),
    computed stably from the logits: softplus(z) - y*z. Not reduced; the
    caller weights the items."""
    return ad.softplus(z) - ad.mul(Tensor(np.asarray(y, dtype=np.float64)), z)


def calibrated_logits(r: Tensor, r_ctx: Tensor, params: ModelParams) -> Tensor:
    """(N, S + 1) logits w_r * r + w_ctx * r_ctx + b of the calibrated
    probabilities f: the rows [r, r_ctx, 1] times the (3, S + 1) matrix of
    the vectors loss_params.calib.<k> of CALIBRATED. Column 0 is the
    pointwise click's, column 1 + s that of SIGNALS[s]."""
    w = ad.concat([params[f"loss_params.calib.{k}"] for k in CALIBRATED])
    w = ad.transpose(ad.reshape(w, (len(CALIBRATED), 3)), (1, 0))
    rows = ad.concat([ad.reshape(r, (-1, 1)), ad.reshape(r_ctx, (-1, 1)),
                      Tensor(np.ones((r.shape[0], 1)))], axis=1)
    return ad.matmul(rows, w)


def bpr_calibrated(z_up: Tensor, z_un: Tensor) -> Tensor:
    """-log( f_up / (f_up + f_un) ) with f = sigmoid of the calibrated
    logits z, written as softplus(softplus(-z_up) - softplus(-z_un)) (log f
    = -softplus(-z)), so that it and its gradient stay finite at any logit."""
    return ad.softplus(ad.softplus(-z_up) - ad.softplus(-z_un))


def finetune_objective(r_items: Tensor, r_ctx: Tensor, labels: list[dict],
                       params: ModelParams, pointwise_weight: float = 0.1) -> Tensor:
    """Combined ranking objective, averaged over a batch of impression groups.

    r_items and r_ctx are (N,): each item's similarity to its group's user
    and its group's context score, the groups' items concatenated in order;
    `labels` holds one label dict per group. Per group: for each signal, the
    mean calibrated BPR over all (positive, non-positive) pairs (zero without
    a pair), plus `pointwise_weight` times the mean click BCE over its items.
    All signals' pairs are scored in one vector; a signal without a pair in
    the batch gets exactly zero gradient.
    """
    sizes = np.array([len(g["click"]) for g in labels])
    owner = np.repeat(np.arange(len(labels)), sizes)
    up, un, weights = [], [], []
    for s, signal in enumerate(SIGNALS, start=1):
        y = np.concatenate([g[signal] for g in labels])
        pos, neg = np.flatnonzero(y), np.flatnonzero(y == 0)
        # every (positive, negative) pair within a group, group by group
        pi, ni = np.nonzero(owner[pos, None] == owner[None, neg])
        pair_owner = owner[pos[pi]]
        # cells (item, column) of the flattened (N, S + 1) logits
        up.append(pos[pi] * len(CALIBRATED) + s)
        un.append(neg[ni] * len(CALIBRATED) + s)
        weights.append(1.0 / np.bincount(pair_owner)[pair_owner])  # 1 / pairs of the group
    z = ad.reshape(calibrated_logits(r_items, r_ctx, params), (-1, 1))
    pairs = bpr_calibrated(ad.gather(z, np.concatenate(up)), ad.gather(z, np.concatenate(un)))
    total = ad.tsum(ad.mul(pairs, Tensor(np.concatenate(weights).reshape(-1, 1))))
    clicks = np.concatenate([g["click"] for g in labels]).reshape(-1, 1)
    bce = bce_click(ad.gather(z, np.arange(len(owner)) * len(CALIBRATED)), clicks)
    total = total + ad.tsum(ad.mul(bce, Tensor((pointwise_weight / sizes[owner]).reshape(-1, 1))))
    return ad.scale(total, 1.0 / len(labels))
