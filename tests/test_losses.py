"""Loss terms against closed-form values and an independent scalar-loop
oracle."""

import numpy as np
import pytest

from tworank.autodiff import Tensor, backward, gradcheck
from tworank.losses import (bce_click, bpr_calibrated, calibrated_logits,
                            finetune_objective, pretrain_loss_matrix, temperature)
from tworank.model import TowerConfig, init_params
from tworank.types import SIGNALS

from oracles import bpr_original, finetune_objective_bruteforce, pretrain_loss

LN2 = float(np.log(2.0))


@pytest.fixture
def params():
    return init_params(TowerConfig(d=8, user_layers=1, user_heads=2,
                                   item_layers=1, max_history=4, vocab_size=16),
                       seed=0)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


# ---------------------------------------------------------------------------
# temperature
# ---------------------------------------------------------------------------


def test_temperature_initial_value(params):
    assert float(temperature(params).data) == pytest.approx(10.0, abs=1e-9)


def test_temperature_positive_everywhere(params):
    params["loss_params.tau_raw"].data = np.asarray(-30.0)
    assert float(temperature(params).data) > 0.0


# ---------------------------------------------------------------------------
# sampled softmax
# ---------------------------------------------------------------------------


def test_pretrain_loss_uniform_scores_log_n_plus_one():
    tau = Tensor(np.asarray(3.0))
    for n_neg in (1, 4, 9):
        loss = pretrain_loss(Tensor(np.asarray(0.5)),
                             Tensor(np.full(n_neg, 0.5)), tau)
        assert float(loss.data) == pytest.approx(np.log(n_neg + 1), abs=1e-9)


def test_pretrain_loss_matrix_uniform_scores_log_batch():
    for B in (2, 5):
        loss = pretrain_loss_matrix(Tensor(np.full((B, B), 0.2)), Tensor(np.asarray(7.0)))
        assert float(loss.data) == pytest.approx(np.log(B), abs=1e-9)


def test_pretrain_loss_matrix_analytic_two_by_two():
    # z = tau * scores; per-row loss = log(1 + exp(z_neg - z_pos))
    scores = np.array([[1.0, 0.0], [0.3, 0.9]])
    tau = 2.0
    expect = 0.5 * (np.log1p(np.exp(tau * (0.0 - 1.0)))
                    + np.log1p(np.exp(tau * (0.3 - 0.9))))
    loss = pretrain_loss_matrix(Tensor(scores), Tensor(np.asarray(tau)))
    assert float(loss.data) == pytest.approx(expect, abs=1e-9)


def test_pretrain_loss_matrix_stable_at_large_logits():
    loss = pretrain_loss_matrix(Tensor(np.array([[500.0, -500.0], [-500.0, 500.0]])),
                                Tensor(np.asarray(1.0)))
    assert np.isfinite(float(loss.data))


def test_pretrain_loss_requires_negatives():
    with pytest.raises(ValueError):
        pretrain_loss(Tensor(np.asarray(0.0)), Tensor(np.zeros(0)), Tensor(np.asarray(1.0)))
    with pytest.raises(ValueError):
        pretrain_loss_matrix(Tensor(np.zeros((1, 1))), Tensor(np.asarray(1.0)))


def test_softmax_sigmoid_identity_over_logit_grid():
    """Two-class softmax cross-entropy equals the sigmoid form: for scores
    (z, 0) the positive-class loss is softplus(-z) = -log sigmoid(z)."""
    tau = Tensor(np.asarray(1.0))
    for z in np.linspace(-20.0, 20.0, 81):
        soft = float(pretrain_loss(Tensor(np.asarray(z)), Tensor(np.zeros(1)), tau).data)
        sig = float(np.logaddexp(0.0, -z))  # softplus(-z), stable
        assert soft == pytest.approx(sig, abs=1e-9), z


# ---------------------------------------------------------------------------
# pointwise click loss
# ---------------------------------------------------------------------------


def test_bce_zero_logit_is_log_two():
    zero = Tensor(np.asarray(0.0))
    for y in (0.0, 1.0):
        loss = bce_click(zero, y)
        assert float(loss.data) == pytest.approx(LN2, abs=1e-9)


def test_bce_matches_direct_formula():
    z = np.array([0.3, -1.2, 2.0])
    y = np.array([1.0, 0.0, 1.0])
    f = _sigmoid(z)
    expect = -y * np.log(f) - (1 - y) * np.log(1 - f)
    loss = bce_click(Tensor(z), y)
    assert loss.shape == (3,)  # per item, not reduced
    assert np.allclose(loss.data, expect, rtol=0.0, atol=1e-9)


def test_bce_stable_at_extreme_logits():
    loss = bce_click(Tensor(np.asarray(800.0)), 0.0)
    assert np.isfinite(float(loss.data))


def test_calibrated_logit_columns_match_their_vectors(params):
    """Column 0 is the pointwise click logit and column 1 + s that of
    SIGNALS[s], each w_r * r + w_ctx * r_ctx + b of its own vector."""
    rng = np.random.default_rng(2)
    for k in ("pointwise", *SIGNALS):
        params[f"loss_params.calib.{k}"].data = rng.normal(size=3)
    r, r_ctx = rng.normal(size=5), rng.normal(size=5)
    z = calibrated_logits(Tensor(r), Tensor(r_ctx), params).data
    assert z.shape == (5, 1 + len(SIGNALS))
    for col, k in enumerate(("pointwise", *SIGNALS)):
        w_r, w_ctx, b = params[f"loss_params.calib.{k}"].data
        assert np.allclose(z[:, col], w_r * r + w_ctx * r_ctx + b, rtol=0.0, atol=1e-15), k


# ---------------------------------------------------------------------------
# pairwise losses
# ---------------------------------------------------------------------------


def test_bpr_original_equal_scores_is_log_two():
    loss = bpr_original(Tensor(np.asarray(0.7)), Tensor(np.asarray(0.7)),
                        Tensor(np.asarray(1.0)))
    assert float(loss.data) == pytest.approx(LN2, abs=1e-9)


def test_bpr_original_unit_margin():
    # gamma=1, r_up - r_un = 1: loss = softplus(-1) = log(1 + e^-1)
    loss = bpr_original(Tensor(np.asarray(1.0)), Tensor(np.asarray(0.0)),
                        Tensor(np.asarray(1.0)))
    assert float(loss.data) == pytest.approx(np.log1p(np.exp(-1.0)), abs=1e-9)


def _pair_loss(r_up, r_un, r_ctx, params, signal="click"):
    """Calibrated BPR of one pair sharing the context score r_ctx, through
    `calibrated_logits`."""
    z = calibrated_logits(Tensor(np.array([r_up, r_un])), Tensor(np.full(2, r_ctx)), params)
    z_up, z_un = z.data[:, 1 + SIGNALS.index(signal)]
    return float(bpr_calibrated(Tensor(z_up), Tensor(z_un)).data)


def test_bpr_calibrated_equal_scores_is_log_two(params):
    assert _pair_loss(0.4, 0.4, 0.0, params) == pytest.approx(LN2, abs=1e-9)


def test_bpr_calibrated_closed_form(params):
    # identity calibration at init: f = sigmoid(r + r_ctx)
    r_up, r_un, r_ctx = 1.0, 0.0, 0.0
    f_up, f_un = _sigmoid(r_up + r_ctx), _sigmoid(r_un + r_ctx)
    expect = -np.log(f_up / (f_up + f_un))
    assert _pair_loss(r_up, r_un, r_ctx, params) == pytest.approx(expect, abs=1e-9)


def test_bpr_calibrated_context_shifts_both_items(params):
    """A strongly negative shared context pushes both f toward 0 and the
    pair loss toward the original BPR value."""
    base = _pair_loss(1.0, 0.0, 0.0, params)
    shifted = _pair_loss(1.0, 0.0, -8.0, params)
    bpr = float(bpr_original(Tensor(np.asarray(1.0)), Tensor(np.asarray(0.0)),
                             Tensor(params["loss_params.calib.click"].data[0])).data)
    assert abs(shifted - bpr) < abs(base - bpr)


def test_bpr_calibrated_finite_at_extreme_logits():
    """Where both sigmoids underflow to 0, the loss and its gradient stay
    finite: ln(1 + e^10) at (-760, -750), 800 - ln 2 at (-800, 0)."""
    for (z_up, z_un), expect in (((-760.0, -750.0), 10.0 + np.log1p(np.exp(-10.0))),
                                 ((-800.0, 0.0), 800.0 - LN2)):
        up = Tensor(np.asarray(z_up), requires_grad=True)
        un = Tensor(np.asarray(z_un), requires_grad=True)
        loss = bpr_calibrated(up, un)
        assert float(loss.data) == pytest.approx(expect, rel=1e-12)
        grads = backward(loss, [up, un])
        assert all(np.isfinite(g) for g in grads.values())


# ---------------------------------------------------------------------------
# combined objective
# ---------------------------------------------------------------------------


def _random_group(rng, n):
    labels = {}
    for s in ("click", "cart", "fvrt", "prch"):
        labels[s] = list(rng.integers(0, 2, size=n))
    return labels


def _one_group(r, r_ctx, labels, params, **kw):
    """The objective of a one-group batch: the group's own objective."""
    return finetune_objective(Tensor(np.asarray(r, dtype=np.float64)),
                              Tensor(np.full(len(labels["click"]), r_ctx)),
                              [labels], params, **kw)


def test_objective_matches_bruteforce(params):
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        r = rng.normal(size=n)
        r_ctx = float(rng.normal())
        labels = _random_group(rng, n)
        a = float(_one_group(r, r_ctx, labels, params).data)
        b = finetune_objective_bruteforce(r, r_ctx, labels, params)
        assert a == pytest.approx(b, abs=1e-12)


def test_objective_skips_signals_without_pairs(params):
    labels = {"click": [1, 0], "cart": [0, 0], "fvrt": [1, 1], "prch": [0, 0]}
    # only click has a (pos, neg) pair -> ln2; plus 0.1 * mean BCE at z=0
    loss = float(_one_group([0.0, 0.0], 0.0, labels, params, pointwise_weight=0.1).data)
    assert loss == pytest.approx(LN2 + 0.1 * LN2, abs=1e-9)


def test_objective_pointwise_weight_scales_bce(params):
    labels = {"click": [1, 0], "cart": [0, 0], "fvrt": [0, 0], "prch": [0, 0]}
    l1 = float(_one_group([0.0, 0.0], 0.0, labels, params, pointwise_weight=0.0).data)
    l2 = float(_one_group([0.0, 0.0], 0.0, labels, params, pointwise_weight=1.0).data)
    assert l2 - l1 == pytest.approx(LN2, abs=1e-9)


def test_objective_gradients_reach_calibration_scalars(params):
    rng = np.random.default_rng(5)
    r = Tensor(rng.normal(size=4), requires_grad=True)
    r_ctx = Tensor(np.full(4, 0.3))
    labels = {"click": [1, 0, 1, 0], "cart": [1, 0, 0, 0],
              "fvrt": [0, 0, 0, 0], "prch": [0, 0, 0, 0]}
    loss = finetune_objective(r, r_ctx, [labels], params)
    grads = backward(loss, list(params.tensors.values()))
    for key in ("pointwise", "click", "cart"):
        assert np.all(grads[params[f"loss_params.calib.{key}"]]), key
    for key in ("fvrt", "prch"):  # no pair
        assert not np.any(grads[params[f"loss_params.calib.{key}"]]), key


def _perturbed(params, rng):
    """Calibration vectors moved off their identity init, so that every
    entry matters."""
    for n in params.names():
        if n.startswith("loss_params.calib."):
            params[n].data = params[n].data + rng.normal(scale=0.3, size=3)
    return params


def _random_batch(rng, n_groups):
    """Concatenated item scores of `n_groups` groups, one context score per
    group, the group sizes and their label dicts. Some signals are
    all-positive or all-negative in a group, so they have no pair there."""
    sizes = rng.integers(1, 7, size=n_groups)
    labels = []
    for n in sizes:
        group = _random_group(rng, n)
        for s, mode in zip(("cart", "prch"), rng.integers(0, 3, size=2)):
            if mode == 1:
                group[s] = [1] * n
            elif mode == 2:
                group[s] = [0] * n
        labels.append(group)
    r = rng.normal(size=sizes.sum())
    group_ctx = rng.normal(size=n_groups)
    return r, group_ctx, sizes, labels


def test_batched_objective_is_mean_of_group_oracles(params):
    rng = np.random.default_rng(11)
    params = _perturbed(params, rng)
    worst = 0.0
    for _ in range(200):
        r, group_ctx, sizes, labels = _random_batch(rng, int(rng.integers(1, 17)))
        got = float(finetune_objective(Tensor(r), Tensor(np.repeat(group_ctx, sizes)),
                                       labels, params, pointwise_weight=0.3).data)
        bounds = np.cumsum(sizes)[:-1]
        want = np.mean([finetune_objective_bruteforce(r_g, c, lab, params, pointwise_weight=0.3)
                        for r_g, c, lab in zip(np.split(r, bounds), group_ctx, labels)])
        worst = max(worst, abs(got - want))
    assert worst <= 1e-12


def _objective_and_point(params, rng):
    """The batched objective as a function of the item scores, the context
    scores and the calibration vectors, and a random point for it."""
    r, group_ctx, sizes, labels = _random_batch(rng, 5)
    vectors = [n for n in params.names() if n.startswith("loss_params.calib.")]

    def objective(r_items, r_ctx, *values):
        p = params.copy()
        for name, value in zip(vectors, values):
            p.tensors[name] = value
        return finetune_objective(r_items, r_ctx, labels, p)

    return objective, [r, np.repeat(group_ctx, sizes)] + [params[n].data for n in vectors]


def test_batched_objective_gradcheck(params):
    """Gradients with respect to the item scores, the context scores and
    the calibration vectors match central finite differences."""
    rng = np.random.default_rng(12)
    report = gradcheck(*_objective_and_point(_perturbed(params, rng), rng))
    assert report.passed, report


def test_batched_objective_gradcheck_at_extreme_logits(params):
    """Where every calibrated logit is far below -745, the gradients are
    finite (gradcheck alone would not see a NaN) and match central finite
    differences."""
    rng = np.random.default_rng(12)
    objective, point = _objective_and_point(_extreme(params, rng), rng)
    inputs = [Tensor(np.asarray(p), requires_grad=True) for p in point]
    grads = backward(objective(*inputs), inputs)
    assert all(np.all(np.isfinite(g)) for g in grads.values())
    report = gradcheck(objective, point)
    assert report.passed, report


def _extreme(params, rng):
    """Calibration vectors that put every signal's logits far below -745,
    where each sigmoid underflows to 0, and one signal's spread over
    (-1600, 0)."""
    params = _perturbed(params, rng)
    for signal in SIGNALS:
        params[f"loss_params.calib.{signal}"].data[2] = -800.0 + rng.normal()
    params["loss_params.calib.cart"].data[0] = 400.0
    return params


def _objective_closed_form(r, r_ctx, labels, params, pointwise_weight=0.1):
    """One group's objective in float64 through np.logaddexp, with no
    tensor machinery: log f = -logaddexp(0, -z), a pair's loss is
    logaddexp(log f_p, log f_n) - log f_p, and the click BCE is
    logaddexp(0, z) - y * z. Finite at any logit."""
    def logit(key):
        w_r, w_ctx, b = params[f"loss_params.calib.{key}"].data
        return w_r * r + w_ctx * r_ctx + b

    total = 0.0
    for signal in SIGNALS:
        y = np.asarray(labels[signal])
        z = logit(signal)
        log_f = -np.logaddexp(0.0, -z)
        lp, ln = np.meshgrid(log_f[y != 0], log_f[y == 0], indexing="ij")
        if lp.size:
            total += float(np.mean(np.logaddexp(lp, ln) - lp))
    z = logit("pointwise")
    y = np.asarray(labels["click"])
    return total + pointwise_weight * float(np.mean(np.logaddexp(0.0, z) - y * z))


def test_objective_matches_closed_form_at_extreme_logits(params):
    """Far below the range of the sigmoid-form oracle, the objective
    matches an independent logaddexp closed form."""
    rng = np.random.default_rng(13)
    params = _extreme(params, rng)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        r = rng.normal(size=n)
        r_ctx = float(rng.normal())
        labels = _random_group(rng, n)
        got = float(_one_group(r, r_ctx, labels, params).data)
        want = _objective_closed_form(r, r_ctx, labels, params)
        assert np.isfinite(got)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

