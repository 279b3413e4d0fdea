"""Metrics: nDCG analytic values, discovery filtering, the score table and
the calibration report."""

import numpy as np
import pytest

from tworank.evaluate import discovery_subset, group_relevance, mean_ndcg, ndcg
from tworank import pipeline
from tworank.model import TowerConfig, batch_histories, init_params, user_tower_forward_batch
from tworank.pipeline import build_bundle, calibration_report, score_table
from tworank.train import item_embeddings_for
from tworank.types import ImpressionGroup

SIGNALS = ("click", "cart", "fvrt", "prch")


def _group(item_ids, clicks, day=0, **extra_labels):
    labels = {s: [0] * len(item_ids) for s in SIGNALS}
    labels["click"] = list(clicks)
    for s, v in extra_labels.items():
        labels[s] = list(v)
    return ImpressionGroup(user_id=0, day=day, surface_id=0, device_id=0,
                           item_ids=list(item_ids), labels=labels)


# ---------------------------------------------------------------------------
# nDCG
# ---------------------------------------------------------------------------


def test_ndcg_perfect_ranking():
    assert ndcg([2.0, 1.0], [1, 0], [10, 11]) == pytest.approx(1.0)


def test_ndcg_positive_at_second_of_two():
    # DCG = 1/log2(3), IDCG = 1
    expect = 1.0 / np.log2(3.0)
    assert ndcg([1.0, 2.0], [1, 0], [10, 11]) == pytest.approx(expect, abs=1e-9)
    assert expect == pytest.approx(0.63092975, abs=1e-8)


def test_ndcg_scale_invariant():
    scores = np.array([0.3, -0.2, 0.9])
    rel = [0, 1, 1]
    a = ndcg(scores, rel, [1, 2, 3])
    b = ndcg(scores * 1000 + 5.0, rel, [1, 2, 3])
    assert a == pytest.approx(b, abs=1e-12)


def test_ndcg_tie_breaks_by_ascending_item_id():
    # equal scores: item 5 ranks before item 9, so relevance on 5 wins
    high = ndcg([1.0, 1.0], [1, 0], [5, 9])
    low = ndcg([1.0, 1.0], [0, 1], [5, 9])
    assert high == pytest.approx(1.0)
    assert low == pytest.approx(1.0 / np.log2(3.0), abs=1e-9)


def test_ndcg_graded_gains():
    # gain 2^rel - 1: rel 3 at top vs bottom of 2
    top = ndcg([2.0, 1.0], [3, 0], [1, 2])
    bottom = ndcg([1.0, 2.0], [3, 0], [1, 2])
    assert top == pytest.approx(1.0)
    assert bottom == pytest.approx(1.0 / np.log2(3.0), abs=1e-9)


def test_ndcg_requires_a_positive():
    with pytest.raises(ValueError):
        ndcg([1.0, 2.0], [0, 0], [1, 2])


def test_group_relevance_is_binary():
    g = _group([1, 2, 3], [1, 0, 0], prch=[0, 0, 1])
    assert np.array_equal(group_relevance(g), [1, 0, 1])


def test_mean_ndcg_averages():
    groups = [_group([1, 2], [1, 0]), _group([3, 4], [0, 1])]
    val = mean_ndcg(groups, lambda g: np.array([2.0, 1.0]))
    assert val == pytest.approx((1.0 + 1.0 / np.log2(3.0)) / 2, abs=1e-9)


def test_mean_ndcg_no_scorable_groups():
    with pytest.raises(ValueError):
        mean_ndcg([], lambda g: np.zeros(2))


# ---------------------------------------------------------------------------
# discovery filter
# ---------------------------------------------------------------------------


def test_discovery_subset_keeps_unknown_categories():
    g = _group([10, 11, 12], [1, 1, 0])
    category = {10: 0, 11: 1, 12: 1}.__getitem__
    sub = discovery_subset(g, known_categories={0}, item_category=category)
    assert sub.item_ids == [11, 12]
    assert sub.labels["click"] == [1, 0]


def test_discovery_subset_too_small_returns_none():
    g = _group([10, 11], [1, 0])
    category = {10: 0, 11: 1}.__getitem__
    assert discovery_subset(g, {0}, category) is None


def test_discovery_subset_requires_surviving_positive():
    g = _group([10, 11, 12], [1, 0, 0])
    category = {10: 0, 11: 1, 12: 1}.__getitem__
    assert discovery_subset(g, {0}, category) is None


# ---------------------------------------------------------------------------
# score table and calibration report
# ---------------------------------------------------------------------------


def test_score_table_encodes_each_history_once(small_world, small_logs, monkeypatch):
    """One user-tower row per distinct history object, in chunks of at most
    batch_size rows, and every group scored as if alone."""
    tower = TowerConfig(d=8, user_layers=1, user_heads=2, item_layers=1,
                        max_history=6, vocab_size=64)
    bundle = build_bundle(small_world.config, vocab_size=64, max_history=6,
                          test_days=3, world=small_world, records=small_logs)
    groups = bundle.eval_groups + bundle.finetune_test
    distinct = {id(g.history) for g in groups}
    assert len(distinct) < len(groups)  # groups share histories, so there is work to save
    params = init_params(tower, seed=0)
    draw = np.random.default_rng(11)
    for t in params.tensors.values():
        t.data = t.data + draw.normal(scale=0.2, size=t.data.shape)

    rows = []

    def counted(hb, p):
        rows.append(hb.event_mask.shape[0])
        return user_tower_forward_batch(hb, p)

    monkeypatch.setattr(pipeline, "user_tower_forward_batch", counted)
    monkeypatch.setattr(pipeline, "EMBED_BATCH", 8)
    scores = score_table(bundle, params, groups)
    monkeypatch.undo()
    assert sum(rows) == len(distinct) and max(rows) <= 8

    for g in groups:
        hb = batch_histories([g.history], bundle.tokenize_fn, tower)
        user = user_tower_forward_batch(hb, params).data[0]
        want = item_embeddings_for(g.item_ids, bundle.titles, bundle.tokenize_fn,
                                   params).data @ user
        assert np.allclose(scores[id(g)], want, rtol=0.0, atol=1e-12)



@pytest.mark.parametrize("use_context", [True, False])
def test_calibration_report_values(small_world, small_logs, use_context):
    tower = TowerConfig(d=8, user_layers=1, user_heads=2, item_layers=1,
                        max_history=6, vocab_size=64, n_surfaces=4, n_devices=2)
    bundle = build_bundle(small_world.config, vocab_size=64, max_history=6,
                          test_days=3, world=small_world, records=small_logs)
    groups = bundle.finetune_test
    assert groups
    params = init_params(tower, seed=0)
    draw = np.random.default_rng(5)
    for name in ("alpha_cl", "alpha_ctx", "beta_cl", "tau_raw", "ctx_surface", "ctx_device"):
        t = params[f"loss_params.{name}"]
        t.data = draw.normal(size=t.data.shape)

    # the formula the report applies, written out
    scores = score_table(bundle, params, groups)
    a_cl, a_ctx, b_cl, tau_raw = (float(params[f"loss_params.{n}"].data)
                                  for n in ("alpha_cl", "alpha_ctx", "beta_cl", "tau_raw"))
    surf = params["loss_params.ctx_surface"].data[:, 0]
    dev = params["loss_params.ctx_device"].data[:, 0]
    preds, ys = [], []
    for g in groups:
        r_ctx = surf[g.surface_id] + dev[g.device_id] if use_context else 0.0
        preds.extend(1.0 / (1.0 + np.exp(-(a_cl * scores[id(g)] + a_ctx * r_ctx + b_cl))))
        ys.extend(g.labels["click"])

    got = calibration_report(bundle, params, groups, use_context=use_context)
    assert abs(got["mean_predicted"] - np.mean(preds)) <= 1e-12
    assert abs(got["empirical_rate"] - np.mean(ys)) <= 1e-12
    assert abs(got["temperature"] - np.log1p(np.exp(tau_raw))) <= 1e-12
    with pytest.raises(ValueError, match="at least one impression group"):
        calibration_report(bundle, params, [], use_context=use_context)
