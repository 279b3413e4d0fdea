"""Metrics: nDCG analytic values, discovery filtering, the score table,
the evaluation metrics and the calibration report."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tworank import evaluate, pipeline
from tworank.evaluate import discovery_subset, group_relevance, mean_ndcg, ndcg
from tworank.model import TowerConfig, batch_histories, init_params, user_tower_forward_batch
from tworank.pipeline import build_bundle, calibration_report, eval_metrics, score_table
from tworank.synth import EventRecord, SynthConfig, generate_world
from tworank.text import build_vocab
from tworank.train import item_embeddings_for
from tworank.types import Event, EventType, ImpressionGroup

SIGNALS = ("click", "cart", "fvrt", "prch")


def _group(item_ids, clicks, day=0, user_id=0, **extra_labels):
    labels = {s: [0] * len(item_ids) for s in SIGNALS}
    labels["click"] = list(clicks)
    for s, v in extra_labels.items():
        labels[s] = list(v)
    return ImpressionGroup(user_id=user_id, day=day, surface_id=0, device_id=0,
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
    val = mean_ndcg(groups, [np.array([2.0, 1.0])] * 2)
    assert val == pytest.approx((1.0 + 1.0 / np.log2(3.0)) / 2, abs=1e-9)


def test_mean_ndcg_scores_kept_positions_only():
    # group 0 keeps items 2 and 3 (positive ranked second), group 1 all three
    groups = [_group([1, 2, 3], [1, 1, 0]), _group([4, 5, 6], [0, 0, 1])]
    scores = [np.array([9.0, 1.0, 2.0]), np.array([3.0, 2.0, 1.0])]
    val = mean_ndcg(groups, scores, [np.array([1, 2]), np.array([0, 1, 2])])
    assert val == pytest.approx((1.0 / np.log2(3.0) + 0.5) / 2, abs=1e-9)


def test_mean_ndcg_no_scorable_groups():
    with pytest.raises(ValueError):
        mean_ndcg([], [])
    with pytest.raises(ValueError):
        mean_ndcg([_group([1, 2], [1, 0])], [np.zeros(2)], [np.array([1])])


# ---------------------------------------------------------------------------
# discovery filter
# ---------------------------------------------------------------------------


# items 10 and 11 are in category 0, 12 and 13 in category 1; the user first
# touched category 0 on day 2 and category 1 on day 5
CATEGORY = np.array([0] * 12 + [1, 1])
TOUCHED = np.array([2, 5])


def test_discovery_subset_keeps_unknown_categories():
    g = _group([10, 12, 13], [1, 1, 0], day=4)
    keep = discovery_subset(g, TOUCHED, CATEGORY)
    assert keep.tolist() == [1, 2]
    assert [g.labels["click"][i] for i in keep] == [1, 0]


def test_discovery_subset_too_small_returns_none():
    g = _group([10, 12], [1, 1], day=4)
    assert discovery_subset(g, TOUCHED, CATEGORY) is None


def test_discovery_subset_requires_surviving_positive():
    g = _group([10, 12, 13], [1, 0, 0], day=4)
    assert discovery_subset(g, TOUCHED, CATEGORY) is None


def _set_rule(group, records, item_categories):
    """The rule that the first-touch table replaced, written out: the
    (day, category) pair of each of the user's item events, the categories
    touched before the request day known, and a copy of the group cut to
    the other items. The kept positions, or None when fewer than 2 items or
    no positive survive."""
    interacted = [(r.event.day, int(item_categories[r.event.item_id])) for r in records
                  if isinstance(r, EventRecord) and r.event.item_id is not None
                  and r.user_id == group.user_id]
    known = {c for d, c in interacted if d < group.day}
    keep = [i for i, item in enumerate(group.item_ids)
            if int(item_categories[item]) not in known]
    if len(keep) < 2:
        return None
    sub = ImpressionGroup(user_id=group.user_id, day=group.day, surface_id=group.surface_id,
                          device_id=group.device_id, item_ids=[group.item_ids[i] for i in keep],
                          labels={s: [group.labels[s][i] for i in keep] for s in SIGNALS})
    return keep if sub.has_positive() else None


RULE_WORLD = generate_world(SynthConfig(n_items=12, n_users=4, n_categories=3, days=6, seed=2))
RULE_VOCAB = build_vocab(RULE_WORLD.title_corpus(), 64)


def _check_first_touch_rule(records, groups):
    """build_bundle's first-touch table and discovery_subset keep what the
    set rule keeps, for `groups` and the bundle's own evaluation groups."""
    world = RULE_WORLD
    bundle = build_bundle(world.config, vocab_size=64, max_history=4, test_days=2,
                          world=world, records=records, vocab=RULE_VOCAB)
    assert bundle.first_touch.dtype.kind == "i"
    for g in groups + bundle.eval_groups:
        keep = discovery_subset(g, bundle.first_touch[g.user_id], world.item_categories)
        assert (None if keep is None else keep.tolist()) == _set_rule(g, records,
                                                                      world.item_categories)
    return bundle.first_touch.tolist()


def test_first_touch_rule_cases():
    """A repeated item id, a user with no events, a category first touched
    on the request day (undiscovered), and groups left with one item or no
    positive."""
    cats = RULE_WORLD.item_categories
    a, b = (int(np.flatnonzero(cats == c)[0]) for c in (0, 1))
    b2 = int(np.flatnonzero(cats == 1)[1])
    records = [EventRecord(0, Event(1, EventType.CLICK, "t", a)),
               EventRecord(0, Event(2, EventType.WEB_QUERY, "q")),
               EventRecord(0, Event(3, EventType.PURCHASE, "t", b)),
               EventRecord(2, Event(4, EventType.CLICK, "t", a))]
    cases = [  # (group, kept positions)
        (_group([b, b2], [0, 1], day=3), [0, 1]),           # first touched on the day
        (_group([b, a, b], [1, 1, 0], day=3), [0, 2]),      # repeated id
        (_group([a, b, b2], [1, 0, 0], day=4), None),       # category 1 known by day 4
        (_group([a, b], [1, 0], day=3), None),              # one item left
        (_group([b, b2, a], [0, 0, 1], day=3), None),       # no positive left
        (_group([a, b, a], [0, 1, 0], day=5, user_id=1), [0, 1, 2]),  # no events
    ]
    # never touched: `days` (6)
    table = [[1, 3, 6], [6, 6, 6], [4, 6, 6], [6, 6, 6]]
    for g, want in cases:
        keep = discovery_subset(g, np.array(table[g.user_id]), cats)
        assert (None if keep is None else keep.tolist()) == want
        assert _set_rule(g, records, cats) == want
    groups = [g for g, _ in cases]
    assert _check_first_touch_rule(records, groups) == table
    assert _check_first_touch_rule([], groups) == [[6] * 3] * 4  # no item event at all


@st.composite
def _streams(draw):
    cfg = RULE_WORLD.config
    users, items, days = (st.integers(0, n - 1) for n in (cfg.n_users, cfg.n_items, cfg.days))
    events = draw(st.lists(st.tuples(users, days, st.one_of(st.none(), items)), max_size=30))
    # an item event on the first and on the last day, so that the time split
    # of the pre-training samples has both sides
    events += [(draw(users), d, draw(items)) for d in (0, cfg.days - 1)]
    records = [EventRecord(u, Event(d, EventType.WEB_QUERY, "q") if i is None
                           else Event(d, EventType.CLICK, "t", i))
               for u, d, i in sorted(events, key=lambda e: e[1])]
    groups = []
    for u, d, n in draw(st.lists(st.tuples(users, days, st.integers(1, 5)), max_size=6)):
        ids = draw(st.lists(items, min_size=n, max_size=n))
        clicks = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        groups.append(_group(ids, clicks, day=d, user_id=u))
    return records, groups


@settings(max_examples=60, deadline=None)
@given(_streams())
def test_first_touch_rule_matches_set_rule(stream):
    _check_first_touch_rule(*stream)


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

    assert len(scores) == len(groups)
    for g, got in zip(groups, scores):
        hb = batch_histories([g.history], bundle.tokenize_fn, tower)
        user = user_tower_forward_batch(hb, params).data[0]
        want = item_embeddings_for(g.item_ids, bundle.titles, bundle.tokenize_fn,
                                   params).data @ user
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)



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
    for name in ("calib.pointwise", "tau_raw", "ctx_surface", "ctx_device"):
        t = params[f"loss_params.{name}"]
        t.data = draw.normal(size=t.data.shape)

    # the formula the report applies, written out
    scores = score_table(bundle, params, groups)
    a_cl, a_ctx, b_cl = params["loss_params.calib.pointwise"].data
    tau_raw = float(params["loss_params.tau_raw"].data)
    surf = params["loss_params.ctx_surface"].data[:, 0]
    dev = params["loss_params.ctx_device"].data[:, 0]
    preds, ys = [], []
    for g, r in zip(groups, scores):
        r_ctx = surf[g.surface_id] + dev[g.device_id] if use_context else 0.0
        preds.extend(1.0 / (1.0 + np.exp(-(a_cl * r + a_ctx * r_ctx + b_cl))))
        ys.extend(g.labels["click"])

    got = calibration_report(bundle, params, groups, use_context=use_context)
    assert abs(got["mean_predicted"] - np.mean(preds)) <= 1e-12
    assert abs(got["empirical_rate"] - np.mean(ys)) <= 1e-12
    assert abs(got["temperature"] - np.log1p(np.exp(tau_raw))) <= 1e-12
    with pytest.raises(ValueError, match="at least one impression group"):
        calibration_report(bundle, params, [], use_context=use_context)


def _small_eval(small_world, small_logs):
    tower = TowerConfig(d=8, user_layers=1, user_heads=2, item_layers=1,
                        max_history=6, vocab_size=64, n_surfaces=4, n_devices=2)
    bundle = build_bundle(small_world.config, vocab_size=64, max_history=6, test_days=3,
                          world=small_world, records=small_logs,
                          vocab=build_vocab(small_world.title_corpus(), 64))
    params = init_params(tower, seed=0)
    draw = np.random.default_rng(11)
    for t in params.tensors.values():
        t.data = t.data + draw.normal(scale=0.2, size=t.data.shape)
    return bundle, params


def test_evaluation_is_pinned(small_world, small_logs):
    """eval_metrics and calibration_report to the last bit (numpy 2.4.6).
    Taken when the calibration scalars became vectors and the key bias
    went, which moved the noise draws; the earlier layout's noisy
    parameters, brought to this layout as a version-1 checkpoint is, gave
    the earlier pins to the last bit."""
    bundle, params = _small_eval(small_world, small_logs)
    got = eval_metrics(bundle, params)
    assert (got["retargeting"], got["discovery"]) == (0.8345375022240333, 0.6656322476834606)
    assert got["groups"]["retargeting"] == len(bundle.eval_groups) == 40
    assert calibration_report(bundle, params, bundle.finetune_test) == {
        "mean_predicted": 0.47970340730154915, "empirical_rate": 0.6216216216216216,
        "temperature": 10.084834388747284}
    assert calibration_report(bundle, params, bundle.finetune_test, use_context=False) == {
        "mean_predicted": 0.46024667199221325, "empirical_rate": 0.6216216216216216,
        "temperature": 10.084834388747284}


def test_discovery_mean_averages_every_kept_group(small_world, small_logs, monkeypatch):
    """Each non-None discovery_subset return during eval_metrics is one row
    of the discovery mean, and the count is what eval_metrics reports. The
    benchmark counts those returns as its kept discovery groups."""
    bundle, params = _small_eval(small_world, small_logs)
    returns, rows, in_keep_mean = [], [], []
    subset, mean, one = pipeline.discovery_subset, pipeline.mean_ndcg, evaluate.ndcg

    def spy_subset(*args):
        returns.append(subset(*args))
        return returns[-1]

    def spy_mean(groups, scores, keep=None):
        in_keep_mean.append(keep is not None)
        try:
            return mean(groups, scores, keep)
        finally:
            in_keep_mean.pop()

    def spy_ndcg(*args):
        rows.append(in_keep_mean[-1])
        return one(*args)

    monkeypatch.setattr(pipeline, "discovery_subset", spy_subset)
    monkeypatch.setattr(pipeline, "mean_ndcg", spy_mean)
    monkeypatch.setattr(evaluate, "ndcg", spy_ndcg)
    got = eval_metrics(bundle, params)
    kept = sum(r is not None for r in returns)
    assert len(returns) == len(bundle.eval_groups)
    assert 0 < kept == rows.count(True) == got["groups"]["discovery"]
    assert rows.count(False) == len(bundle.eval_groups)
