"""Log-to-training-record construction: history delay, funnel closure,
group filtering, and the temporal split."""

import hashlib
import json

import pytest

from tworank import dataset
from tworank.dataset import (attach_history, build_finetune_groups,
                             build_pretrain_samples, serving_histories, time_split)
from tworank.pipeline import build_bundle
from tworank.synth import (EventRecord, SynthConfig, generate_world,
                           make_balanced_eval_groups, simulate_logs)
from tworank.types import SIGNALS, Event, EventType, ImpressionGroup, UserHistory


def _group(user_id, day):
    return ImpressionGroup(user_id=user_id, day=day, surface_id=0, device_id=0,
                           item_ids=[1, 2], labels={s: [1, 0] for s in SIGNALS})


def _samples(records, delay=1, max_history=64, include_web=True):
    """The pre-training samples of `records` with their delayed histories."""
    return attach_history(build_pretrain_samples(records), records, delay, max_history,
                          include_web)


def _groups(records, delay=1, max_history=64, include_web=True):
    """The fine-tuning groups of `records` with their delayed histories."""
    return attach_history(build_finetune_groups(records), records, delay, max_history,
                          include_web)


def _serving(records, delay=1, max_history=64):
    return serving_histories(records, [7], 3, delay, max_history, True)


# every way to cut delayed histories, called with records and options
HISTORY_FNS = (_samples, _groups,
               lambda records, delay=1, max_history=64:
               attach_history([_group(7, 3)], records, delay, max_history, True),
               _serving)


def test_builders_leave_the_history_to_attach_history(small_logs):
    samples = build_pretrain_samples(small_logs)
    groups = build_finetune_groups(small_logs)
    assert samples and groups
    assert all(x.history is None for x in samples + groups)


def test_pretrain_samples_obey_delay(small_logs):
    samples = _samples(small_logs, delay=1)
    assert samples
    violations = sum(1 for s in samples for e in s.history.events
                     if e.day > s.day - 1)
    assert violations == 0


def test_pretrain_samples_one_per_positive(small_logs):
    n_positive = sum(1 for r in small_logs
                     if isinstance(r, EventRecord)
                     and r.event.event_type is not EventType.WEB_QUERY)
    assert len(build_pretrain_samples(small_logs)) == n_positive


def test_pretrain_history_can_contain_web_queries(small_logs):
    samples = _samples(small_logs, include_web=True)
    kinds = {e.event_type for s in samples for e in s.history.events}
    assert EventType.WEB_QUERY in kinds
    samples = _samples(small_logs, include_web=False)
    kinds = {e.event_type for s in samples for e in s.history.events}
    assert EventType.WEB_QUERY not in kinds


def test_pretrain_history_truncated(small_logs):
    samples = _samples(small_logs, max_history=5)
    assert max(len(s.history.events) for s in samples) <= 5


def test_negative_delay_rejected(small_logs):
    for build in HISTORY_FNS:
        with pytest.raises(ValueError, match="delay"):
            build(small_logs, delay=-1)
        with pytest.raises(ValueError, match="max_history"):
            build(small_logs, max_history=0)


def _scan_histories(records, user_ids, cutoff, max_history, include_web):
    """The delayed-history rule as one plain scan over the logs, for one
    cutoff day (the loop `tworank export` once spelled out on its own)."""
    per_user = {u: [] for u in user_ids}
    for rec in records:
        if isinstance(rec, EventRecord) and rec.event.day <= cutoff:
            if include_web or rec.event.item_id is not None:
                per_user[rec.user_id].append(rec.event)
    return {u: UserHistory(u, ev[-max_history:]) for u, ev in per_user.items()}


@pytest.mark.parametrize("delay, max_history, include_web",
                         [(1, 5, True), (0, 3, False), (2, 64, True)])
def test_histories_match_scan_rule(small_world, small_logs, delay, max_history,
                                   include_web):
    cfg = small_world.config
    users = range(cfg.n_users)
    want = {day: _scan_histories(small_logs, users, day - delay, max_history, include_web)
            for day in range(cfg.days)}
    samples = build_pretrain_samples(small_logs)
    groups = build_finetune_groups(small_logs)
    eval_groups = make_balanced_eval_groups(small_world, 6, cfg.days)
    assert samples and groups and eval_groups
    xs = samples + groups + eval_groups
    assert attach_history(xs, small_logs, delay, max_history, include_web) is xs
    for x in xs:
        assert x.history == want[x.day][x.user_id]
    assert any(len(x.history.events) == max_history for x in samples)


def test_samples_with_one_cut_share_one_history():
    """Two positives of one user on one day see the same delayed history,
    so they get one object; a later day that adds events gets another."""
    records = [EventRecord(7, Event(1, EventType.CLICK, "old thing", 1)),
               EventRecord(7, Event(3, EventType.CLICK, "first thing", 2)),
               EventRecord(7, Event(3, EventType.PURCHASE, "second thing", 3)),
               EventRecord(7, Event(5, EventType.CLICK, "late thing", 4))]
    first, second, third, fourth = _samples(records, delay=1)
    assert second.history is third.history
    assert [e.item_id for e in second.history.events] == [1]
    assert fourth.history is not second.history
    assert [e.item_id for e in fourth.history.events] == [1, 2, 3]
    assert first.history.events == []


def _bundle_digest(bundle) -> str:
    """SHA-256 of what set-up builds: every sample's and group's fields, the
    events of each distinct history object once and which object each sample
    and group holds (score_table and batch_histories share work by object),
    and each user's first touch day per category."""
    index: dict[int, int] = {}
    histories = []

    def history(h):
        if id(h) not in index:
            index[id(h)] = len(histories)
            histories.append([[e.day, e.event_type.value, e.text, e.item_id, e.surface_id]
                              for e in h.events])
        return index[id(h)]

    def groups(gs):
        return [[g.user_id, g.day, g.surface_id, g.device_id, g.item_ids, g.labels,
                 history(g.history)] for g in gs]

    rows = [[[s.user_id, s.day, s.item_id, history(s.history)] for s in bundle.pretrain_train],
            groups(bundle.finetune_train), groups(bundle.finetune_test),
            groups(bundle.eval_groups), histories, bundle.first_touch.tolist()]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


# SHA-256 of build_bundle's output at commit d5139ed (numpy 2.4.6). A change
# to how set-up cuts, shares or orders histories moves them.
PINNED_BUNDLES = [
    (dict(n_items=60, n_users=20, n_categories=4, days=10, organic_rate=0.8,
          impressions_per_day=0.5, query_rate=0.4, seed=0),
     dict(max_history=5, delay=1, include_web=True, test_days=3),
     "58d847415f70a4dd5ea7671a8e5da9960a16db337d0101a27651790622a96f31"),
    (dict(n_items=300, n_users=30, n_categories=20, days=8, seed=3),
     dict(max_history=64, delay=2, include_web=False, test_days=2, eval_groups_per_user=3),
     "584526288740edfbf86422b38d40fc3e19520ba7fefa1c72b4677f8a8b84c7df"),
]


@pytest.mark.parametrize("world_kw, data_kw, digest", PINNED_BUNDLES,
                         ids=["small", "shared-words"])
def test_bundle_is_pinned(world_kw, data_kw, digest):
    world = generate_world(SynthConfig(**world_kw))
    bundle = build_bundle(world.config, vocab_size=64, **data_kw,
                          world=world, records=simulate_logs(world))
    assert _bundle_digest(bundle) == digest


# the same digest of the set-up of each benchmark workload at its seed 4049,
# taken at commit d5139ed (numpy 2.4.6)
PINNED_WORKLOAD_BUNDLES = {
    "train-small": "f799eb7b8513ea1cb47af63f4a3ce2d6a8be4c1403cd658fe8df59148848e512",
    "train-default": "3e445039b1239b44cf8d0bf9d2f8ca17c3a87e6b82dd5ca0df052b7fa4b7be15",
    "serve-catalog": "3ffe9f5ffce1efaf3294896f5edf2c9eb79f4f352894988766c095671bda121c",
}


@pytest.mark.parametrize("name", sorted(PINNED_WORKLOAD_BUNDLES))
def test_workload_bundle_is_pinned(name, workload_bundle):
    """build_bundle as perfbench/lifecycle.py calls it, at benchmark scale."""
    _, bundle = workload_bundle(name)
    assert _bundle_digest(bundle) == PINNED_WORKLOAD_BUNDLES[name]


def test_bundle_cuts_every_history_in_one_pass(small_world, small_logs, monkeypatch):
    """build_bundle runs the delayed-history rule once, on the training-window
    samples, every fine-tuning group and every evaluation group."""
    calls = []

    def spy(records, requests, *rule):
        calls.append((list(requests), rule))
        return cut(records, requests, *rule)

    cut = dataset._delayed_histories
    monkeypatch.setattr(dataset, "_delayed_histories", spy)
    bundle = build_bundle(small_world.config, vocab_size=64, max_history=5, delay=2,
                          include_web=False, test_days=3, world=small_world, records=small_logs)
    want = [(x.user_id, x.day) for x in bundle.pretrain_train + bundle.finetune_train
            + bundle.finetune_test + bundle.eval_groups]
    assert bundle.pretrain_train and bundle.finetune_test and bundle.eval_groups
    assert [(sorted(requests), rule) for requests, rule in calls] == [(sorted(want),
                                                                       (2, 5, False))]


# ---------------------------------------------------------------------------
# funnel closure
# ---------------------------------------------------------------------------


def test_finetune_groups_funnel_closed(small_logs):
    for g in build_finetune_groups(small_logs):
        for i in range(len(g.item_ids)):
            if g.labels["prch"][i]:
                assert g.labels["cart"][i]
            if g.labels["cart"][i] or g.labels["fvrt"][i]:
                assert g.labels["click"][i]


def test_finetune_groups_all_have_positives(small_logs):
    groups = build_finetune_groups(small_logs)
    assert groups
    assert all(g.has_positive() for g in groups)


def test_finetune_groups_obey_delay(small_logs):
    for g in _groups(small_logs, delay=1):
        assert g.history is not None
        assert all(e.day <= g.day - 1 for e in g.history.events)


def test_positive_free_group_dropped():
    group = ImpressionGroup(user_id=0, day=3, surface_id=0, device_id=0,
                            item_ids=[1, 2],
                            labels={s: [0, 0] for s in ("click", "cart", "fvrt", "prch")})
    assert build_finetune_groups([group]) == []


def test_attach_history_delay():
    events = [EventRecord(7, Event(d, EventType.CLICK, "thing", 1)) for d in range(6)]
    groups = [_group(7, 4)]
    assert attach_history(groups, events, delay=2, max_history=10, include_web=True) is groups
    assert [e.day for e in groups[0].history.events] == [0, 1, 2]


def test_attach_history_to_several_groups():
    events = [EventRecord(u, Event(d, EventType.CLICK, f"thing {u}", 1))
              for d in range(6) for u in (7, 8)]
    groups = [_group(7, 4), _group(9, 4), _group(8, 6), _group(7, 1)]
    attach_history(groups, events, delay=1, max_history=2, include_web=True)
    assert [[(e.day, e.text) for e in g.history.events] for g in groups] == [
        [(2, "thing 7"), (3, "thing 7")], [], [(4, "thing 8"), (5, "thing 8")],
        [(0, "thing 7")]]
    assert [g.history.user_id for g in groups] == [7, 9, 8, 7]


@pytest.mark.parametrize("include_web", [True, False])
def test_serving_histories_match_export_loop(small_world, small_logs, include_web):
    cfg = small_world.config
    users = range(cfg.n_users + 1)  # the last id has no events
    got = serving_histories(small_logs, users, cfg.days, 1, 5, include_web)
    assert got == _scan_histories(small_logs, users, cfg.days - 1, 5, include_web)
    assert got[cfg.n_users] == UserHistory(cfg.n_users, [])
    assert any(len(h.events) == 5 for h in got.values())
    has_web = any(e.event_type is EventType.WEB_QUERY for h in got.values() for e in h.events)
    assert has_web == include_web


# ---------------------------------------------------------------------------
# temporal split
# ---------------------------------------------------------------------------


def test_time_split_boundary(small_logs):
    samples = build_pretrain_samples(small_logs)
    train, test = time_split(samples, 6)
    assert len(train) + len(test) == len(samples)
    assert all(s.day < 6 for s in train)
    assert all(s.day >= 6 for s in test)


def test_time_split_rejects_out_of_range(small_logs):
    samples = build_pretrain_samples(small_logs)
    with pytest.raises(ValueError):
        time_split(samples, -5)
    with pytest.raises(ValueError):
        time_split(samples, 10_000)


def test_time_split_empty_input():
    assert time_split([], 3) == ([], [])
