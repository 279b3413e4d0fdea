"""Log-to-training-record construction: history delay, funnel closure,
group filtering, and the temporal split."""

import pytest

from tworank.dataset import (attach_history, build_finetune_groups,
                             build_pretrain_samples, close_funnel_labels,
                             serving_histories, time_split)
from tworank.synth import EventRecord
from tworank.types import Event, EventType, ImpressionGroup, UserHistory


def test_pretrain_samples_obey_delay(small_logs):
    samples = build_pretrain_samples(small_logs, delay=1)
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
    samples = build_pretrain_samples(small_logs, include_web=True)
    kinds = {e.event_type for s in samples for e in s.history.events}
    assert EventType.WEB_QUERY in kinds
    samples = build_pretrain_samples(small_logs, include_web=False)
    kinds = {e.event_type for s in samples for e in s.history.events}
    assert EventType.WEB_QUERY not in kinds


def test_pretrain_history_truncated(small_logs):
    samples = build_pretrain_samples(small_logs, max_history=5)
    assert max(len(s.history.events) for s in samples) <= 5


def test_negative_delay_rejected(small_logs):
    with pytest.raises(ValueError):
        build_pretrain_samples(small_logs, delay=-1)


# ---------------------------------------------------------------------------
# funnel closure
# ---------------------------------------------------------------------------


def test_close_funnel_labels():
    labels = {"click": [0, 0, 0], "cart": [0, 1, 0],
              "fvrt": [0, 0, 1], "prch": [1, 0, 0]}
    closed = close_funnel_labels(labels)
    assert closed["cart"] == [1, 1, 0]   # purchase implies cart
    assert closed["click"] == [1, 1, 1]  # cart and favorite imply click
    assert labels["click"] == [0, 0, 0]  # input untouched


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
    for g in build_finetune_groups(small_logs, delay=1):
        assert g.history is not None
        assert all(e.day <= g.day - 1 for e in g.history.events)


def test_positive_free_group_dropped():
    group = ImpressionGroup(user_id=0, day=3, surface_id=0, device_id=0,
                            item_ids=[1, 2],
                            labels={s: [0, 0] for s in ("click", "cart", "fvrt", "prch")})
    assert build_finetune_groups([group]) == []


def test_attach_history_delay():
    events = [EventRecord(7, Event(d, EventType.CLICK, "thing", 1)) for d in range(6)]
    group = ImpressionGroup(user_id=7, day=4, surface_id=0, device_id=0,
                            item_ids=[1, 2],
                            labels={s: [1, 0] for s in ("click", "cart", "fvrt", "prch")})
    attach_history(group, events, delay=2, max_history=10)
    assert [e.day for e in group.history.events] == [0, 1, 2]


def _export_loop_histories(records, user_ids, cutoff, max_history, include_web):
    """The history rule `tworank export` used to spell out on its own."""
    per_user = {u: [] for u in user_ids}
    for rec in records:
        if isinstance(rec, EventRecord) and rec.event.day <= cutoff:
            if include_web or rec.event.item_id is not None:
                per_user[rec.user_id].append(rec.event)
    return {u: UserHistory(u, ev[-max_history:]) for u, ev in per_user.items()}


@pytest.mark.parametrize("include_web", [True, False])
def test_serving_histories_match_export_loop(small_world, small_logs, include_web):
    cfg = small_world.config
    users = range(cfg.n_users + 1)  # the last id has no events
    got = serving_histories(small_logs, users, cfg.days, 1, 5, include_web)
    assert got == _export_loop_histories(small_logs, users, cfg.days - 1, 5, include_web)
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
