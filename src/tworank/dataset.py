"""Log stream -> training records.

Turns raw logs into pre-training samples (one per positive interaction,
with the delayed history rule) and packed fine-tuning impression groups
(filtered to groups with at least one positive, with funnel label
closure). Splits are strictly temporal.
"""

from __future__ import annotations

from collections import defaultdict

from .synth import EventRecord, LogRecord
from .types import (Event, EventType, ImpressionGroup, PretrainSample,
                    UserHistory, signal_of)

DEFAULT_DELAY = 1


def _user_events(records: list[LogRecord], include_web: bool) -> dict[int, list[Event]]:
    """Per-user chronological event lists (input order is already
    day-ordered; same-day order preserved)."""
    out: dict[int, list[Event]] = defaultdict(list)
    for rec in records:
        if isinstance(rec, EventRecord):
            if rec.event.event_type is EventType.WEB_QUERY and not include_web:
                continue
            out[rec.user_id].append(rec.event)
    return out


def _delayed_history(events: list[Event], user_id: int, target_day: int,
                     delay: int, max_history: int) -> UserHistory:
    cutoff = target_day - delay
    kept = [e for e in events if e.day <= cutoff]
    return UserHistory(user_id, kept[-max_history:])


def build_pretrain_samples(records: list[LogRecord], delay: int = DEFAULT_DELAY,
                           max_history: int = 64, include_web: bool = True):
    """One sample per positive interaction (organic and impressed alike),
    each with the user's history older than target_day - delay."""
    if delay < 0:
        raise ValueError("delay must be >= 0")
    events_by_user = _user_events(records, include_web)
    samples: list[PretrainSample] = []
    for rec in records:
        if not isinstance(rec, EventRecord):
            continue
        ev = rec.event
        signal = signal_of(ev.event_type)
        if signal is None:
            continue
        history = _delayed_history(events_by_user[rec.user_id], rec.user_id,
                                   ev.day, delay, max_history)
        samples.append(PretrainSample(
            user_id=rec.user_id, day=ev.day, item_id=ev.item_id,
            signal=signal, history=history))
    return samples


def close_funnel_labels(labels: dict[str, list[int]]) -> dict[str, list[int]]:
    """Downward label closure: a purchase marks cart and click positive,
    a cart marks click positive, a favorite marks click positive."""
    n = len(labels["click"])
    out = {k: list(v) for k, v in labels.items()}
    for i in range(n):
        if out["prch"][i]:
            out["cart"][i] = 1
        if out["cart"][i] or out["fvrt"][i]:
            out["click"][i] = 1
    return out


def build_finetune_groups(records: list[LogRecord], delay: int = DEFAULT_DELAY,
                          max_history: int = 64, include_web: bool = True,
                          funnel_closure: bool = True) -> list[ImpressionGroup]:
    """Impression groups with delayed histories attached; groups with no
    positive signal are dropped."""
    events_by_user = _user_events(records, include_web)
    groups: list[ImpressionGroup] = []
    for rec in records:
        if not isinstance(rec, ImpressionGroup):
            continue
        labels = close_funnel_labels(rec.labels) if funnel_closure else rec.labels
        group = ImpressionGroup(
            user_id=rec.user_id, day=rec.day, surface_id=rec.surface_id,
            device_id=rec.device_id, item_ids=list(rec.item_ids), labels=labels)
        if not group.has_positive():
            continue
        group.history = _delayed_history(events_by_user[rec.user_id], rec.user_id,
                                         rec.day, delay, max_history)
        groups.append(group)
    return groups


def attach_history(group: ImpressionGroup, records: list[LogRecord],
                   delay: int = DEFAULT_DELAY, max_history: int = 64,
                   include_web: bool = True) -> ImpressionGroup:
    """Attach a delayed history to an externally built group (used for
    evaluation sets that are not part of the logs)."""
    events_by_user = _user_events(records, include_web)
    group.history = _delayed_history(events_by_user.get(group.user_id, []),
                                     group.user_id, group.day, delay, max_history)
    return group


def serving_histories(records: list[LogRecord], user_ids, day: int, delay: int,
                      max_history: int, include_web: bool) -> dict[int, UserHistory]:
    """Each user's delayed history as of `day` (the serving rule); users
    without events get an empty history."""
    events_by_user = _user_events(records, include_web)
    return {u: _delayed_history(events_by_user.get(u, []), u, day, delay, max_history)
            for u in user_ids}


def time_split(items, boundary_day: int):
    """(train, test) with test = records on day >= boundary_day."""
    days = [x.day for x in items]
    if not days:
        return [], []
    if boundary_day < min(days) or boundary_day > max(days) + 1:
        raise ValueError(
            f"boundary day {boundary_day} outside log range [{min(days)}, {max(days)}]")
    train = [x for x in items if x.day < boundary_day]
    test = [x for x in items if x.day >= boundary_day]
    return train, test
