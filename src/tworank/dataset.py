"""Log stream -> training records.

Turns raw logs into pre-training samples (one per positive interaction)
and fine-tuning impression groups (the logged groups with at least one
positive; their labels come funnel-closed, as `synth.read_logs` holds
them). Both are built bare; `attach_history` then cuts every history by
the delayed-history rule in one pass. Splits are strictly temporal.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict

from .synth import EventRecord, LogRecord
from .types import Event, EventType, ImpressionGroup, PretrainSample, UserHistory


def _delayed_histories(records: list[LogRecord], requests, delay: int,
                       max_history: int, include_web: bool) -> list[UserHistory]:
    """The delayed-history rule, one pass over `records`: for each
    (user_id, day) request, the user's events on or before day - delay,
    the most recent `max_history` of them, web queries only with
    `include_web`. Each user's events must come in day order. Requests
    that cut a user's events at the same place share one history."""
    if delay < 0:
        raise ValueError("delay must be >= 0")
    if max_history < 1:
        raise ValueError("max_history must be >= 1")
    days: dict[int, list[int]] = defaultdict(list)
    events: dict[int, list[Event]] = defaultdict(list)
    for rec in records:
        if not isinstance(rec, EventRecord):
            continue
        ev = rec.event
        if include_web or ev.event_type is not EventType.WEB_QUERY:
            days[rec.user_id].append(ev.day)
            events[rec.user_id].append(ev)
    cuts = [(user, bisect_right(days.get(user, ()), day - delay)) for user, day in requests]
    built = {(user, end): UserHistory(user, events.get(user, [])[max(end - max_history, 0):end])
             for user, end in dict.fromkeys(cuts)}
    return [built[cut] for cut in cuts]


def build_pretrain_samples(records: list[LogRecord]) -> list[PretrainSample]:
    """One sample per positive interaction (an event with an item, organic
    and impressed alike), without a history: `attach_history` cuts it."""
    return [PretrainSample(user_id=r.user_id, day=r.event.day, item_id=r.event.item_id)
            for r in records if isinstance(r, EventRecord) and r.event.item_id is not None]


def build_finetune_groups(records: list[LogRecord]) -> list[ImpressionGroup]:
    """One group per logged impression group with at least one positive
    signal, sharing its item and label lists, without a history:
    `attach_history` cuts it."""
    return [ImpressionGroup(user_id=rec.user_id, day=rec.day, surface_id=rec.surface_id,
                            device_id=rec.device_id, item_ids=rec.item_ids, labels=rec.labels)
            for rec in records if isinstance(rec, ImpressionGroup) and rec.has_positive()]


def attach_history(xs: list, records: list[LogRecord], delay: int, max_history: int,
                   include_web: bool) -> list:
    """Give each sample or group in `xs` its delayed history as of its own
    day, in one pass over `records` (evaluation groups need not be in the
    logs); returns `xs`."""
    histories = _delayed_histories(records, [(x.user_id, x.day) for x in xs],
                                   delay, max_history, include_web)
    for x, h in zip(xs, histories):
        x.history = h
    return xs


def serving_histories(records: list[LogRecord], user_ids, day: int, delay: int,
                      max_history: int, include_web: bool) -> dict[int, UserHistory]:
    """Each user's delayed history as of `day` (the serving rule); users
    without events get an empty history."""
    user_ids = list(user_ids)
    return dict(zip(user_ids, _delayed_histories(records, [(u, day) for u in user_ids],
                                                 delay, max_history, include_web)))


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
