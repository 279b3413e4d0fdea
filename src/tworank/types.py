"""Shared domain records: events, histories, impression groups; and the
bound check that the config types share."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum


class EventType(Enum):
    CLICK = "click"
    ADD_TO_CART = "add_to_cart"
    ADD_TO_FAVORITES = "add_to_favorites"
    PURCHASE = "purchase"
    WEB_QUERY = "web_query"


EVENT_TYPE_IDS = {t: i for i, t in enumerate(EventType)}

# signal types that carry pairwise ranking losses, strongest last
SIGNALS = ("click", "cart", "fvrt", "prch")

_EVENT_SIGNAL = {
    EventType.CLICK: "click",
    EventType.ADD_TO_CART: "cart",
    EventType.ADD_TO_FAVORITES: "fvrt",
    EventType.PURCHASE: "prch",
}


def check_least(values: dict, bounds) -> None:
    """Raise ValueError naming the first (key, least) of `bounds` whose
    `values[key]` is NaN, infinite or below least."""
    for key, least in bounds:
        value = values[key]
        if not -math.inf < value < math.inf or value < least:
            raise ValueError(f"{key} must be finite and >= {least}, got {value}")


def signal_of(event_type: EventType) -> str | None:
    """Ranking signal name for an event type; None for web queries."""
    return _EVENT_SIGNAL.get(event_type)


@dataclass(frozen=True)
class Event:
    """One timestamped user interaction. A web query has no item_id; any
    other event has one, and its title as text (read_logs checks both)."""

    day: int
    event_type: EventType
    text: str
    item_id: int | None = None
    surface_id: int | None = None


@dataclass
class UserHistory:
    """Chronologically ascending events. Samples and groups may share one
    history object; no code mutates it."""

    user_id: int
    events: list[Event] = field(default_factory=list)


@dataclass
class ImpressionGroup:
    """Co-impressed items on one surface with per-signal binary labels,
    closed under the funnel. Groups built from one logged group share its
    item and label lists; no code mutates them."""

    user_id: int
    day: int
    surface_id: int
    device_id: int
    item_ids: list[int]
    labels: dict[str, list[int]]  # signal -> 0/1 per item
    history: UserHistory | None = None

    def has_positive(self) -> bool:
        return any(any(self.labels[s]) for s in SIGNALS)


@dataclass
class PretrainSample:
    """One positive interaction with the user's delayed history."""

    user_id: int
    day: int
    item_id: int
    history: UserHistory | None = None
