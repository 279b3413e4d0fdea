"""Offline evaluation: nDCG over impression groups and surface filters
(retargeting-like = all items, discovery-like = previously-undiscovered
categories only)."""

from __future__ import annotations

import numpy as np

from .types import ImpressionGroup, SIGNALS


def group_relevance(group: ImpressionGroup) -> np.ndarray:
    """Binary relevance: 1 for an item with any signal (click or stronger)."""
    return np.any([group.labels[s] for s in SIGNALS], axis=0).astype(np.float64)


def ndcg(scores, relevances, item_ids) -> float:
    """DCG/IDCG with gain 2^rel - 1 and discount 1/log2(rank+1), ranks
    1-based, ties in score broken by ascending item id."""
    scores = np.asarray(scores, dtype=np.float64)
    rel = np.asarray(relevances, dtype=np.float64)
    ids = np.asarray(item_ids)
    if not np.any(rel > 0):
        raise ValueError("ndcg needs at least one positive relevance")
    order = np.lexsort((ids, -scores))

    def dcg(ranked_rel):
        ranks = np.arange(1, len(ranked_rel) + 1)
        return float(((2.0 ** ranked_rel - 1.0) / np.log2(ranks + 1)).sum())

    got = dcg(rel[order])
    ideal = dcg(np.sort(rel)[::-1])
    return got / ideal


def mean_ndcg(groups, score_fn) -> float:
    """Average nDCG over groups; score_fn(group) -> array of item scores."""
    vals = []
    for g in groups:
        rel = group_relevance(g)
        if not np.any(rel > 0):
            continue
        vals.append(ndcg(score_fn(g), rel, g.item_ids))
    if not vals:
        raise ValueError("no scorable groups")
    return float(np.mean(vals))


def discovery_subset(group: ImpressionGroup, known_categories: set[int],
                     item_category) -> ImpressionGroup | None:
    """Restrict a group to items whose category the user never interacted
    with before the request; None if fewer than 2 items or no positive
    survives."""
    keep = [i for i, item in enumerate(group.item_ids)
            if item_category(item) not in known_categories]
    if len(keep) < 2:
        return None
    sub = ImpressionGroup(
        user_id=group.user_id, day=group.day, surface_id=group.surface_id,
        device_id=group.device_id,
        item_ids=[group.item_ids[i] for i in keep],
        labels={s: [group.labels[s][i] for i in keep] for s in SIGNALS},
        history=group.history)
    return sub if sub.has_positive() else None

