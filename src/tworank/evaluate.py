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


def mean_ndcg(groups, scores, keep=None) -> float:
    """Average nDCG over groups, scores[k] holding groups[k]'s item scores;
    with keep, group k counts only its item positions keep[k]. Groups with
    no positive are skipped."""
    vals = []
    for k, (g, s) in enumerate(zip(groups, scores)):
        rel, ids = group_relevance(g), np.asarray(g.item_ids)
        if keep is not None:
            rel, ids, s = rel[keep[k]], ids[keep[k]], s[keep[k]]
        if np.any(rel > 0):
            vals.append(ndcg(s, rel, ids))
    if not vals:
        raise ValueError("no scorable groups")
    return float(np.mean(vals))


def discovery_subset(group: ImpressionGroup, first_touch: np.ndarray,
                     item_categories: np.ndarray) -> np.ndarray | None:
    """Positions of the group's items whose category the user first touched
    on or after the request day, or never: `first_touch` is the user's
    first touch day per category. None if fewer than 2 items or no positive
    survive."""
    keep = np.flatnonzero(first_touch[item_categories[group.item_ids]] >= group.day)
    if len(keep) < 2 or not group_relevance(group)[keep].any():
        return None
    return keep
