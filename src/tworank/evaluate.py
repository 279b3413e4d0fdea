"""Offline evaluation: nDCG over impression groups and surface filters
(retargeting-like = all items, discovery-like = previously-undiscovered
categories only).

Groups are ranked as arrays, not one at a time: the groups of one length
form one `(G_n, n)` block, and `ndcg` ranks and sums every row of it. A
row sum over a contiguous row is numpy's pairwise sum of that row alone,
so each group's value has the bits of ranking it by itself; padding rows
to one length or `np.add.reduceat` would change them."""

from __future__ import annotations

from itertools import chain

import numpy as np

from .types import ImpressionGroup, SIGNALS

# two items of different relevance whose scores differ by at most this much
# are near-tied: their order, and so the group's nDCG, rests on rounding
NEAR_TIE = 1e-9


def group_relevance(group: ImpressionGroup) -> np.ndarray:
    """Binary relevance: 1 for an item with any signal (click or stronger)."""
    return np.any([group.labels[s] for s in SIGNALS], axis=0).astype(np.float64)


def ndcg(scores, relevances, item_ids):
    """DCG/IDCG of each row of `(..., n)` scores, relevances and ids, with
    gain 2^rel - 1 and discount 1/log2(rank+1), ranks 1-based, ties in
    score broken by ascending item id. A 1-D call returns a float."""
    scores = np.asarray(scores, dtype=np.float64)
    rel = np.asarray(relevances, dtype=np.float64)
    ids = np.asarray(item_ids)
    if not np.any(rel > 0, axis=-1).all():
        raise ValueError("ndcg needs at least one positive relevance")
    order = np.lexsort((ids, -scores), axis=-1)
    discount = np.log2(np.arange(2, rel.shape[-1] + 2))

    def dcg(ranked_rel):
        return ((2.0 ** ranked_rel - 1.0) / discount).sum(axis=-1)

    got = dcg(np.take_along_axis(rel, order, axis=-1))
    ideal = dcg(np.sort(rel, axis=-1)[..., ::-1])
    out = got / ideal
    return float(out) if out.ndim == 0 else out


def length_blocks(starts: np.ndarray, sizes: np.ndarray):
    """For each distinct size n, ascending: the indices `rows` of the
    entries of size n, and the `(len(rows), n)` positions of their
    elements, entry k's running from starts[k]."""
    for n in sorted(set(sizes.tolist())):
        rows = np.flatnonzero(sizes == n)
        yield rows, starts[rows, None] + np.arange(n)


def _ranked_blocks(groups, scores, keep=None):
    """Check that `scores` (and `keep`) hold one entry per group and each
    score array one score per item, then read the kept positions of every
    group with a positive into one block per kept length: a list of
    (group indices, scores, relevances, item ids), each array `(G_n, n)`."""
    n_groups = len(groups)
    for name, entries in (("scores", scores), ("keep", keep)):
        if entries is not None and len(entries) != n_groups:
            if len(entries) < n_groups:
                raise ValueError(f"group {len(entries)} has no {name} entry")
            raise ValueError(f"{len(entries)} {name} entries for {n_groups} groups")
    sizes = np.fromiter((len(g.item_ids) for g in groups), np.intp, n_groups)
    counts = np.fromiter(map(len, scores), np.intp, n_groups)
    wrong = np.flatnonzero(counts != sizes)
    if len(wrong):
        k = wrong[0]
        raise ValueError(f"group {k} has {counts[k]} scores for {sizes[k]} items")
    total = int(sizes.sum())
    flat_scores = (np.concatenate(scores).astype(np.float64, copy=False) if n_groups
                   else np.empty(0))
    ids = np.fromiter(chain.from_iterable(g.item_ids for g in groups), np.int64, total)
    rel = np.zeros(total, dtype=bool)
    for s in SIGNALS:
        rel |= np.fromiter(chain.from_iterable(g.labels[s] for g in groups), bool, total)
    starts = np.cumsum(sizes) - sizes
    if keep is not None:
        kept = np.fromiter(map(len, keep), np.intp, n_groups)
        pos = np.concatenate([entry for entry in keep if len(entry)] or [np.empty(0, np.intp)])
        if pos.dtype.kind not in "iu":
            raise ValueError(f"keep entries must hold integer positions, got {pos.dtype}")
        owner = np.repeat(np.arange(n_groups), kept)
        outside = np.flatnonzero((pos < 0) | (pos >= sizes[owner]))
        if len(outside):
            k = owner[outside[0]]
            raise ValueError(f"group {k} keeps position {pos[outside[0]]} of {sizes[k]} items")
        pos = starts[owner] + pos.astype(np.intp)
        flat_scores, ids, rel = flat_scores[pos], ids[pos], rel[pos]
        sizes = kept
        starts = np.cumsum(sizes) - sizes
    positives = np.concatenate(([0], np.cumsum(rel)))
    scorable = np.flatnonzero(positives[starts + sizes] > positives[starts])
    return [(scorable[rows], flat_scores[at], rel[at], ids[at])
            for rows, at in length_blocks(starts[scorable], sizes[scorable])]


def mean_ndcg(groups, scores, keep=None) -> float:
    """Average nDCG over groups, scores[k] holding groups[k]'s item scores;
    with keep, group k counts only its item positions keep[k] (integer
    positions into its items). Groups with no positive are skipped. A
    missing scores or keep entry, or a score array whose length is not its
    group's item count, raises ValueError naming the group."""
    blocks = _ranked_blocks(groups, scores, keep)
    if not blocks:
        raise ValueError("no scorable groups")
    rows = np.concatenate([b[0] for b in blocks])
    vals = np.concatenate([ndcg(*b[1:]) for b in blocks])
    return float(np.mean(vals[np.argsort(rows)]))


def near_tie_groups(groups, scores) -> int:
    """How many groups hold two items of different relevance whose scores
    lie within NEAR_TIE of each other. Such a pair exists exactly when two
    items next to each other in score order form one."""
    count = 0
    for _, s, rel, _ in _ranked_blocks(groups, scores):
        order = np.argsort(s, axis=-1)
        s, rel = np.take_along_axis(s, order, -1), np.take_along_axis(rel, order, -1)
        close = (np.diff(s, axis=-1) <= NEAR_TIE) & (rel[:, 1:] != rel[:, :-1])
        count += int(close.any(axis=-1).sum())
    return count


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
