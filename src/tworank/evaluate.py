"""Offline evaluation: nDCG over impression groups, a feature-gain harness
with a logistic-regression combiner standing in for the downstream GBT
ranker, and surface filters (retargeting-like = all items,
discovery-like = previously-undiscovered categories only)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import ImpressionGroup, SIGNALS

@dataclass
class EvalReport:
    metric: str
    surface_filter: str
    value: float
    baseline: float | None = None

    @property
    def relative_gain(self) -> float | None:
        if self.baseline is None or self.baseline <= 0:
            return None
        return (self.value - self.baseline) / self.baseline


def group_relevance(group: ImpressionGroup) -> np.ndarray:
    """Binary relevance: 1 for an item with any signal (click or stronger)."""
    rel = np.zeros(len(group.item_ids))
    for s in SIGNALS:
        for i, y in enumerate(group.labels[s]):
            if y:
                rel[i] = 1.0
    return rel


def ndcg(scores, relevances, item_ids, k: int | None = None) -> float:
    """DCG/IDCG with gain 2^rel - 1 and discount 1/log2(rank+1), ranks
    1-based, ties in score broken by ascending item id."""
    scores = np.asarray(scores, dtype=np.float64)
    rel = np.asarray(relevances, dtype=np.float64)
    ids = np.asarray(item_ids)
    if not np.any(rel > 0):
        raise ValueError("ndcg needs at least one positive relevance")
    if k is None:
        k = len(scores)
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], ids[i]))

    def dcg(ranked_rel):
        ranks = np.arange(1, len(ranked_rel) + 1)
        return float(((2.0 ** ranked_rel - 1.0) / np.log2(ranks + 1)).sum())

    got = dcg(rel[order][:k])
    ideal = dcg(np.sort(rel)[::-1][:k])
    return got / ideal


def mean_ndcg(groups, score_fn, k: int | None = None) -> float:
    """Average nDCG over groups; score_fn(group) -> array of item scores."""
    vals = []
    for g in groups:
        rel = group_relevance(g)
        if not np.any(rel > 0):
            continue
        vals.append(ndcg(score_fn(g), rel, g.item_ids, k=k))
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


# ---------------------------------------------------------------------------
# feature-gain harness (logistic-regression combiner in place of the GBT)
# ---------------------------------------------------------------------------


def fit_logistic(X: np.ndarray, y: np.ndarray, l2: float = 1e-3,
                 iters: int = 30) -> np.ndarray:
    """Newton-Raphson logistic regression with intercept; deterministic."""
    Xb = np.hstack([X, np.ones((len(X), 1))])
    w = np.zeros(Xb.shape[1])
    for _ in range(iters):
        z = Xb @ w
        p = 1.0 / (1.0 + np.exp(-np.clip(z, -35, 35)))
        g = Xb.T @ (p - y) + l2 * w
        s = np.maximum(p * (1 - p), 1e-6)
        H = (Xb * s[:, None]).T @ Xb + l2 * np.eye(Xb.shape[1])
        w = w - np.linalg.solve(H, g)
    return w


def predict_logistic(w: np.ndarray, X: np.ndarray) -> np.ndarray:
    Xb = np.hstack([X, np.ones((len(X), 1))])
    return 1.0 / (1.0 + np.exp(-np.clip(Xb @ w, -35, 35)))


def relative_gain_harness(train_groups, test_groups, base_feature_fn,
                          similarity_feature_fn, surface_filter: str = "retargeting",
                          k: int | None = None) -> EvalReport:
    """nDCG gain from adding a similarity feature to a linear combiner.

    base_feature_fn(group) -> (n, F) base features per item;
    similarity_feature_fn(group) -> (n,) similarity scores. The combiner
    is trained on click labels of the train-period groups, with and
    without the extra feature; test nDCG of both rankings is compared.
    """

    def collect(groups, with_sim):
        rows, ys = [], []
        for g in groups:
            base = np.atleast_2d(np.asarray(base_feature_fn(g), dtype=np.float64))
            feats = base
            if with_sim:
                sim = np.asarray(similarity_feature_fn(g), dtype=np.float64)[:, None]
                feats = np.hstack([base, sim])
            rows.append(feats)
            ys.append(np.asarray(g.labels["click"], dtype=np.float64))
        return np.vstack(rows), np.concatenate(ys)

    X0, y = collect(train_groups, with_sim=False)
    X1, _ = collect(train_groups, with_sim=True)
    w0 = fit_logistic(X0, y)
    w1 = fit_logistic(X1, y)

    def scorer(w, with_sim):
        def fn(g):
            base = np.atleast_2d(np.asarray(base_feature_fn(g), dtype=np.float64))
            feats = base
            if with_sim:
                sim = np.asarray(similarity_feature_fn(g), dtype=np.float64)[:, None]
                feats = np.hstack([base, sim])
            return predict_logistic(w, feats)
        return fn

    baseline = mean_ndcg(test_groups, scorer(w0, False), k=k)
    value = mean_ndcg(test_groups, scorer(w1, True), k=k)
    return EvalReport(metric="ndcg_gain", surface_filter=surface_filter,
                      value=value, baseline=baseline)
