"""Gradcheck suite: every primitive against central finite differences,
plus the end-to-end similarity gradient on a tiny model."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import GradcheckReport, Tensor, gradcheck
from .model import (ModelParams, TowerConfig, batch_histories, content_embed_batch,
                    init_params, item_tower_forward_batch, user_tower_forward_batch)
from .types import Event, EventType, UserHistory


def _scalarize(op):
    """Wrap an op so gradcheck sees a scalar: weighted sum of outputs with
    fixed coefficients (exercises all output coordinates)."""

    def wrapped(*tensors):
        out = op(*tensors)
        coeffs = np.cos(np.arange(out.data.size)).reshape(out.data.shape)
        return ad.tsum(ad.mul(out, Tensor(coeffs)))

    return wrapped


def primitive_cases(seed: int = 0):
    """(name, fn, point) triples covering every differentiable primitive."""
    rng = np.random.default_rng(seed)
    n = rng.normal
    cases = [
        ("matmul", _scalarize(ad.matmul), [n(size=(3, 4)), n(size=(4, 2))]),
        ("matmul_batched", _scalarize(ad.matmul), [n(size=(2, 3, 4)), n(size=(4, 2))]),
        ("add", _scalarize(ad.add), [n(size=(3, 4)), n(size=(4,))]),
        ("mul", _scalarize(ad.mul), [n(size=(3, 4)), n(size=(3, 4))]),
        ("scale", _scalarize(lambda x: ad.scale(x, -1.7)), [n(size=(5,))]),
        ("relu", _scalarize(ad.relu), [n(size=(7,)) + 0.05]),
        ("sigmoid", _scalarize(ad.sigmoid), [n(size=(6,))]),
        ("softplus", _scalarize(ad.softplus), [n(size=(6,))]),
        ("exp", _scalarize(ad.exp), [n(size=(5,))]),
        ("log", _scalarize(ad.log), [np.abs(n(size=(5,))) + 0.5]),
        ("softmax", _scalarize(ad.softmax), [n(size=(3, 5))]),
        ("layer_norm", _scalarize(lambda x, g, b: ad.layer_norm(x, g, b)),
         [n(size=(3, 6)), n(size=(6,)) + 1.0, n(size=(6,))]),
        ("l2_normalize", _scalarize(ad.l2_normalize), [n(size=(3, 4)) + 0.3]),
        ("gather", _scalarize(lambda t: ad.gather(t, np.array([0, 2, 2, 1]))),
         [n(size=(4, 3))]),
        ("sum", _scalarize(lambda x: ad.tsum(x, axis=1)), [n(size=(3, 4))]),
        ("mean", _scalarize(lambda x: ad.tmean(x, axis=0)), [n(size=(3, 4))]),
        ("concat", _scalarize(lambda a, b: ad.concat([a, b], axis=1)),
         [n(size=(2, 3)), n(size=(2, 2))]),
        ("reshape", _scalarize(lambda x: ad.reshape(x, (6,))), [n(size=(2, 3))]),
        ("transpose", _scalarize(lambda x: ad.transpose(x, (1, 0, 2))),
         [n(size=(2, 3, 4))]),
        ("attention", _scalarize(
            lambda q, k, v: ad.attention(q, k, v, mask=np.array([[1.0, 1.0, 1.0, 0.0]]))),
         [n(size=(1, 2, 4, 3)), n(size=(1, 2, 4, 3)), n(size=(1, 2, 4, 3))]),
        # last, so that the draws of the cases above do not depend on it
        ("matmul_bias", _scalarize(ad.matmul), [n(size=(2, 3, 4)), n(size=(4, 2)), n(size=(2,))]),
    ]
    return cases


def _tiny_model() -> tuple[ModelParams, "UserHistory", TowerConfig]:
    cfg = TowerConfig(d=8, user_layers=1, user_heads=2, user_ffn_hidden=16,
                      item_layers=1, max_history=3, vocab_size=16,
                      n_surfaces=2, n_devices=2)
    params = init_params(cfg, seed=3)
    history = UserHistory(0, [
        Event(0, EventType.CLICK, "a b", 1),
        Event(1, EventType.WEB_QUERY, "c"),
        Event(2, EventType.PURCHASE, "b d", 2),
    ])
    return params, history, cfg


def end_to_end_gradcheck(tol: float = 1e-4) -> GradcheckReport:
    """d(similarity)/d(all parameters) on a tiny config (d=8, one layer,
    three-event history)."""
    params, history, cfg = _tiny_model()
    token_map = {"a": 3, "b": 4, "c": 5, "d": 6}

    def tok(text):
        return [token_map[w] for w in text.split()]

    hb = batch_histories([history], tok, cfg)
    names = params.names()

    def forward(*tensors):
        p = ModelParams(cfg, dict(zip(names, tensors)))
        user = user_tower_forward_batch(hb, p)
        content = content_embed_batch(np.array([[7, 8, 9]]), np.ones((1, 3)), p)
        item = item_tower_forward_batch(content, p)
        return ad.tsum(ad.mul(user, item))

    point = [params[n].data for n in names]
    return gradcheck(forward, point, tol=tol)


def run_gradcheck_suite(tol: float = 1e-4, seeds=(0, 1)) -> dict[str, GradcheckReport]:
    """All primitives over several random draws, plus the end-to-end
    model gradient."""
    results: dict[str, GradcheckReport] = {}
    for seed in seeds:
        for name, fn, point in primitive_cases(seed):
            rep = gradcheck(fn, point, tol=tol)
            key = f"{name}[seed{seed}]"
            results[key] = rep
    results["end_to_end_similarity"] = end_to_end_gradcheck(tol)
    return results
