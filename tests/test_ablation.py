"""The ablation matrix trains one seed's cells on one world, with one
bundle per distinct history setting, one pre-training per bundle and one
fine-tuning per distinct bundle, start and context term, and gives every
cell what training it alone on a fresh world gives."""

from dataclasses import replace
from unittest.mock import Mock

import numpy as np
import pytest

from tworank import pipeline
from tworank.model import TowerConfig, init_params
from tworank.pipeline import ABLATION_CELLS, build_bundle, eval_metrics, train_ablation
from tworank.synth import SynthConfig, generate_world, simulate_logs
from tworank.train import TrainConfig, finetune_run, pretrain_run

WORLD = SynthConfig(n_items=60, n_users=20, n_categories=4, days=10, organic_rate=0.8,
                    impressions_per_day=0.5, query_rate=0.4)
# max_history 6: the short-history cell keeps 4 events
TOWER = TowerConfig(d=8, user_layers=1, user_heads=2, user_ffn_hidden=16, item_layers=1,
                    max_history=6, vocab_size=64)
PRETRAIN = TrainConfig(batch_size=8, epochs=1, max_steps=6, warmup_steps=2)
FINETUNE = TrainConfig(epochs=1, max_steps=4, warmup_steps=1)


def _one_cell(cell, seed, test_days, include_web=True, use_context=True):
    """`cell` trained alone on a fresh world, as every cell was before the
    matrix shared its work: the reference. Returns its metrics and params."""
    wc = replace(WORLD, seed=seed)
    tc = TOWER
    if cell == "both_short_history":
        tc = replace(TOWER, max_history=max(TOWER.max_history // 2, 4))
    world = generate_world(wc)
    bundle = build_bundle(wc, vocab_size=tc.vocab_size, max_history=tc.max_history,
                          include_web=include_web and cell != "both_no_web",
                          test_days=test_days,
                          world=world, records=simulate_logs(world))
    if cell == "finetune_only":
        params = init_params(tc, seed=seed)
    else:
        params = pretrain_run(bundle.pretrain_train, replace(PRETRAIN, seed=seed), tc,
                              bundle.tokenize_fn, bundle.titles)
    if cell != "pretrain_only":
        fc = replace(FINETUNE, seed=seed, use_context=use_context and cell != "both_no_context")
        params = finetune_run(bundle.finetune_train, params, fc, bundle.tokenize_fn,
                              bundle.titles)
    return eval_metrics(bundle, params), params


def _train_spied(monkeypatch, include_web=True, use_context=True):
    """train_ablation's six cells for seed 1, and how often it called
    build_bundle, pretrain_run and finetune_run."""
    spies = {name: Mock(wraps=getattr(pipeline, name))
             for name in ("build_bundle", "pretrain_run", "finetune_run")}
    with monkeypatch.context() as m:
        for name, spy in spies.items():
            m.setattr(pipeline, name, spy)
        trained = train_ablation(ABLATION_CELLS, WORLD, TOWER, PRETRAIN,
                                 replace(FINETUNE, use_context=use_context), 1,
                                 include_web=include_web, test_days=3)
    assert list(trained) == list(ABLATION_CELLS)
    return trained, [spy.call_count for spy in spies.values()]


def _assert_equal_to_alone(trained, **kw):
    for cell, (bundle, params) in trained.items():
        metrics, alone = _one_cell(cell, seed=1, test_days=3, **kw)
        assert eval_metrics(bundle, params) == metrics, cell
        # nDCG can tie where parameters differ (`both` and `both_no_context` do here)
        assert params.names() == alone.names()
        assert all(np.array_equal(params[n].data, alone[n].data) for n in params.names()), cell


def test_shared_matrix_equals_each_cell_alone(monkeypatch):
    trained, calls = _train_spied(monkeypatch)
    # bundles (web, 6 events) for four cells, (no web, 6) and (web, 4); every
    # cell but pretrain_only fine-tunes a start of its own
    assert calls == [3, 3, 5]
    _assert_equal_to_alone(trained)


@pytest.mark.parametrize("setting, same_as_both, calls", [
    ({"include_web": False}, "both_no_web", [2, 2, 4]),
    ({"use_context": False}, "both_no_context", [3, 3, 4]),
], ids=["no_web", "no_context"])
def test_equal_finetunings_run_once(monkeypatch, setting, same_as_both, calls):
    """Without web queries `both_no_web` has `both`'s inputs, and without
    the context term so has `both_no_context`: the two share one
    fine-tuning, and every cell still equals its training alone."""
    trained, got = _train_spied(monkeypatch, **setting)
    assert got == calls
    assert trained[same_as_both][1] is trained["both"][1]
    _assert_equal_to_alone(trained, **setting)
