"""Acceptance gate: the ten headline behaviors of the package, each with
an explicit tolerance and a single pass/fail line on the terminal.

The directional checks (two-stage training, context debiasing, web-query
enrichment) train their variants through `pipeline.train_ablation`, as
`tworank ablate` does: one small simulated world per seed, whose variants
share a bundle and a pre-training wherever their inputs match.
"""

import json
import time

import numpy as np
import pytest

from tworank import autodiff as ad
from tworank.autodiff import Tensor
from tworank.dataset import attach_history, build_finetune_groups, build_pretrain_samples
from tworank.gradsuite import run_gradcheck_suite
from tworank.losses import bce_click, bpr_calibrated, finetune_objective
from tworank.model import (TowerConfig, batch_histories, init_params,
                           item_tower_forward_batch, user_tower_forward_batch)
from tworank.pipeline import calibration_report, eval_metrics, train_ablation
from tworank.serving import export_embeddings
from tworank.synth import EventRecord, SynthConfig
from tworank.train import TrainConfig
from tworank.types import UserHistory

from oracles import (bpr_original, content_embed, finetune_objective_bruteforce,
                     pretrain_loss, similarity)

SEEDS = (0, 1, 2)

WORLD = SynthConfig(n_items=300, n_users=100, days=24, impressions_per_day=0.35,
                    click_offset=-1.0, bias_strength=1.0)
TOWER = TowerConfig(d=16, user_layers=1, user_heads=2, user_ffn_hidden=32,
                    item_layers=1, max_history=24, vocab_size=300,
                    n_surfaces=4, n_devices=2)
PRETRAIN = TrainConfig(batch_size=32, epochs=2, max_steps=400, warmup_steps=40)
FINETUNE = TrainConfig(epochs=2, max_steps=250, warmup_steps=30)
CELLS = ("pretrain_only", "finetune_only", "both", "both_no_context", "both_no_web")


# One verdict line per criterion, printed by the pytest_terminal_summary
# hook in conftest.py after output capture is released.
VERDICTS: list[str] = []


def _verdict(name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    VERDICTS.append(f"[{status}] {name}: {detail}")


@pytest.fixture(scope="module")
def directional():
    """Per-seed metrics for the five training variants, trained by the
    ablation matrix's own function."""
    t0 = time.time()
    per_seed = {}
    for seed in SEEDS:
        trained = train_ablation(CELLS, WORLD, TOWER, PRETRAIN, FINETUNE, seed,
                                 test_days=8, eval_groups_per_user=4)
        per_seed[seed] = {cell: eval_metrics(bundle, params)
                          for cell, (bundle, params) in trained.items()}
        if seed == SEEDS[0]:
            kept = trained["both"]  # criteria 6-8 read seed 0's `both`
    return {"metrics": per_seed, "elapsed": time.time() - t0, "bundle": kept[0], "both": kept[1]}


# ---------------------------------------------------------------------------
# 1. gradient correctness
# ---------------------------------------------------------------------------


def test_criterion_1_gradcheck_suite():
    t0 = time.time()
    results = run_gradcheck_suite(tol=1e-4, seeds=(0, 1))
    elapsed = time.time() - t0
    worst = max(r.max_rel_error for r in results.values())
    failed = [n for n, r in results.items() if not r.passed]
    ok = not failed and elapsed < 60.0
    _verdict("criterion-1 gradcheck",
             ok, f"{len(results)} checks, worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert not failed, failed
    assert worst < 1e-4
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 2. analytic loss values
# ---------------------------------------------------------------------------


def test_criterion_2_analytic_loss_values():
    tau = Tensor(np.asarray(1.0))
    errs = []
    for n_neg in (1, 5, 31):
        got = float(pretrain_loss(Tensor(np.asarray(0.3)),
                                  Tensor(np.full(n_neg, 0.3)), tau).data)
        errs.append(abs(got - np.log(n_neg + 1)))
    zero = Tensor(np.asarray(0.0))
    ln2 = np.log(2.0)
    errs.append(abs(float(bpr_original(zero, zero, Tensor(np.asarray(1.0))).data) - ln2))
    errs.append(abs(float(bce_click(zero, 1.0).data) - ln2))
    errs.append(abs(float(bpr_calibrated(zero, zero).data) - ln2))
    # two-class softmax == sigmoid form across the logit range
    for z in np.linspace(-20.0, 20.0, 161):
        soft = float(pretrain_loss(Tensor(np.asarray(z)), Tensor(np.zeros(1)), tau).data)
        errs.append(abs(soft - float(np.logaddexp(0.0, -z))))
    worst = max(errs)
    _verdict("criterion-2 analytic losses", worst < 1e-9,
             f"worst abs err {worst:.2e} over {len(errs)} identities")
    assert worst < 1e-9


# ---------------------------------------------------------------------------
# 3-5. directional training behaviors
# ---------------------------------------------------------------------------


def _count_wins(metrics, variant, others, surface):
    wins = 0
    for seed in SEEDS:
        m = metrics[seed]
        if all(m[variant][surface] > m[o][surface] for o in others):
            wins += 1
    return wins


def test_criterion_3_two_stage_beats_single_stages(directional):
    metrics = directional["metrics"]
    ret = _count_wins(metrics, "both", ("pretrain_only", "finetune_only"), "retargeting")
    disc = _count_wins(metrics, "both", ("pretrain_only", "finetune_only"), "discovery")
    elapsed = directional["elapsed"]
    ok = ret >= 2 and disc >= 2 and elapsed < 600.0
    _verdict("criterion-3 two-stage training", ok,
             f"wins retargeting {ret}/3, discovery {disc}/3, training {elapsed:.0f}s")
    assert ret >= 2 and disc >= 2
    assert elapsed < 600.0


def test_criterion_4_context_debiasing(directional):
    metrics = directional["metrics"]
    wins = _count_wins(metrics, "both", ("both_no_context",), "retargeting")
    detail = ", ".join(
        f"seed{s} {metrics[s]['both']['retargeting']:.4f} vs "
        f"{metrics[s]['both_no_context']['retargeting']:.4f}" for s in SEEDS)
    _verdict("criterion-4 context debiasing", wins >= 2, f"wins {wins}/3 ({detail})")
    assert wins >= 2


def test_criterion_5_web_query_enrichment(directional):
    metrics = directional["metrics"]
    wins = _count_wins(metrics, "both", ("both_no_web",), "discovery")
    detail = ", ".join(
        f"seed{s} {metrics[s]['both']['discovery']:.4f} vs "
        f"{metrics[s]['both_no_web']['discovery']:.4f}" for s in SEEDS)
    _verdict("criterion-5 web-query enrichment", wins >= 2, f"wins {wins}/3 ({detail})")
    assert wins >= 2


# ---------------------------------------------------------------------------
# 6. calibration
# ---------------------------------------------------------------------------


def test_criterion_6_click_calibration(directional):
    bundle, params = directional["bundle"], directional["both"]
    report = calibration_report(bundle, params, bundle.finetune_test)
    gap = abs(report["mean_predicted"] - report["empirical_rate"])
    _verdict("criterion-6 calibration", gap <= 0.05,
             f"mean predicted {report['mean_predicted']:.4f} vs empirical "
             f"{report['empirical_rate']:.4f} (gap {gap:.4f})")
    assert gap <= 0.05


# ---------------------------------------------------------------------------
# 7. serving parity
# ---------------------------------------------------------------------------


def test_criterion_7_serving_parity(directional):
    bundle, params = directional["bundle"], directional["both"]
    cutoff = bundle.world.config.days - 1
    per_user = {u: [] for u in range(bundle.world.config.n_users)}
    for rec in bundle.records:
        if isinstance(rec, EventRecord) and rec.event.day <= cutoff:
            per_user[rec.user_id].append(rec.event)
    histories = {u: UserHistory(u, ev[-TOWER.max_history:])
                 for u, ev in per_user.items()}
    users, items = export_embeddings(params, histories, bundle.titles,
                                     bundle.tokenize_fn)
    norm_err = max(
        float(np.abs(np.linalg.norm(t.vectors.astype(np.float64), axis=1) - 1.0).max())
        for t in (users, items))
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        u = int(rng.integers(0, len(users)))
        i = int(rng.integers(0, len(items)))
        stored = float(users.vector(u).astype(np.float64)
                       @ items.vector(i).astype(np.float64))
        hb = batch_histories([histories[u]], bundle.tokenize_fn, params.config)
        u_vec = user_tower_forward_batch(hb, params)
        toks = bundle.tokenize_fn(bundle.titles[i])
        content = content_embed(toks, params["embeddings.content"])
        i_vec = item_tower_forward_batch(ad.reshape(content, (1, TOWER.d)), params)
        direct = float(similarity(u_vec, i_vec).data)
        worst = max(worst, abs(stored - direct))
    ok = worst < 1e-6 and norm_err < 1e-5
    _verdict("criterion-7 serving parity", ok,
             f"100 pairs, worst |stored - direct| {worst:.2e}, "
             f"worst norm err {norm_err:.2e}")
    assert worst < 1e-6
    assert norm_err < 1e-5


# ---------------------------------------------------------------------------
# 8. dataset contracts
# ---------------------------------------------------------------------------


def test_criterion_8_dataset_contracts(directional):
    records = directional["bundle"].records
    samples = build_pretrain_samples(records)
    groups = build_finetune_groups(records)
    attach_history(samples + groups, records, delay=1, max_history=TOWER.max_history,
                   include_web=True)
    delay_violations = sum(1 for s in samples for e in s.history.events
                           if e.day > s.day - 1)
    delay_violations += sum(1 for g in groups for e in g.history.events
                            if e.day > g.day - 1)
    positive_free = sum(1 for g in groups if not g.has_positive())
    ok = delay_violations == 0 and positive_free == 0
    _verdict("criterion-8 dataset contracts", ok,
             f"{len(samples)} samples + {len(groups)} groups, "
             f"{delay_violations} delay violations, {positive_free} positive-free groups")
    assert delay_violations == 0
    assert positive_free == 0


# ---------------------------------------------------------------------------
# 9. objective equals brute-force enumeration
# ---------------------------------------------------------------------------


def test_criterion_9_objective_vs_bruteforce():
    rng = np.random.default_rng(5)
    params = init_params(TOWER, seed=1)
    for n in params.names():
        if n == "loss_params.tau_raw" or n.startswith("loss_params.calib."):
            params[n].data = params[n].data + rng.normal(scale=0.3, size=params[n].shape)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        r = rng.normal(size=n)
        r_ctx = float(rng.normal())
        labels = {s: list(rng.integers(0, 2, size=n))
                  for s in ("click", "cart", "fvrt", "prch")}
        a = float(finetune_objective(Tensor(r), Tensor(np.full(n, r_ctx)),
                                     [labels], params).data)
        b = finetune_objective_bruteforce(r, r_ctx, labels, params)
        worst = max(worst, abs(a - b))
    _verdict("criterion-9 objective oracle", worst <= 1e-12,
             f"1000 random groups, worst abs diff {worst:.2e}")
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# 10. end-to-end determinism
# ---------------------------------------------------------------------------


def test_criterion_10_pipeline_determinism(tmp_path):
    from tworank.cli import EXIT_OK, main

    overrides = [
        "world.n_items=120", "world.n_users=30", "world.days=10",
        "world.organic_rate=0.8", "world.impressions_per_day=0.5",
        "world.query_rate=0.3",
        "model.d=16", "model.user_heads=2", "model.user_layers=1",
        "model.user_ffn_hidden=32", "model.item_layers=1",
        "model.max_history=12", "model.vocab_size=200", "data.test_days=3",
        "pretrain.epochs=1", "pretrain.batch_size=16",
        "pretrain.max_steps=30", "pretrain.warmup_steps=5",
        "finetune.epochs=1", "finetune.max_steps=20", "finetune.warmup_steps=5",
    ]

    def chain(out):
        for command in ("gen-data", "build-vocab", "pretrain", "finetune", "evaluate"):
            argv = [command, "--out", str(out), "--seed", "0"]
            for ov in overrides:
                argv += ["--set", ov]
            assert main(argv) == EXIT_OK

    chain(tmp_path / "run1")
    chain(tmp_path / "run2")
    m1 = (tmp_path / "run1" / "metrics.json").read_bytes()
    m2 = (tmp_path / "run2" / "metrics.json").read_bytes()
    ok = m1 == m2
    payload = json.loads(m1)
    _verdict("criterion-10 determinism", ok,
             f"two full runs, metrics byte-identical={ok}, "
             f"retargeting {payload['ndcg']['retargeting']:.4f}")
    assert ok
