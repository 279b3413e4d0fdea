"""The benchmark's workloads and the unit of work it times.

Every workload runs the whole tworank life cycle through the library's
public functions (never the CLI, which rebuilds the bundle per command):

    setup     world -> logs -> vocab -> bundle
    pretrain  pretrain_run, checkpoint save + load (as the CLI hands over)
    finetune  finetune_run from the loaded checkpoint
    evaluate  eval_metrics + calibration_report on finetune_test
    export    export_embeddings, EMB save + load
    score     closed loop of score requests, one client

The workloads differ in the inputs, which decides the layer that dominates.
Each unit checks its own outputs and counts operations attempted and
failed; a mismatch is a failed operation, not a crash.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from tworank import pipeline, serving, synth, text, train
from tworank.model import ModelParams, TowerConfig
from tworank.synth import EventRecord, SynthConfig
from tworank.train import TrainConfig
from tworank.types import UserHistory

from tracing import Tracer

GROUP_BATCH = 16        # finetune_run's default, passed explicitly
SERVING_DELAY = 1       # the CLI's [data] delay
CANDIDATES = 200        # candidate ids per score request
UNKNOWN_SHARE = 0.02    # share of candidate ids absent from the catalog
SCORE_RTOL = 1e-12      # float64 dot of float32 vectors; allows reordered sums


@dataclass(frozen=True)
class Workload:
    name: str
    world: SynthConfig
    tower: TowerConfig
    pretrain: TrainConfig
    finetune: TrainConfig
    test_days: int
    eval_groups_per_user: int
    export_reps: int      # exports per unit (median taken)
    emb_reps: int         # EMB save + load rounds per unit (median taken)
    score_requests: int   # score requests per unit


WORKLOADS = {w.name: w for w in (
    # The acceptance-scale config of tests/test_acceptance.py, full step
    # budget: tiny tensors, so Python dispatch dominates the training phases.
    Workload(
        name="train-small",
        world=SynthConfig(n_items=300, n_users=100, days=24, impressions_per_day=0.35,
                          click_offset=-1.0, bias_strength=1.0),
        tower=TowerConfig(d=16, user_layers=1, user_heads=2, user_ffn_hidden=32,
                          item_layers=1, max_history=24, vocab_size=300,
                          n_surfaces=4, n_devices=2),
        pretrain=TrainConfig(batch_size=32, epochs=2, max_steps=400, warmup_steps=40),
        finetune=TrainConfig(batch_size=32, epochs=2, max_steps=250, warmup_steps=30),
        test_days=8, eval_groups_per_user=4,
        export_reps=20, emb_reps=100, score_requests=2000),
    # CLI-default tower and trainer on the CLI-default 60-day world with
    # fewer users: arithmetic-heavy steps, and a set-up dominated by
    # dataset.attach_history. Steps are capped; warmup <= cap, because
    # pretrain_run rejects max_steps < warmup_steps.
    Workload(
        name="train-default",
        world=SynthConfig(n_users=64),
        tower=TowerConfig(),
        pretrain=TrainConfig(epochs=3, max_steps=24, warmup_steps=8),
        finetune=TrainConfig(epochs=1, max_steps=16, warmup_steps=8),
        test_days=10, eval_groups_per_user=2,
        export_reps=10, emb_reps=40, score_requests=2000),
    # CLI-default tower behind a 100k-item catalog: featurization, no-grad
    # forward, EMB I/O and the per-item score loop dominate; the training
    # phases are a few capped steps.
    Workload(
        name="serve-catalog",
        world=SynthConfig(n_items=100_000, n_users=100, days=24, impressions_per_day=0.35),
        tower=TowerConfig(),
        pretrain=TrainConfig(epochs=1, max_steps=8, warmup_steps=4),
        finetune=TrainConfig(epochs=1, max_steps=8, warmup_steps=4),
        test_days=8, eval_groups_per_user=2,
        export_reps=1, emb_reps=3, score_requests=2000),
)}


def pretrain_steps(n_samples: int, cfg: TrainConfig) -> int:
    """Steps pretrain_run takes: full batches only, capped by max_steps."""
    steps = (n_samples // cfg.batch_size) * cfg.epochs
    return min(steps, cfg.max_steps) if cfg.max_steps else steps


def finetune_work(n_groups: int, cfg: TrainConfig) -> tuple[int, int]:
    """(steps, groups consumed) of finetune_run with GROUP_BATCH groups a
    step, the last batch of an epoch partial, capped by max_steps."""
    per_epoch = max(math.ceil(n_groups / GROUP_BATCH), 1)
    steps = per_epoch * cfg.epochs
    if cfg.max_steps:
        steps = min(steps, cfg.max_steps)
    epochs, rest = divmod(steps, per_epoch)
    return steps, epochs * n_groups + rest * GROUP_BATCH


def serving_histories(records, world_cfg: SynthConfig, max_history: int) -> dict:
    """Each user's events up to the export day minus the serving delay,
    most recent max_history kept (the rule of `tworank export`)."""
    cutoff = world_cfg.days - SERVING_DELAY
    events = {u: [] for u in range(world_cfg.n_users)}
    for rec in records:
        if isinstance(rec, EventRecord) and rec.event.day <= cutoff:
            events[rec.user_id].append(rec.event)
    return {u: UserHistory(u, ev[-max_history:]) for u, ev in events.items()}


def score_requests(w: Workload, seed: int) -> list[tuple[int, list[int]]]:
    """Seeded (user, candidates) pairs; UNKNOWN_SHARE of ids lie past the
    catalog."""
    rng = np.random.default_rng([seed, 7])
    n_items = w.world.n_items
    out = []
    for _ in range(w.score_requests):
        ids = rng.integers(0, n_items, size=CANDIDATES)
        unknown = rng.random(CANDIDATES) < UNKNOWN_SHARE
        ids[unknown] = n_items + rng.integers(0, 1_000_000, size=int(unknown.sum()))
        out.append((int(rng.integers(0, w.world.n_users)), ids.tolist()))
    return out


def params_digest(params: ModelParams) -> str:
    h = hashlib.sha256()
    for name in sorted(params.tensors):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params[name].data).tobytes())
    return h.hexdigest()


def _finite(params: ModelParams) -> bool:
    return all(np.isfinite(t.data).all() for t in params.tensors.values())


def _emb_mismatches(saved: serving.EmbeddingTable, loaded: serving.EmbeddingTable) -> int:
    """Entities whose id or vector bytes differ after the round trip."""
    if loaded.ids.shape != saved.ids.shape or loaded.vectors.shape != saved.vectors.shape:
        return len(saved)
    bad = (loaded.ids != saved.ids) | np.any(
        loaded.vectors.view(np.uint32) != saved.vectors.view(np.uint32), axis=1)
    return int(bad.sum())


def _score_ok(result, ids, u, vectors, row_of) -> bool:
    """Known ids score the float64 dot of the stored vectors `u` and
    `vectors[row_of[id]]`; unknown ids give only an inline error entry; the
    order is the input order."""
    if [item_id for item_id, _, _ in result] != ids:
        return False
    rows = np.array([row_of.get(i, -1) for i in ids])
    known = rows >= 0
    if not all((err is None and value is not None) if k else (value is None and bool(err))
               for (_, value, err), k in zip(result, known)):
        return False
    got = np.array([value for (_, value, _), k in zip(result, known) if k], dtype=np.float64)
    want = vectors[rows[known]].astype(np.float64) @ u
    return bool(np.allclose(got, want, rtol=SCORE_RTOL, atol=SCORE_RTOL))


def run_unit(w: Workload, seed: int, workdir: Path, tracer: Tracer | None = None) -> dict:
    """One life cycle of workload `w` on the inputs of `seed`. Library
    calls go through module attributes so that a traced unit sees them.
    Timed intervals are kept as raw (start, end) perf_counter pairs under
    out["intervals"]; the caller turns them into durations."""
    intervals: dict[str, list[tuple[float, float]]] = defaultdict(list)

    @contextlib.contextmanager
    def timed(key):
        t0 = perf_counter()
        yield
        intervals[key].append((t0, perf_counter()))

    def phase(name):
        if tracer is None:
            return contextlib.nullcontext()
        tracer.phase = name
        return tracer.span(f"phase.{name}")

    out = {"traced": tracer is not None, "intervals": intervals}

    with timed("unit"):
        with phase("setup"), timed("setup"):
            world_cfg = replace(w.world, seed=seed)
            world = synth.generate_world(world_cfg)
            records = synth.simulate_logs(world)
            vocab = text.build_vocab(world.title_corpus(), w.tower.vocab_size)
            bundle = pipeline.build_bundle(
                world_cfg, vocab_size=w.tower.vocab_size, max_history=w.tower.max_history,
                test_days=w.test_days, eval_groups_per_user=w.eval_groups_per_user,
                world=world, records=records, vocab=vocab)
        histories = serving_histories(records, world_cfg, w.tower.max_history)
        requests = score_requests(w, seed)

        pre_cfg = replace(w.pretrain, seed=seed)
        ft_cfg = replace(w.finetune, seed=seed)
        n_pre = pretrain_steps(len(bundle.pretrain_train), pre_cfg)
        n_ft, ft_groups = finetune_work(len(bundle.finetune_train), ft_cfg)
        ckpt = workdir / "pretrain.ckpt"

        with phase("pretrain"):
            with timed("pretrain"):
                params = train.pretrain_run(bundle.pretrain_train, pre_cfg, w.tower,
                                            bundle.tokenize_fn, bundle.titles)
            params.save(ckpt)
            params = ModelParams.load(ckpt)

        with phase("finetune"), timed("finetune"):
            params = train.finetune_run(bundle.finetune_train, params, ft_cfg,
                                        bundle.tokenize_fn, bundle.titles,
                                        group_batch=GROUP_BATCH)
        failed_steps = 0 if _finite(params) else n_pre + n_ft

        with phase("evaluate"), timed("evaluate"):
            ndcg = pipeline.eval_metrics(bundle, params)
            calib = pipeline.calibration_report(bundle, params, bundle.finetune_test,
                                                use_context=ft_cfg.use_context)
        n_eval = len(bundle.eval_groups) + len(bundle.finetune_test)
        in_range = [0.0 < ndcg["retargeting"] <= 1.0]
        if not math.isnan(ndcg["discovery"]):  # NaN when no discovery group survives
            in_range.append(0.0 < ndcg["discovery"] <= 1.0)
        in_range.append(all(math.isfinite(v) for v in calib.values()))
        failed_eval = 0 if all(in_range) else n_eval

        with phase("export"):
            for _ in range(w.export_reps):
                with timed("export"):
                    users, items = serving.export_embeddings(params, histories, bundle.titles,
                                                             bundle.tokenize_fn)
            failed_export = 0
            for rep in range(w.emb_reps):
                # fresh files each round: overwriting adds a page-cache
                # truncate whose cost swings with host load
                paths = (workdir / f"users{rep}.emb", workdir / f"items{rep}.emb")
                with timed("emb_save"):
                    users.save(paths[0])
                    items.save(paths[1])
                with timed("emb_load"):
                    loaded = (serving.EmbeddingTable.load(paths[0]),
                              serving.EmbeddingTable.load(paths[1]))
                failed_export = max(failed_export, _emb_mismatches(users, loaded[0])
                                    + _emb_mismatches(items, loaded[1]))
                emb_bytes = sum(p.stat().st_size for p in paths)
                for p in paths:
                    p.unlink()
        n_export = len(users) + len(items)
        users, items = loaded

        with phase("score"):
            failed_score, unknown = 0, 0
            row_of = {int(i): r for r, i in enumerate(items.ids)}
            for user_id, ids in requests:
                with timed("score"):
                    result = serving.score(user_id, ids, users, items)
                u = users.vector(user_id).astype(np.float64)
                failed_score += not _score_ok(result, ids, u, items.vectors, row_of)
                unknown += sum(err is not None for _, _, err in result)

    out.update({
        "steps": {"pretrain": n_pre, "finetune": n_ft},
        "work": {"pretrain": n_pre * pre_cfg.batch_size, "finetune": ft_groups,
                 "evaluate": n_eval, "export": n_export},
        "digest": params_digest(params),
        "ndcg_retargeting": ndcg["retargeting"],
        "ndcg_discovery": ndcg["discovery"],
        "eval_groups": len(bundle.eval_groups),
        "ckpt_bytes": ckpt.stat().st_size,
        "emb_bytes": emb_bytes,
        "score_unknown_ids": unknown,
        "attempted": n_pre + n_ft + n_eval + n_export + len(requests),
        "failed": failed_steps + failed_eval + failed_export + failed_score,
    })
    return out
