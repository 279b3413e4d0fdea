"""Command-line entry point wiring the pipeline stages into reproducible
runs. Exit codes: 0 ok, 2 config error, 3 missing input artifact,
4 invariant violation (including a corrupt artifact)."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from .config import ConfigError, EvalConfig, RunConfig, load_config
from .dataset import serving_histories
from .model import ModelParams, init_params
from .pipeline import (ABLATION_CELLS, build_bundle, calibration_report,
                       eval_metrics, train_ablation)
from .serving import KIND_ITEM, KIND_NAMES, KIND_USER, EmbeddingTable, export_embeddings, score
from .synth import generate_world, read_logs, simulate_logs, write_logs
from .text import Vocab, build_vocab
from .train import continuous_finetune, finetune_run, pretrain_run
from .types import ImpressionGroup

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_INVARIANT = 4


def _world_and_logs(cfg: RunConfig, out_dir: str):
    """The [world] and the logs in `out_dir`, which must come from it."""
    world = generate_world(cfg.world)
    return world, read_logs(os.path.join(out_dir, "logs.ndjson"), world)


def _bundle(cfg: RunConfig, out_dir: str):
    world, records = _world_and_logs(cfg, out_dir)
    vocab_path = os.path.join(out_dir, "vocab.txt")
    vocab = Vocab.load(vocab_path)
    # piece ids index the content table, which has [model] vocab_size rows
    if len(vocab) > cfg.model.vocab_size:
        raise ValueError(f"{vocab_path}: {len(vocab)} pieces, more than the [model] vocab_size "
                         f"of {cfg.model.vocab_size}; run build-vocab with this config")
    return build_bundle(cfg.world, vocab_size=cfg.model.vocab_size,
                        max_history=cfg.model.max_history, **asdict(cfg.data),
                        world=world, records=records, vocab=vocab)


def cmd_gen_data(cfg: RunConfig, ec: EvalConfig, args) -> int:
    world = generate_world(cfg.world)
    records = simulate_logs(world)
    path = os.path.join(args.out, "logs.ndjson")
    write_logs(world, records, path)
    n_imp = sum(1 for r in records if isinstance(r, ImpressionGroup))
    print(f"gen-data: wrote {len(records)} records ({n_imp} impressions) to {path}")
    return EXIT_OK


def cmd_build_vocab(cfg: RunConfig, ec: EvalConfig, args) -> int:
    world, _ = _world_and_logs(cfg, args.out)
    vocab = build_vocab(world.title_corpus(), cfg.model.vocab_size)
    path = os.path.join(args.out, "vocab.txt")
    vocab.save(path)
    print(f"build-vocab: {len(vocab)} pieces -> {path}")
    return EXIT_OK


def _checkpoint(cfg: RunConfig, path: str) -> ModelParams:
    """The checkpoint at `path`; its tower must be the run's [model]."""
    params = ModelParams.load(path)
    ckpt, run = asdict(params.config), asdict(cfg.model)
    diff = [f"{k} = {ckpt[k]!r}, not {run[k]!r}" for k in run if ckpt[k] != run[k]]
    if diff:
        raise ConfigError(f"{path}: the checkpoint's tower differs from the [model] config: "
                          f"{'; '.join(diff)}")
    return params


def cmd_pretrain(cfg: RunConfig, ec: EvalConfig, args) -> int:
    bundle = _bundle(cfg, args.out)
    params = pretrain_run(bundle.pretrain_train, cfg.pretrain, cfg.model,
                          bundle.tokenize_fn, bundle.titles)
    path = os.path.join(args.out, "pretrain.ckpt")
    params.save(path)
    print(f"pretrain: {len(bundle.pretrain_train)} samples -> {path}")
    return EXIT_OK


def cmd_finetune(cfg: RunConfig, ec: EvalConfig, args) -> int:
    bundle = _bundle(cfg, args.out)
    if args.init == "pretrain":
        params = _checkpoint(cfg, os.path.join(args.out, "pretrain.ckpt"))
    else:
        params = init_params(cfg.model, seed=cfg.finetune.seed)
    params = finetune_run(bundle.finetune_train, params, cfg.finetune,
                          bundle.tokenize_fn, bundle.titles)
    path = os.path.join(args.out, "finetune.ckpt")
    params.save(path)
    print(f"finetune: {len(bundle.finetune_train)} groups -> {path}")
    return EXIT_OK


def cmd_continuous(cfg: RunConfig, ec: EvalConfig, args) -> int:
    bundle = _bundle(cfg, args.out)
    prev = _checkpoint(cfg, os.path.join(args.out, "finetune.ckpt"))
    params = continuous_finetune(prev, bundle.finetune_test, cfg.finetune,
                                 bundle.tokenize_fn, bundle.titles)
    path = os.path.join(args.out, "continuous.ckpt")
    params.save(path)
    print(f"continuous: {len(bundle.finetune_test)} new groups -> {path}")
    return EXIT_OK


def _best_checkpoint(out_dir: str) -> str:
    """The last checkpoint of the chain in `out_dir`; finetune.ckpt's path
    if there is none."""
    paths = [os.path.join(out_dir, name)
             for name in ("continuous.ckpt", "finetune.ckpt", "pretrain.ckpt")]
    return next((p for p in paths if os.path.exists(p)), paths[1])


def cmd_export(cfg: RunConfig, ec: EvalConfig, args) -> int:
    bundle = _bundle(cfg, args.out)
    ckpt = args.checkpoint or _best_checkpoint(args.out)
    params = _checkpoint(cfg, ckpt)
    histories = serving_histories(bundle.records, range(cfg.world.n_users),
                                  cfg.world.days, cfg.data.delay,
                                  cfg.model.max_history, bundle.include_web)
    users, items = export_embeddings(params, histories, bundle.titles,
                                     bundle.tokenize_fn)
    upath = os.path.join(args.out, "users.emb")
    ipath = os.path.join(args.out, "items.emb")
    users.save(upath)
    items.save(ipath)
    print(f"export: {ckpt}: {len(users)} users -> {upath}, {len(items)} items -> {ipath}")
    return EXIT_OK


def _emb_table(out_dir: str, name: str, kind: int) -> EmbeddingTable:
    path = os.path.join(out_dir, name)
    table = EmbeddingTable.load(path)
    if table.kind != kind:
        raise ValueError(f"{path}: holds {KIND_NAMES[table.kind]} embeddings, "
                         f"not {KIND_NAMES[kind]} ones")
    return table


def cmd_score(cfg: RunConfig, ec: EvalConfig, args) -> int:
    users = _emb_table(args.out, "users.emb", KIND_USER)
    items = _emb_table(args.out, "items.emb", KIND_ITEM)
    if users.dim != items.dim:
        raise ValueError(f"{os.path.join(args.out, 'users.emb')} holds dim {users.dim}, but "
                         f"{os.path.join(args.out, 'items.emb')} holds dim {items.dim}")
    if args.user not in users:
        print(f"unknown user id {args.user}", file=sys.stderr)
        return EXIT_INVARIANT
    # each non-blank line: its item id, or the error line of a malformed one
    lines = []
    for lineno, line in enumerate(sys.stdin, 1):
        if line.strip():
            try:
                lines.append(int(line))
            except ValueError:
                lines.append(f"{line.strip()}\tERROR\tstdin line {lineno}: not an integer id")
    results = iter(score(args.user, [x for x in lines if isinstance(x, int)], users, items))
    for line in lines:
        if isinstance(line, str):
            print(line)
            continue
        item_id, value, err = next(results)
        print(f"{item_id}\t{value:.6f}" if err is None else f"{item_id}\tERROR\t{err}")
    return EXIT_OK


def _json_metric(value: float) -> float | None:
    """An undefined (NaN) metric is null in strict JSON (RFC 8259)."""
    return None if math.isnan(value) else value


def cmd_evaluate(cfg: RunConfig, ec: EvalConfig, args) -> int:
    bundle = _bundle(cfg, args.out)
    ckpt = args.checkpoint or _best_checkpoint(args.out)
    params = _checkpoint(cfg, ckpt)
    metrics = eval_metrics(bundle, params)
    calib = calibration_report(bundle, params, bundle.finetune_test,
                               use_context=cfg.finetune.use_context)
    kept = metrics["groups"]  # filter -> evaluation groups it kept
    payload = {"ndcg": {f: _json_metric(metrics[f]) for f in kept}, "groups": kept,
               "near_ties": metrics["near_ties"], "calibration": calib,
               "config": asdict(cfg)}
    path = os.path.join(args.out, "metrics.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
    print(f"evaluate: {ckpt}: retargeting={metrics['retargeting']:.4f} "
          f"discovery={metrics['discovery']:.4f} -> {path}")
    print("evaluate: groups kept: " + ", ".join(
        f"{f} {n} of {len(bundle.eval_groups)}" for f, n in kept.items()))
    return EXIT_OK


def cmd_ablate(cfg: RunConfig, ec: EvalConfig, args) -> int:
    cells, seeds = ec.cell_list() or ABLATION_CELLS, ec.seed_list()
    metrics = {}
    for seed in seeds:
        trained = train_ablation(cells, cfg.world, cfg.model, cfg.pretrain, cfg.finetune,
                                 seed, **asdict(cfg.data))
        for cell, (bundle, params) in trained.items():
            metrics[cell, seed] = eval_metrics(bundle, params)
    rows = [{"metric": f"ndcg/{cell}", "surface": surface, "seed": seed,
             "value": metrics[cell, seed][surface]}
            for cell in cells for seed in seeds for surface in metrics[cell, seed]["groups"]]
    tsv = os.path.join(args.out, "results.tsv")
    with open(tsv, "w") as fh:
        fh.write("metric\tsurface_filter\tseed\tvalue\n")
        for r in rows:
            fh.write(f"{r['metric']}\t{r['surface']}\t{r['seed']}\t{r['value']:.6f}\n")
    jpath = os.path.join(args.out, "results.json")
    with open(jpath, "w") as fh:
        json.dump([{**r, "value": _json_metric(r["value"])} for r in rows], fh, indent=2,
                  allow_nan=False)
    print(f"ablate: {len(rows)} rows -> {tsv}")
    return EXIT_OK


def cmd_gradcheck(cfg: RunConfig, ec: EvalConfig, args) -> int:
    from .gradsuite import run_gradcheck_suite
    results = run_gradcheck_suite()
    worst = np.max([r.max_rel_error for r in results.values()])  # a NaN error is the worst
    for name, rep in results.items():
        status = "pass" if rep.passed else "FAIL"
        print(f"gradcheck {name}: {status} (max rel err {rep.max_rel_error:.2e})")
    if any(not r.passed for r in results.values()):
        print(f"gradcheck: FAILED (worst {worst:.2e})")
        return EXIT_INVARIANT
    print(f"gradcheck: all passed (worst {worst:.2e})")
    return EXIT_OK


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "build-vocab": cmd_build_vocab,
    "pretrain": cmd_pretrain,
    "finetune": cmd_finetune,
    "continuous": cmd_continuous,
    "export": cmd_export,
    "score": cmd_score,
    "evaluate": cmd_evaluate,
    "ablate": cmd_ablate,
    "gradcheck": cmd_gradcheck,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tworank")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", default=None, help="config file path")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="SECTION.KEY=VALUE")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--checkpoint", default=None)
    parser.add_argument("--init", choices=("pretrain", "fresh"), default="pretrain",
                        help="finetune initialization")
    parser.add_argument("--user", type=int, default=0, help="user id for score")
    args = parser.parse_args(argv)

    try:
        cfg, ec = load_config(args.config, args.overrides, seed=args.seed)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:  # a file on the path, or no permission
            raise ConfigError(f"--out {args.out}: cannot make the output directory: "
                              f"{exc.strerror}") from None
        return _COMMANDS[args.command](cfg, ec, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        print(f"missing input: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_MISSING
    except ValueError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
