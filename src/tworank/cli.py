"""Command-line entry point wiring the pipeline stages into reproducible
runs. Exit codes: 0 ok, 2 config error, 3 missing input artifact,
4 invariant violation."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import ConfigError, EvalConfig, RunConfig, config_as_dict, load_config
from .dataset import serving_histories
from .model import ModelParams, init_params
from .pipeline import (ABLATION_CELLS, ablation_runner, build_bundle,
                       calibration_report, eval_metrics)
from .serving import EmbeddingTable, export_embeddings, score
from .synth import generate_world, read_logs, simulate_logs, write_logs
from .text import Vocab, build_vocab
from .train import continuous_finetune, finetune_run, pretrain_run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_INVARIANT = 4


class MissingArtifact(FileNotFoundError):
    pass


def _artifact(out_dir: str, name: str, must_exist: bool = False) -> str:
    path = os.path.join(out_dir, name)
    if must_exist and not os.path.exists(path):
        raise MissingArtifact(path)
    return path


def _load_inputs(cfg: RunConfig, out_dir: str):
    world = generate_world(cfg.world)
    logs_path = _artifact(out_dir, "logs.ndjson", must_exist=True)
    _catalog, records = read_logs(logs_path)
    vocab = Vocab.load(_artifact(out_dir, "vocab.txt", must_exist=True))
    return world, records, vocab


def _bundle(cfg: RunConfig, out_dir: str):
    world, records, vocab = _load_inputs(cfg, out_dir)
    return build_bundle(cfg.world, vocab_size=cfg.data.vocab_size,
                        max_history=cfg.model.max_history,
                        include_web=cfg.data.include_web, delay=cfg.data.delay,
                        test_days=cfg.data.test_days,
                        eval_groups_per_user=cfg.data.eval_groups_per_user,
                        world=world, records=records, vocab=vocab)


def cmd_gen_data(cfg: RunConfig, ec: EvalConfig, args) -> int:
    world = generate_world(cfg.world)
    records = simulate_logs(world)
    path = _artifact(args.out, "logs.ndjson")
    write_logs(world, records, path)
    n_imp = sum(1 for r in records if not hasattr(r, "event"))
    print(f"gen-data: wrote {len(records)} records ({n_imp} impressions) to {path}")
    return EXIT_OK


def cmd_build_vocab(cfg: RunConfig, ec: EvalConfig, args) -> int:
    logs_path = _artifact(args.out, "logs.ndjson", must_exist=True)
    catalog, records = read_logs(logs_path)
    corpus = [title for title, _cat in catalog.values()]
    corpus += [r.event.text for r in records if hasattr(r, "event")]
    vocab = build_vocab(corpus, cfg.data.vocab_size)
    path = _artifact(args.out, "vocab.txt")
    vocab.save(path)
    print(f"build-vocab: {len(vocab)} pieces -> {path}")
    return EXIT_OK


def cmd_pretrain(cfg: RunConfig, ec: EvalConfig, args) -> int:
    bundle = _bundle(cfg, args.out)
    params = pretrain_run(bundle.pretrain_train, cfg.pretrain, cfg.model,
                          bundle.tokenize_fn, bundle.titles)
    path = _artifact(args.out, "pretrain.ckpt")
    params.save(path)
    print(f"pretrain: {len(bundle.pretrain_train)} samples -> {path}")
    return EXIT_OK


def cmd_finetune(cfg: RunConfig, ec: EvalConfig, args) -> int:
    bundle = _bundle(cfg, args.out)
    if args.init == "pretrain":
        params = ModelParams.load(_artifact(args.out, "pretrain.ckpt", must_exist=True))
    else:
        params = init_params(cfg.model, seed=cfg.finetune.seed)
    params = finetune_run(bundle.finetune_train, params, cfg.finetune,
                          bundle.tokenize_fn, bundle.titles)
    path = _artifact(args.out, "finetune.ckpt")
    params.save(path)
    print(f"finetune: {len(bundle.finetune_train)} groups -> {path}")
    return EXIT_OK


def cmd_continuous(cfg: RunConfig, ec: EvalConfig, args) -> int:
    bundle = _bundle(cfg, args.out)
    prev = ModelParams.load(_artifact(args.out, "finetune.ckpt", must_exist=True))
    if prev.config != cfg.model:
        raise ConfigError("checkpoint model config does not match run config")
    params = continuous_finetune(prev, bundle.finetune_test, cfg.finetune,
                                 bundle.tokenize_fn, bundle.titles)
    path = _artifact(args.out, "continuous.ckpt")
    params.save(path)
    print(f"continuous: {len(bundle.finetune_test)} new groups -> {path}")
    return EXIT_OK


def _best_checkpoint(out_dir: str) -> str:
    for name in ("continuous.ckpt", "finetune.ckpt", "pretrain.ckpt"):
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            return path
    raise MissingArtifact(os.path.join(out_dir, "finetune.ckpt"))


def cmd_export(cfg: RunConfig, ec: EvalConfig, args) -> int:
    bundle = _bundle(cfg, args.out)
    params = ModelParams.load(args.checkpoint or _best_checkpoint(args.out))
    histories = serving_histories(bundle.records, range(cfg.world.n_users),
                                  cfg.world.days, cfg.data.delay,
                                  cfg.model.max_history, bundle.include_web)
    users, items = export_embeddings(params, histories, bundle.titles,
                                     bundle.tokenize_fn)
    upath = _artifact(args.out, "users.emb")
    ipath = _artifact(args.out, "items.emb")
    users.save(upath)
    items.save(ipath)
    print(f"export: {len(users)} users -> {upath}, {len(items)} items -> {ipath}")
    return EXIT_OK


def cmd_score(cfg: RunConfig, ec: EvalConfig, args) -> int:
    users = EmbeddingTable.load(_artifact(args.out, "users.emb", must_exist=True))
    items = EmbeddingTable.load(_artifact(args.out, "items.emb", must_exist=True))
    if args.user not in users:
        print(f"unknown user id {args.user}", file=sys.stderr)
        return EXIT_INVARIANT
    item_ids = [int(line.strip()) for line in sys.stdin if line.strip()]
    results = score(args.user, item_ids, users, items)
    for item_id, value, err in results:
        if err is None:
            print(f"{item_id}\t{value:.6f}")
        else:
            print(f"{item_id}\tERROR\t{err}")
    return EXIT_OK


def cmd_evaluate(cfg: RunConfig, ec: EvalConfig, args) -> int:
    bundle = _bundle(cfg, args.out)
    params = ModelParams.load(args.checkpoint or _best_checkpoint(args.out))
    metrics = eval_metrics(bundle, params)
    calib = calibration_report(bundle, params, bundle.finetune_test,
                               use_context=cfg.finetune.use_context)
    payload = {"ndcg": metrics, "calibration": calib,
               "config": config_as_dict(cfg)}
    path = _artifact(args.out, "metrics.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"evaluate: retargeting={metrics['retargeting']:.4f} "
          f"discovery={metrics['discovery']:.4f} -> {path}")
    return EXIT_OK


def cmd_ablate(cfg: RunConfig, ec: EvalConfig, args) -> int:
    cells = ec.cell_list() or ABLATION_CELLS
    rows = ablation_runner(cfg.world, cfg.model, cfg.pretrain, cfg.finetune,
                           seeds=ec.seed_list(), cells=cells,
                           vocab_size=cfg.data.vocab_size,
                           test_days=cfg.data.test_days, delay=cfg.data.delay)
    tsv = _artifact(args.out, "results.tsv")
    seeds = ec.seed_list()
    with open(tsv, "w") as fh:
        fh.write("metric\tsurface_filter\tseed\tvalue\n")
        i = 0
        for cell in cells:
            for seed in seeds:
                for _ in range(2):  # retargeting + discovery rows per cell/seed
                    r = rows[i]
                    fh.write(f"{r.metric}\t{r.surface_filter}\t{seed}\t{r.value:.6f}\n")
                    i += 1
    jpath = _artifact(args.out, "results.json")
    with open(jpath, "w") as fh:
        json.dump([{"metric": r.metric, "surface": r.surface_filter,
                    "value": r.value} for r in rows], fh, indent=2)
    print(f"ablate: {len(rows)} rows -> {tsv}")
    return EXIT_OK


def cmd_gradcheck(cfg: RunConfig, ec: EvalConfig, args) -> int:
    from .gradsuite import run_gradcheck_suite
    results = run_gradcheck_suite()
    worst = max(r.max_rel_error for r in results.values())
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return EXIT_MISSING

    os.makedirs(args.out, exist_ok=True)
    try:
        return _COMMANDS[args.command](cfg, ec, args)
    except MissingArtifact as exc:
        print(f"missing input artifact: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (AssertionError, ValueError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
