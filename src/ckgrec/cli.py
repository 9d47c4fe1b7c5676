"""Command-line entry point.

Subcommands cover the whole pipeline: `synth` writes a seeded synthetic
dataset, `ingest` parses and summarizes interaction files, `build-graph`
reports the two collaborative graphs, `train` fits and checkpoints a
model, `evaluate` scores it against popularity/random baselines,
`recommend` prints a ranked list for one user, and `sweep-layers` runs
the depth study.

Each command resolves one `RunConfig` through `config.load_config`, and
that object goes unchanged to graph building, the model and `train`.
Later sources win: defaults, `CKGR_SEED`, the checkpoint's own config
(`evaluate`, `recommend`), `--config`, `--set`, the data-path flags,
`--seed`.  A set, non-empty `CKGR_SEED` that is not an integer is an
error for every command, even when another source supplies the seed.

Exit codes: 0 success, 1 for validation problems (bad config, malformed
or missing inputs, mismatched checkpoints), 2 for runtime faults.
Every training/evaluation run writes a `run_manifest.json` with the
resolved config, the seed, and content hashes of its inputs, enough to
reproduce the run bit for bit single-threaded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import checkpoint as ckpt
from .config import RunConfig, load_config
from .errors import CkgrecError, ConfigError, FormatError, UnresolvedEntityError
from .evaluate import (
    EvalReport,
    evaluate_model,
    make_val_recall,
    model_scores,
    pairs_of,
    popularity_scores,
    random_scores,
    rank_and_score,
    split_dataset,
    topk_from_scores,
    truth_by_user,
)
from .graph import build_bipartite, build_graphs
from .ingest import (
    SynthConfig,
    filter_min_interactions,
    merge_records,
    parse_attribute_triples,
    parse_interactions,
    synth_generate,
    to_implicit,
    verify_manifest,
    write_attribute_triples,
    write_records,
)
from .model import build_model
from .rng import Rng
from .table import Interactions
from .training import train


def _env_seed() -> int:
    """CKGR_SEED as an integer; 0, the default seed, when unset or empty."""
    raw = os.environ.get("CKGR_SEED")
    try:
        return int(raw) if raw else 0
    except ValueError:
        raise ConfigError(f"CKGR_SEED is not an integer: {raw!r}")


def _resolve_config(args, meta_config=None) -> RunConfig:
    """defaults <- CKGR_SEED <- checkpoint metadata <- config file <- --set <- data-path flags <- --seed."""
    overrides = list(args.set or [])
    for name in ("interactions", "user_attrs", "item_attrs", "manifest"):
        if getattr(args, name):
            overrides.append(f"{name}={getattr(args, name)}")
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    return load_config(args.config, overrides, {"seed": _env_seed(), **(meta_config or {})})


@dataclass
class World:
    """Parsed dataset, split, graphs, and index-space interaction pairs."""

    records: Interactions
    split: object
    bg: object
    kg_u: object
    kg_i: object
    align: object
    train_pairs: np.ndarray
    val_pairs: np.ndarray
    test_pairs: np.ndarray
    inputs: dict = field(default_factory=dict)


def _require_path(cfg: RunConfig, name: str) -> str:
    value = getattr(cfg, name)
    if not value:
        raise ConfigError(f"no {name} file given (set `{name}` in the config or pass --{name.replace('_', '-')})")
    return value


def _read_interactions(cfg: RunConfig, path, strict: bool = False):
    """Parse an interaction file, binarize, merge duplicate pairs and drop users below min_interactions."""
    parsed = parse_interactions(path, cfg.format, strict=strict)
    records = filter_min_interactions(merge_records(to_implicit(parsed.records, cfg.threshold)), cfg.min_interactions)
    return parsed, records


def _read_attributes(path, inputs: dict) -> list:
    """Attribute triples of `path` (none when unset); records its hash in `inputs`."""
    if not path:
        return []
    triples, issues = parse_attribute_triples(path)
    if issues:
        print(f"warning: {len(issues)} malformed attribute lines skipped in {path}", file=sys.stderr)
    inputs[path] = _sha256(path)
    return triples


def _build_world(cfg: RunConfig) -> World:
    path = _require_path(cfg, "interactions")
    parsed, records = _read_interactions(cfg, path)
    if parsed.issues:
        print(f"warning: {len(parsed.issues)} malformed interaction lines skipped", file=sys.stderr)

    inputs = {path: _sha256(path)}
    user_attrs = _read_attributes(cfg.user_attrs, inputs)
    item_attrs = _read_attributes(cfg.item_attrs, inputs)

    split = split_dataset(records, cfg.ratios, cfg.seed)
    # vocabularies span the full dataset so held-out entities keep their ids,
    # but only training interactions become graph edges
    bg = build_bipartite(split.train, order=cfg.id_order, vocab_records=records)
    if cfg.manifest:
        # records are merged already: one per (user, item) pair
        verify_manifest(cfg.manifest, bg.n_users, bg.n_items, len(records))
    kg_u, kg_i, align = build_graphs(bg, user_attrs, item_attrs)
    return World(
        records=records,
        split=split,
        bg=bg,
        kg_u=kg_u,
        kg_i=kg_i,
        align=align,
        train_pairs=pairs_of(split.train, bg),
        val_pairs=pairs_of(split.validation, bg),
        test_pairs=pairs_of(split.test, bg),
        inputs=inputs,
    )


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_run_manifest(out_dir, command: str, cfg: RunConfig, inputs: dict) -> None:
    payload = {"command": command, "config": cfg.to_dict(), "seed": cfg.seed, "inputs": inputs}
    with open(os.path.join(out_dir, "run_manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _fresh_model(world: World, cfg: RunConfig):
    return build_model(
        world.kg_u,
        world.kg_i,
        world.align,
        d=cfg.d,
        k=cfg.k,
        n_layers=cfg.layers,
        dims=cfg.dims,
        std=cfg.init_std,
        rng=Rng(cfg.seed, (11,)),
        shared_weights=cfg.shared_weights,
        slope=cfg.slope,
        printed_attention=cfg.printed_attention,
    )


def _train_once(world: World, cfg: RunConfig):
    model = _fresh_model(world, cfg)
    val_fn = None
    if len(world.val_pairs):
        val_fn = make_val_recall(world.train_pairs, world.val_pairs, cfg.top_k)
    return train(model, world.train_pairs, cfg, Rng(cfg.seed, (13,)), val_fn)


def _report(report: EvalReport, out_dir, csv_name: str, command: str, cfg: RunConfig, inputs: dict, notes=()) -> None:
    """Print the report's rows and then `notes`; with `out_dir`, write the CSV and run_manifest.json there."""
    for r in report.rows:
        print(f"{r.label}: precision@{r.k}={r.precision:.4f} recall@{r.k}={r.recall:.4f}")
    for line in notes:
        print(line)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        report.to_csv(os.path.join(out_dir, csv_name))
        _write_run_manifest(out_dir, command, cfg, inputs)
        print(f"report written to {os.path.join(out_dir, csv_name)}")


def _write_history(history, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("epoch,kg_u,kg_i,cf,reg,total,val_recall,wall_ms\n")
        for row in history:
            fh.write(
                f"{row['epoch']},{row['kg_u']!r},{row['kg_i']!r},{row['cf']!r},"
                f"{row['reg']!r},{row['total']!r},{row['val_recall']!r},{row['wall_ms']!r}\n"
            )


def cmd_synth(args) -> int:
    env_seed = _env_seed()  # checked even when --seed is given, as for every command
    cfg = SynthConfig(
        n_users=args.users,
        n_items=args.items,
        latent_dim=args.factors,
        interactions_per_user=args.per_user,
        attr_entities_per_factor=args.attrs_per_factor,
        noise=args.noise,
        seed=env_seed if args.seed is None else args.seed,
    )
    interactions, user_attrs, item_attrs, truth = synth_generate(cfg)
    os.makedirs(args.out, exist_ok=True)
    write_records(interactions, os.path.join(args.out, "interactions.tsv"))
    write_attribute_triples(user_attrs, os.path.join(args.out, "user_attrs.tsv"))
    write_attribute_triples(item_attrs, os.path.join(args.out, "item_attrs.tsv"))
    with open(os.path.join(args.out, "factors.tsv"), "w", encoding="utf-8", newline="\n") as fh:
        for u, f in enumerate(truth.user_factor.tolist()):
            fh.write(f"user\tu{u}\t{f}\n")
        for i, f in enumerate(truth.item_factor.tolist()):
            fh.write(f"item\ti{i}\t{f}\n")
    with open(os.path.join(args.out, "manifest.txt"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"users={cfg.n_users}\nitems={cfg.n_items}\ninteractions={len(interactions)}\n")
    print(f"wrote synthetic dataset ({cfg.n_users} users, {cfg.n_items} items, "
          f"{len(interactions)} interactions) to {args.out}")
    return 0


def cmd_ingest(args) -> int:
    cfg = _resolve_config(args)
    parsed, records = _read_interactions(cfg, _require_path(cfg, "interactions"), strict=args.strict)
    bg = build_bipartite(records, order=cfg.id_order)
    if cfg.manifest:
        verify_manifest(cfg.manifest, bg.n_users, bg.n_items, bg.n_edges)
        print(f"manifest {cfg.manifest}: counts match")
    for issue in parsed.issues:
        print(f"line {issue.line}: {issue.message}", file=sys.stderr)
    print(f"rows={len(parsed.records)} malformed={len(parsed.issues)} "
          f"records={len(records)} users={bg.n_users} items={bg.n_items} edges={bg.n_edges}")
    if args.out:
        write_records(records, args.out, cfg.format)
        print(f"normalized records written to {args.out}")
    return 0


def cmd_build_graph(args) -> int:
    cfg = _resolve_config(args)
    world = _build_world(cfg)
    for tag, kg in (("user-side", world.kg_u), ("item-side", world.kg_i)):
        s = kg.stats
        print(
            f"{tag}: entities={kg.entity_count} relations={kg.relation_count} "
            f"triples={kg.n_triples} (interaction={s.interaction_triples}, "
            f"attribute={s.attribute_triples}, duplicates_dropped={s.duplicate_attributes}) "
            f"digest={kg.digest()[:16]}"
        )
    return 0


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    out_dir = args.out or cfg.out
    if not out_dir:
        raise ConfigError("no output directory given (pass --out)")
    world = _build_world(cfg)
    result = _train_once(world, cfg)
    os.makedirs(out_dir, exist_ok=True)
    ckpt.save(
        result.model,
        os.path.join(out_dir, "checkpoint.ckgr"),
        {"config": cfg.to_dict(), "seed": cfg.seed, "epoch": result.best_epoch},
    )
    _write_history(result.history, os.path.join(out_dir, "history.csv"))
    _write_run_manifest(out_dir, "train", cfg, world.inputs)
    last = result.history[-1] if result.history else {"total": float("nan")}
    print(
        f"trained {len(result.history)} epochs (best epoch {result.best_epoch}, "
        f"val recall@{cfg.top_k} {result.best_recall:.4f}); final total loss {last['total']:.4f}"
    )
    print(f"checkpoint and history written to {out_dir}")
    return 0


def _load_checkpoint_world(args):
    """Rebuild graphs per the checkpoint's own config (overridable), then bind."""
    loaded = ckpt.load(args.checkpoint)
    cfg = _resolve_config(args, loaded[-1].get("config"))
    world = _build_world(cfg)
    model, _ = ckpt.attach(args.checkpoint, world.kg_u, world.kg_i, world.align, loaded)
    return cfg, world, model


def cmd_evaluate(args) -> int:
    cfg, world, model = _load_checkpoint_world(args)
    k = cfg.top_k if args.k is None else args.k
    train_truth = truth_by_user(world.train_pairs)
    test_truth = truth_by_user(world.test_pairs)
    n_users, n_items = world.align.n_users, world.align.n_items
    report = EvalReport()
    for label, scores_of in (
        ("model", lambda: model_scores(model)),
        ("popularity", lambda: popularity_scores(world.train_pairs, n_users, n_items)),
        ("random", lambda: random_scores(cfg.seed, n_users, n_items)),
    ):
        started = time.perf_counter()
        p, r = rank_and_score(scores_of(), train_truth, test_truth, k)
        report.add(label, k, p, r, cfg.seed, (time.perf_counter() - started) * 1e3)
    _report(report, args.out, "eval.csv", "evaluate", cfg, world.inputs)
    return 0


def cmd_recommend(args) -> int:
    cfg, world, model = _load_checkpoint_world(args)
    k = cfg.top_k if args.k is None else args.k
    if args.user not in world.bg.user_vocab:
        raise ConfigError(f"unknown user id {args.user!r}")
    u = world.bg.user_vocab.id_of(args.user)
    scores = model_scores(model)[u]
    exclude = world.train_pairs[world.train_pairs[:, 0] == u, 1]
    top = topk_from_scores(scores, k, exclude)
    for rank, item in enumerate(top.tolist(), start=1):
        print(f"{rank}\t{world.bg.item_vocab.token(item)}\t{float(scores[item])!r}")
    return 0


def cmd_sweep_layers(args) -> int:
    try:
        l_values = [int(x) for x in args.l_values.split(",")] if args.l_values else [1, 2, 3, 4]
    except ValueError:
        raise ConfigError(f"--l-values must be a comma-separated integer list, got {args.l_values!r}")
    cfg = _resolve_config(args)
    # every depth is checked before the first one trains
    depth_cfgs = [replace(cfg, layers=n).validate() for n in l_values]
    world = _build_world(cfg)
    report = EvalReport()
    for depth_cfg in depth_cfgs:
        started = time.perf_counter()
        model = _train_once(world, depth_cfg).model
        row = evaluate_model(model, world.train_pairs, world.test_pairs, cfg.top_k, cfg.seed)
        wall_ms = (time.perf_counter() - started) * 1e3
        report.add(f"L={depth_cfg.layers}", cfg.top_k, row.precision, row.recall, cfg.seed, wall_ms)
    best = max(report.rows, key=lambda r: r.recall)
    notes = [f"best depth by recall: {best.label} (data-dependent, reported not asserted)"]
    _report(report, args.out, "sweep.csv", "sweep-layers", cfg, world.inputs, notes)
    return 0


def _add_config_flags(p) -> None:
    p.add_argument("--config", help="key = value configuration file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override one configuration key")
    p.add_argument("--seed", type=int, help="random seed (overrides config; CKGR_SEED is the fallback)")


def _add_data_flags(p) -> None:
    p.add_argument("--interactions", help="interaction file (user, item, value[, timestamp])")
    p.add_argument("--user-attrs", dest="user_attrs", help="user attribute triples (TSV)")
    p.add_argument("--item-attrs", dest="item_attrs", help="item attribute triples (TSV)")
    p.add_argument("--manifest", help="expected-count manifest to verify against")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ckgrec",
        description="Dual collaborative knowledge-graph recommender",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a seeded synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--users", type=int, default=300)
    p.add_argument("--items", type=int, default=200)
    p.add_argument("--factors", type=int, default=8)
    p.add_argument("--per-user", dest="per_user", type=int, default=20)
    p.add_argument("--attrs-per-factor", dest="attrs_per_factor", type=int, default=3)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("ingest", help="parse, binarize, and summarize interactions")
    _add_config_flags(p)
    _add_data_flags(p)
    p.add_argument("--strict", action="store_true", help="fail on the first malformed line")
    p.add_argument("--out", help="write normalized records here")
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("build-graph", help="build both collaborative graphs and print stats")
    _add_config_flags(p)
    _add_data_flags(p)
    p.set_defaults(fn=cmd_build_graph)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    _add_config_flags(p)
    _add_data_flags(p)
    p.add_argument("--out", help="output directory")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint against baselines")
    _add_config_flags(p)
    _add_data_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--k", type=int, help="ranking cutoff (default: config top_k)")
    p.add_argument("--out", help="directory for eval.csv")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("recommend", help="print top-K items for one user")
    _add_config_flags(p)
    _add_data_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--user", required=True)
    p.add_argument("--k", type=int)
    p.set_defaults(fn=cmd_recommend)

    p = sub.add_parser("sweep-layers", help="train and evaluate at several depths")
    _add_config_flags(p)
    _add_data_flags(p)
    p.add_argument("--l-values", dest="l_values", help="comma list of depths (default 1,2,3,4)")
    p.add_argument("--out", help="directory for sweep.csv")
    p.set_defaults(fn=cmd_sweep_layers)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, FormatError, UnresolvedEntityError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (FileNotFoundError, IsADirectoryError, PermissionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except CkgrecError as err:
        print(f"fault: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # unexpected runtime fault
        print(f"fault: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
