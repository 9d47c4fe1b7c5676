"""Command-line entry point.

Subcommands cover the whole pipeline: `synth` writes a seeded synthetic
dataset, `ingest` parses and counts interaction files, `build-graph`
reports the two collaborative graphs, `train` fits and checkpoints a
model, `evaluate` scores it against popularity/random baselines,
`recommend` prints a ranked list for one user, and `sweep-layers` runs
the depth study.

Each command resolves one `RunConfig` through `config.load_config`, and
that object goes unchanged to graph building, the model and `train`.
Later sources win: defaults, `CKGR_SEED`, the checkpoint's own config
(`evaluate`, `recommend`), `--config`, `--set`, the data-path flags,
`--seed` and `--k` (`top_k`).  A set, non-empty `CKGR_SEED` that is not an integer >= 0
is an error for every command, even when another source supplies the seed.

`evaluate` and `recommend` serve from the checkpoint or exit 1.  They
rank the final user and item matrices and the training items it stores
and build no graph.  Before any input file is opened,
`checkpoint.check_keys` requires the resolved config to give every
`WORLD_KEYS` key its stored value; `checkpoint.attach` then requires
every input file to have its stored sha256, wherever it lives now.
Scores come in aligned blocks of `RANK_BLOCK` users
(`evaluate.score_block`): `recommend` computes only the block that holds
its user, whose row is then the evaluated row bit for bit, and
`evaluate` ranks every block.  `recommend` parses no data, so attach
hashes every input file; `evaluate` re-derives only the split, for its
test pairs, and passes attach the digests of the files it parsed.  A
checkpoint of an older format exits 1 and must be trained again.

Exit codes: 0 success, 1 for validation problems (bad config, malformed
or missing inputs, a file where a directory belongs, mismatched or
malformed checkpoints), 2 for runtime faults.  `synth` writes
`manifest.txt` last and `train` its checkpoint, each after removing an
earlier run's outputs, so a failed run never leaves a mix of two runs.
A run that diverges exits 2 after writing its last finite state to
`checkpoint.last_good.ckgr` and its finished epochs to `history.csv`.
Every training/evaluation run writes a `run_manifest.json` with the
resolved config, `--k` included as `top_k`, the seed, and the sha256 of
each input file by config key, enough to reproduce the run bit for bit
single-threaded.  Each parser reads its file once and takes the digest
from the bytes it parsed, so no command opens an input file twice.
Every file the program writes replaces its target crash-safely
(`ingest.open_replacing`).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from . import checkpoint as ckpt
from .config import RunConfig, load_config
from .errors import CkgrecError, ConfigError, FormatError, TrainingDiverged, UnresolvedEntityError
from .evaluate import (
    RANK_BLOCK,
    EvalReport,
    make_val_recall,
    model_scores,
    pairs_of,
    popularity_scores,
    random_scores,
    rank_and_score,
    score_block,
    score_matrix,
    split_dataset,
    topk_from_scores,
    truth_by_user,
    vocab_pairs,
)
from .graph import Vocab, build_bipartite, build_graphs
from .ingest import (
    INPUT_FILES,
    SynthConfig,
    filter_min_interactions,
    merge_records,
    open_replacing,
    parse_attribute_triples,
    parse_interactions,
    record_counts,
    synth_generate,
    to_implicit,
    verify_manifest,
    write_attribute_triples,
    write_records,
)
from .model import build_model
from .rng import Rng
from .training import train

NO_TEST_USERS = "no user has a test interaction"  # why every metric of a run is nan


def _env_seed() -> int:
    """CKGR_SEED as an integer >= 0; 0, the default seed, when unset or empty."""
    raw = os.environ.get("CKGR_SEED")
    try:
        seed = int(raw) if raw else 0
    except ValueError:
        raise ConfigError(f"CKGR_SEED is not an integer: {raw!r}")
    if seed < 0:
        raise ConfigError(f"CKGR_SEED must be >= 0, got {seed}")
    return seed


def _resolve_config(args, meta_config=None) -> RunConfig:
    """defaults <- CKGR_SEED <- checkpoint metadata <- config file <- --set <- data-path flags <- --seed and --k."""
    overrides = list(args.set or [])
    for name in INPUT_FILES:
        if getattr(args, name):
            overrides.append(f"{name}={getattr(args, name)}")
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    if getattr(args, "k", None) is not None:  # only evaluate and recommend take --k
        overrides.append(f"top_k={args.k}")
    return load_config(args.config, overrides, {"seed": _env_seed(), **(meta_config or {})})


@dataclass
class World:
    """The graphs, the index-space interaction pairs, and the sha256 of each input file parsed, by config key."""

    bg: object
    kg_u: object
    kg_i: object
    align: object
    train_pairs: np.ndarray
    val_pairs: np.ndarray
    test_pairs: np.ndarray
    inputs: dict


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


def _filtered_out(tokens: list, codes: np.ndarray) -> set:
    """The tokens of a parsed interaction file that none of the kept records' `codes` names."""
    named = np.zeros(len(tokens), dtype=bool)
    named[codes] = True
    return {token for token, kept in zip(tokens, named.tolist()) if not kept}


def _read_attributes(cfg: RunConfig, name: str, inputs: dict, filtered: set) -> list:
    """Attribute triples of the file `cfg` names under `name` (none when unset); its sha256 goes into `inputs`.

    A triple whose head is in `filtered`, an entity of the interaction
    file that the threshold or `min_interactions` removed, is skipped
    with a warning; a head the interaction file never names is left for
    the graph build to reject.
    """
    path = getattr(cfg, name)
    if not path:
        return []
    triples, issues, inputs[name] = parse_attribute_triples(path)
    if issues:
        print(f"warning: {len(issues)} malformed attribute lines skipped in {path}", file=sys.stderr)
    kept = [triple for triple in triples if triple[0] not in filtered]
    if len(kept) < len(triples):
        print(f"warning: {len(triples) - len(kept)} attribute lines about filtered-out entities skipped in {path}",
              file=sys.stderr)
    return kept


def _read_split(cfg: RunConfig):
    """Parse, binarize, merge and filter the interactions `cfg` names, then split them: (records, split, inputs).

    Warns on malformed interaction lines and checks the counts against
    the manifest `cfg` names; `inputs` holds the sha256 of the bytes
    each of the two files was parsed from.  A world with no record left
    is an error.  `_build_world` and `evaluate` both get their split here.
    """
    path = _require_path(cfg, "interactions")
    parsed, records = _read_interactions(cfg, path)
    if parsed.issues:
        print(f"warning: {len(parsed.issues)} malformed interaction lines skipped in {path}", file=sys.stderr)
    if not len(records):
        raise ConfigError(f"no interaction of {path} is left at threshold={cfg.threshold} and "
                          f"min_interactions={cfg.min_interactions}")
    inputs = {"interactions": parsed.digest}
    if cfg.manifest:
        inputs["manifest"] = verify_manifest(cfg.manifest, record_counts(records))
    return records, split_dataset(records, cfg.ratios, cfg.seed), inputs


def _build_world(cfg: RunConfig) -> World:
    records, split, inputs = _read_split(cfg)
    user_attrs = _read_attributes(cfg, "user_attrs", inputs, _filtered_out(records.user_tokens, records.user))
    item_attrs = _read_attributes(cfg, "item_attrs", inputs, _filtered_out(records.item_tokens, records.item))
    # vocabularies span the full dataset so held-out entities keep their ids,
    # but only training interactions become graph edges
    bg = build_bipartite(split.train, order=cfg.id_order, vocab_records=records)
    kg_u, kg_i, align = build_graphs(bg, user_attrs, item_attrs)
    return World(
        bg=bg,
        kg_u=kg_u,
        kg_i=kg_i,
        align=align,
        train_pairs=pairs_of(split.train, bg),
        val_pairs=pairs_of(split.validation, bg),
        test_pairs=pairs_of(split.test, bg),
        inputs=inputs,
    )


def _write_run_manifest(out_dir, command: str, cfg: RunConfig, inputs: dict) -> None:
    payload = {"command": command, "config": cfg.to_dict(), "seed": cfg.seed, "inputs": inputs}
    with open_replacing(os.path.join(out_dir, "run_manifest.json"), "w", encoding="utf-8") as fh:
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
    # an earlier run's files go first and the manifest comes last, so a failed run leaves no mix of two runs
    for stale in ("interactions.tsv", "user_attrs.tsv", "item_attrs.tsv", "factors.tsv", "manifest.txt"):
        with contextlib.suppress(FileNotFoundError):
            os.unlink(os.path.join(args.out, stale))
    write_records(interactions, os.path.join(args.out, "interactions.tsv"))
    write_attribute_triples(user_attrs, os.path.join(args.out, "user_attrs.tsv"))
    write_attribute_triples(item_attrs, os.path.join(args.out, "item_attrs.tsv"))
    with open_replacing(os.path.join(args.out, "factors.tsv"), "w", encoding="utf-8", newline="\n") as fh:
        for u, f in enumerate(truth.user_factor.tolist()):
            fh.write(f"user\tu{u}\t{f}\n")
        for i, f in enumerate(truth.item_factor.tolist()):
            fh.write(f"item\ti{i}\t{f}\n")
    counts = record_counts(interactions)
    with open_replacing(os.path.join(args.out, "manifest.txt"), "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{key}={n}\n" for key, n in counts.items())
    print(f"wrote synthetic dataset ({counts['users']} users, {counts['items']} items, "
          f"{counts['interactions']} interactions) to {args.out}")
    return 0


def cmd_ingest(args) -> int:
    cfg = _resolve_config(args)
    parsed, records = _read_interactions(cfg, _require_path(cfg, "interactions"), strict=args.strict)
    counts = record_counts(records)
    if cfg.manifest:
        verify_manifest(cfg.manifest, counts)
        print(f"manifest {cfg.manifest}: counts match")
    for issue in parsed.issues:
        print(f"line {issue.line}: {issue.message}", file=sys.stderr)
    print(f"rows={len(parsed.records)} malformed={len(parsed.issues)} records={len(records)} "
          f"users={counts['users']} items={counts['items']} edges={counts['interactions']}")
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


def _write_train_outputs(world: World, cfg: RunConfig, out_dir, name: str, model, epoch: int, history) -> str:
    """Write a train run's history.csv, run_manifest.json and then its checkpoint `name` into out_dir.

    An earlier run's checkpoints are removed first and the checkpoint is
    written last, so a checkpoint in out_dir always belongs to the run
    its history.csv and run_manifest.json describe.  Returns the
    checkpoint's path.
    """
    os.makedirs(out_dir, exist_ok=True)
    for stale in ("checkpoint.ckgr", "checkpoint.last_good.ckgr"):
        with contextlib.suppress(FileNotFoundError):
            os.unlink(os.path.join(out_dir, stale))
    with open_replacing(os.path.join(out_dir, "history.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("epoch,kg_u,kg_i,cf,reg,total,val_recall,wall_ms\n")
        for row in history:
            fh.write(
                f"{row['epoch']},{row['kg_u']!r},{row['kg_i']!r},{row['cf']!r},"
                f"{row['reg']!r},{row['total']!r},{row['val_recall']!r},{row['wall_ms']!r}\n"
            )
    _write_run_manifest(out_dir, "train", cfg, world.inputs)
    saved = os.path.join(out_dir, name)
    ckpt.save(model, saved, {"config": cfg.to_dict(), "seed": cfg.seed, "epoch": epoch, "input_digests": world.inputs})
    return saved


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    out_dir = args.out or cfg.out
    if not out_dir:
        raise ConfigError("no output directory given (pass --out)")
    world = _build_world(cfg)
    if not len(world.val_pairs):
        print("warning: validation recall is nan: no user has a validation interaction, so no early stopping", file=sys.stderr)
    try:
        result = _train_once(world, cfg)
    except TrainingDiverged as err:
        # the last finite state and the finished epochs, never as `checkpoint.ckgr`
        model = _fresh_model(world, cfg)
        model.set_params(err.last_good_state)
        epoch = len(err.history) - 1
        saved = _write_train_outputs(world, cfg, out_dir, "checkpoint.last_good.ckgr", model, epoch, err.history)
        history = os.path.join(out_dir, "history.csv")
        print(f"last good state written to {saved}, finished epochs to {history}", file=sys.stderr)
        raise
    _write_train_outputs(world, cfg, out_dir, "checkpoint.ckgr", result.model, result.best_epoch, result.history)
    last = result.history[-1] if result.history else {"total": float("nan")}
    print(
        f"trained {len(result.history)} epochs (best epoch {result.best_epoch}, "
        f"val recall@{cfg.top_k} {result.best_recall:.4f}); final total loss {last['total']:.4f}"
    )
    print(f"checkpoint and history written to {out_dir}")
    return 0


def _load_checkpoint(args) -> tuple[ckpt.Loaded, RunConfig]:
    """Read the checkpoint, resolve the config over its own (`_resolve_config`) and check the world keys."""
    loaded = ckpt.load(args.checkpoint)
    cfg = _resolve_config(args, loaded.meta.get("config"))
    ckpt.check_keys(args.checkpoint, loaded.meta, cfg.to_dict())
    return loaded, cfg


def cmd_evaluate(args) -> int:
    loaded, cfg = _load_checkpoint(args)
    _, split, inputs = _read_split(cfg)
    serving, meta = ckpt.attach(args.checkpoint, loaded=loaded, config=cfg.to_dict(), inputs=inputs)
    train_pairs = serving.train_pairs()
    test_pairs = vocab_pairs(split.test, Vocab(serving.user_tokens), Vocab(serving.item_tokens))
    train_truth = truth_by_user(train_pairs)
    test_truth = truth_by_user(test_pairs)
    if not test_truth:
        print(f"warning: every metric is nan: {NO_TEST_USERS}", file=sys.stderr)
    n_users, n_items = len(serving.users), len(serving.items)
    report = EvalReport()
    for label, scores_of in (
        ("model", lambda: score_matrix(serving.users, serving.items)),  # model_scores of the trained model
        ("popularity", lambda: popularity_scores(train_pairs, n_users, n_items)),
        ("random", lambda: random_scores(cfg.seed, n_users, n_items)),
    ):
        started = time.perf_counter()
        p, r = rank_and_score(scores_of(), train_truth, test_truth, cfg.top_k)
        report.add(label, cfg.top_k, p, r, cfg.seed, (time.perf_counter() - started) * 1e3)
    _report(report, args.out, "eval.csv", "evaluate", cfg, meta["input_digests"])
    return 0


def cmd_recommend(args) -> int:
    loaded, cfg = _load_checkpoint(args)
    serving = ckpt.attach(args.checkpoint, loaded=loaded, config=cfg.to_dict())[0]
    if args.user not in serving.user_tokens:
        raise ConfigError(f"unknown user id {args.user!r}")
    u = serving.user_tokens.index(args.user)
    # only the aligned block that holds u: its row u - at is row u of evaluate.model_scores, bit for bit
    at = u - u % RANK_BLOCK
    scores = score_block(serving.users, serving.items, at)[u - at]
    top = topk_from_scores(scores, cfg.top_k, serving.train_items[serving.train_ptr[u]: serving.train_ptr[u + 1]])
    for rank, item in enumerate(top.tolist(), start=1):
        print(f"{rank}\t{serving.item_tokens[item]}\t{float(scores[item])!r}")
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
    train_truth, test_truth = truth_by_user(world.train_pairs), truth_by_user(world.test_pairs)
    report = EvalReport()
    for depth_cfg in depth_cfgs:
        started = time.perf_counter()
        model = _train_once(world, depth_cfg).model
        p, r = rank_and_score(model_scores(model), train_truth, test_truth, cfg.top_k)
        report.add(f"L={depth_cfg.layers}", cfg.top_k, p, r, cfg.seed, (time.perf_counter() - started) * 1e3)
    best = max((r for r in report.rows if np.isfinite(r.recall)), key=lambda r: r.recall, default=None)
    notes = [f"best depth by recall: {best.label} (data-dependent, reported not asserted)" if best
             else f"no depth could be scored: {NO_TEST_USERS}"]
    _report(report, args.out, "sweep.csv", "sweep-layers", cfg, world.inputs, notes)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ckgrec",
        description="Dual collaborative knowledge-graph recommender",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the config and data-path flags of every command but synth
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value configuration file")
    common.add_argument("--set", action="append", metavar="KEY=VALUE", help="override one configuration key")
    common.add_argument("--seed", type=int, help="random seed (overrides config; CKGR_SEED is the fallback)")
    common.add_argument("--interactions", help="interaction file (user, item, value[, timestamp])")
    common.add_argument("--user-attrs", dest="user_attrs", help="user attribute triples (TSV)")
    common.add_argument("--item-attrs", dest="item_attrs", help="item attribute triples (TSV)")
    common.add_argument("--manifest", help="expected-count manifest to verify against")

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

    p = sub.add_parser("ingest", help="parse, binarize, and summarize interactions", parents=[common])
    p.add_argument("--strict", action="store_true", help="fail on the first malformed line")
    p.add_argument("--out", help="write normalized records here")
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("build-graph", help="build both collaborative graphs and print stats", parents=[common])
    p.set_defaults(fn=cmd_build_graph)

    p = sub.add_parser("train", help="train a model and write a checkpoint", parents=[common])
    p.add_argument("--out", help="output directory")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint against baselines", parents=[common])
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--k", type=int, help="ranking cutoff: sets top_k")
    p.add_argument("--out", help="directory for eval.csv")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("recommend", help="print top-K items for one user", parents=[common])
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--user", required=True)
    p.add_argument("--k", type=int, help="list length: sets top_k")
    p.set_defaults(fn=cmd_recommend)

    p = sub.add_parser("sweep-layers", help="train and evaluate at several depths", parents=[common])
    p.add_argument("--l-values", dest="l_values", help="comma list of depths (default 1,2,3,4)")
    p.add_argument("--out", help="directory for sweep.csv")
    p.set_defaults(fn=cmd_sweep_layers)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, FormatError, UnresolvedEntityError, FileNotFoundError, FileExistsError,
            IsADirectoryError, NotADirectoryError, PermissionError) as err:
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
