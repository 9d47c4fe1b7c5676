"""The benchmark's workloads, the checks on their outputs, and their metrics.

Every workload runs one pipeline on a synthetic dataset made from the
workload seed: set up (parse, split, both graphs, model init), train,
save a checkpoint, then `ckgrec evaluate` and `ckgrec recommend --k 10`
calls through `ckgrec.cli.main`, one after another (a closed loop with
one client).  After the first set-up and train call, the remaining
operations are spread evenly over the run, so every metric samples the
whole run rather than one stretch of it; the host's speed drifts over
tens of seconds.  When the planned operations take less than the
measuring time, the workload's repeated operation fills the rest.

* train_small - 300x200 acceptance set; repeats the 4-epoch train call.
* train_large - 3000x2000 set; one epoch on a seeded sample of
  `cf_batches` ranking batches of the training pairs (negatives are then
  screened against the sampled positives only), validation over the
  full validation split.
* serve_small - 300x200 set; one 2-epoch train call makes the checkpoint, and
  `recommend` is repeated.

The model uses the acceptance configuration (the RunConfig defaults:
d=k=64, dims 64,32,16, 2 layers, batch 1024, lr 1e-3, reg 1e-5, top-K
10).  Each operation counts as attempted; it counts as failed when it
raises or when a check on its output fails.
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from ckgrec import checkpoint, cli, evaluate, graph, ingest, model, training
from ckgrec.config import RunConfig
from ckgrec.rng import Rng

K = 10


@dataclass(frozen=True)
class Plan:
    users: int
    items: int
    setups: int            # world builds timed for setup_s
    epochs: int            # epochs per train call
    cf_batches: int | None  # train on a sample this many ranking batches long; None: every pair
    trains: int            # train calls at least
    evaluates: int         # evaluate calls
    recommends: int        # recommend calls at least
    repeat: str            # operation repeated until the measuring time is used: "train" or "recommend"


PLANS = {
    "train_small": Plan(300, 200, setups=9, epochs=4, cf_batches=None, trains=2, evaluates=7, recommends=40, repeat="train"),
    "train_large": Plan(3000, 2000, setups=3, epochs=1, cf_batches=2, trains=1, evaluates=1, recommends=3, repeat="train"),
    "serve_small": Plan(300, 200, setups=5, epochs=2, cf_batches=None, trains=1, evaluates=5, recommends=100, repeat="recommend"),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_examples_per_s": "1/s",
    "evaluate_s": "s",
    "recommend_p50_ms": "ms",
    "recommend_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class World:
    cfg: RunConfig
    bg: object
    kg_u: object
    kg_i: object
    align: object
    train_pairs: np.ndarray
    val_pairs: np.ndarray
    test_pairs: np.ndarray


@dataclass
class Outcome:
    """Counts, timings and the outputs a traced pass must reproduce."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    train_rates: list = field(default_factory=list)
    evaluate_s: list = field(default_factory=list)
    recommend_ms: list = field(default_factory=list)
    probe_s: list = field(default_factory=list)
    recall: float = float("nan")
    outputs: list = field(default_factory=list)  # losses, recall and recommend lists, in call order
    counts: dict = field(default_factory=dict)   # operations done, so a second pass repeats them
    wall_s: float = 0.0

    def check(self, what: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {'; '.join(problems)}")


def write_inputs(plan: Plan, seed: int, workdir: str) -> RunConfig:
    """Synthesize the dataset for this seed and write it as TSV files."""
    synth = ingest.SynthConfig(plan.users, plan.items, latent_dim=8, interactions_per_user=20, noise=0.1, seed=seed)
    interactions, user_attrs, item_attrs, _ = ingest.synth_generate(synth)
    paths = {name: os.path.join(workdir, f"{name}.tsv") for name in ("interactions", "user_attrs", "item_attrs")}
    ingest.write_records(interactions, paths["interactions"])
    ingest.write_attribute_triples(user_attrs, paths["user_attrs"])
    ingest.write_attribute_triples(item_attrs, paths["item_attrs"])
    return RunConfig(seed=seed, epochs=plan.epochs, top_k=K, **paths).validate()


def build_world(cfg: RunConfig) -> World:
    """Parse, split and build both graphs, as `ckgrec train` does."""
    parsed = ingest.parse_interactions(cfg.interactions, cfg.format)
    records = ingest.filter_min_interactions(
        ingest.merge_records(ingest.to_implicit(parsed.records, cfg.threshold)), cfg.min_interactions
    )
    user_attrs = ingest.parse_attribute_triples(cfg.user_attrs)[0]
    item_attrs = ingest.parse_attribute_triples(cfg.item_attrs)[0]
    split = evaluate.split_dataset(records, cfg.ratios, cfg.seed)
    bg = graph.build_bipartite(split.train, order=cfg.id_order, vocab_records=records)
    kg_u, kg_i, align = graph.build_graphs(bg, user_attrs, item_attrs)
    return World(
        cfg, bg, kg_u, kg_i, align,
        train_pairs=evaluate.pairs_of(split.train, bg),
        val_pairs=evaluate.pairs_of(split.validation, bg),
        test_pairs=evaluate.pairs_of(split.test, bg),
    )


def fresh_model(world: World):
    cfg = world.cfg
    return model.build_model(
        world.kg_u, world.kg_i, world.align,
        d=cfg.d, k=cfg.k, n_layers=cfg.layers, dims=cfg.dims, std=cfg.init_std, rng=Rng(cfg.seed, (11,)),
        shared_weights=cfg.shared_weights, slope=cfg.slope, printed_attention=cfg.printed_attention,
    )


def train_pairs_for(plan: Plan, world: World, seed: int) -> np.ndarray:
    pairs = world.train_pairs
    if plan.cf_batches is None:
        return pairs
    size = min(len(pairs), plan.cf_batches * world.cfg.cf_batch)
    chosen = np.random.default_rng([seed, 1]).choice(len(pairs), size=size, replace=False)
    return pairs[np.sort(chosen)]


def settings_of(cfg: RunConfig) -> training.TrainSettings:
    return training.TrainSettings(
        lr=cfg.lr, reg=cfg.reg, kg_batch=cfg.kg_batch, cf_batch=cfg.cf_batch, epochs=cfg.epochs,
        patience=cfg.patience, top_k=cfg.top_k, eval_every=cfg.eval_every, corrupt_heads=cfg.corrupt_heads,
    )


def loss_problems(history) -> list:
    return [
        f"epoch {row['epoch']}: non-finite {part} loss {row[part]!r}"
        for row in history
        for part in ("kg_u", "kg_i", "cf", "reg", "total")
        if not np.isfinite(row[part])
    ]


def parse_recommend(text: str) -> list[tuple[int, str, float]]:
    rows = []
    for line in text.splitlines():
        rank, item, score = line.split("\t")
        rows.append((int(rank), item, float(score)))
    return rows


def recommend_problems(rows, world: World, u: int, scores: np.ndarray, exclude: set) -> list:
    """Checks one `recommend` output against the attached model's scores."""
    vocab = world.bg.item_vocab
    problems = []
    if [r[0] for r in rows] != list(range(1, K + 1)):
        problems.append(f"ranks {[r[0] for r in rows]} are not 1..{K}")
    tokens = [r[1] for r in rows]
    if len(set(tokens)) != len(tokens):
        problems.append("repeated items")
    unknown = [t for t in tokens if t not in vocab]
    if unknown:
        return problems + [f"unknown items {unknown}"]
    items = [vocab.id_of(t) for t in tokens]
    if exclude.intersection(items):
        problems.append(f"training items {sorted(exclude.intersection(items))} recommended")
    listed = [r[2] for r in rows]
    if any(b > a for a, b in zip(listed, listed[1:])):
        problems.append("scores increase down the list")
    expected = evaluate.topk_from_scores(scores[u], K, exclude).tolist()
    if items != expected:
        problems.append(f"items {items} differ from the in-process top-{K} {expected}")
    elif listed != scores[u, items].tolist():
        problems.append("scores differ from the in-process scores")
    return problems


def parse_evaluate(text: str) -> dict[str, tuple[str, str]]:
    """{label: (precision, recall)} as printed, e.g. `model: precision@10=0.0250 recall@10=0.1250`."""
    out = {}
    for line in text.splitlines():
        label, rest = line.split(": ", 1)
        precision, recall = (part.split("=", 1)[1] for part in rest.split())
        out[label] = (precision, recall)
    return out


def expected_evaluate(world: World, attached, seed: int) -> dict[str, tuple[float, float]]:
    """Precision and recall of the model and both baselines, recomputed in-process."""
    train_truth = evaluate.truth_by_user(world.train_pairs)
    test_truth = evaluate.truth_by_user(world.test_pairs)
    n_users, n_items = world.align.n_users, world.align.n_items
    row = evaluate.evaluate_model(attached, world.train_pairs, world.test_pairs, K, seed)
    out = {"model": (row.precision, row.recall)}
    for label, scores in (
        ("popularity", evaluate.popularity_scores(world.train_pairs, n_users, n_items)),
        ("random", evaluate.random_scores(seed, n_users, n_items)),
    ):
        out[label] = evaluate.rank_and_score(scores, train_truth, test_truth, K)
    return out


def evaluate_problems(printed: dict, expected: dict) -> list:
    problems = []
    if set(printed) != set(expected):
        return [f"rows {sorted(printed)} != {sorted(expected)}"]
    for label, values in expected.items():
        for text, value in zip(printed[label], values):
            if not 0.0 <= float(text) <= 1.0:
                problems.append(f"{label} value {text} outside [0, 1]")
            if text != f"{value:.4f}":
                problems.append(f"{label} printed {text}, recomputed {value:.4f}")
    return problems


def run_cli(argv: list[str], tracer, span: str) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), tracer.span(span) if tracer else contextlib.nullcontext():
        code = cli.main(argv)
    return code, buffer.getvalue()


# The probe is fixed reference work that does not touch ckgrec, of the
# kinds ckgrec spends its time on: tuple and string churn in dicts, small
# BLAS products with a ufunc, a scatter-add.  On a shared VM the speed drifts by
# up to a third over minutes; the probe's median over a run measures that
# drift, and end-to-end timings are divided by it.
_PROBE_X = np.random.default_rng(0).random((400, 64))
_PROBE_W = np.random.default_rng(1).random((64, 64)) / 8
_PROBE_IDX = np.arange(30000) % 400
PROBE_NOMINAL_S = 0.034  # the probe's median on a quiet 2-core Xeon VM, numpy 2.4 with one OpenBLAS thread
MIN_PROBES = 30  # one probe varies by a factor of three; a run takes the median of at least this many


def probe() -> float:
    t0 = time.perf_counter()
    table = {}
    for i in range(30000):
        table[(i, i % 7)] = str(i)
    x = _PROBE_X
    for _ in range(100):
        x = np.tanh(x @ _PROBE_W)
    np.add.at(np.zeros(400), _PROBE_IDX, 1.0)
    return time.perf_counter() - t0


def settle() -> None:
    """Start a timed operation from the same collector state every time.

    Everything alive so far (the benchmark's own world, earlier results)
    is moved out of the cyclic collector's reach, so a timed call pays
    only for collecting its own objects, as it would in a fresh process.
    """
    gc.unfreeze()
    gc.collect()
    gc.freeze()


def _checked(tracer):
    """Checks run untraced: their time belongs to the benchmark, not to a layer."""
    return tracer.pause() if tracer else contextlib.nullcontext()


def schedule(counts: dict[str, int]) -> list[str]:
    """Operations spread evenly over the run, so each metric samples all of it."""
    slots = [((i + 0.5) / n, op) for op, n in counts.items() for i in range(n)]
    return [op for _, op in sorted(slots)]


class Pass:
    """One pass of a workload: its world, its checkpoint and what it measured."""

    def __init__(self, plan: Plan, seed: int, workdir: str, tracer=None):
        self.plan, self.seed, self.workdir, self.tracer = plan, seed, workdir, tracer
        self.out = Outcome()
        self.cfg = write_inputs(plan, seed, workdir)
        self.pick = np.random.default_rng([seed, 2])
        self.trained = None
        planned = plan.setups + plan.trains + plan.evaluates + plan.recommends
        self.probes_per_op = -(-MIN_PROBES // planned)

    def run(self, seconds: float, repeat_counts=None) -> Outcome:
        """Every planned operation, then more of the repeated one until `seconds` have passed.

        With `repeat_counts` the pass redoes exactly the operations another
        pass did, and repeats nothing on its own.
        """
        started = time.perf_counter()
        counts = dict(repeat_counts or {"setup": self.plan.setups, "train": self.plan.trains,
                                        "evaluate": self.plan.evaluates, "recommend": self.plan.recommends})
        self.setup()
        self.train()
        self.prepare_serving()
        counts["setup"] -= 1
        counts["train"] -= 1
        for op in schedule(counts):
            getattr(self, op)()
        while not repeat_counts and time.perf_counter() - started < seconds:
            getattr(self, self.plan.repeat)()
        self.out.wall_s = time.perf_counter() - started
        return self.out

    def _settle(self) -> None:
        self.out.probe_s.extend(probe() for _ in range(self.probes_per_op))
        settle()

    def _count(self, op: str) -> None:
        self.out.counts[op] = self.out.counts.get(op, 0) + 1

    def setup(self) -> None:
        self._settle()
        t0 = time.perf_counter()
        self.world = build_world(self.cfg)
        fresh_model(self.world)
        self.out.setup_s.append(time.perf_counter() - t0)
        self.out.attempted += 1
        self._count("setup")

    def train(self) -> None:
        world, out = self.world, self.out
        if self.trained is None:
            self.pairs = train_pairs_for(self.plan, world, self.seed)
            self.val_recall = evaluate.make_val_recall(world.train_pairs, world.val_pairs, K)
        net = fresh_model(world)
        self._settle()
        t0 = time.perf_counter()
        result = training.train(net, self.pairs, settings_of(self.cfg), Rng(self.cfg.seed, (13,)), self.val_recall)
        elapsed = time.perf_counter() - t0
        self._count("train")
        epochs = len(result.history)
        examples = epochs * (world.kg_u.n_triples + world.kg_i.n_triples + len(self.pairs))
        out.train_rates.append(examples / elapsed)
        with _checked(self.tracer):
            losses = [(row["total"], row["val_recall"]) for row in result.history]
            problems = loss_problems(result.history)
            if epochs != self.plan.epochs:
                problems.append(f"ran {epochs} epochs, planned {self.plan.epochs}")
            if self.trained is not None and losses != out.outputs[0]:
                problems.append("a repeated train call gave other losses")
            out.check("train", problems)
        if self.trained is None:
            self.trained = result
            out.outputs.append(losses)

    def prepare_serving(self) -> None:
        """Save the first trained model and work out what evaluate and recommend must print."""
        world, out, cfg = self.world, self.out, self.cfg
        path = os.path.join(self.workdir, "checkpoint.ckgr")
        checkpoint.save(self.trained.model, path, {"config": cfg.to_dict(), "seed": cfg.seed, "epoch": self.trained.best_epoch})
        if self.tracer:
            self.tracer.counts["checkpoint.bytes"] = os.path.getsize(path)
        with _checked(self.tracer):
            attached, _ = checkpoint.attach(path, world.kg_u, world.kg_i, world.align)
            self.scores = evaluate.model_scores(attached)
            same = np.array_equal(self.scores, evaluate.model_scores(self.trained.model))
            out.check("save/attach round trip", [] if same else ["attached scores differ from in-memory scores"])
            self.expected = expected_evaluate(world, attached, self.seed)
            out.recall = self.expected["model"][1]
            out.outputs.append(out.recall)
            self.train_truth = evaluate.truth_by_user(world.train_pairs)
        self.users = world.bg.user_vocab.tokens()
        self.data_flags = ["--checkpoint", path, "--interactions", cfg.interactions,
                           "--user-attrs", cfg.user_attrs, "--item-attrs", cfg.item_attrs]

    def evaluate(self) -> None:
        self._settle()
        t0 = time.perf_counter()
        code, text = run_cli(["evaluate", *self.data_flags], self.tracer, "cli.evaluate")
        self.out.evaluate_s.append(time.perf_counter() - t0)
        self._count("evaluate")
        with _checked(self.tracer):
            try:
                problems = [f"exit code {code}"] if code else evaluate_problems(parse_evaluate(text), self.expected)
            except ValueError as err:
                problems = [f"unreadable output {text!r}: {err}"]
            self.out.check("evaluate", problems)

    def recommend(self) -> None:
        token = self.users[int(self.pick.integers(len(self.users)))]
        self._settle()
        t0 = time.perf_counter()
        code, text = run_cli(["recommend", *self.data_flags, "--user", token, "--k", str(K)], self.tracer, "cli.recommend")
        self.out.recommend_ms.append((time.perf_counter() - t0) * 1e3)
        self._count("recommend")
        with _checked(self.tracer):
            u = self.world.bg.user_vocab.id_of(token)
            try:
                rows = parse_recommend(text)
                problems = [f"exit code {code}"] if code else recommend_problems(
                    rows, self.world, u, self.scores, self.train_truth.get(u, set())
                )
            except ValueError as err:
                rows, problems = None, [f"unreadable output {text!r}: {err}"]
            self.out.outputs.append((token, rows))
            self.out.check(f"recommend {token}", problems)


def slowdown(out: Outcome) -> float:
    """How much slower the host ran the probe during this pass than nominally."""
    return statistics.median(out.probe_s) / PROBE_NOMINAL_S


def end_to_end(out: Outcome, slowdown: float) -> dict[str, tuple[float, str]]:
    """End-to-end metrics with timings divided by `slowdown` (1.0 gives them as measured)."""
    values = {
        "setup_s": statistics.median(out.setup_s) / slowdown,
        "train_examples_per_s": statistics.median(out.train_rates) * slowdown,
        "evaluate_s": statistics.median(out.evaluate_s) / slowdown,
        "recommend_p50_ms": float(np.percentile(out.recommend_ms, 50)) / slowdown,
        "recommend_p90_ms": float(np.percentile(out.recommend_ms, 90)) / slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}
