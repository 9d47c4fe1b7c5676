"""Joint training: alternating encoder and ranking updates with Adam.

One epoch runs (a) a pass of encoding-loss mini-batches on the
user-side graph, (b) the same on the item-side graph, then (c) a pass
of pairwise ranking mini-batches.  Phases (a) and (b) touch disjoint
parameters, Adam slots and random streams; on graphs above
`DualModel.concurrent`'s size gate they run at once (see
`model.both_sides`), with results bitwise those of (a) then (b).

A knowledge-graph step works on the rows its batch touches: `kg_loss`
returns gradients for those rows only, the regularizer is added to them
as weight decay, and Adam advances their moments alone, so the batch
never moves other entities.
A ranking step sends every parameter row through the same Adam update.

All sampling derives from one root Rng split by (epoch, phase, batch),
making runs bitwise reproducible; validation recall drives early
stopping, and a non-finite loss or an overflowing Adam moment aborts
with the last finite snapshot attached to the error.

The settings are the run's `RunConfig` itself: `train` reads `lr`,
`reg`, `kg_batch`, `cf_batch`, `epochs`, `patience`, `eval_every` and
`corrupt_heads` from it, and nothing else.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .errors import NumericFaultError, TrainingDiverged
from .model import BprBatch, DualModel, both_sides, bpr_loss
from .rng import Rng
from .transr import kg_loss, sample_absent, sample_batch


class Adam:
    """Adam with per-parameter step counts and lazy row-subset updates.

    A step advances the moments of the given rows only (the lazy
    variant; all rows when `rows` is None), and bias correction uses the
    per-parameter step count.  A non-zero `decay` adds decay * param to
    the gradient of the stepped rows first (L2 weight decay).  A zero
    learning rate is a strict no-op so frozen runs stay bitwise stable.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, lr: float, decay: float = 0.0):
        self.lr = lr
        self.decay = decay
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t: dict[str, int] = {}

    def step(self, name: str, param: np.ndarray, grad: np.ndarray, rows=None) -> None:
        """Update param[rows] from `grad`, which holds one row per entry of `rows`."""
        if self.lr == 0.0:
            return
        if name not in self.m:
            self.m[name] = np.zeros_like(param)
            self.v[name] = np.zeros_like(param)
            self.t[name] = 0
        self.t[name] += 1
        b1, b2 = self.BETA1, self.BETA2
        c1 = 1.0 - b1 ** self.t[name]
        c2 = 1.0 - b2 ** self.t[name]
        rows = slice(None) if rows is None else rows
        if self.decay:
            grad = grad + self.decay * param[rows]
        m = b1 * self.m[name][rows] + (1.0 - b1) * grad
        try:
            # an infinite v would zero the update of its rows instead of turning them non-finite
            with np.errstate(over="raise"):
                v = b2 * self.v[name][rows] + (1.0 - b2) * grad * grad
        except FloatingPointError:
            raise NumericFaultError(f"Adam second moment of {name} overflowed")
        self.m[name][rows] = m
        self.v[name][rows] = v
        param[rows] -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.EPS)


# a second name for RunConfig, which bench/workloads.settings_of still
# builds by keyword; `TrainSettings(epochs=3)` keeps its old meaning
TrainSettings = RunConfig


@dataclass
class TrainResult:
    model: DualModel
    history: list[dict] = field(default_factory=list)
    best_epoch: int = -1
    best_recall: float = float("nan")


def _batches(n: int, size: int, order: np.ndarray):
    for at in range(0, n, size):
        yield order[at: at + size]


def _snapshot(model: DualModel) -> dict[str, np.ndarray]:
    return {name: p.copy() for name, p in model.params().items()}


def _kg_epoch(model, side: str, opt: Adam, cfg: RunConfig, rng: Rng) -> float:
    kg = model.kg_u if side == "u" else model.kg_i
    table = model.table_u if side == "u" else model.table_i
    order = rng.split(0).permutation(kg.n_triples)
    total = 0.0
    for b, idx in enumerate(_batches(kg.n_triples, cfg.kg_batch, order)):
        batch = sample_batch(kg, idx, rng.split(1, b), cfg.corrupt_heads)
        loss, grads, ents, rels = kg_loss(table, batch)
        total += loss
        for name, rows in (("entity", ents), ("relation", rels), ("projection", rels)):
            opt.step(f"{side}.{name}", getattr(table, name), grads[name], rows)
    return total


def _cf_epoch(model, pairs: np.ndarray, pos_keys: np.ndarray, opt: Adam, cfg: RunConfig, rng: Rng) -> float:
    order = rng.split(0).permutation(len(pairs))
    total = 0.0
    params = model.params()
    n_items = model.align.n_items
    for b, idx in enumerate(_batches(len(pairs), cfg.cf_batch, order)):
        chosen = pairs[idx]
        negs = sample_absent(pos_keys, chosen[:, 0] * n_items, 1, n_items, rng.split(1, b))
        batch = BprBatch(chosen[:, 0], chosen[:, 1], negs)
        # no name holds the propagation results, so they are freed before
        # the next batch's forward pass allocates its own
        loss, grads = bpr_loss(model, batch, *model.propagate_both())
        total += loss
        for name, p in params.items():
            opt.step(name, p, grads[name])
    return total


def train(
    model: DualModel,
    train_pairs: np.ndarray,
    cfg: RunConfig,
    rng: Rng,
    val_recall=None,
) -> TrainResult:
    """Alternating optimization under `cfg`; returns the best-validation state.

    `train_pairs` is an (n, 2) array of (user, item) index pairs from the
    training split.  `val_recall`, when given, maps a DualModel to
    validation Recall@K and drives early stopping.
    """
    pairs = np.asarray(train_pairs, dtype=np.int64).reshape(-1, 2)
    n_items = model.align.n_items
    # sorted u*n_items + i keys of the distinct training pairs
    pos_keys = np.unique(pairs[:, 0] * n_items + pairs[:, 1])
    # a user holding the whole catalog admits no ranking negative
    held = np.bincount(pos_keys // n_items)
    pairs = pairs[held[pairs[:, 0]] < n_items]

    opt = Adam(cfg.lr, 2.0 * cfg.reg)  # the gradient of reg * |p|^2
    history: list[dict] = []
    best_recall = float("-inf")
    best_epoch = -1
    stale = 0

    for epoch in range(cfg.epochs):
        started = time.perf_counter()
        last_good = _snapshot(model)
        try:
            rng_u, rng_i = rng.split(epoch, 0), rng.split(epoch, 1)
            loss_u, loss_i = both_sides(
                lambda: _kg_epoch(model, "u", opt, cfg, rng_u),
                lambda: _kg_epoch(model, "i", opt, cfg, rng_i),
                model.concurrent,
            )
            loss_cf = _cf_epoch(model, pairs, pos_keys, opt, cfg, rng.split(epoch, 2))
        except NumericFaultError as err:
            raise TrainingDiverged(
                f"epoch {epoch}: {err}", last_good_state=last_good, history=history
            ) from err
        reg_term = cfg.reg * sum(float(np.sum(p * p)) for p in model.params().values())
        row = {
            "epoch": epoch,
            "kg_u": loss_u,
            "kg_i": loss_i,
            "cf": loss_cf,
            "reg": reg_term,
            "total": loss_u + loss_i + loss_cf + reg_term,
            "wall_ms": 0.0,
            "val_recall": float("nan"),
        }
        if not np.isfinite(row["total"]):
            raise TrainingDiverged(
                f"epoch {epoch}: non-finite total loss", last_good_state=last_good, history=history
            )

        if val_recall is not None and (epoch + 1) % cfg.eval_every == 0:
            recall = float(val_recall(model))
            row["val_recall"] = recall
            if recall > best_recall:
                best_recall = recall
                best_epoch = epoch
                best = _snapshot(model)
                stale = 0
            else:
                stale += 1
        row["wall_ms"] = (time.perf_counter() - started) * 1e3
        history.append(row)
        if val_recall is not None and stale >= cfg.patience:
            break

    if val_recall is not None and best_epoch >= 0:
        model.set_params(best)
    else:
        best_epoch = cfg.epochs - 1
        best_recall = float("nan")
    return TrainResult(model=model, history=history, best_epoch=best_epoch, best_recall=best_recall)
