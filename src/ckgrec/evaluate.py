"""Splits, top-K ranking, Precision/Recall@K, and baselines.

Splitting is per-user: each user's interactions are shuffled and cut to
the requested ratios with stochastic rounding, so expectations match
the ratios while a 10-record user under 8:1:1 splits exactly 8/1/1.
Users with fewer than 3 interactions stay entirely in train, and every
user keeps at least one training record.

Ranking is exact over the full catalog: scores for all items, the
user's training items excluded, ties broken by ascending item id.
Metrics are macro-averaged over users with non-empty ground truth.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .graph import BipartiteGraph
from .rng import Rng
from .table import Interactions, first_seen_groups


@dataclass
class Split:
    train: Interactions
    validation: Interactions
    test: Interactions
    seed: int
    ratios: tuple[float, float, float]


def split_dataset(records: Interactions, ratios=(0.8, 0.1, 0.1), seed: int = 0) -> Split:
    """Per-user partition into train/validation/test, deterministic by seed.

    Users are visited in order of first appearance.  Each part lists
    users in that order, and a user's records in the drawn order.
    """
    ratios = tuple(float(x) for x in ratios)
    if len(ratios) != 3 or any(x <= 0 for x in ratios):
        raise ConfigError(f"need three positive split ratios, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"split ratios must sum to 1, got {sum(ratios)}")

    group, _ = first_seen_groups(records.user)
    by_user = np.argsort(group, kind="stable")
    counts = np.bincount(group)
    n_held = np.zeros((len(counts), 2), dtype=np.int64)  # validation and test records per user
    orders = [np.zeros(0, dtype=np.int64)]
    rng = Rng(seed, (501,))

    def rounded(n: int, fraction: float) -> int:
        exact = n * fraction
        base = int(exact)
        return base + (1 if rng.random() < exact - base else 0)

    for g, n in enumerate(counts.tolist()):
        if n < 3:
            orders.append(np.arange(n))
            continue
        orders.append(rng.permutation(n))
        n_val = rounded(n, ratios[1])
        n_test = rounded(n, ratios[2])
        # every user keeps at least one training record
        while n - n_val - n_test < 1:
            if n_test > 0:
                n_test -= 1
            else:
                n_val -= 1
        n_held[g] = n_val, n_test
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    shuffled = by_user[np.concatenate(orders) + starts]
    from_end = np.repeat(np.cumsum(counts), counts) - np.arange(len(records))  # n - position within the user
    n_val, n_test = (np.repeat(n_held[:, j], counts) for j in (0, 1))
    part = (from_end <= n_val + n_test).astype(np.int64) + (from_end <= n_test)
    train, val, test = (records.take(shuffled[part == p]) for p in range(3))
    return Split(train, val, test, seed, ratios)


def pairs_of(records: Interactions, bg: BipartiteGraph) -> np.ndarray:
    """(user, item) index pairs of records under the bipartite vocabularies."""
    users = bg.user_vocab.ids_of(records.user_tokens)[records.user]
    items = bg.item_vocab.ids_of(records.item_tokens)[records.item]
    keep = (users >= 0) & (items >= 0)
    return np.stack([users[keep], items[keep]], axis=1)


def truth_by_user(pairs: np.ndarray) -> dict[int, set]:
    out: dict[int, set] = {}
    for u, i in pairs.tolist():
        out.setdefault(u, set()).add(i)
    return out


RANK_BLOCK = 128  # users ranked together; bounds the per-block temporaries


def _user_item_mask(block, sets: dict, n_items: int) -> np.ndarray:
    """Boolean (len(block), n_items) matrix marking sets[u] on each user's row; other ids are dropped."""
    cols = [np.fromiter(sets.get(u, ()), dtype=np.int64) for u in block]
    rows = np.repeat(np.arange(len(block)), [len(c) for c in cols])
    cols = np.concatenate(cols)
    keep = (cols >= 0) & (cols < n_items)
    mask = np.zeros((len(block), n_items), dtype=bool)
    mask[rows[keep], cols[keep]] = True
    return mask


def _top_k(neg: np.ndarray, excluded: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) of each row's top k by ascending `neg`, ties by ascending column, in rank order.

    Excluded entries never rank; NaN entries rank last, as a stable
    argsort places them.  Only the entries at or below each row's k-th
    smallest value are sorted.  Overwrites the excluded entries of `neg`.
    """
    neg[excluded] = np.nan
    kk = min(k, neg.shape[1]) - 1
    kth = np.partition(neg, kk, axis=1)[:, kk]
    short = np.isnan(kth)  # fewer than k ranked non-NaN entries: every rankable one competes
    with np.errstate(invalid="ignore"):
        candidate = (neg <= kth[:, None]) | (short[:, None] & ~excluded)
    rows, cols = np.nonzero(candidate)
    order = np.lexsort((cols, neg[rows, cols], rows))
    rows, cols = rows[order], cols[order]
    starts = np.searchsorted(rows, np.arange(len(neg)))
    top = np.arange(len(rows)) - starts[rows] < k
    return rows[top], cols[top]


def topk_from_scores(scores: np.ndarray, k: int, exclude=None) -> np.ndarray:
    """Top-k item ids of one score row by descending score, ties by ascending id."""
    if k < 1:
        raise ConfigError(f"K must be >= 1, got {k}")
    neg = -np.asarray(scores, dtype=np.float64)[None, :]
    excluded = _user_item_mask([0], {0: () if exclude is None else exclude}, neg.shape[1])
    return _top_k(neg, excluded, k)[1]


def rank_and_score(score_matrix: np.ndarray, train_items: dict[int, set], truth: dict[int, set], k: int):
    """Macro Precision@K / Recall@K for any per-user score matrix.

    Every user with non-empty truth gets the top k of a stable descending
    sort of its scores, training items removed; users are ranked
    RANK_BLOCK at a time.
    """
    if k < 1:
        raise ConfigError(f"K must be >= 1, got {k}")
    users = [u for u in sorted(truth) if truth[u]]
    if not users:
        return float("nan"), float("nan")
    n_items = score_matrix.shape[1]
    hits = []
    for at in range(0, len(users), RANK_BLOCK):
        block = users[at: at + RANK_BLOCK]
        neg = -np.asarray(score_matrix[block], dtype=np.float64)
        rows, cols = _top_k(neg, _user_item_mask(block, train_items, n_items), k)
        relevant = _user_item_mask(block, truth, n_items)
        hits.append(np.bincount(rows, weights=relevant[rows, cols], minlength=len(block)))
    hits = np.concatenate(hits)
    sizes = np.array([len(truth[u]) for u in users])
    return float(np.mean(hits / k)), float(np.mean(hits / sizes))


def model_scores(model) -> np.ndarray:
    """Full user-by-item score matrix from the current parameters."""
    users, items = model.representations(*model.stitched())
    return users @ items.T


def popularity_scores(train_pairs: np.ndarray, n_users: int, n_items: int) -> np.ndarray:
    """Every user sees the same ranking: training interaction counts, as a read-only view of one row."""
    counts = np.bincount(train_pairs[:, 1], minlength=n_items).astype(np.float64)
    return np.broadcast_to(counts, (n_users, n_items))


def random_scores(seed: int, n_users: int, n_items: int) -> np.ndarray:
    """One seeded random ranking shared by all users, as a read-only view of one row."""
    values = Rng(seed, (907,)).random(n_items)
    return np.broadcast_to(values, (n_users, n_items))


@dataclass
class EvalRow:
    label: str
    k: int
    precision: float
    recall: float
    seed: int
    wall_ms: float


@dataclass
class EvalReport:
    rows: list[EvalRow] = field(default_factory=list)

    def add(self, label, k, precision, recall, seed, wall_ms) -> None:
        for value in (precision, recall):
            if np.isfinite(value) and not 0.0 <= value <= 1.0:
                raise ConfigError(f"metric out of [0,1] for {label}: {value}")
        self.rows.append(EvalRow(label, k, precision, recall, seed, wall_ms))

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("label,K,precision,recall,seed,wall_ms\n")
            for r in self.rows:
                fh.write(f"{r.label},{r.k},{r.precision},{r.recall},{r.seed},{r.wall_ms}\n")


def evaluate_model(model, train_pairs, eval_pairs, k: int, seed: int) -> EvalRow:
    started = time.perf_counter()
    scores = model_scores(model)
    p, r = rank_and_score(scores, truth_by_user(train_pairs), truth_by_user(eval_pairs), k)
    return EvalRow("model", k, p, r, seed, (time.perf_counter() - started) * 1e3)


def make_val_recall(train_pairs, val_pairs, k: int):
    """Validation Recall@K callback for early stopping."""
    exclude = truth_by_user(train_pairs)
    truth = truth_by_user(val_pairs)

    def recall(model) -> float:
        _, r = rank_and_score(model_scores(model), exclude, truth, k)
        return 0.0 if np.isnan(r) else r

    return recall
