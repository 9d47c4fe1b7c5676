"""Splits, top-K ranking, Precision/Recall@K, and baselines.

Splitting is per-user: each user's interactions are shuffled and cut to
the requested ratios with stochastic rounding, so expectations match
the ratios while a 10-record user under 8:1:1 splits exactly 8/1/1.
Users with fewer than 3 interactions stay entirely in train, and every
user keeps at least one training record.

Ranking is exact over the full catalog: scores for all items, the
user's training items excluded, ties broken by ascending item id.
Metrics are macro-averaged over users with ground truth in the catalog.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import chain, compress, repeat

import numpy as np

from .errors import ConfigError
from .graph import BipartiteGraph, Vocab
from .ingest import open_replacing
from .rng import Rng
from .table import Interactions, first_seen_groups


@dataclass
class Split:
    train: Interactions
    validation: Interactions
    test: Interactions


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
    return Split(train, val, test)


def pairs_of(records: Interactions, bg: BipartiteGraph) -> np.ndarray:
    """(user, item) index pairs of records under the bipartite vocabularies."""
    return vocab_pairs(records, bg.user_vocab, bg.item_vocab)


def vocab_pairs(records: Interactions, user_vocab: Vocab, item_vocab: Vocab) -> np.ndarray:
    """(user, item) index pairs of records under the given vocabularies; records outside them are dropped."""
    users = user_vocab.ids_of(records.user_tokens)[records.user]
    items = item_vocab.ids_of(records.item_tokens)[records.item]
    keep = (users >= 0) & (items >= 0)
    return np.stack([users[keep], items[keep]], axis=1)


def truth_by_user(pairs: np.ndarray) -> dict[int, set]:
    """{user: set of items} of (user, item) pairs, users in order of first appearance.

    The pairs are stable-sorted by user, so each user's set is built from
    one run of them, its items added in pair order.
    """
    pairs = np.asarray(pairs).reshape(-1, 2)
    order = np.argsort(pairs[:, 0], kind="stable")
    users, items = pairs[order, 0], pairs[order, 1].tolist()
    starts = np.flatnonzero(np.diff(users, prepend=users[:1] - 1))
    ends = np.r_[starts[1:], len(users)]
    runs = np.argsort(order[starts])  # a run's first pair is its user's first appearance
    return {u: set(items[a:b]) for u, a, b in zip(users[starts[runs]].tolist(), starts[runs].tolist(),
                                                  ends[runs].tolist())}


RANK_BLOCK = 128  # users ranked together; bounds the per-block temporaries


def _csr_rows(users: list, sets: dict, n_items: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sets[u] of each of `users` as CSR rows (ptr, row, col); ids outside [0, n_items) are dropped.

    Row r holds entries ptr[r]:ptr[r + 1]; entry e marks (row[e], col[e]).
    The sets are flattened in one pass, with no Python code per user.
    """
    got = list(map(sets.get, users, repeat(())))
    sizes = np.fromiter(map(len, got), dtype=np.int64, count=len(got))
    col = np.fromiter(chain.from_iterable(got), dtype=np.int64, count=int(sizes.sum()))
    row = np.repeat(np.arange(len(got)), sizes)
    keep = (col >= 0) & (col < n_items)
    row, col = row[keep], col[keep]
    return np.searchsorted(row, np.arange(len(got) + 1)), row, col


def _block_mask(csr, at: int, n_rows: int, n_items: int) -> np.ndarray:
    """Boolean (n_rows, n_items) matrix of CSR rows at:at + n_rows, built with one fancy assignment."""
    ptr, row, col = csr
    lo, hi = ptr[at], ptr[at + n_rows]
    mask = np.zeros((n_rows, n_items), dtype=bool)
    mask[row[lo:hi] - at, col[lo:hi]] = True
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
    rows, cols = divmod(np.flatnonzero(candidate), neg.shape[1])
    order = np.lexsort((cols, neg[rows, cols], rows))
    rows, cols = rows[order], cols[order]
    starts = np.searchsorted(rows, np.arange(len(neg)))
    top = np.arange(len(rows)) - starts[rows] < k
    return rows[top], cols[top]


def _top_k_shared(order: np.ndarray, excluded: np.ndarray, most_excluded: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """`_top_k` of rows that all hold one score row, given `order`, its stable argsort of the negated scores.

    A row's top k are the first k entries of `order` it does not exclude,
    so with at most `most_excluded` exclusions in a row they lie in the
    first k + most_excluded.
    """
    width = min(len(order), k + most_excluded)
    head = order[:width]
    kept = ~excluded[:, head]
    rows, at = divmod(np.flatnonzero(kept & (np.cumsum(kept, axis=1) <= k)), width)
    return rows, head[at]


def topk_from_scores(scores: np.ndarray, k: int, exclude=None) -> np.ndarray:
    """Top-k item ids of one score row by descending score, ties by ascending id.

    `exclude` is any iterable of item ids; ids outside [0, len(scores)) are dropped.
    """
    if k < 1:
        raise ConfigError(f"K must be >= 1, got {k}")
    neg = -np.asarray(scores, dtype=np.float64)[None, :]
    n_items = neg.shape[1]
    ids = np.fromiter(() if exclude is None else exclude, dtype=np.int64)
    excluded = np.zeros_like(neg, dtype=bool)
    excluded[0, ids[(ids >= 0) & (ids < n_items)]] = True
    return _top_k(neg, excluded, k)[1]


def rank_and_score(score_matrix: np.ndarray, train_items: dict[int, set], truth: dict[int, set], k: int):
    """Macro Precision@K / Recall@K for any per-user score matrix.

    Every user with non-empty truth gets the top k of a stable descending
    sort of its scores, training items removed; users are ranked
    RANK_BLOCK at a time.  Item ids outside [0, n_items) are dropped from
    both dicts, and users left with no truth are not scored.  A matrix
    whose rows are one shared row (row stride 0, as the baselines return)
    is sorted once for all users.
    """
    if k < 1:
        raise ConfigError(f"K must be >= 1, got {k}")
    users = sorted(compress(truth, truth.values()))
    if not users:
        return float("nan"), float("nan")
    n_items = score_matrix.shape[1]
    train, relevant = (_csr_rows(users, sets, n_items) for sets in (train_items, truth))
    shared = score_matrix.strides[0] == 0
    if shared:
        order = np.argsort(-np.asarray(score_matrix[0], dtype=np.float64), kind="stable")
        n_excluded = np.diff(train[0])
    hits = np.empty(len(users))
    for at in range(0, len(users), RANK_BLOCK):
        block = users[at: at + RANK_BLOCK]
        excluded = _block_mask(train, at, len(block), n_items)
        if shared:
            rows, cols = _top_k_shared(order, excluded, int(n_excluded[at: at + len(block)].max()), k)
        else:
            rows, cols = _top_k(-np.asarray(score_matrix[block], dtype=np.float64), excluded, k)
        weights = _block_mask(relevant, at, len(block), n_items)[rows, cols]
        hits[at: at + len(block)] = np.bincount(rows, weights=weights, minlength=len(block))
    sizes = np.diff(relevant[0])
    scored = sizes > 0
    if not scored.any():
        return float("nan"), float("nan")
    return float(np.mean(hits[scored] / k)), float(np.mean(hits[scored] / sizes[scored]))


def score_block(users: np.ndarray, items: np.ndarray, at: int, out: np.ndarray | None = None) -> np.ndarray:
    """Scores of the RANK_BLOCK users from row `at`, an aligned block, against every item.

    The one user-by-item product in the program, written into `out` when
    given.  `score_matrix` is made of these blocks, so a block's rows are
    the matrix's rows bit for bit on any BLAS; a product of other rows, or
    of one row, may round differently.
    """
    return np.matmul(users[at: at + RANK_BLOCK], items.T, out=out)


def score_matrix(users: np.ndarray, items: np.ndarray) -> np.ndarray:
    """The full user-by-item score matrix, each aligned block (`score_block`) written in place."""
    out = np.empty((len(users), len(items)))
    for at in range(0, len(users), RANK_BLOCK):
        score_block(users, items, at, out=out[at: at + RANK_BLOCK])
    return out


def model_scores(model) -> np.ndarray:
    """Full user-by-item score matrix from the current parameters."""
    return score_matrix(*model.representations(*model.stitched()))


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
        """Write the rows to `path` crash-safely (`ingest.open_replacing`)."""
        with open_replacing(path, "w", encoding="utf-8", newline="\n") as fh:
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
