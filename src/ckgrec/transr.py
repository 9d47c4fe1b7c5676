"""TransR encoding of one collaborative knowledge graph.

Each relation r owns a vector e_r in R^k and a projection matrix W_r in
R^{k x d} mapping entity vectors into its relation space.  A triple's
energy is the squared distance

    g(h, r, t) = || W_r e_h + e_r - W_r e_t ||^2

and training pushes g of corrupted triples above g of observed ones via
a pairwise logistic loss.  Gradients are written out by hand and cover
only the rows a batch touches; the tests check them against central
differences and against a dense-scatter reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericFaultError, SamplingExhaustedError
from .graph import CollaborativeKG
from .kernels import gaussian_init, row_sums, sigmoid, softplus
from .rng import Rng


@dataclass
class EmbeddingTable:
    """Dense per-graph parameters: entity rows, relation rows, projections."""

    entity: np.ndarray      # (N, d)
    relation: np.ndarray    # (M, k)
    projection: np.ndarray  # (M, k, d)

    @property
    def n_entities(self) -> int:
        return self.entity.shape[0]

    @property
    def n_relations(self) -> int:
        return self.relation.shape[0]

    @property
    def d(self) -> int:
        return self.entity.shape[1]

    @property
    def k(self) -> int:
        return self.relation.shape[1]

    def params(self) -> dict[str, np.ndarray]:
        return {"entity": self.entity, "relation": self.relation, "projection": self.projection}


def init_table(n_entities: int, n_relations: int, d: int, k: int, std: float, rng: Rng) -> EmbeddingTable:
    return EmbeddingTable(
        entity=gaussian_init((n_entities, d), std, rng.split(0)),
        relation=gaussian_init((n_relations, k), std, rng.split(1)),
        projection=gaussian_init((n_relations, k, d), std, rng.split(2)),
    )


def sample_absent(keys: np.ndarray, base, stride: int, n: int, rng: Rng) -> np.ndarray:
    """Per position j, a uniform c in [0, n) whose key base[j] + stride*c is not in `keys`.

    The one negative sampler: `keys` is a sorted int64 array of the
    observed keys, and the corrupted slot of an affine key is replaced
    by the candidate.  Every pending position draws a block of
    candidates (1, 1, 2, 4, ...: the draws so far double each round)
    and keeps its first absent one; only positions with the whole block
    rejected draw again.  A position rejected 4n times raises
    SamplingExhaustedError.
    """
    base = np.asarray(base, dtype=np.int64)
    out = np.empty(len(base), dtype=np.int64)
    pending = np.arange(len(base))
    budget = 4 * n
    drawn = 0
    while len(pending):
        if drawn >= budget:
            raise SamplingExhaustedError(
                f"position {int(pending[0])}: all {budget} draws over {n} candidates hit observed keys"
            )
        block = min(max(drawn, 1), budget - drawn)
        drawn += block
        cand = rng.integers(n, size=(len(pending), block))
        wanted = base[pending, None] + stride * cand
        at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
        free = keys[at] != wanted if len(keys) else np.ones(wanted.shape, dtype=bool)
        found = free.any(axis=1)
        out[pending[found]] = cand[found, free[found].argmax(axis=1)]
        pending = pending[~found]
    return out


@dataclass
class TripleBatch:
    """Observed triples paired with corrupted counterparts."""

    h: np.ndarray
    r: np.ndarray
    t: np.ndarray
    h_neg: np.ndarray  # equals h unless head corruption is enabled
    t_neg: np.ndarray

    def __len__(self) -> int:
        return len(self.h)


def sample_batch(kg: CollaborativeKG, indices, rng: Rng, corrupt_heads: bool = False) -> TripleBatch:
    """Corrupt one end of each selected triple, tails by default.

    With `corrupt_heads`, a fair coin per triple picks which end.
    """
    indices = np.asarray(indices, dtype=np.int64)
    h = kg.heads[indices]
    r = kg.rels[indices]
    t = kg.tails[indices]
    h_neg = h.copy()
    t_neg = t.copy()
    at_head = np.zeros(len(indices), dtype=bool)
    if corrupt_heads:
        at_head = rng.integers(2, size=len(indices)) == 1
    n = kg.entity_count
    h_neg[at_head] = sample_absent(kg.keys, kg.key(0, r[at_head], t[at_head]), int(kg.key(1, 0, 0)), n, rng)
    tails = ~at_head
    t_neg[tails] = sample_absent(kg.keys, kg.key(h[tails], r[tails], 0), int(kg.key(0, 0, 1)), n, rng)
    return TripleBatch(h, r, t, h_neg, t_neg)


def kg_loss(table: EmbeddingTable, batch: TripleBatch):
    """Pairwise encoding loss and its analytic gradients on the batch's rows.

    L = sum_pairs -ln sigma(g(h, r, t') - g(h, r, t)).  Returns
    (loss, grads, ents, rels): `ents` is the sorted set of h, t, h', t'
    ids and `rels` that of r; grads["entity"] has one row per entry of
    `ents`, grads["relation"] and grads["projection"] one per entry of
    `rels`.
    """
    h, r, t = batch.h, batch.r, batch.t
    n_pairs = len(batch)
    ents, slots = np.unique(np.concatenate([h, t, batch.h_neg, batch.t_neg]), return_inverse=True)
    rels = np.unique(r)
    grads = {
        "entity": np.zeros((len(ents), table.d)),
        "relation": np.zeros((len(rels), table.k)),
        "projection": np.zeros((len(rels), table.k, table.d)),
    }
    if n_pairs == 0:
        return 0.0, grads, ents, rels

    diff_pos = table.entity[h] - table.entity[t]
    diff_neg = table.entity[batch.h_neg] - table.entity[batch.t_neg]
    groups = [np.flatnonzero(r == rel) for rel in rels]
    d_pos = np.empty((n_pairs, table.k))
    d_neg = np.empty((n_pairs, table.k))

    # finiteness is checked below; silence the transient inf/nan warnings
    with np.errstate(invalid="ignore", over="ignore"):
        for rel, rows in zip(rels, groups):
            w = table.projection[rel]
            e_r = table.relation[rel]
            d_pos[rows] = diff_pos[rows] @ w.T + e_r
            d_neg[rows] = diff_neg[rows] @ w.T + e_r

        g_pos = np.einsum("ij,ij->i", d_pos, d_pos)
        g_neg = np.einsum("ij,ij->i", d_neg, d_neg)
        delta = g_neg - g_pos
        losses = softplus(-delta)
    if not np.all(np.isfinite(losses)):
        bad = int(np.flatnonzero(~np.isfinite(losses))[0])
        raise NumericFaultError(f"non-finite encoding loss at pair {bad}")
    coeff = sigmoid(delta) - 1.0  # in (-1, 0)

    # dL/d(d_pos) = -2c * d_pos, dL/d(d_neg) = 2c * d_neg
    u_pos = (-2.0 * coeff)[:, None] * d_pos
    u_neg = (2.0 * coeff)[:, None] * d_neg

    # entity terms ordered by relation, then role (h, t, h', t'), then pair,
    # so the row sums add each row's terms in a fixed sequence
    slots = slots.reshape(4, n_pairs)
    at, terms = [], []
    for j, (rel, rows) in enumerate(zip(rels, groups)):
        up, un = u_pos[rows], u_neg[rows]
        grads["relation"][j] += np.sum(up + un, axis=0)
        grads["projection"][j] += up.T @ diff_pos[rows] + un.T @ diff_neg[rows]
        g_up, g_un = up @ table.projection[rel], un @ table.projection[rel]
        at.append(slots[:, rows].ravel())
        terms += [g_up, -g_up, g_un, -g_un]
    grads["entity"] = row_sums(np.concatenate(at), np.concatenate(terms), len(ents))

    return float(np.sum(losses)), grads, ents, rels
