"""TransR encoding of one collaborative knowledge graph.

Each relation r owns a vector e_r in R^k and a projection matrix W_r in
R^{k x d} mapping entity vectors into its relation space.  A triple's
energy is the squared distance

    g(h, r, t) = || W_r e_h + e_r - W_r e_t ||^2

and training pushes g of corrupted triples above g of observed ones via
a pairwise logistic loss.  Gradients are written out by hand; the
finite-difference checker in `kernels` validates them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericFaultError, SamplingExhaustedError, ShapeError
from .graph import CollaborativeKG
from .kernels import gaussian_init, sigmoid, softplus
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

    def copy(self) -> "EmbeddingTable":
        return EmbeddingTable(self.entity.copy(), self.relation.copy(), self.projection.copy())


def init_table(n_entities: int, n_relations: int, d: int, k: int, std: float, rng: Rng) -> EmbeddingTable:
    return EmbeddingTable(
        entity=gaussian_init((n_entities, d), std, rng.split(0)),
        relation=gaussian_init((n_relations, k), std, rng.split(1)),
        projection=gaussian_init((n_relations, k, d), std, rng.split(2)),
    )


def project(table: EmbeddingTable, r: int, e: np.ndarray) -> np.ndarray:
    """W_r e: the entity vector expressed in relation r's space."""
    e = np.asarray(e, dtype=np.float64)
    w = table.projection[r]
    if e.shape != (w.shape[1],):
        raise ShapeError(f"projection {w.shape} incompatible with entity vector {e.shape}")
    return w @ e


def triple_energy(table: EmbeddingTable, h: int, r: int, t: int) -> float:
    """g(h,r,t) = ||W_r e_h + e_r - W_r e_t||^2; lower means more plausible."""
    w = table.projection[r]
    diff = w @ (table.entity[h] - table.entity[t]) + table.relation[r]
    return float(diff @ diff)


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
    """Pairwise encoding loss and its analytic gradients.

    L = sum_pairs -ln sigma(g(h, r, t') - g(h, r, t)).  Returns
    (loss, grads) where grads holds dense arrays "entity", "relation",
    "projection" with nonzero rows only at batch participants.
    """
    h, r, t = batch.h, batch.r, batch.t
    hn, tn = batch.h_neg, batch.t_neg
    n_pairs = len(batch)

    grad_entity = np.zeros_like(table.entity)
    grad_relation = np.zeros_like(table.relation)
    grad_projection = np.zeros_like(table.projection)
    if n_pairs == 0:
        return 0.0, {"entity": grad_entity, "relation": grad_relation, "projection": grad_projection}

    d_pos = np.empty((n_pairs, table.k))
    d_neg = np.empty((n_pairs, table.k))

    # finiteness is checked below; silence the transient inf/nan warnings
    with np.errstate(invalid="ignore", over="ignore"):
        for rel in np.unique(r):
            rows = np.nonzero(r == rel)[0]
            w = table.projection[rel]
            e_r = table.relation[rel]
            d_pos[rows] = (table.entity[h[rows]] - table.entity[t[rows]]) @ w.T + e_r
            d_neg[rows] = (table.entity[hn[rows]] - table.entity[tn[rows]]) @ w.T + e_r

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

    for rel in np.unique(r):
        rows = np.nonzero(r == rel)[0]
        w = table.projection[rel]
        e_h, e_t = table.entity[h[rows]], table.entity[t[rows]]
        e_hn, e_tn = table.entity[hn[rows]], table.entity[tn[rows]]
        up, un = u_pos[rows], u_neg[rows]

        grad_relation[rel] += np.sum(up + un, axis=0)
        grad_projection[rel] += up.T @ (e_h - e_t) + un.T @ (e_hn - e_tn)
        np.add.at(grad_entity, h[rows], up @ w)
        np.add.at(grad_entity, t[rows], -(up @ w))
        np.add.at(grad_entity, hn[rows], un @ w)
        np.add.at(grad_entity, tn[rows], -(un @ w))

    loss = float(np.sum(losses))
    return loss, {"entity": grad_entity, "relation": grad_relation, "projection": grad_projection}


def touched_rows(batch: TripleBatch):
    """Entity and relation rows a gradient step on this batch may change."""
    ents = np.unique(np.concatenate([batch.h, batch.t, batch.h_neg, batch.t_neg]))
    rels = np.unique(batch.r)
    return ents, rels
