"""Dual-graph recommender model: two encoders stitched into one scorer.

Each collaborative graph owns its own embedding table and propagation
stack.  A user's final representation concatenates its stitched vector
from the user-side graph with its stitched vector from the item-side
graph (items symmetrically), and a score is the inner product of the
two final vectors.  The ranking objective is the pairwise BPR loss over
(user, observed item, unobserved item) triplets.  Training alternates
it with both graphs' encoding losses (see `training`); no joint
objective is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericFaultError
from .graph import AlignmentMap, CollaborativeKG
from .kernels import sigmoid, softplus
from .propagation import LayerStack, PropagationResult, init_stack, propagate, propagate_backward, resolve_dims
from .rng import Rng
from .transr import EmbeddingTable, init_table


@dataclass
class DualModel:
    kg_u: CollaborativeKG
    kg_i: CollaborativeKG
    table_u: EmbeddingTable
    table_i: EmbeddingTable
    stack_u: LayerStack
    stack_i: LayerStack
    align: AlignmentMap

    def params(self) -> dict[str, np.ndarray]:
        """Every trainable array under a stable flat name."""
        out = {}
        for prefix, table, stack in (("u.", self.table_u, self.stack_u), ("i.", self.table_i, self.stack_i)):
            out[prefix + "entity"] = table.entity
            out[prefix + "relation"] = table.relation
            out[prefix + "projection"] = table.projection
            for name, p in stack.params().items():
                out[prefix + name] = p
        return out

    def set_params(self, values) -> None:
        mine = self.params()
        for name, v in values.items():
            np.copyto(mine[name], v)

    def propagate_both(self) -> tuple[PropagationResult, PropagationResult]:
        return (
            propagate(self.kg_u, self.table_u, self.stack_u),
            propagate(self.kg_i, self.table_i, self.stack_i),
        )

    def stitched(self) -> tuple[np.ndarray, np.ndarray]:
        """Each graph's stitched output, one forward pass at a time.

        Only the stitched matrix of a pass is kept, so the user-side
        per-edge caches are freed before the item-side pass starts.
        """
        return (
            propagate(self.kg_u, self.table_u, self.stack_u).stitched,
            propagate(self.kg_i, self.table_i, self.stack_i).stitched,
        )

    def representations(self, stitched_u: np.ndarray, stitched_i: np.ndarray):
        """Final user matrix (n_users, 2S) and item matrix (n_items, 2S)."""
        (users_u, items_u), (users_i, items_i) = self.align.user_side, self.align.item_side
        users = np.concatenate([stitched_u[users_u], stitched_i[users_i]], axis=1)
        items = np.concatenate([stitched_u[items_u], stitched_i[items_i]], axis=1)
        return users, items


def build_model(
    kg_u: CollaborativeKG,
    kg_i: CollaborativeKG,
    align: AlignmentMap,
    d: int,
    k: int,
    n_layers: int,
    dims,
    std: float,
    rng: Rng,
    shared_weights: bool = True,
    slope: float = 0.2,
    printed_attention: bool = False,
) -> DualModel:
    dims = resolve_dims(d, dims, n_layers)
    table_u = init_table(kg_u.entity_count, kg_u.relation_count, d, k, std, rng.split(0))
    table_i = init_table(kg_i.entity_count, kg_i.relation_count, d, k, std, rng.split(1))
    stack_u = init_stack(dims, kg_u.relation_count, k, std, rng.split(2), shared_weights, slope, printed_attention)
    stack_i = init_stack(dims, kg_i.relation_count, k, std, rng.split(3), shared_weights, slope, printed_attention)
    return DualModel(kg_u, kg_i, table_u, table_i, stack_u, stack_i, align)


@dataclass
class BprBatch:
    """Parallel id arrays: user, observed item, unobserved item."""

    users: np.ndarray
    pos_items: np.ndarray
    neg_items: np.ndarray

    def __len__(self) -> int:
        return len(self.users)


def bpr_loss(model: DualModel, batch: BprBatch, res_u: PropagationResult, res_i: PropagationResult):
    """Pairwise ranking loss with gradients through stitch and propagation.

    L = sum -ln sigma(score(u, i) - score(u, j)).  Returns (loss, grads)
    with the same flat parameter names as model.params().
    """
    users, items = model.representations(res_u.stitched, res_i.stitched)
    fu = users[batch.users]
    fi = items[batch.pos_items]
    fj = items[batch.neg_items]
    # finiteness is checked below; silence the transient inf/nan warnings
    with np.errstate(invalid="ignore", over="ignore"):
        margin = np.einsum("ij,ij->i", fu, fi - fj)
        losses = softplus(-margin)
    if not np.all(np.isfinite(losses)):
        bad = int(np.flatnonzero(~np.isfinite(losses))[0])
        raise NumericFaultError(f"non-finite ranking loss at triplet {bad}")
    coeff = sigmoid(margin) - 1.0

    g_users = np.zeros_like(users)
    g_items = np.zeros_like(items)
    np.add.at(g_users, batch.users, coeff[:, None] * (fi - fj))
    np.add.at(g_items, batch.pos_items, coeff[:, None] * fu)
    np.add.at(g_items, batch.neg_items, -coeff[:, None] * fu)

    # route final-vector gradients back to each graph's stitched output
    (users_u, items_u), (users_i, items_i) = model.align.user_side, model.align.item_side
    su = model.stack_u.stitched_dim
    gs_u = np.zeros_like(res_u.stitched)
    gs_i = np.zeros_like(res_i.stitched)
    gs_u[users_u], gs_u[items_u] = g_users[:, :su], g_items[:, :su]
    gs_i[users_i], gs_i[items_i] = g_users[:, su:], g_items[:, su:]

    grads = {}
    for name, g in propagate_backward(model.kg_u, model.table_u, model.stack_u, res_u, gs_u).items():
        grads["u." + name] = g
    for name, g in propagate_backward(model.kg_i, model.table_i, model.stack_i, res_i, gs_i).items():
        grads["i." + name] = g
    return float(np.sum(losses)), grads
