"""Dual-graph recommender model: two encoders stitched into one scorer.

Each collaborative graph owns its own embedding table and propagation
stack.  A user's final representation concatenates its stitched vector
from the user-side graph with its stitched vector from the item-side
graph (items symmetrically), and a score is the inner product of the
two final vectors.  The ranking objective is the pairwise BPR loss over
(user, observed item, unobserved item) triplets.  Training alternates
it with both graphs' encoding losses (see `training`); no joint
objective is ever formed.

The two graphs share nothing until their outputs are stitched, so where
both run independently (a forward pass, or one encoding phase each) they
go through `both_sides`: on graphs larger than one edge block, the
user side runs on one worker thread while the item side runs on the
calling thread.  Each side computes exactly what it computes alone, so
results are bitwise those of the two run in order.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import NumericFaultError
from .graph import AlignmentMap, CollaborativeKG
from .kernels import row_sums, sigmoid, softplus
from .propagation import EDGE_BLOCK, LayerStack, PropagationResult, init_stack, propagate, propagate_backward, resolve_dims
from .rng import Rng
from .transr import EmbeddingTable, init_table


_worker: ThreadPoolExecutor | None = None  # runs the user side; started on first concurrent call


def both_sides(user_side, item_side, concurrent: bool):
    """(user_side(), item_side()), the two at once when `concurrent`.

    Concurrently, the user side runs on the one worker thread and the
    item side on the calling thread.  Neither is still running when this
    returns or raises, and when both raise, the user side's error is the
    one raised, as when the two run in order.
    """
    if not concurrent:
        return user_side(), item_side()
    global _worker
    if _worker is None:
        _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="ckgrec-user-side")
    future = _worker.submit(user_side)
    try:
        item = item_side()
    finally:
        user = future.result()  # waits, and raises the user side's error over the item side's
    return user, item


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
        return {
            prefix + name: p
            for prefix, table, stack in (("u.", self.table_u, self.stack_u), ("i.", self.table_i, self.stack_i))
            for name, p in {**table.params(), **stack.params()}.items()
        }

    def set_params(self, values) -> None:
        mine = self.params()
        for name, v in values.items():
            np.copyto(mine[name], v)

    @property
    def concurrent(self) -> bool:
        """Whether the two graphs run at once: both have more than one edge block.

        Below that a thread would save little and cost the worker's
        allocator arena, so small graphs run in order and start no thread.
        """
        return min(self.kg_u.n_triples, self.kg_i.n_triples) > EDGE_BLOCK

    def propagate_both(self) -> tuple[PropagationResult, PropagationResult]:
        return both_sides(
            lambda: propagate(self.kg_u, self.table_u, self.stack_u),
            lambda: propagate(self.kg_i, self.table_i, self.stack_i),
            self.concurrent,
        )

    def stitched(self) -> tuple[np.ndarray, np.ndarray]:
        """Each graph's stitched output.

        Only the stitched matrix of a pass is kept.  When the two passes
        run in order, the user-side per-edge caches are freed before the
        item-side pass starts; when they run at once, both exist together.
        """
        return both_sides(
            lambda: propagate(self.kg_u, self.table_u, self.stack_u).stitched,
            lambda: propagate(self.kg_i, self.table_i, self.stack_i).stitched,
            self.concurrent,
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
    # finiteness is checked below; silence the transient inf/nan warnings
    with np.errstate(invalid="ignore", over="ignore"):
        fd = items[batch.pos_items] - items[batch.neg_items]
        margin = np.einsum("ij,ij->i", fu, fd)
        losses = softplus(-margin)
    if not np.all(np.isfinite(losses)):
        bad = int(np.flatnonzero(~np.isfinite(losses))[0])
        raise NumericFaultError(f"non-finite ranking loss at triplet {bad}")
    coeff = sigmoid(margin) - 1.0

    g_users = row_sums(batch.users, coeff[:, None] * fd, len(users))
    # fu turns into the item terms; each item row adds its positive terms before any negative one
    fu *= coeff[:, None]
    g_items = row_sums(np.concatenate([batch.pos_items, batch.neg_items]), np.concatenate([fu, -fu]), len(items))
    del users, items, fu, fd  # none is needed in the backward passes, where a step's memory peaks

    # per graph, user side first: route its columns of the final-vector gradients back to its stitched output
    su = model.stack_u.stitched_dim
    grads = {}
    for prefix, kg, table, stack, res, (users_at, items_at), cols in (
        ("u.", model.kg_u, model.table_u, model.stack_u, res_u, model.align.user_side, slice(None, su)),
        ("i.", model.kg_i, model.table_i, model.stack_i, res_i, model.align.item_side, slice(su, None)),
    ):
        g_stitched = np.zeros_like(res.stitched)
        g_stitched[users_at], g_stitched[items_at] = g_users[:, cols], g_items[:, cols]
        for name, g in propagate_backward(kg, table, stack, res, g_stitched).items():
            grads[prefix + name] = g
        del g_stitched  # freed before the next graph's is made, so only one exists at a time
    return float(np.sum(losses)), grads
