"""Test-side helpers that drive the package: the gradient checker and
the closed forms training never calls.

`finite_diff_check` is the independent referee of every hand-written
gradient.  `project` and `triple_energy` spell out one triple's TransR
energy, and `total_loss` composes the joint objective the alternating
trainer never forms, so the tests can check its gradient as a whole.
`bpr_loss_add_at` is the ranking loss with its row sums written as
np.add.at scatters, the bitwise oracle of `model.bpr_loss`.  Unlike
`reference.py`, this module imports ckgrec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from ckgrec.errors import CkgrecError, ShapeError
from ckgrec.kernels import sigmoid, softplus
from ckgrec.model import BprBatch, DualModel, bpr_loss
from ckgrec.propagation import propagate_backward
from ckgrec.transr import EmbeddingTable, TripleBatch, kg_loss


class OracleError(CkgrecError):
    """A verification oracle detected it cannot trust its own inputs."""


@dataclass
class GradCheckEntry:
    param: str
    index: tuple
    analytic: float
    numeric: float
    rel_error: float


@dataclass
class GradCheckReport:
    """Outcome of comparing analytic gradients against central differences."""

    max_rel_error: float
    tolerance: float
    worst: GradCheckEntry | None
    n_coordinates: int
    per_param: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tolerance


LossFn = Callable[[dict[str, np.ndarray]], tuple[float, Mapping[str, np.ndarray]]]


def finite_diff_check(
    loss_fn: LossFn,
    params: Mapping[str, np.ndarray],
    epsilon: float = 1e-5,
    tolerance: float = 1e-4,
    rel_floor: float = 1e-6,
) -> GradCheckReport:
    """Compare analytic gradients with central differences coordinate by coordinate.

    `loss_fn` maps a parameter dict to (loss, gradient dict) and must be pure:
    the checker evaluates it twice at the base point and refuses to proceed if
    the two losses differ.  The relative error of each coordinate is
    |analytic - numeric| / max(|analytic|, |numeric|, rel_floor).
    """
    base = {name: np.array(p, dtype=np.float64) for name, p in params.items()}

    loss_a, grads = loss_fn({k: v.copy() for k, v in base.items()})
    loss_b, _ = loss_fn({k: v.copy() for k, v in base.items()})
    if loss_a != loss_b:
        raise OracleError(
            f"loss_fn is non-deterministic: {loss_a!r} != {loss_b!r} at the same point"
        )

    worst: GradCheckEntry | None = None
    max_rel = 0.0
    per_param: dict[str, float] = {}
    n_coords = 0

    for name, p in base.items():
        grad = np.asarray(grads[name], dtype=np.float64)
        if grad.shape != p.shape:
            raise ShapeError(
                f"gradient shape {grad.shape} != parameter shape {p.shape} for '{name}'"
            )
        param_max = 0.0
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            n_coords += 1

            perturbed = {k: v.copy() for k, v in base.items()}
            perturbed[name][idx] += epsilon
            f_plus, _ = loss_fn(perturbed)

            perturbed = {k: v.copy() for k, v in base.items()}
            perturbed[name][idx] -= epsilon
            f_minus, _ = loss_fn(perturbed)

            numeric = (f_plus - f_minus) / (2.0 * epsilon)
            analytic = float(grad[idx])
            denom = max(abs(analytic), abs(numeric), rel_floor)
            rel = abs(analytic - numeric) / denom
            param_max = max(param_max, rel)
            if rel >= max_rel:
                max_rel = rel
                worst = GradCheckEntry(name, idx, analytic, float(numeric), rel)
            it.iternext()
        per_param[name] = param_max

    return GradCheckReport(
        max_rel_error=max_rel,
        tolerance=tolerance,
        worst=worst,
        n_coordinates=n_coords,
        per_param=per_param,
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


def dense_kg_loss(table: EmbeddingTable, batch: TripleBatch):
    """kg_loss with its batch rows scattered into table-shaped gradients."""
    loss, rows, ents, rels = kg_loss(table, batch)
    grads = {}
    for name, at in (("entity", ents), ("relation", rels), ("projection", rels)):
        grads[name] = np.zeros_like(getattr(table, name))
        grads[name][at] = rows[name]
    return loss, grads


def bpr_loss_add_at(model: DualModel, batch: BprBatch, res_u, res_i):
    """bpr_loss with three np.add.at scatters into zeros: users, then positive items, then negative items.

    The routing to each graph's stitched output and through
    propagate_backward is the package's own.
    """
    users, items = model.representations(res_u.stitched, res_i.stitched)
    fu, fi, fj = users[batch.users], items[batch.pos_items], items[batch.neg_items]
    margin = np.einsum("ij,ij->i", fu, fi - fj)
    coeff = sigmoid(margin) - 1.0
    g_users = np.zeros_like(users)
    g_items = np.zeros_like(items)
    np.add.at(g_users, batch.users, coeff[:, None] * (fi - fj))
    np.add.at(g_items, batch.pos_items, coeff[:, None] * fu)
    np.add.at(g_items, batch.neg_items, -coeff[:, None] * fu)

    (users_u, items_u), (users_i, items_i) = model.align.user_side, model.align.item_side
    su = model.stack_u.stitched_dim
    gs_u, gs_i = np.zeros_like(res_u.stitched), np.zeros_like(res_i.stitched)
    gs_u[users_u], gs_u[items_u] = g_users[:, :su], g_items[:, :su]
    gs_i[users_i], gs_i[items_i] = g_users[:, su:], g_items[:, su:]
    grads = {}
    for prefix, kg, table, stack, res, gs in (
        ("u.", model.kg_u, model.table_u, model.stack_u, res_u, gs_u),
        ("i.", model.kg_i, model.table_i, model.stack_i, res_i, gs_i),
    ):
        for name, g in propagate_backward(kg, table, stack, res, gs).items():
            grads[prefix + name] = g
    return float(np.sum(softplus(-margin))), grads


def total_loss(model: DualModel, batch_u: TripleBatch, batch_i: TripleBatch, cf_batch: BprBatch, lam: float):
    """L = L_KG_u + L_KG_i + L_CF + lambda * ||params||^2, with gradients.

    Returns (total, grads, parts); parts carries each term so logs can
    verify the decomposition exactly.
    """
    l_u, g_u = dense_kg_loss(model.table_u, batch_u)
    l_i, g_i = dense_kg_loss(model.table_i, batch_i)
    res_u, res_i = model.propagate_both()
    l_cf, grads = bpr_loss(model, cf_batch, res_u, res_i)
    for prefix, g_kg in (("u.", g_u), ("i.", g_i)):
        for name, g in g_kg.items():
            grads[prefix + name] = grads[prefix + name] + g

    reg = 0.0
    for name, p in model.params().items():
        reg += float(np.sum(p * p))
        grads[name] = grads[name] + 2.0 * lam * p
    reg *= lam

    parts = {"kg_u": l_u, "kg_i": l_i, "cf": l_cf, "reg": reg}
    return l_u + l_i + l_cf + reg, grads, parts
