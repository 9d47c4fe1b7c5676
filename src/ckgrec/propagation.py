"""Attention-weighted multi-layer propagation with bi-interaction aggregation.

Layer l maps every entity's vector x^(l-1) (dim dims[l-1]) to x^(l)
(dim dims[l]) in three steps, all computed synchronously from the
previous layer's snapshot:

1. relation-aware attention logit per edge (h, r, t):
       pi'(h,r,t) = (A_r x_t)^T tanh(A_r x_h + e_r)
   softmax-normalized over each head's neighborhood;
2. neighborhood message e_N(h) = sum_t pi(h,r,t) * x_t
   (zero vector for isolated entities);
3. bi-interaction aggregation
       x^(l) = LeakyReLU(W1 (x + e_N)) + LeakyReLU(W1 (x * e_N)),
   with an optional distinct second matrix W2 for the product term.

Layer 1 reuses the encoder's relation projections as A_r; deeper layers
own their own A_r sized to that layer's input width, while the relation
vectors e_r are shared at every depth.  The per-layer outputs
x^(0)..x^(L) are concatenated into one stitched representation.

The backward pass mirrors the forward step by step (softmax, tanh, and
scatter adjoints written out by hand) and is validated against central
differences in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .graph import CollaborativeKG
from .kernels import gaussian_init, leaky_relu, leaky_relu_grad
from .rng import Rng
from .transr import EmbeddingTable


@dataclass
class LayerStack:
    """Per-layer aggregation weights and deep-layer attention projections.

    dims[0] is the entity embedding width; layer l maps dims[l-1] to
    dims[l].  attn[0] is None because layer 1 borrows the encoder's
    relation projections; attn[l-1] for l >= 2 holds that layer's
    (M, k, dims[l-1]) projection stack.
    """

    dims: list[int]
    w1: list[np.ndarray]
    w2: list[np.ndarray]
    attn: list[np.ndarray | None]
    slope: float = 0.2
    shared: bool = True
    printed_attention: bool = False

    @property
    def n_layers(self) -> int:
        return len(self.dims) - 1

    @property
    def stitched_dim(self) -> int:
        return sum(self.dims)

    def params(self) -> dict[str, np.ndarray]:
        out = {}
        for l in range(1, self.n_layers + 1):
            out[f"w1.{l}"] = self.w1[l - 1]
            if not self.shared:
                out[f"w2.{l}"] = self.w2[l - 1]
            if l >= 2:
                out[f"attn.{l}"] = self.attn[l - 1]
        return out

    def copy(self) -> "LayerStack":
        w1 = [w.copy() for w in self.w1]
        w2 = w1 if self.shared else [w.copy() for w in self.w2]
        attn = [None] + [a.copy() for a in self.attn[1:]]
        return LayerStack(list(self.dims), w1, w2, attn, self.slope, self.shared, self.printed_attention)


def resolve_dims(d: int, requested, n_layers: int) -> list[int]:
    """Per-layer widths [d0..dL]: extend by repeating the last width, trim from the tail."""
    widths = list(requested) if requested else [d, 32, 16]
    if widths[0] != d:
        widths = [d] + widths[1:]
    while len(widths) < n_layers + 1:
        widths.append(widths[-1])
    widths = widths[: n_layers + 1]
    if any(w <= 0 for w in widths):
        raise ConfigError(f"layer widths must be positive, got {widths}")
    return widths


def init_stack(
    dims,
    n_relations: int,
    k: int,
    std: float,
    rng: Rng,
    shared: bool = True,
    slope: float = 0.2,
    printed_attention: bool = False,
) -> LayerStack:
    dims = [int(x) for x in dims]
    if len(dims) < 2:
        raise ConfigError("layer stack needs at least one layer (two widths)")
    if not 0.0 < slope < 1.0:
        raise ConfigError(f"activation slope must lie in (0, 1), got {slope}")
    if printed_attention and any(w != k for w in dims[:-1]):
        raise ConfigError(
            "printed attention form adds a raw tail vector inside tanh and "
            f"requires every layer input width to equal k={k}, got {dims}"
        )
    w1, w2, attn = [], [], [None]
    for l in range(1, len(dims)):
        m = gaussian_init((dims[l], dims[l - 1]), std, rng.split(10, l))
        w1.append(m)
        w2.append(m if shared else gaussian_init((dims[l], dims[l - 1]), std, rng.split(20, l)))
        if l >= 2:
            attn.append(gaussian_init((n_relations, k, dims[l - 1]), std, rng.split(30, l)))
    return LayerStack(dims, w1, w2, attn, slope, shared, printed_attention)


@dataclass
class _Segments:
    """Contiguous per-head edge spans of a CSR-ordered triple list."""

    starts: np.ndarray   # first edge index of each non-empty head segment
    repeats: np.ndarray  # segment lengths, aligned with starts

    @classmethod
    def of(cls, kg: CollaborativeKG) -> "_Segments":
        counts = np.diff(kg.head_ptr)
        nz = counts > 0
        return cls(starts=kg.head_ptr[:-1][nz].astype(np.int64), repeats=counts[nz])

    def softmax(self, logits: np.ndarray) -> np.ndarray:
        # non-finite logits yield nan weights; the loss layer validates
        with np.errstate(invalid="ignore", over="ignore"):
            m = np.maximum.reduceat(logits, self.starts)
            ex = np.exp(logits - np.repeat(m, self.repeats))
            z = np.add.reduceat(ex, self.starts)
            return ex / np.repeat(z, self.repeats)

    def softmax_backward(self, w: np.ndarray, g_w: np.ndarray) -> np.ndarray:
        dots = w * g_w
        inner = np.add.reduceat(dots, self.starts)
        return dots - w * np.repeat(inner, self.repeats)


@dataclass
class _LayerCache:
    pt: np.ndarray | None
    q: np.ndarray | None
    w: np.ndarray | None
    msg: np.ndarray
    a1: np.ndarray
    a2: np.ndarray


@dataclass
class PropagationResult:
    """Per-layer entity matrices plus everything the backward pass replays."""

    layers: list[np.ndarray]
    stitched: np.ndarray
    cache: list[_LayerCache] = field(repr=False, default_factory=list)

    @property
    def n_layers(self) -> int:
        return len(self.layers) - 1


def _relation_groups(kg: CollaborativeKG) -> list[tuple[int, np.ndarray]]:
    return [(int(rel), np.nonzero(kg.rels == rel)[0]) for rel in np.unique(kg.rels)]


def propagate(kg: CollaborativeKG, table: EmbeddingTable, stack: LayerStack) -> PropagationResult:
    """Run every layer synchronously and stitch x^(0)..x^(L) per entity."""
    if table.entity.shape[1] != stack.dims[0]:
        raise ShapeError(f"entity width {table.entity.shape[1]} != first layer width {stack.dims[0]}")
    n = table.n_entities
    n_edges = len(kg.heads)
    seg = _Segments.of(kg)
    groups = _relation_groups(kg)

    x = table.entity
    layers = [x]
    cache: list[_LayerCache] = []
    # overflow from diverging parameters surfaces as non-finite losses,
    # which the loss layers turn into NumericFaultError; warnings off here
    with np.errstate(invalid="ignore", over="ignore"):
        for l in range(1, stack.n_layers + 1):
            a = table.projection if l == 1 else stack.attn[l - 1]
            din = stack.dims[l - 1]
            if n_edges:
                ph = np.empty((n_edges, table.k))
                pt = np.empty((n_edges, table.k))
                for rel, rows in groups:
                    ph[rows] = x[kg.heads[rows]] @ a[rel].T
                    pt[rows] = x[kg.tails[rows]] @ a[rel].T
                inner = ph + (x[kg.tails] if stack.printed_attention else table.relation[kg.rels])
                q = np.tanh(inner)
                logits = np.einsum("ij,ij->i", pt, q)
                w = seg.softmax(logits)
                msg = np.zeros((n, din))
                np.add.at(msg, kg.heads, w[:, None] * x[kg.tails])
            else:
                pt = q = w = None
                msg = np.zeros((n, din))
            a1 = (x + msg) @ stack.w1[l - 1].T
            a2 = (x * msg) @ stack.w2[l - 1].T
            cache.append(_LayerCache(pt, q, w, msg, a1, a2))
            x = leaky_relu(a1, stack.slope) + leaky_relu(a2, stack.slope)
            layers.append(x)
    return PropagationResult(layers, np.concatenate(layers, axis=1), cache)


def propagate_backward(
    kg: CollaborativeKG,
    table: EmbeddingTable,
    stack: LayerStack,
    result: PropagationResult,
    grad_stitched: np.ndarray,
) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss w.r.t. every parameter feeding `propagate`.

    `grad_stitched` is dL/d(stitched), shape (N, sum(dims)).  Returns a
    flat dict: "entity", "relation", "projection" plus the stack's own
    parameter names.
    """
    n = table.n_entities
    if grad_stitched.shape != (n, stack.stitched_dim):
        raise ShapeError(f"stitched gradient shape {grad_stitched.shape} != {(n, stack.stitched_dim)}")
    seg = _Segments.of(kg)
    groups = _relation_groups(kg)

    grads = {
        "entity": np.zeros_like(table.entity),
        "relation": np.zeros_like(table.relation),
        "projection": np.zeros_like(table.projection),
    }
    for name, p in stack.params().items():
        grads[name] = np.zeros_like(p)

    # split the stitched gradient back into per-layer pieces
    splits = np.cumsum(stack.dims)[:-1]
    g_layers = np.split(grad_stitched, splits, axis=1)

    g = g_layers[stack.n_layers].copy()
    for l in range(stack.n_layers, 0, -1):
        x = result.layers[l - 1]
        c = result.cache[l - 1]
        g_a1 = g * leaky_relu_grad(c.a1, stack.slope)
        g_a2 = g * leaky_relu_grad(c.a2, stack.slope)
        g_w1 = g_a1.T @ (x + c.msg)
        g_w2 = g_a2.T @ (x * c.msg)
        if stack.shared:
            grads[f"w1.{l}"] += g_w1 + g_w2
        else:
            grads[f"w1.{l}"] += g_w1
            grads[f"w2.{l}"] += g_w2
        g_sum = g_a1 @ stack.w1[l - 1]
        g_prod = g_a2 @ stack.w2[l - 1]
        g_x = g_sum + g_prod * c.msg
        g_msg = g_sum + g_prod * x

        if c.w is not None:
            heads, tails, rels = kg.heads, kg.tails, kg.rels
            gm = g_msg[heads]
            x_t = x[tails]
            g_w = np.einsum("ij,ij->i", gm, x_t)
            np.add.at(g_x, tails, c.w[:, None] * gm)
            g_logit = seg.softmax_backward(c.w, g_w)
            g_pt = g_logit[:, None] * c.q
            g_arg = (g_logit[:, None] * c.pt) * (1.0 - c.q * c.q)
            if stack.printed_attention:
                np.add.at(g_x, tails, g_arg)
            else:
                np.add.at(grads["relation"], rels, g_arg)
            a = table.projection if l == 1 else stack.attn[l - 1]
            g_a = grads["projection"] if l == 1 else grads[f"attn.{l}"]
            for rel, rows in groups:
                g_a[rel] += g_arg[rows].T @ x[heads[rows]] + g_pt[rows].T @ x_t[rows]
                np.add.at(g_x, heads[rows], g_arg[rows] @ a[rel])
                np.add.at(g_x, tails[rows], g_pt[rows] @ a[rel])

        g = g_x
        if l - 1 > 0:
            g += g_layers[l - 1]
    grads["entity"] += g + g_layers[0]
    return grads
