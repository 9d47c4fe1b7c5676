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

Both passes run over a `PropagationPlan`, built once per graph on first
use and kept on it.  The plan groups the edges three ways without
reordering the graph: per head (the CSR runs), per tail (a stable
tail-sorted permutation), and per distinct (head, relation) and
(tail, relation) pair.  A_r x is computed once per distinct pair and
gathered per edge, so a user heading twenty edges of one relation is
projected once, not twenty times.  Messages are summed over the head
runs and tail gradients over the tail runs with `np.add.reduceat`; the
projection gradients are first summed per pair, after which one small
matmul per relation and side gives both dA_r and dx.  The backward pass
keeps only the forward's cached per-edge arrays at full size: its own
per-edge terms are made for about EDGE_BLOCK edges at a time, blocks
ending on run boundaries, and summed at once, so each run is still
summed whole and the result does not depend on the block size.

The backward pass mirrors the forward step by step (softmax, tanh, and
sum adjoints written out by hand) and is validated against central
differences and against the per-edge kernel in tests/reference.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial

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


EDGE_BLOCK = 8192  # edges whose per-edge backward terms exist at once


@dataclass
class _Segments:
    """Contiguous runs of equal keys in a key-sorted edge list."""

    starts: np.ndarray   # first position of each run
    repeats: np.ndarray  # run lengths, aligned with starts

    @classmethod
    def of_sorted(cls, keys: np.ndarray) -> "_Segments":
        first = np.ones(len(keys), dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        starts = np.flatnonzero(first)
        return cls(starts=starts, repeats=np.diff(np.append(starts, len(keys))))

    def sum(self, values: np.ndarray) -> np.ndarray:
        return np.add.reduceat(values, self.starts)

    @cached_property
    def blocks(self) -> list[tuple[slice, int, int]]:
        """(runs, lo, hi): consecutive runs covering positions lo:hi, about EDGE_BLOCK of them.

        A run longer than EDGE_BLOCK is a block of its own.
        """
        out, b, n = [], 0, len(self.starts)
        while b < n:
            nxt = max(b + 1, int(np.searchsorted(self.starts, self.starts[b] + EDGE_BLOCK)))
            hi = int(self.starts[nxt]) if nxt < n else int(self.starts[-1] + self.repeats[-1])
            out.append((slice(b, nxt), int(self.starts[b]), hi))
            b = nxt
        return out

    def sum_gathered(self, order: np.ndarray, rows_of) -> np.ndarray:
        """`sum(rows_of(order))`, with rows_of called on one block of `order` at a time.

        Each run is summed whole by one reduceat, so the result does not
        depend on the blocking.
        """
        return np.concatenate(
            [np.add.reduceat(rows_of(order[lo:hi]), self.starts[runs] - lo) for runs, lo, hi in self.blocks]
        )

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
class _Pairs:
    """The distinct (entity, relation) pairs of one edge end, grouped by relation.

    Pairs are numbered in (relation, entity) order, so each relation owns
    one contiguous slice of them and no entity repeats inside a slice.
    """

    entity: np.ndarray   # entity of each pair
    of_edge: np.ndarray  # pair of each edge
    order: np.ndarray    # edge permutation that sorts edges by pair
    runs: _Segments      # each pair's edges within `order`
    relations: list[tuple[int, slice]]  # (relation id, its pairs)

    @classmethod
    def of(cls, ends: np.ndarray, rels: np.ndarray, n_entities: int) -> "_Pairs":
        keys, of_edge = np.unique(rels * n_entities + ends, return_inverse=True)
        order = np.argsort(of_edge, kind="stable")
        rel_of_pair = keys // n_entities
        firsts = _Segments.of_sorted(rel_of_pair).starts
        bounds = np.append(firsts, len(keys))
        relations = [(int(rel_of_pair[a]), slice(int(a), int(b))) for a, b in zip(bounds[:-1], bounds[1:])]
        return cls(keys % n_entities, of_edge, order, _Segments.of_sorted(of_edge[order]), relations)

    def project(self, x: np.ndarray, a: np.ndarray) -> np.ndarray:
        """A_r x_e for every edge, computed once per pair."""
        out = np.empty((len(self.entity), a.shape[1]))
        for rel, pairs in self.relations:
            out[pairs] = x[self.entity[pairs]] @ a[rel].T
        return out[self.of_edge]

    def project_backward(self, g_of_edges, x, a, g_a, g_x) -> np.ndarray:
        """Adds the adjoint of `project` into g_a and g_x; returns the edge gradients summed per pair.

        g_of_edges(e) gives the gradient rows of the edges e.
        """
        g = self.runs.sum_gathered(self.order, g_of_edges)
        for rel, pairs in self.relations:
            ents = self.entity[pairs]
            g_a[rel] += g[pairs].T @ x[ents]
            g_x[ents] += g[pairs] @ a[rel]
        return g


class PropagationPlan:
    """Edge groupings `propagate` and `propagate_backward` reuse on one graph.

    Built once per graph (`CollaborativeKG.propagation_plan`); the graph's
    own edge order is left as it is.
    """

    def __init__(self, kg: CollaborativeKG):
        self.heads = _Segments.of_sorted(kg.heads)
        self.head_ids = kg.heads[self.heads.starts]
        self.tail_order = np.argsort(kg.tails, kind="stable")
        sorted_tails = kg.tails[self.tail_order]
        self.tails = _Segments.of_sorted(sorted_tails)
        self.tail_ids = sorted_tails[self.tails.starts]
        self.head_pairs = _Pairs.of(kg.heads, kg.rels, kg.entity_count)
        self.tail_pairs = _Pairs.of(kg.tails, kg.rels, kg.entity_count)


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


def propagate(kg: CollaborativeKG, table: EmbeddingTable, stack: LayerStack) -> PropagationResult:
    """Run every layer synchronously and stitch x^(0)..x^(L) per entity."""
    if table.entity.shape[1] != stack.dims[0]:
        raise ShapeError(f"entity width {table.entity.shape[1]} != first layer width {stack.dims[0]}")
    n = table.n_entities
    n_edges = len(kg.heads)
    plan = kg.propagation_plan

    x = table.entity
    layers = [x]
    cache: list[_LayerCache] = []
    # overflow from diverging parameters surfaces as non-finite losses,
    # which the loss layers turn into NumericFaultError; warnings off here
    with np.errstate(invalid="ignore", over="ignore"):
        for l in range(1, stack.n_layers + 1):
            a = table.projection if l == 1 else stack.attn[l - 1]
            din = stack.dims[l - 1]
            msg = np.zeros((n, din))
            if n_edges:
                # per-edge arrays are updated in place: more temporaries
                # raised the peak resident memory of training
                x_t = x[kg.tails]
                pt = plan.tail_pairs.project(x, a)
                q = plan.head_pairs.project(x, a)
                q += x_t if stack.printed_attention else table.relation[kg.rels]
                np.tanh(q, out=q)
                w = plan.heads.softmax(np.einsum("ij,ij->i", pt, q))
                x_t *= w[:, None]
                msg[plan.head_ids] = plan.heads.sum(x_t)
            else:
                pt = q = w = None
            a1 = (x + msg) @ stack.w1[l - 1].T
            a2 = (x * msg) @ stack.w2[l - 1].T
            cache.append(_LayerCache(pt, q, w, msg, a1, a2))
            x = leaky_relu(a1, stack.slope) + leaky_relu(a2, stack.slope)
            layers.append(x)
    return PropagationResult(layers, np.concatenate(layers, axis=1), cache)


def _tanh_arg_grad(g_logit, c: _LayerCache, e: np.ndarray) -> np.ndarray:
    """dL/d(argument of tanh) on edges e: (dL/dlogit * pt) * (1 - q^2)."""
    g = g_logit[e, None] * c.pt[e]
    slope = c.q[e]
    np.multiply(slope, slope, out=slope)
    np.subtract(1.0, slope, out=slope)
    g *= slope
    return g


def _pt_grad(g_logit, c: _LayerCache, e: np.ndarray) -> np.ndarray:
    """dL/d(projected tail) on edges e."""
    return g_logit[e, None] * c.q[e]


def _tail_grad(kg: CollaborativeKG, c: _LayerCache, g_msg, g_arg, e: np.ndarray) -> np.ndarray:
    """dL/dx_t on edges e through the message, plus through tanh when g_arg is given."""
    t = g_msg[kg.heads[e]]
    t *= c.w[e, None]
    if g_arg is not None:
        t += g_arg(e)
    return t


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
    plan = kg.propagation_plan
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
            # per-edge terms are made one block of edges at a time and summed
            # at once, so no whole-graph (edges, width) array is allocated here
            g_w = np.concatenate(
                [np.einsum("ij,ij->i", g_msg[kg.heads[lo:hi]], x[kg.tails[lo:hi]]) for _, lo, hi in plan.heads.blocks]
            )
            g_logit = plan.heads.softmax_backward(c.w, g_w)
            g_arg = partial(_tanh_arg_grad, g_logit, c)
            tail_term = partial(_tail_grad, kg, c, g_msg, g_arg if stack.printed_attention else None)
            g_x[plan.tail_ids] += plan.tails.sum_gathered(plan.tail_order, tail_term)
            a = table.projection if l == 1 else stack.attn[l - 1]
            g_a = grads["projection"] if l == 1 else grads[f"attn.{l}"]
            g_head = plan.head_pairs.project_backward(g_arg, x, a, g_a, g_x)
            plan.tail_pairs.project_backward(partial(_pt_grad, g_logit, c), x, a, g_a, g_x)
            if not stack.printed_attention:
                for rel, pairs in plan.head_pairs.relations:
                    grads["relation"][rel] += g_head[pairs].sum(axis=0)

        g = g_x
        if l - 1 > 0:
            g += g_layers[l - 1]
    grads["entity"] += g + g_layers[0]
    return grads
