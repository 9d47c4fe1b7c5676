"""Attention-weighted multi-layer propagation with bi-interaction aggregation.

Layer l maps every entity's vector x^(l-1) (dim dims[l-1]) to x^(l)
(dim dims[l]) in three stages, all computed synchronously from the
previous layer's snapshot:

1. `attend`: relation-aware attention logit per edge (h, r, t),
       pi'(h,r,t) = (A_r x_t)^T tanh(A_r x_h + e_r),
   softmax-normalized over each head's neighborhood;
2. `aggregate`: neighborhood message e_N(h) = sum_t pi(h,r,t) * x_t
   (zero vector for isolated entities);
3. `bi_interaction`, the dense W1/W2 step:
       x^(l) = LeakyReLU(W1 (x + e_N)) + LeakyReLU(W1 (x * e_N)),
   with an optional distinct second matrix W2 for the product term.

`propagate` runs the stages layer by layer; `propagate_backward` runs
their hand-written adjoints in reverse.  Layer 1 reuses the encoder's
relation projections as A_r; deeper layers own their own A_r sized to
that layer's input width, while the relation vectors e_r are shared at
every depth.  The outputs x^(0)..x^(L) are concatenated into one
stitched representation.

Each stage is a function of a `PropagationPlan` and arrays, and reads
its edges from the plan alone.  A graph builds its plan once and keeps
it.  The plan owns the entity count, each edge's head and tail, and four
groupings of the edges, each one `_Runs` (a stable permutation of the
edges plus its runs of equal keys): per head, per tail, and per distinct
(head, relation) and (tail, relation) pair.  A graph with no edges runs
through the same stages, on empty arrays.  pt = A_r x_t is made and
cached once per tail pair, and q = tanh(A_r x_h + e_r) once per head
pair (per edge in the printed form, which adds x_t inside tanh).

Per-edge terms exist about EDGE_BLOCK edges at a time, in one blocked
walk, `_Runs.sum` or `_Runs.per_edge`.  The logits and dL/dw are dot
products of gathered rows.  The summed terms are feature-major (width,
edges) blocks of columns gathered from the transposed x, dL/dmsg, pt
and q, and each run is reduced whole by one `np.add.reduceat` along the
columns.  That adds in the same order as along rows, only faster, so no
result depends on the block size or the layout.  Both passes are tested
against central differences and the per-edge kernel in tests/reference.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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


def printed_width_problem(dims, k: int) -> str | None:
    """Why the printed attention form cannot run on these layer widths, or None when it can."""
    if any(w != k for w in dims[:-1]):
        return (
            "printed attention form adds a raw tail vector inside tanh and "
            f"requires every layer input width to equal k={k}, got {list(dims)}"
        )
    return None


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
    if printed_attention and (problem := printed_width_problem(dims, k)):
        raise ConfigError(problem)
    w1, w2, attn = [], [], [None]
    for l in range(1, len(dims)):
        m = gaussian_init((dims[l], dims[l - 1]), std, rng.split(10, l))
        w1.append(m)
        w2.append(m if shared else gaussian_init((dims[l], dims[l - 1]), std, rng.split(20, l)))
        if l >= 2:
            attn.append(gaussian_init((n_relations, k, dims[l - 1]), std, rng.split(30, l)))
    return LayerStack(dims, w1, w2, attn, slope, shared, printed_attention)


EDGE_BLOCK = 8192  # edges whose per-edge terms (weighted tails, logits, gradients) exist at once


@dataclass
class _Runs:
    """Edges grouped by key: `order` lists them run by run, keys ascending.

    `sum` and `per_edge` walk `order` one block of whole runs at a time.
    """

    order: np.ndarray    # stable permutation of the edges that sorts their keys
    starts: np.ndarray   # first position of each run within `order`
    repeats: np.ndarray  # run lengths, aligned with starts
    ids: np.ndarray      # key of each run

    @classmethod
    def of(cls, keys: np.ndarray) -> "_Runs":
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        first = np.ones(len(keys), dtype=bool)
        first[1:] = sorted_keys[1:] != sorted_keys[:-1]
        starts = np.flatnonzero(first)
        return cls(order, starts, np.diff(np.append(starts, len(keys))), sorted_keys[starts])

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

    def sum(self, cols_of, width: int) -> np.ndarray:
        """Per run, the sum of the columns `cols_of(e)` over its edges e, as a (runs, width) array.

        `cols_of(e)` returns the terms of the edges e feature-major, a
        (width, len(e)) block.  Each block of `order` is reduced by one
        `np.add.reduceat` along its columns, written straight into that
        block's rows of the result.  Along the columns a run is summed in
        the same pairwise order as along the rows of the transposed block,
        so the layout changes the speed, not the bits.
        """
        out = np.empty((len(self.starts), width))
        for runs, lo, hi in self.blocks:
            block = cols_of(self.order[lo:hi])
            if block.shape != (width, hi - lo):
                raise ShapeError(f"edge block of shape {block.shape}, expected feature-major {(width, hi - lo)}")
            np.add.reduceat(block, self.starts[runs] - lo, axis=1, out=out[runs].T)
            del block  # freed before the next block is made, so only one exists at a time
        return out

    def per_edge(self, values_of) -> np.ndarray:
        """`values_of(order)` in run order, with values_of called on one block of `order` at a time."""
        out = np.empty(len(self.order))
        for _, lo, hi in self.blocks:
            out[lo:hi] = values_of(self.order[lo:hi])
        return out

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

    entity: np.ndarray    # entity of each pair
    relation: np.ndarray  # relation of each pair
    of_edge: np.ndarray   # pair of each edge
    runs: _Runs           # each pair's edges; run i is pair i, keyed relation * n_entities + entity
    relations: list[tuple[int, slice]]  # (relation id, its pairs)

    @classmethod
    def of(cls, ends: np.ndarray, rels: np.ndarray, n_entities: int) -> "_Pairs":
        runs = _Runs.of(rels * n_entities + ends)
        relation, entity = np.divmod(runs.ids, n_entities)
        of_edge = np.empty_like(runs.order)
        of_edge[runs.order] = np.repeat(np.arange(len(runs.ids)), runs.repeats)
        by_rel = _Runs.of(relation)
        relations = [(int(r), slice(int(a), int(a + n))) for r, a, n in zip(by_rel.ids, by_rel.starts, by_rel.repeats)]
        return cls(entity, relation, of_edge, runs, relations)

    def project(self, x: np.ndarray, a: np.ndarray) -> np.ndarray:
        """A_r x_e for every pair (e, r); row `of_edge[i]` serves edge i."""
        out = np.empty((len(self.entity), a.shape[1]))
        for rel, pairs in self.relations:
            out[pairs] = x[self.entity[pairs]] @ a[rel].T
        return out

    def project_backward(self, g_of_edges, x, a, g_a, g_x) -> np.ndarray:
        """Adds the adjoint of `project` into g_a and g_x; returns the edge gradients summed per pair.

        g_of_edges(e) gives the gradients of the edges e, feature-major (k, len(e)).
        """
        g = self.runs.sum(g_of_edges, a.shape[1])
        for rel, pairs in self.relations:
            ents = self.entity[pairs]
            g_a[rel] += g[pairs].T @ x[ents]
            g_x[ents] += g[pairs] @ a[rel]
        return g


class PropagationPlan:
    """A graph's entity count, edge ends and edge groupings: all that the stages read of the graph.

    Built once per graph (`CollaborativeKG.propagation_plan`).  The graph's
    edges are sorted by head, so the heads' `order` is the edge order
    itself, and per-edge arrays made over the heads (logits, weights) are
    indexed by edge.
    """

    def __init__(self, kg: CollaborativeKG):
        self.n_entities = kg.entity_count
        self.edge_heads = kg.heads
        self.edge_tails = kg.tails
        self.heads = _Runs.of(kg.heads)
        self.tails = _Runs.of(kg.tails)
        self.head_pairs = _Pairs.of(kg.heads, kg.rels, kg.entity_count)
        self.tail_pairs = _Pairs.of(kg.tails, kg.rels, kg.entity_count)


@dataclass
class _LayerCache:
    pt: np.ndarray      # A_r x_t, feature-major (k, tail pairs): one column per tail pair
    q: np.ndarray       # tanh(A_r x_h + e_r), feature-major: one column per head pair (per edge when printed)
    q_rows: np.ndarray  # column of q for each edge
    w: np.ndarray
    msg: np.ndarray
    a1: np.ndarray
    a2: np.ndarray


@dataclass
class PropagationResult:
    """Per-layer entity matrices plus everything the backward pass replays."""

    layers: list[np.ndarray]
    stitched: np.ndarray
    cache: list[_LayerCache] = field(repr=False, default_factory=list)


def _scaled(cols: np.ndarray, rows: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Columns `rows` of the feature-major `cols`, column i times scale[i]."""
    t = np.take(cols, rows, axis=1)
    t *= scale  # in place: one block-sized temporary, not two
    return t


def attend(plan: PropagationPlan, x, a, relation, printed: bool):
    """Project, tanh, logits and softmax of one layer: (pt, q, q_rows, w), with pt and q feature-major."""
    pt = plan.tail_pairs.project(x, a)
    q = plan.head_pairs.project(x, a)
    if printed:
        # the tail inside tanh makes every edge's argument its own
        q = q[plan.head_pairs.of_edge]
        q += x[plan.edge_tails]
        q_rows = plan.heads.order  # the edge order itself
    else:
        q += relation[plan.head_pairs.relation]
        q_rows = plan.head_pairs.of_edge
    np.tanh(q, out=q)
    logits = plan.heads.per_edge(lambda e: np.einsum("ij,ij->i", pt[plan.tail_pairs.of_edge[e]], q[q_rows[e]]))
    w = plan.heads.softmax(logits)
    # the walks gather columns of pt and q: keep them feature-major, not also edge-major
    pt = np.ascontiguousarray(pt.T)
    q = np.ascontiguousarray(q.T)
    return pt, q, q_rows, w


def aggregate(plan: PropagationPlan, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Each entity's message e_N(h) = sum of w(h,r,t) x_t over its edges, a zero row where it heads none."""
    x_cols = np.ascontiguousarray(x.T)
    msg = np.zeros((plan.n_entities, x.shape[1]))
    msg[plan.heads.ids] = plan.heads.sum(lambda e: _scaled(x_cols, plan.edge_tails[e], w[e]), x.shape[1])
    return msg


def bi_interaction(x, msg, w1, w2, slope: float):
    """The dense step: (a1, a2, x') with a1 = W1 (x + e_N), a2 = W2 (x * e_N), x' = LeakyReLU(a1) + LeakyReLU(a2)."""
    a1 = (x + msg) @ w1.T
    a2 = (x * msg) @ w2.T
    return a1, a2, leaky_relu(a1, slope) + leaky_relu(a2, slope)


def bi_interaction_backward(x, c: _LayerCache, g, w1, w2, slope: float):
    """Adjoint of `bi_interaction` from g = dL/dx': (dL/dW1, dL/dW2, dL/dx through it, dL/de_N)."""
    g_a1 = g * leaky_relu_grad(c.a1, slope)
    g_a2 = g * leaky_relu_grad(c.a2, slope)
    g_sum = g_a1 @ w1
    g_prod = g_a2 @ w2
    return g_a1.T @ (x + c.msg), g_a2.T @ (x * c.msg), g_sum + g_prod * c.msg, g_sum + g_prod * x


def aggregate_backward(plan: PropagationPlan, x, w, g_msg):
    """Adjoint of `aggregate`: (dL/dw, the message part of dL/dx_t as a function of edges)."""
    g_w = plan.heads.per_edge(lambda e: np.einsum("ij,ij->i", g_msg[plan.edge_heads[e]], x[plan.edge_tails[e]]))
    g_msg_cols = np.ascontiguousarray(g_msg.T)
    return g_w, lambda e: _scaled(g_msg_cols, plan.edge_heads[e], w[e])


def attend_backward(plan: PropagationPlan, x, a, c: _LayerCache, g_w, g_tail, printed: bool, g_x, g_a, g_relation):
    """Adjoint of `attend` from dL/dw, added into g_x, g_a and g_relation; dL/dx_t also sums `g_tail`."""
    g_logit = plan.heads.softmax_backward(c.w, g_w)
    tanh_slope = 1.0 - c.q * c.q

    def g_arg(e):
        """dL/d(argument of tanh) on edges e: (dL/dlogit * pt) * (1 - q^2), with 1 - q^2 per column of q."""
        t = _scaled(c.pt, plan.tail_pairs.of_edge[e], g_logit[e])
        t *= np.take(tanh_slope, c.q_rows[e], axis=1)
        return t

    def g_tails(e):  # dL/dx_t on edges e: through the message, and through tanh in the printed form
        t = g_tail(e)
        return np.add(t, g_arg(e), out=t) if printed else t

    g_x[plan.tails.ids] += plan.tails.sum(g_tails, x.shape[1])
    g_head = plan.head_pairs.project_backward(g_arg, x, a, g_a, g_x)
    plan.tail_pairs.project_backward(lambda e: _scaled(c.q, c.q_rows[e], g_logit[e]), x, a, g_a, g_x)
    if not printed:
        for rel, pairs in plan.head_pairs.relations:
            g_relation[rel] += g_head[pairs].sum(axis=0)


def propagate(kg: CollaborativeKG, table: EmbeddingTable, stack: LayerStack) -> PropagationResult:
    """Run every layer synchronously and stitch x^(0)..x^(L) per entity."""
    if table.entity.shape[1] != stack.dims[0]:
        raise ShapeError(f"entity width {table.entity.shape[1]} != first layer width {stack.dims[0]}")
    plan = kg.propagation_plan
    x = table.entity
    layers, cache = [x], []
    # overflow from diverging parameters surfaces as non-finite losses,
    # which the loss layers turn into NumericFaultError; warnings off here
    with np.errstate(invalid="ignore", over="ignore"):
        for l in range(1, stack.n_layers + 1):
            a = table.projection if l == 1 else stack.attn[l - 1]
            pt, q, q_rows, w = attend(plan, x, a, table.relation, stack.printed_attention)
            msg = aggregate(plan, x, w)
            a1, a2, x = bi_interaction(x, msg, stack.w1[l - 1], stack.w2[l - 1], stack.slope)
            cache.append(_LayerCache(pt, q, q_rows, w, msg, a1, a2))
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
    flat dict under the table's and then the stack's parameter names.
    """
    if grad_stitched.shape != (table.n_entities, stack.stitched_dim):
        raise ShapeError(f"stitched gradient shape {grad_stitched.shape} != {(table.n_entities, stack.stitched_dim)}")
    plan = kg.propagation_plan
    grads = {name: np.zeros_like(p) for name, p in {**table.params(), **stack.params()}.items()}
    g_layers = np.split(grad_stitched, np.cumsum(stack.dims)[:-1], axis=1)  # dL/dx^(l) for each l

    g = g_layers[stack.n_layers].copy()
    for l in range(stack.n_layers, 0, -1):
        x, c = result.layers[l - 1], result.cache[l - 1]
        g_w1, g_w2, g_x, g_msg = bi_interaction_backward(x, c, g, stack.w1[l - 1], stack.w2[l - 1], stack.slope)
        grads[f"w1.{l}"] += g_w1
        grads[f"w{1 if stack.shared else 2}.{l}"] += g_w2
        g_w, g_tail = aggregate_backward(plan, x, c.w, g_msg)
        del g_msg  # only its columns are read from here on
        a, g_a = (table.projection, grads["projection"]) if l == 1 else (stack.attn[l - 1], grads[f"attn.{l}"])
        attend_backward(plan, x, a, c, g_w, g_tail, stack.printed_attention, g_x, g_a, grads["relation"])
        g_x += g_layers[l - 1]
        g = g_x
    grads["entity"] += g
    return grads
