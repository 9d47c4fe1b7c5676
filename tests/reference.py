"""Independently coded brute-force references for the oracle tests.

Everything here is written the slow, obvious way — per-entity loops,
explicit neighbor scans over the raw triple list, textbook softmax —
and deliberately shares no code with the package's vectorized
implementations.
"""

import math

import numpy as np


def energy_reference(w, e_h, e_r, e_t):
    """||W e_h + e_r - W e_t||^2, evaluated directly."""
    v = np.dot(w, e_h) + e_r - np.dot(w, e_t)
    return float(np.dot(v, v))


def aggregate_reference(e_h, e_n, w1, w2, slope):
    """LeakyReLU(W1 (h+n)) + LeakyReLU(W2 (h*n)) from the printed formula."""
    def act(v):
        return np.array([x if x >= 0 else slope * x for x in v])

    return act(np.dot(w1, e_h + e_n)) + act(np.dot(w2, e_h * e_n))


def logit_reference(a_r, e_r, x_h, x_t):
    """Attention logit (A_r x_t)^T tanh(A_r x_h + e_r) of one edge."""
    return float(np.dot(np.dot(a_r, x_t), np.tanh(np.dot(a_r, x_h) + e_r)))


def softmax_reference(logits):
    m = max(logits)
    exps = [math.exp(v - m) for v in logits]
    z = sum(exps)
    return [e / z for e in exps]


def propagate_reference(
    triples,
    entity,
    relation,
    projection,
    attn,
    w1,
    w2,
    slope,
    entity_order=None,
):
    """Multi-layer propagation, one entity at a time.

    triples: list of (h, r, t).  attn[l] is the attention projection
    stack used by layer l+1 (attn[0] must be the encoder projections).
    entity_order optionally scrambles the per-layer processing order to
    demonstrate results do not depend on it.  Returns the per-entity
    stitched matrix.
    """
    n = len(entity)
    n_layers = len(w1)
    x = [np.array(entity[e], dtype=float) for e in range(n)]
    collected = [[v.copy() for v in x]]

    for layer in range(1, n_layers + 1):
        a = attn[layer - 1]
        order = entity_order(n, layer) if entity_order else range(n)
        new = [None] * n
        for h in order:
            nbrs = [(r, t) for (hh, r, t) in triples if hh == h]
            if nbrs:
                logits = [logit_reference(a[r], relation[r], x[h], x[t]) for r, t in nbrs]
                weights = softmax_reference(logits)
                msg = np.zeros(len(x[h]))
                for w_n, (r, t) in zip(weights, nbrs):
                    msg = msg + w_n * x[t]
            else:
                msg = np.zeros(len(x[h]))
            new[h] = aggregate_reference(x[h], msg, w1[layer - 1], w2[layer - 1], slope)
        x = new
        collected.append([v.copy() for v in x])

    return np.array([np.concatenate([collected[l][e] for l in range(n_layers + 1)]) for e in range(n)])


def rank_and_score_reference(score_matrix, train_items, truth, k):
    """Macro Precision@K / Recall@K, ranking one user at a time.

    Each user's items are fully sorted by descending score with a stable
    argsort (ties by ascending id), training items are dropped, and the
    first k remain.
    """
    precisions, recalls = [], []
    for u in sorted(truth):
        if not truth[u]:
            continue
        scores = score_matrix[u]
        order = np.argsort(-scores, kind="stable")
        exclude = train_items.get(u, ())
        if len(exclude):
            mask = np.zeros(len(scores), dtype=bool)
            mask[list(exclude)] = True
            order = order[~mask[order]]
        top = order[:k]
        hits = sum(1 for i in top if int(i) in truth[u])
        precisions.append(hits / k)
        recalls.append(hits / len(truth[u]))
    if not precisions:
        return float("nan"), float("nan")
    return float(np.mean(precisions)), float(np.mean(recalls))


# ---------------------------------------------------------------------------
# Edgewise propagation kernel: every edge projects its own head and tail
# with A_r, and messages and gradients are scattered edge by edge with
# np.add.at.  It reads the graph, table and stack by attribute only and
# returns plain containers with the fields the package's result carries.


class _EdgewiseSegments:
    def __init__(self, kg):
        counts = np.diff(kg.head_ptr)
        nz = counts > 0
        self.starts = kg.head_ptr[:-1][nz].astype(np.int64)
        self.repeats = counts[nz]

    def softmax(self, logits):
        with np.errstate(invalid="ignore", over="ignore"):
            m = np.maximum.reduceat(logits, self.starts)
            ex = np.exp(logits - np.repeat(m, self.repeats))
            z = np.add.reduceat(ex, self.starts)
            return ex / np.repeat(z, self.repeats)

    def softmax_backward(self, w, g_w):
        dots = w * g_w
        inner = np.add.reduceat(dots, self.starts)
        return dots - w * np.repeat(inner, self.repeats)


def _leaky_relu(x, slope):
    return np.where(x >= 0.0, x, slope * x)


def _leaky_relu_grad(x, slope):
    return np.where(x >= 0.0, 1.0, slope)


def _relation_groups(kg):
    return [(int(rel), np.nonzero(kg.rels == rel)[0]) for rel in np.unique(kg.rels)]


class EdgewiseCache:
    def __init__(self, pt, q, w, msg, a1, a2):
        self.pt, self.q, self.w, self.msg, self.a1, self.a2 = pt, q, w, msg, a1, a2


class EdgewiseResult:
    def __init__(self, layers, stitched, cache):
        self.layers, self.stitched, self.cache = layers, stitched, cache


def propagate_edgewise(kg, table, stack):
    """Every layer of attentive propagation, one projection per edge end."""
    n = table.n_entities
    n_edges = len(kg.heads)
    seg = _EdgewiseSegments(kg)
    groups = _relation_groups(kg)

    x = table.entity
    layers = [x]
    cache = []
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
            cache.append(EdgewiseCache(pt, q, w, msg, a1, a2))
            x = _leaky_relu(a1, stack.slope) + _leaky_relu(a2, stack.slope)
            layers.append(x)
    return EdgewiseResult(layers, np.concatenate(layers, axis=1), cache)


def propagate_backward_edgewise(kg, table, stack, result, grad_stitched):
    """Gradients of `propagate_edgewise`, scattered edge by edge."""
    seg = _EdgewiseSegments(kg)
    groups = _relation_groups(kg)

    grads = {
        "entity": np.zeros_like(table.entity),
        "relation": np.zeros_like(table.relation),
        "projection": np.zeros_like(table.projection),
    }
    for name, p in stack.params().items():
        grads[name] = np.zeros_like(p)

    splits = np.cumsum(stack.dims)[:-1]
    g_layers = np.split(grad_stitched, splits, axis=1)

    g = g_layers[stack.n_layers].copy()
    for l in range(stack.n_layers, 0, -1):
        x = result.layers[l - 1]
        c = result.cache[l - 1]
        g_a1 = g * _leaky_relu_grad(c.a1, stack.slope)
        g_a2 = g * _leaky_relu_grad(c.a2, stack.slope)
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
