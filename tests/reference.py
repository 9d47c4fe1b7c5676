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
