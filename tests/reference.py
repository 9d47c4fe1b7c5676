"""Independently coded brute-force references for the oracle tests.

Everything here is written the slow, obvious way — per-entity loops,
explicit neighbor scans over the raw triple list, textbook softmax —
and deliberately shares no code with the package's vectorized
implementations.
"""

import math
from dataclasses import dataclass

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


def precision_recall_at_k(recommended, ground_truth, k: int):
    """(|hits|/K, |hits|/|truth|); the caller skips users with empty truth."""
    if k < 1:
        raise ValueError(f"K must be >= 1, got {k}")
    truth = set(ground_truth)
    if not truth:
        raise ValueError("ground truth is empty; exclude this user from averages")
    hits = sum(1 for i in recommended if int(i) in truth)
    return hits / k, hits / len(truth)


def topk_reference(scores, k, exclude=None):
    """Top-k ids of one score row: a stable argsort of the negated scores
    (ties by ascending id, NaN last) with the excluded ids dropped."""
    order = np.argsort(-scores, kind="stable")
    if exclude is not None and len(exclude):
        mask = np.zeros(len(scores), dtype=bool)
        mask[list(exclude)] = True
        order = order[~mask[order]]
    return order[:k]


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
        top = topk_reference(score_matrix[u], k, train_items.get(u, ()))
        hits = sum(1 for i in top if int(i) in truth[u])
        precisions.append(hits / k)
        recalls.append(hits / len(truth[u]))
    if not precisions:
        return float("nan"), float("nan")
    return float(np.mean(precisions)), float(np.mean(recalls))


def kg_loss_dense_reference(table, batch):
    """Encoding loss with gradients scattered into table-shaped zero arrays.

    Relation by relation, four np.add.at scatters (h, t, h', t') write
    the entity gradient.  Reads the table and batch by attribute only;
    the sigmoid and softplus are the package's formulas written out, so
    the results are bitwise comparable.
    """
    h, r, t = batch.h, batch.r, batch.t
    hn, tn = batch.h_neg, batch.t_neg
    n_pairs = len(h)
    k = table.relation.shape[1]
    grad_entity = np.zeros_like(table.entity)
    grad_relation = np.zeros_like(table.relation)
    grad_projection = np.zeros_like(table.projection)
    grads = {"entity": grad_entity, "relation": grad_relation, "projection": grad_projection}
    if n_pairs == 0:
        return 0.0, grads

    d_pos = np.empty((n_pairs, k))
    d_neg = np.empty((n_pairs, k))
    for rel in np.unique(r):
        rows = np.nonzero(r == rel)[0]
        w = table.projection[rel]
        e_r = table.relation[rel]
        d_pos[rows] = (table.entity[h[rows]] - table.entity[t[rows]]) @ w.T + e_r
        d_neg[rows] = (table.entity[hn[rows]] - table.entity[tn[rows]]) @ w.T + e_r
    g_pos = np.einsum("ij,ij->i", d_pos, d_pos)
    g_neg = np.einsum("ij,ij->i", d_neg, d_neg)
    delta = g_neg - g_pos
    losses = np.logaddexp(0.0, -delta)
    sig = np.empty_like(delta)
    pos = delta >= 0
    sig[pos] = 1.0 / (1.0 + np.exp(-delta[pos]))
    ex = np.exp(delta[~pos])
    sig[~pos] = ex / (1.0 + ex)
    coeff = sig - 1.0

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
    return float(np.sum(losses)), grads


# ---------------------------------------------------------------------------
# Edgewise propagation kernel: every edge projects its own head and tail
# with A_r, and messages and gradients are scattered edge by edge with
# np.add.at.  It reads the graph, table and stack by attribute only and
# returns plain containers with the fields the package's result carries.


class _EdgewiseSegments:
    def __init__(self, kg):
        # the graph's triples are sorted by head: one run per distinct head
        _, self.starts, self.repeats = np.unique(kg.heads, return_index=True, return_counts=True)

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


# ---------------------------------------------------------------------------
# Record-path world build: one object per parsed line and per interaction,
# dicts and sets throughout.  The oracle for the columnar tables.


class RecordError(ValueError):
    """Raised where the package raises FormatError or ConfigError, with the same message."""


@dataclass(frozen=True)
class RawRating:
    user: str
    item: str
    value: object  # float rating or interaction-type name
    timestamp: object = None


@dataclass(frozen=True)
class InteractionRecord:
    user: str
    item: str
    types: frozenset
    timestamp: object = None
    line: object = None


def parse_interactions_records(path, format="tsv", strict=False):
    """(ratings, issues); each issue is (line, message, raw)."""
    sep = {"tsv": "\t", "csv": ","}[format]
    ratings, issues = [], []
    n_lines = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            n_lines += 1
            fields = [f.strip() for f in line.split(sep)]
            issue = None
            if len(fields) not in (3, 4):
                issue = f"expected 3 or 4 fields, got {len(fields)}"
            elif not fields[0] or not fields[1]:
                issue = "empty user or item id"
            elif not fields[2]:
                issue = "empty value field"
            else:
                ts = None
                if len(fields) == 4:
                    try:
                        ts = int(fields[3])
                    except ValueError:
                        issue = f"timestamp is not an integer: {fields[3]!r}"
                if issue is None:
                    try:
                        value = float(fields[2])
                    except ValueError:
                        value = fields[2]
                    ratings.append(RawRating(fields[0], fields[1], value, ts))
                    continue
            if strict:
                raise RecordError(f"{path}:{lineno}: {issue}")
            issues.append((lineno, issue, line))
    if n_lines > 0 and not ratings:
        raise RecordError(f"{path}: no valid interaction rows among {n_lines} lines")
    return ratings, issues


def to_implicit_records(ratings, threshold=float("-inf")):
    out = []
    for r in ratings:
        if isinstance(r.value, float):
            if r.value >= threshold:
                out.append(InteractionRecord(r.user, r.item, frozenset({"rated"}), r.timestamp))
        else:
            out.append(InteractionRecord(r.user, r.item, frozenset({r.value}), r.timestamp))
    return out


def merge_records(records):
    at_of = {}
    out = []
    for rec in records:
        at = at_of.get((rec.user, rec.item))
        if at is None:
            at_of[(rec.user, rec.item)] = len(out)
            out.append(rec)
        else:
            prev = out[at]
            out[at] = InteractionRecord(prev.user, prev.item, prev.types | rec.types, prev.timestamp, prev.line)
    return out


def filter_min_interactions_records(records, n):
    counts = {}
    for rec in records:
        counts[rec.user] = counts.get(rec.user, 0) + 1
    return [rec for rec in records if counts[rec.user] >= n]


def split_records(records, ratios, seed):
    """(train, validation, test): per user in first-seen order, shuffle, cut with stochastic rounding."""
    by_user = {}
    for rec in records:
        by_user.setdefault(rec.user, []).append(rec)
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 501))))
    train, val, test = [], [], []
    for recs in by_user.values():
        n = len(recs)
        if n < 3:
            train.extend(recs)
            continue
        order = gen.permutation(n)
        cut = []
        for fraction in ratios[1:]:
            exact = n * fraction
            cut.append(int(exact) + (1 if gen.random() < exact - int(exact) else 0))
        n_val, n_test = cut
        while n - n_val - n_test < 1:
            if n_test > 0:
                n_test -= 1
            else:
                n_val -= 1
        shuffled = [recs[i] for i in order]
        train.extend(shuffled[: n - n_val - n_test])
        val.extend(shuffled[n - n_val - n_test: n - n_test])
        test.extend(shuffled[n - n_test:])
    return train, val, test


def bipartite_records(records, order="first-seen", vocab_records=None):
    """(user tokens, item tokens, edges); an edge is (user id, item id, type set)."""
    source = records if vocab_records is None else vocab_records
    for recs in (source, records):
        for pos, rec in enumerate(recs):
            if not rec.types:
                where = f"line {rec.line}" if rec.line is not None else f"record {pos + 1}"
                raise RecordError(f"empty interaction-type set ({where}, user={rec.user!r}, item={rec.item!r})")
    users, items = {}, {}
    if order == "sorted":
        for u in sorted({r.user for r in source}):
            users[u] = len(users)
        for i in sorted({r.item for r in source}):
            items[i] = len(items)
    else:
        for rec in source:
            users.setdefault(rec.user, len(users))
            items.setdefault(rec.item, len(items))
    edges, at_of = [], {}
    for rec in records:
        key = (users[rec.user], items[rec.item])  # every edge entity is in the vocabulary records
        if key in at_of:
            u, i, types = edges[at_of[key]]
            edges[at_of[key]] = (u, i, types | rec.types)
        else:
            at_of[key] = len(edges)
            edges.append((*key, rec.types))
    return list(users), list(items), edges


def graph_side_records(user_tokens, item_tokens, edges, attrs, head_is_user):
    """One collaborative graph as plain lists, triples in insertion order.

    Returns entity_count, relations as (kind, label) by id, heads, rels,
    tails, entity names and (interaction, attribute, duplicate) counts.
    """
    n_u, n_i = len(user_tokens), len(item_tokens)
    relations, by_types, by_name = [], {}, {}
    heads, rels, tails = [], [], []
    for u, i, types in edges:
        if types not in by_types:
            by_types[types] = len(relations)
            kind = "interaction" if len(types) == 1 else "composite-interaction"
            relations.append((kind, "|".join(sorted(types))))
        heads.append(u if head_is_user else i)
        tails.append(n_u + i if head_is_user else n_i + u)
        rels.append(by_types[types])
    n_interactions = len(heads)
    head_ids = {t: h for h, t in enumerate(item_tokens if head_is_user else user_tokens)}
    head_base = n_u if head_is_user else n_i
    kind = "item-attribute" if head_is_user else "user-attribute"
    attr_tokens, seen, unresolved, duplicates = [], set(), [], 0
    for h_tok, rel_name, t_tok in attrs:
        if h_tok not in head_ids:
            unresolved.append(h_tok)
            continue
        if rel_name not in by_name:
            by_name[rel_name] = len(relations)
            relations.append((kind, rel_name))
        if t_tok not in attr_tokens:
            attr_tokens.append(t_tok)
        triple = (head_base + head_ids[h_tok], by_name[rel_name], n_u + n_i + attr_tokens.index(t_tok))
        if triple in seen:
            duplicates += 1
            continue
        seen.add(triple)
        heads.append(triple[0])
        rels.append(triple[1])
        tails.append(triple[2])
    if unresolved:
        side = "item" if head_is_user else "user"
        raise RecordError(f"attribute triples reference unknown {side} heads: {', '.join(sorted(set(unresolved)))}")
    users = [("user", t) for t in user_tokens]
    items = [("item", t) for t in item_tokens]
    names = (users + items if head_is_user else items + users) + [("attr", t) for t in attr_tokens]
    counts = (n_interactions, len(heads) - n_interactions, duplicates)
    return n_u + n_i + len(attr_tokens), relations, heads, rels, tails, names, counts


def pairs_records(records, user_tokens, item_tokens):
    users = {t: u for u, t in enumerate(user_tokens)}
    items = {t: i for i, t in enumerate(item_tokens)}
    out = [(users[r.user], items[r.item]) for r in records if r.user in users and r.item in items]
    return np.array(out, dtype=np.int64).reshape(-1, 2)


def world_records(path, user_attrs, item_attrs, format="tsv", threshold=float("-inf"),
                  min_interactions=0, ratios=(0.8, 0.1, 0.1), seed=0, order="first-seen"):
    """Every stage of the world build, as the package's `cli` chains them."""
    ratings, issues = parse_interactions_records(path, format)
    records = filter_min_interactions_records(merge_records(to_implicit_records(ratings, threshold)), min_interactions)
    train, val, test = split_records(records, ratios, seed)
    user_tokens, item_tokens, edges = bipartite_records(train, order, records)
    return {
        "ratings": ratings,
        "issues": issues,
        "records": records,
        "split": (train, val, test),
        "user_tokens": user_tokens,
        "item_tokens": item_tokens,
        "user_side": graph_side_records(user_tokens, item_tokens, edges, item_attrs, True),
        "item_side": graph_side_records(user_tokens, item_tokens, edges, user_attrs, False),
        "pairs": tuple(pairs_records(part, user_tokens, item_tokens) for part in (train, val, test)),
    }
