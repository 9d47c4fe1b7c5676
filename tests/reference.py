"""Independently coded brute-force references for the oracle tests.

Everything here is written the slow, obvious way — per-entity loops,
explicit neighbor scans over the raw triple list, textbook softmax —
and deliberately shares no code with the package's vectorized
implementations.
"""

import json
import math
import struct
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


def truth_by_user_reference(pairs):
    """{user: set of items}, one `setdefault` per (user, item) pair in pair order."""
    out = {}
    for u, i in pairs.tolist():
        out.setdefault(u, set()).add(i)
    return out


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


def row_sums_reference(index, terms, n_rows):
    """Rows of `terms` summed by target row: np.add.at into zeros."""
    out = np.zeros((n_rows, np.shape(terms)[1]))
    np.add.at(out, np.asarray(index, dtype=np.int64), terms)
    return out


def type_bits_reference(rows, codes, n_rows, n_names):
    """(n_rows, words) uint64 bit sets built with Python integers, one bit at a time."""
    words = max(1, -(-n_names // 64))
    sets = [0] * n_rows
    for r, c in zip(rows, codes):
        sets[r] |= 1 << int(c)
    out = np.zeros((n_rows, words), dtype=np.uint64)
    for r, s in enumerate(sets):
        for w in range(words):
            out[r, w] = (s >> (64 * w)) & (2**64 - 1)
    return out


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


def runs_sum_edge_major(runs, rows_of):
    """Per run of `runs`, the sum of the edge-major rows `rows_of(e)` (len(e), width) over its edges.

    The edge-major form of the blocked walk: one `np.add.reduceat` along
    axis 0 per block of `runs.order`.  It reads `order`, `starts` and
    `blocks` by attribute only.
    """
    return np.concatenate(
        [np.add.reduceat(rows_of(runs.order[lo:hi]), runs.starts[b] - lo) for b, lo, hi in runs.blocks]
    )


def pairs_reference(ends, rels, n_entities):
    """The distinct (relation, entity) pairs of one edge end, from a dict of edge lists.

    Returns (pairs, edges, of_edge, relations): the pairs in ascending
    (relation, entity) order, each pair's edges in edge order, the pair
    number of each edge, and (relation, slice of its pairs) per relation.
    """
    by_pair = {}
    for e, (r, x) in enumerate(zip(np.asarray(rels).tolist(), np.asarray(ends).tolist())):
        assert 0 <= x < n_entities
        by_pair.setdefault((r, x), []).append(e)
    pairs = sorted(by_pair)
    number = {p: i for i, p in enumerate(pairs)}
    of_edge = [0] * sum(map(len, by_pair.values()))
    for p, edges in by_pair.items():
        for e in edges:
            of_edge[e] = number[p]
    relations = []
    for i, (r, _) in enumerate(pairs):
        if relations and relations[-1][0] == r:
            relations[-1] = (r, slice(relations[-1][1].start, i + 1))
        else:
            relations.append((r, slice(i, i + 1)))
    return pairs, [by_pair[p] for p in pairs], of_edge, relations


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


def parse_interactions_records(path, format="tsv", strict=False):
    """(ratings, issues); each issue is (line, message, raw)."""
    sep = {"tsv": "\t", "csv": ","}[format]
    ratings, issues = [], []
    n_lines = 0
    with open(path, encoding="utf-8-sig") as fh:
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
                    else:
                        if not -2**63 < ts < 2**63:  # int64 min is the parser's "no timestamp"
                            issue = f"timestamp is out of the 64-bit range: {fields[3]!r}"
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


def parse_attribute_triples_text_mode(path):
    """(triples, issues) of an attribute file iterated in text mode; each issue is (line, message, raw)."""
    triples, issues = [], []
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = [f.strip() for f in line.split("\t")]
            if len(fields) == 3 and all(fields):
                triples.append(tuple(fields))
            else:
                issues.append((lineno, f"expected 3 non-empty tab-separated fields, got {len(fields)}", line))
    return triples, issues


def manifest_counts_text_mode(path):
    """The counts a manifest iterated in text mode announces, later lines winning.

    A line that is not `key = integer` raises RecordError, with the message the package gives.
    """
    counts = {}
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise RecordError(f"{path}:{lineno}: expected `key = value`, got {line.strip()!r}")
            key, _, value = body.partition("=")
            try:
                counts[key.strip()] = int(value.strip())
            except ValueError:
                raise RecordError(f"{path}:{lineno}: count is not an integer: {value.strip()!r}")
    return counts


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
            out[at] = InteractionRecord(prev.user, prev.item, prev.types | rec.types, prev.timestamp)
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
                where = f"record {pos + 1}, user={rec.user!r}, item={rec.item!r}"
                raise RecordError(f"empty interaction-type set ({where})")
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


def checkpoint_v2_reference(user_side, item_side, dims, metadata, serving):
    """Version-2 checkpoint bytes, written field by field from raw arrays.

    Each side is (entity, relation, projection, w1, w2, attn): the (N, d),
    (M, k) and (M, k, d) table arrays, then per-layer lists where w1[l-1]
    and w2[l-1] belong to layer l, w2 is None for shared aggregator
    weights, and attn[l-1] is read for l >= 2 only.  `serving` is
    (users, items, train_ptr, train_items): the final user and item
    matrices, then each user's training items as CSR rows.  The three
    serving counts follow the layer widths in the header, and the four
    blocks follow the parameter blocks.  `metadata` is the complete JSON
    object, flags included.
    """
    n_layers = len(dims) - 1
    (n_u, d), (m_u, k) = user_side[0].shape, user_side[1].shape
    n_i, m_i = item_side[0].shape[0], item_side[1].shape[0]
    out = bytearray(b"CKGR")
    out += bytes([2])
    users, items, train_ptr, train_items = serving
    for value in (n_u, m_u, n_i, m_i, d, k, n_layers, *dims, len(users), len(items), len(train_items)):
        out += struct.pack("<I", value)

    def put(array, code="<d"):
        for value in np.asarray(array).flatten().tolist():
            out.extend(struct.pack(code, value))

    for entity, relation, projection, w1, w2, attn in (user_side, item_side):
        put(entity)
        put(relation)
        put(projection)
        for l in range(1, n_layers + 1):
            put(w1[l - 1])
            put(w1[l - 1] if w2 is None else w2[l - 1])  # shared weights store W1 again
            if l >= 2:
                put(attn[l - 1])
    put(users)
    put(items)
    put(train_ptr, "<q")
    put(train_items, "<q")
    blob = json.dumps(metadata, sort_keys=True, separators=(",", ":")).encode("utf-8")
    out += struct.pack("<Q", len(blob))
    out += blob
    return bytes(out)
