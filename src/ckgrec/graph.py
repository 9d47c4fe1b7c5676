"""Interaction graph and collaborative knowledge-graph construction.

Two directed knowledge graphs are built from the same interaction data:

* the user-side graph points each user at the items it interacted with,
  then hangs item attributes off the items;
* the item-side graph points each item at its users, then hangs user
  attributes off the users.

Each distinct set of interaction types on an edge is one relation, so
an edge carrying both "like" and "favorite" gets a composite relation
whose space the encoder learns apart from either type alone.  A graph
keeps its relations as (kind, label) rows by id.  Graphs are immutable
after construction, their triples sorted by head.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import FormatError, UnresolvedEntityError
from .table import Interactions, first_seen, first_seen_groups

INTERACTION = "interaction"
COMPOSITE_INTERACTION = "composite-interaction"
USER_ATTRIBUTE = "user-attribute"
ITEM_ATTRIBUTE = "item-attribute"


class Vocab:
    """Dense id assignment for string tokens; ids round-trip to tokens."""

    def __init__(self, tokens=()):
        self._tokens: list[str] = list(dict.fromkeys(tokens))
        self._index: dict[str, int] = {t: i for i, t in enumerate(self._tokens)}

    def id_of(self, token: str) -> int:
        return self._index[token]

    def ids_of(self, tokens) -> np.ndarray:
        """Ids of `tokens`, -1 for tokens outside the vocabulary."""
        return np.array([self._index.get(t, -1) for t in tokens], dtype=np.int64)

    def tokens(self) -> list[str]:
        return list(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def __len__(self) -> int:
        return len(self._tokens)


@dataclass
class BipartiteGraph:
    """User-item interaction graph; one edge per (user, item) pair.

    `edges` is a table whose user and item codes are vocabulary ids.
    """

    user_vocab: Vocab
    item_vocab: Vocab
    edges: Interactions

    @property
    def n_users(self) -> int:
        return len(self.user_vocab)

    @property
    def n_items(self) -> int:
        return len(self.item_vocab)


def _require_types(records: Interactions) -> None:
    empty = np.flatnonzero(~records.types.any(axis=1))
    if len(empty):
        pos = int(empty[0])
        user, item = records.user_tokens[records.user[pos]], records.item_tokens[records.item[pos]]
        raise FormatError(f"empty interaction-type set (record {pos + 1}, user={user!r}, item={item!r})")


def _vocab(tokens, codes, order: str) -> Vocab:
    present = [tokens[c] for c in first_seen(codes).tolist()]
    return Vocab(sorted(present) if order == "sorted" else present)


def build_bipartite(
    records: Interactions,
    order: str = "first-seen",
    vocab_records: Interactions | None = None,
) -> BipartiteGraph:
    """Index users/items and merge duplicate (user, item) records.

    Ids are assigned in first-seen order by default, or lexicographically
    with order="sorted".  Duplicate records for the same pair merge by set
    union of their interaction types.  `vocab_records` optionally names
    the vocabularies' entities instead of `records`, so entities seen
    only in held-out data still receive ids; every user and item of
    `records` must be among them.
    """
    if order not in ("first-seen", "sorted"):
        raise FormatError(f"unknown id assignment order: {order!r}")
    source = records if vocab_records is None else vocab_records
    _require_types(source)
    if vocab_records is not None:
        _require_types(records)

    user_vocab = _vocab(source.user_tokens, source.user, order)
    item_vocab = _vocab(source.item_tokens, source.item, order)
    user = user_vocab.ids_of(records.user_tokens)[records.user]
    item = item_vocab.ids_of(records.item_tokens)[records.item]
    unknown = np.flatnonzero((user < 0) | (item < 0))
    if len(unknown):
        pos = int(unknown[0])
        if user[pos] < 0:
            side, token = "user", records.user_tokens[records.user[pos]]
        else:
            side, token = "item", records.item_tokens[records.item[pos]]
        raise UnresolvedEntityError(f"edge record {pos + 1} names {side} {token!r}, which the vocabulary records lack")

    edges = replace(
        records, user_tokens=user_vocab.tokens(), item_tokens=item_vocab.tokens(), user=user, item=item,
    ).merged()
    return BipartiteGraph(user_vocab, item_vocab, edges)


@dataclass(frozen=True)
class AlignmentMap:
    """Rows of the users and items in the two collaborative graphs.

    Each graph lists its head side first, then the other side, then its
    attribute entities: users then items in the user-side graph, items
    then users in the item-side graph.  Every user and every item has a
    row in both graphs.
    """

    n_users: int
    n_items: int

    @property
    def user_side(self) -> tuple[slice, slice]:
        """(user rows, item rows) of the user-side graph."""
        return slice(0, self.n_users), slice(self.n_users, self.n_users + self.n_items)

    @property
    def item_side(self) -> tuple[slice, slice]:
        """(user rows, item rows) of the item-side graph."""
        return slice(self.n_items, self.n_items + self.n_users), slice(0, self.n_items)

    def items_by_user(self, kg_u: "CollaborativeKG") -> tuple[np.ndarray, np.ndarray]:
        """Each user's interacted items in the user-side graph `kg_u`, as CSR rows.

        User u's item ids are `items[ptr[u]:ptr[u + 1]]`.  Only interaction
        triples have a user as head there, and triples are sorted by head.
        """
        user_rows, item_rows = self.user_side
        interaction = kg_u.heads < user_rows.stop
        ptr = np.searchsorted(kg_u.heads[interaction], np.arange(user_rows.stop + 1))
        return ptr, kg_u.tails[interaction] - item_rows.start


@dataclass
class BuildStats:
    duplicate_attributes: int = 0
    attribute_triples: int = 0
    interaction_triples: int = 0


class CollaborativeKG:
    """Immutable triple store, triples sorted by head.

    Triples are grouped by head entity in insertion order, so each head's
    (relation, tail) pairs are one contiguous run of `heads`.
    `relations[r]` is the (kind, label) of relation id r.  `keys` holds
    the sorted membership key of every triple (see `key`), which the
    negative sampler searches.
    """

    def __init__(self, entity_count, relations, heads, rels, tails, entity_names, stats):
        self.entity_count = int(entity_count)
        self.relations = list(relations)  # list of (kind, label)
        self.entity_names = entity_names  # list of (kind, token)
        self.stats = stats

        heads = np.asarray(heads, dtype=np.int64)
        rels = np.asarray(rels, dtype=np.int64)
        tails = np.asarray(tails, dtype=np.int64)
        order = np.argsort(heads, kind="stable")
        self.heads = heads[order]
        self.rels = rels[order]
        self.tails = tails[order]
        self.keys = np.sort(self.key(self.heads, self.rels, self.tails))

    @property
    def relation_count(self) -> int:
        return len(self.relations)

    @property
    def n_triples(self) -> int:
        return len(self.heads)

    def key(self, h, r, t):
        """Membership key (h*M + r)*N + t of triples (h, r, t); affine in each slot."""
        return (np.asarray(h, dtype=np.int64) * self.relation_count + r) * self.entity_count + t

    @cached_property
    def propagation_plan(self):
        """Edge groupings the propagation kernels reuse, built on first use."""
        from .propagation import PropagationPlan

        return PropagationPlan(self)

    def serialized(self) -> bytes:
        """Canonical byte form; equal inputs rebuild to equal bytes."""
        parts = [
            b"CKG1",
            np.int64(self.entity_count).tobytes(),
            np.int64(self.relation_count).tobytes(),
            self.heads.tobytes(),
            self.rels.tobytes(),
            self.tails.tobytes(),
            "\x1f".join(f"{k}\x1e{t}" for k, t in self.entity_names).encode(),
            "\x1f".join(f"{k}\x1e{label}" for k, label in self.relations).encode(),
        ]
        return b"".join(parts)

    def digest(self) -> str:
        return hashlib.sha256(self.serialized()).hexdigest()


def _build_side(bg, attrs, rows, head_is_user):
    """Shared construction for both collaborative graphs; `rows` are the side's (user rows, item rows).

    Relation j is the j-th distinct interaction type set of the edges.
    The attribute relations follow those, and the attribute entities
    follow the users and items, both in order of first appearance.
    """
    edges = bg.edges
    sets, set_of_edge = edges.type_sets()
    relations = [(INTERACTION if len(types) == 1 else COMPOSITE_INTERACTION, "|".join(sorted(types))) for types in sets]
    user_rows, item_rows = rows
    user_ents, item_ents = user_rows.start + edges.user, item_rows.start + edges.item
    users = [("user", t) for t in bg.user_vocab.tokens()]
    items = [("item", t) for t in bg.item_vocab.tokens()]
    if head_is_user:
        heads, tails, names = user_ents, item_ents, users + items
        attr_head_vocab, attr_kind, attr_head_rows = bg.item_vocab, ITEM_ATTRIBUTE, item_rows
    else:
        heads, tails, names = item_ents, user_ents, items + users
        attr_head_vocab, attr_kind, attr_head_rows = bg.user_vocab, USER_ATTRIBUTE, user_rows

    head_tokens, rel_names, tail_tokens = zip(*attrs) if len(attrs) else ((), (), ())
    head_ids = attr_head_vocab.ids_of(head_tokens)
    if (head_ids < 0).any():
        side = "item" if head_is_user else "user"
        missing = ", ".join(sorted({h for h, i in zip(head_tokens, head_ids.tolist()) if i < 0}))
        raise UnresolvedEntityError(f"attribute triples reference unknown {side} heads: {missing}")
    rel_vocab, tail_vocab = Vocab(rel_names), Vocab(tail_tokens)
    base = bg.n_users + bg.n_items
    attr = np.stack([
        attr_head_rows.start + head_ids,
        len(relations) + rel_vocab.ids_of(rel_names),
        base + tail_vocab.ids_of(tail_tokens),
    ], axis=1)
    attr = attr[first_seen_groups(attr.view(f"V{attr.itemsize * 3}").reshape(-1))[1]]  # distinct rows
    stats = BuildStats(
        duplicate_attributes=len(head_ids) - len(attr), attribute_triples=len(attr), interaction_triples=len(edges),
    )
    return CollaborativeKG(
        base + len(tail_vocab),
        relations + [(attr_kind, name) for name in rel_vocab.tokens()],
        np.concatenate([heads, attr[:, 0]]),
        np.concatenate([set_of_edge, attr[:, 1]]),
        np.concatenate([tails, attr[:, 2]]),
        names + [("attr", t) for t in tail_vocab.tokens()],
        stats,
    )


def build_graphs(bg: BipartiteGraph, user_attrs, item_attrs):
    """(user-side graph, item-side graph, AlignmentMap) of `bg`: the one way to build the collaborative graphs."""
    align = AlignmentMap(bg.n_users, bg.n_items)
    kg_u = _build_side(bg, item_attrs, align.user_side, head_is_user=True)
    kg_i = _build_side(bg, user_attrs, align.item_side, head_is_user=False)
    return kg_u, kg_i, align
