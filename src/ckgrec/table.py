"""Interactions as columns of interned integer codes.

A table holds one row per user-item interaction.  Users and items are
codes into the table's token lists, and every table derived from one
parse shares those lists, so taking rows copies only the columns.  A
row's interaction types are a bit set over the table's type names, one
uint64 word per 64 names.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

NO_TIME = np.iinfo(np.int64).min  # timestamp of a row that has none


def first_seen_groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group rows by key, groups numbered in order of first appearance.

    Returns each row's group and each group's first row.
    """
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse.reshape(-1)], first[order]


def first_seen(codes: np.ndarray) -> np.ndarray:
    """Distinct codes in order of first appearance."""
    return codes[first_seen_groups(codes)[1]]


@dataclass(eq=False)
class Interactions:
    """User-item interactions, one row each, as parallel columns.

    `user[r]` and `item[r]` index `user_tokens` and `item_tokens`,
    `types[r]` is the row's bit set over `type_names` and `timestamp[r]`
    is NO_TIME where the row has none.
    """

    user_tokens: list
    item_tokens: list
    type_names: list
    user: np.ndarray
    item: np.ndarray
    types: np.ndarray
    timestamp: np.ndarray = None

    def __post_init__(self):
        if self.timestamp is None:
            self.timestamp = np.full(len(self.user), NO_TIME, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.user)

    def take(self, rows) -> "Interactions":
        """The given rows (indices or a mask), sharing this table's token lists."""
        return replace(
            self,
            user=self.user[rows],
            item=self.item[rows],
            types=self.types[rows],
            timestamp=self.timestamp[rows],
        )

    def merged(self) -> "Interactions":
        """One row per (user, item) pair, in order of first appearance.

        A pair's type sets are unioned; its other columns come from its
        first row.
        """
        group, first = first_seen_groups(self.user * len(self.item_tokens) + self.item)
        if len(first) == len(self):
            return self
        by_group = np.argsort(group, kind="stable")
        starts = np.searchsorted(group[by_group], np.arange(len(first)))
        out = self.take(first)
        out.types = np.bitwise_or.reduceat(self.types[by_group], starts, axis=0)
        return out

    def type_sets(self) -> tuple[list, np.ndarray]:
        """Distinct type sets as frozensets of names, in order of first appearance, and each row's index into them."""
        words = self.types.shape[1]
        keys = self.types[:, 0] if words == 1 else np.ascontiguousarray(self.types).view(f"V{8 * words}").reshape(-1)
        group, first = first_seen_groups(keys)
        sets = []
        for bits in self.types[first].tolist():
            sets.append(frozenset(
                name for b, name in enumerate(self.type_names) if bits[b >> 6] >> (b & 63) & 1
            ))
        return sets, group
