"""Row-by-row views of the columnar tables, for building and reading fixtures.

The program reads and writes `Interactions` and `Ratings` column by
column; tests state their inputs and expectations as plain tuples.
"""

import numpy as np

from ckgrec.ingest import Ratings
from ckgrec.table import NO_TIME, Interactions

from reference import type_bits_reference


def rows_of(table) -> list[tuple]:
    """(user, item, value, timestamp) per row; timestamp None where absent.

    The value is a Ratings row's rating or type name, or an Interactions
    row's frozenset of type names.
    """
    if isinstance(table, Ratings):
        values, codes = table.values, table.value
    else:
        values, codes = table.type_sets()
    return [
        (table.user_tokens[u], table.item_tokens[i], values[v], None if t == NO_TIME else t)
        for u, i, v, t in zip(table.user.tolist(), table.item.tolist(), codes.tolist(), table.timestamp.tolist())
    ]


def interactions_from_rows(rows) -> Interactions:
    """Table of (user, item, types[, timestamp]) tuples; timestamp None means absent."""
    users: dict = {}
    items: dict = {}
    names: dict = {}
    user, item, stamps, set_rows, set_codes = [], [], [], [], []
    for r, (u, i, types, *stamp) in enumerate(rows):
        user.append(users.setdefault(u, len(users)))
        item.append(items.setdefault(i, len(items)))
        for name in types:
            set_rows.append(r)
            set_codes.append(names.setdefault(name, len(names)))
        stamps.append(NO_TIME if not stamp or stamp[0] is None else stamp[0])
    return Interactions(
        list(users), list(items), list(names),
        np.array(user, dtype=np.int64),
        np.array(item, dtype=np.int64),
        type_bits_reference(set_rows, set_codes, len(user), len(names)),
        np.array(stamps, dtype=np.int64),
    )


def ratings_from_rows(rows) -> Ratings:
    """Ratings of (user, item, value[, timestamp]) tuples; timestamp None means absent."""
    users: dict = {}
    items: dict = {}
    values: dict = {}
    columns = ([], [], [], [])
    for u, i, value, *stamp in rows:
        columns[0].append(users.setdefault(u, len(users)))
        columns[1].append(items.setdefault(i, len(items)))
        # a float and a type name with the same text are different values
        columns[2].append(values.setdefault((type(value), repr(value)), (len(values), value))[0])
        columns[3].append(NO_TIME if not stamp or stamp[0] is None else stamp[0])
    user, item, value, stamps = (np.array(c, dtype=np.int64) for c in columns)
    return Ratings(list(users), list(items), [v for _, v in values.values()], user, item, value, stamps)
