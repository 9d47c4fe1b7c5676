"""Bipartite indexing, interaction relations, and the two collaborative graphs."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckgrec.errors import FormatError, UnresolvedEntityError
from ckgrec.graph import (
    AlignmentMap,
    build_bipartite,
    build_graphs,
    build_item_side_ckg,
    build_user_side_ckg,
)
from ckgrec.rng import Rng

from conftest import head_edges, rec, table
from tablerows import rows_of


class TestBuildBipartite:
    def test_empty(self):
        bg = build_bipartite(table([]))
        assert (bg.n_users, bg.n_items, bg.n_edges) == (0, 0, 0)

    def test_singleton(self):
        bg = build_bipartite(table([rec("u1", "i1", "view")]))
        assert (bg.n_users, bg.n_items, bg.n_edges) == (1, 1, 1)
        assert (bg.edges.user[0], bg.edges.item[0], rows_of(bg.edges)[0][2]) == (0, 0, frozenset({"view"}))

    def test_duplicate_pair_merges_types(self):
        bg = build_bipartite(table([rec("u1", "i1", "like"), rec("u1", "i1", "favorite")]))
        assert bg.n_edges == 1
        assert rows_of(bg.edges)[0][2] == frozenset({"like", "favorite"})

    def test_first_seen_order(self):
        bg = build_bipartite(table([rec("b", "y"), rec("a", "x")]))
        assert bg.user_vocab.tokens() == ["b", "a"]
        assert bg.item_vocab.tokens() == ["y", "x"]

    def test_sorted_order(self):
        bg = build_bipartite(table([rec("b", "y"), rec("a", "x")]), order="sorted")
        assert bg.user_vocab.tokens() == ["a", "b"]
        assert bg.item_vocab.tokens() == ["x", "y"]

    def test_unknown_order_rejected(self):
        with pytest.raises(FormatError):
            build_bipartite(table([]), order="alphabetical")

    def test_empty_type_set_names_line(self):
        bad = ("u1", "i1", frozenset(), None, 17)  # (user, item, types, timestamp, line)
        with pytest.raises(FormatError, match="line 17"):
            build_bipartite(table([bad]))

    def test_vocab_records_widen_vocabulary(self):
        all_recs = [rec("u1", "i1"), rec("u2", "i2")]
        bg = build_bipartite(table(all_recs[:1]), vocab_records=table(all_recs))
        assert bg.n_users == 2 and bg.n_items == 2 and bg.n_edges == 1

    @pytest.mark.parametrize(
        "edge, named", [(rec("u3", "i1"), "user 'u3'"), (rec("u1", "i9"), "item 'i9'")], ids=["user", "item"]
    )
    def test_edge_entity_outside_vocab_records_rejected(self, edge, named):
        vocab = table([rec("u1", "i1"), rec("u2", "i2")])
        with pytest.raises(UnresolvedEntityError, match=f"edge record 2 names {named}"):
            build_bipartite(table([rec("u2", "i2"), edge]), vocab_records=vocab)

    def test_vocab_round_trip(self):
        bg = build_bipartite(table([rec("u1", "i1"), rec("u2", "i1")]))
        for tok in ["u1", "u2"]:
            assert bg.user_vocab.token(bg.user_vocab.id_of(tok)) == tok


def one_edge_each(type_sets):
    """Bipartite graph with edge j from user uj to item ij carrying type_sets[j]."""
    return build_bipartite(table([(f"u{j}", f"i{j}", frozenset(types)) for j, types in enumerate(type_sets)]))


def interaction_kind(types) -> str:
    return "interaction" if len(types) == 1 else "composite-interaction"


class TestCompositeRelation:
    """Interaction relations of built graphs: one per distinct type set."""

    def test_deterministic(self):
        kg = build_user_side_ckg(one_edge_each([{"like"}, {"like"}]), [])
        assert kg.rels.tolist() == [0, 0] and kg.relations == [("interaction", "like")]

    def test_distinct_sets_distinct_ids(self):
        kg = build_user_side_ckg(one_edge_each([{"like"}, {"like", "favorite"}]), [])
        assert kg.rels.tolist() == [0, 1]

    def test_order_insensitive(self):
        bg = build_bipartite(table([rec("u1", "i1", "favorite", "like"), rec("u2", "i1", "like", "favorite")]))
        kg = build_user_side_ckg(bg, [])
        assert kg.rels.tolist() == [0, 0] and kg.relations == [("composite-interaction", "favorite|like")]

    def test_kind_classification(self):
        kg = build_user_side_ckg(one_edge_each([{"view"}, {"view", "like"}]), [("i0", "genre", "g1")])
        assert [kind for kind, _ in kg.relations] == ["interaction", "composite-interaction", "item-attribute"]

    def test_rejects_empty_set(self):
        with pytest.raises(FormatError, match="empty interaction-type set"):
            one_edge_each([{"view"}, set()])

    @given(st.lists(st.sets(st.sampled_from("abcdef"), min_size=1, max_size=4), min_size=1, max_size=30))
    @settings(max_examples=100)
    def test_bijection_round_trip(self, type_sets):
        n = len(type_sets)
        kg_u, kg_i, _ = build_graphs(
            one_edge_each(type_sets), [("u0", "age", "a1")], [("i0", "genre", "g1"), ("i0", "era", "e1")]
        )
        for kg, attr_kind, n_attr in ((kg_u, "item-attribute", 2), (kg_i, "user-attribute", 1)):
            # rows 0..n-1 each head one interaction edge, in edge order; attributes hang off the other side
            rels = kg.rels[:n].tolist()
            for a, b in itertools.combinations(range(n), 2):
                assert (rels[a] == rels[b]) == (type_sets[a] == type_sets[b])
            for types, r in zip(type_sets, rels):
                assert kg.relations[r] == (interaction_kind(types), "|".join(sorted(types)))
            n_sets = len({frozenset(types) for types in type_sets})
            assert kg.relation_count == n_sets + n_attr
            assert [kind for kind, _ in kg.relations[n_sets:]] == [attr_kind] * n_attr
            assert set(kg.rels[n:].tolist()) == set(range(n_sets, n_sets + n_attr))


class TestUserSideCkg:
    def test_empty(self):
        kg = build_user_side_ckg(build_bipartite(table([])), [])
        assert kg.entity_count == 0 and kg.n_triples == 0

    def test_two_users_one_item_plus_attr(self):
        bg = build_bipartite(table([rec("u1", "i1", "view"), rec("u2", "i1", "view")]))
        kg = build_user_side_ckg(bg, [("i1", "genre", "g1")])
        assert kg.n_triples == 3
        # u1 -> 1 neighbor, u2 -> 1, i1 -> 1 (its attribute)
        u1, u2 = 0, 1
        i1 = 2  # items follow users in the entity layout
        assert len(kg.tails[head_edges(kg, u1)]) == 1
        assert len(kg.tails[head_edges(kg, u2)]) == 1
        assert len(kg.tails[head_edges(kg, i1)]) == 1

    def test_distinct_type_sets_distinct_relations(self):
        bg = build_bipartite(table([rec("u1", "i1", "like"), rec("u2", "i2", "like", "favorite")]))
        kg = build_user_side_ckg(bg, [])
        rels = {int(r) for r in kg.rels}
        assert len(rels) == 2

    def test_unknown_attr_head_rejected(self):
        bg = build_bipartite(table([rec("u1", "i1")]))
        with pytest.raises(UnresolvedEntityError, match="ghost"):
            build_user_side_ckg(bg, [("ghost", "genre", "g1")])

    def test_duplicate_attr_triples_dropped_with_count(self):
        bg = build_bipartite(table([rec("u1", "i1")]))
        kg = build_user_side_ckg(bg, [("i1", "genre", "g1"), ("i1", "genre", "g1")])
        assert kg.n_triples == 2  # 1 edge + 1 attr
        assert kg.stats.duplicate_attributes == 1


class TestItemSideCkg:
    def test_empty(self):
        kg = build_item_side_ckg(build_bipartite(table([])), [])
        assert kg.n_triples == 0

    def test_one_edge_one_user_attr(self):
        bg = build_bipartite(table([rec("u1", "i1", "view")]))
        kg = build_item_side_ckg(bg, [("u1", "age", "a30")])
        assert kg.n_triples == 2
        i1, u1 = 0, 1  # items first on the item side
        assert len(kg.tails[head_edges(kg, i1)]) == 1
        assert len(kg.tails[head_edges(kg, u1)]) == 1

    def test_interaction_counts_mirror(self):
        records = [rec("u1", "i1", "like"), rec("u2", "i1", "view"), rec("u2", "i2", "view")]
        bg = build_bipartite(table(records))
        kg_u = build_user_side_ckg(bg, [])
        kg_i = build_item_side_ckg(bg, [])
        assert kg_u.stats.interaction_triples == kg_i.stats.interaction_triples == bg.n_edges


class TestNeighbors:
    def make(self):
        bg = build_bipartite(table([rec("u1", "i1"), rec("u1", "i2"), rec("u1", "i3"), rec("u2", "i9")]))
        return build_user_side_ckg(bg, [])

    def test_isolated_node_empty(self):
        kg = self.make()
        i1 = 2  # an item: tail-only on the user side
        s = head_edges(kg, i1)
        assert s.start == s.stop

    def test_three_triples(self):
        kg = self.make()
        s = head_edges(kg, 0)
        assert len(kg.tails[s]) == 3 and np.all(kg.heads[s] == 0)

    def test_stable_across_calls(self):
        # u1's tails i1, i2, i3 (entities 2, 3, 4) in insertion order, on every build
        for kg in (self.make(), self.make()):
            assert kg.tails[head_edges(kg, 0)].tolist() == [2, 3, 4]


def random_instance(rng: Rng):
    n_u = int(rng.integers(1, 8))
    n_i = int(rng.integers(1, 8))
    n_rec = int(rng.integers(0, 25))
    types = ["view", "like", "favorite"]
    records = []
    for _ in range(n_rec):
        u = f"u{int(rng.integers(n_u))}"
        i = f"i{int(rng.integers(n_i))}"
        chosen = [t for t in types if rng.random() < 0.5] or ["view"]
        records.append((u, i, frozenset(chosen)))
    n_attr = int(rng.integers(0, 6))
    seen_items = sorted({i for _, i, _ in records})
    item_attrs = []
    if seen_items:
        for _ in range(n_attr):
            item = seen_items[int(rng.integers(len(seen_items)))]
            item_attrs.append((item, "genre", f"g{int(rng.integers(3))}"))
    seen_users = sorted({u for u, _, _ in records})
    user_attrs = []
    if seen_users:
        for _ in range(n_attr):
            user = seen_users[int(rng.integers(len(seen_users)))]
            user_attrs.append((user, "age", f"a{int(rng.integers(3))}"))
    return records, user_attrs, item_attrs


class TestInvariants:
    def test_triple_count_identity_random_instances(self):
        rng = Rng(77)
        for trial in range(60):
            records, user_attrs, item_attrs = random_instance(rng.split(trial))
            bg = build_bipartite(table(records))
            kg_u = build_user_side_ckg(bg, item_attrs)
            kg_i = build_item_side_ckg(bg, user_attrs)
            uniq_item_attrs = len(set(item_attrs))
            uniq_user_attrs = len(set(user_attrs))
            assert kg_u.n_triples == bg.n_edges + uniq_item_attrs
            assert kg_i.n_triples == bg.n_edges + uniq_user_attrs

    def test_rebuild_is_bitwise_identical(self):
        records, user_attrs, item_attrs = random_instance(Rng(5))
        first = build_user_side_ckg(build_bipartite(table(records)), item_attrs)
        second = build_user_side_ckg(build_bipartite(table(records)), item_attrs)
        assert first.serialized() == second.serialized()
        assert first.digest() == second.digest()

    def test_digest_changes_with_input(self):
        records, _, item_attrs = random_instance(Rng(5))
        base = build_user_side_ckg(build_bipartite(table(records)), item_attrs)
        extra = build_user_side_ckg(build_bipartite(table(records + [rec("uX", "iX")])), item_attrs)
        assert base.digest() != extra.digest()

    def test_neighbor_flatten_reproduces_triples(self):
        rng = Rng(91)
        for trial in range(20):
            records, user_attrs, item_attrs = random_instance(rng.split(trial))
            kg = build_item_side_ckg(build_bipartite(table(records)), user_attrs)
            flat = []
            for h in range(kg.entity_count):
                s = head_edges(kg, h)
                flat.extend((h, r, t) for r, t in zip(kg.rels[s].tolist(), kg.tails[s].tolist()))
            expected = sorted(zip(kg.heads.tolist(), kg.rels.tolist(), kg.tails.tolist()))
            assert sorted(flat) == expected
            assert len(flat) == kg.n_triples


class TestAlignment:
    def test_layout(self):
        bg = build_bipartite(table([rec("u1", "i1"), rec("u2", "i2"), rec("u1", "i3")]))
        _, _, align = build_graphs(bg, [], [])
        assert align == AlignmentMap(n_users=2, n_items=3)
        assert align.user_side == (slice(0, 2), slice(2, 5))
        assert align.item_side == (slice(3, 5), slice(0, 3))

    def test_build_graphs_names_agree_with_map(self):
        records = [rec("u1", "i1"), rec("u2", "i1")]
        bg = build_bipartite(table(records))
        kg_u, kg_i, align = build_graphs(bg, [("u1", "age", "a30")], [("i1", "genre", "g1")])
        users = [("user", t) for t in bg.user_vocab.tokens()]
        items = [("item", t) for t in bg.item_vocab.tokens()]
        for kg, (user_rows, item_rows) in ((kg_u, align.user_side), (kg_i, align.item_side)):
            assert kg.entity_names[user_rows] == users
            assert kg.entity_names[item_rows] == items

    def test_attribute_entities_follow_base(self):
        bg = build_bipartite(table([rec("u1", "i1")]))
        kg_u, kg_i, _ = build_graphs(bg, [("u1", "age", "a30")], [("i1", "genre", "g1")])
        assert kg_u.entity_count == 3  # u1, i1, g1
        assert kg_i.entity_count == 3  # i1, u1, a30
        assert kg_u.entity_names[2][0] == "attr"
        assert kg_i.entity_names[2][0] == "attr"
