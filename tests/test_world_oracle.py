"""The columnar world build against the record-path oracle in reference.py.

Every stage the CLI chains (parse, implicit transform, merge, filter,
split, vocabularies, both graphs, index pairs) must give exactly what
the one-object-per-record implementation gives, on synthetic sets and
on hand-made files that reach every branch of the parser.
"""

import numpy as np
import pytest

import reference as ref
from ckgrec import cli
from ckgrec.config import RunConfig
from ckgrec.errors import FormatError, UnresolvedEntityError
from ckgrec.graph import BuildStats, CollaborativeKG, build_bipartite, build_graphs
from ckgrec.ingest import (
    SynthConfig,
    parse_attribute_triples,
    parse_interactions,
    synth_generate,
    write_attribute_triples,
    write_records,
)

from conftest import table
from tablerows import rows_of


def oracle_digest(side) -> str:
    entity_count, relations, heads, rels, tails, names, _ = side
    return CollaborativeKG(entity_count, relations, heads, rels, tails, names, BuildStats()).digest()


def record_rows(records):
    return [(r.user, r.item, r.types, r.timestamp) for r in records]


def assert_same_world(cfg: RunConfig) -> None:
    user_attrs = parse_attribute_triples(cfg.user_attrs)[0] if cfg.user_attrs else []
    item_attrs = parse_attribute_triples(cfg.item_attrs)[0] if cfg.item_attrs else []
    want = ref.world_records(
        cfg.interactions, user_attrs, item_attrs, cfg.format, cfg.threshold,
        cfg.min_interactions, cfg.ratios, cfg.seed, cfg.id_order,
    )
    parsed = parse_interactions(cfg.interactions, cfg.format)
    assert [(i.line, i.message, i.raw) for i in parsed.issues] == want["issues"]
    # repr, so that a NaN rating compares equal to itself
    assert repr(rows_of(parsed.records)) == repr([(r.user, r.item, r.value, r.timestamp) for r in want["ratings"]])

    world = cli._build_world(cfg)
    assert rows_of(world.records) == record_rows(want["records"])
    for part, records in zip((world.split.train, world.split.validation, world.split.test), want["split"]):
        assert rows_of(part) == record_rows(records)
    assert world.bg.user_vocab.tokens() == want["user_tokens"]
    assert world.bg.item_vocab.tokens() == want["item_tokens"]
    for kg, side in ((world.kg_u, want["user_side"]), (world.kg_i, want["item_side"])):
        assert kg.digest() == oracle_digest(side)
        assert kg.relations == side[1]
        s = kg.stats
        assert (s.interaction_triples, s.attribute_triples, s.duplicate_attributes) == side[6]
    for got, expected in zip((world.train_pairs, world.val_pairs, world.test_pairs), want["pairs"]):
        assert got.dtype == np.int64 and got.shape == expected.shape
        assert np.array_equal(got, expected)


def synth_config(tmp_path, users: int, items: int, seed: int, **settings) -> RunConfig:
    interactions, user_attrs, item_attrs, _ = synth_generate(
        SynthConfig(users, items, latent_dim=8, interactions_per_user=20, noise=0.1, seed=seed)
    )
    paths = {name: str(tmp_path / f"{name}.tsv") for name in ("interactions", "user_attrs", "item_attrs")}
    write_records(interactions, paths["interactions"])
    write_attribute_triples(user_attrs, paths["user_attrs"])
    write_attribute_triples(item_attrs, paths["item_attrs"])
    return RunConfig(seed=seed, **paths, **settings).validate()


@pytest.mark.parametrize("order", ["first-seen", "sorted"])
@pytest.mark.parametrize("users, items", [(300, 200), (3000, 2000)])
def test_synthetic_sets(tmp_path, users, items, order):
    assert_same_world(synth_config(tmp_path, users, items, seed=5, id_order=order))


# 70 distinct type names: type sets need two 64-bit words
MANY_TYPES = [f"t{j}" for j in range(70)]


def hand_made_lines(sep: str) -> list[str]:
    rows = [
        f"u1{sep}i1{sep}4.0\r\n",                  # CRLF line ending
        "\r\n",                                     # blank CRLF line
        f"u1{sep}i2{sep}like{sep}100\n",            # named type with a timestamp
        f"u1{sep}i2{sep}view{sep}200\n",            # same pair, another type: merged, first timestamp kept
        f"u1{sep}i3{sep}2.0\n",                     # below the threshold
        f"u1{sep}i4{sep}nan\n",                     # NaN rating: never at or above a threshold
        "   \n",                                    # whitespace-only line
        "broken line\n",                            # one field
        f"u2{sep}{sep}1.0\n",                       # empty item
        f"u2{sep}i1{sep}\n",                        # empty value
        f"u2{sep}i1{sep}4.0{sep}soon\n",            # timestamp that is not an integer
        f"u2{sep}i1{sep}1{sep}2{sep}3{sep}4\n",     # six fields
        f" u2 {sep} i5 {sep} 4.5 {sep} 7 \n",       # padded fields
        f"u2{sep}i6{sep}5\r",                       # lone CR line ending
        f"u3{sep}i1{sep}favorite\n",                # a user with fewer than 3 records
        f"u4{sep}i2{sep}4\n",
        f"u4{sep}i2{sep}rated\n",                   # a named "rated" is the numeric type
    ]
    for u in range(5, 15):
        for j in range(6):
            rows.append(f"u{u}{sep}i{(u + j) % 9}{sep}{MANY_TYPES[(7 * u + 11 * j) % 70]}\n")
    rows += [f"u5{sep}i5{sep}{name}\n" for name in MANY_TYPES]  # one pair holding every type
    rows += [f"u{u}{sep}i{u % 4}{sep}3.5{sep}{u}\n" for u in range(5, 15)]
    return rows


@pytest.fixture
def hand_made(tmp_path):
    def write(fmt: str) -> dict:
        sep = "\t" if fmt == "tsv" else ","
        path = tmp_path / f"hand.{fmt}"
        path.write_bytes("".join(hand_made_lines(sep)).encode())
        users = tmp_path / "users.tsv"
        users.write_text("u5\tage\ta1\nu5\tage\ta1\nu7\tage\ta2\nu7\tcity\tc1\n")
        items = tmp_path / "items.tsv"
        items.write_text("# items\ni1\tgenre\tg1\ni5\tgenre\tg1\ni5\tgenre\tg2\ni1\tgenre\tg1\n")
        return dict(interactions=str(path), user_attrs=str(users), item_attrs=str(items), format=fmt)

    return write


@pytest.mark.parametrize("fmt", ["tsv", "csv"])
@pytest.mark.parametrize("order", ["first-seen", "sorted"])
@pytest.mark.parametrize("threshold, min_interactions, seed", [
    (float("-inf"), 0, 1),
    (3.0, 0, 2),
    (3.0, 2, 3),
    (4.0, 6, 4),
])
def test_hand_made_files(hand_made, fmt, order, threshold, min_interactions, seed):
    cfg = RunConfig(seed=seed, id_order=order, threshold=threshold, min_interactions=min_interactions, **hand_made(fmt))
    assert_same_world(cfg.validate())


def test_hand_made_file_reaches_every_branch(hand_made):
    paths = hand_made("tsv")
    issues = parse_interactions(paths["interactions"]).issues
    assert {i.message.split(":")[0] for i in issues} == {
        "expected 3 or 4 fields, got 1",
        "expected 3 or 4 fields, got 6",
        "empty user or item id",
        "empty value field",
        "timestamp is not an integer",
    }
    world = cli._build_world(RunConfig(**paths).validate())
    assert world.records.types.shape[1] == 2
    assert max(len(types) for _, _, types, _ in rows_of(world.records)) == 70


def test_strict_mode_raises_the_same_error(hand_made):
    path = hand_made("tsv")["interactions"]
    with pytest.raises(ref.RecordError) as want:
        ref.parse_interactions_records(path, strict=True)
    with pytest.raises(FormatError) as got:
        parse_interactions(path, strict=True)
    assert str(got.value) == str(want.value)


def test_all_malformed_raises_the_same_error(tmp_path):
    path = tmp_path / "junk.tsv"
    path.write_text("x\n\ny\tz\n")
    with pytest.raises(ref.RecordError) as want:
        ref.parse_interactions_records(path)
    with pytest.raises(FormatError) as got:
        parse_interactions(path)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("rows, vocab_rows", [
    ([("u1", "i1", frozenset({"view"})), ("u2", "i2", frozenset())], None),
    ([("u1", "i1", frozenset({"view"})), ("u2", "i2", frozenset(), None, 9)], None),
    ([("u1", "i1", frozenset({"view"}))], [("u1", "i1", frozenset({"view"})), ("u3", "i1", frozenset())]),
])
def test_empty_type_set_raises_the_same_error(rows, vocab_rows):
    def records(rs):
        return [ref.InteractionRecord(u, i, types, *rest) for u, i, types, *rest in rs]

    with pytest.raises(ref.RecordError) as want:
        ref.bipartite_records(records(rows), vocab_records=None if vocab_rows is None else records(vocab_rows))
    with pytest.raises(FormatError) as got:
        build_bipartite(table(rows), vocab_records=None if vocab_rows is None else table(vocab_rows))
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("user_attrs, item_attrs, head_is_user", [
    ([("zed", "age", "a1"), ("u1", "age", "a1"), ("amy", "age", "a2")], [], False),
    ([], [("i1", "genre", "g1"), ("ghost", "genre", "g2")], True),
])
def test_unresolved_attribute_heads_raise_the_same_error(user_attrs, item_attrs, head_is_user):
    rows = [("u1", "i1", frozenset({"view"})), ("u2", "i2", frozenset({"like"}))]
    users, items, edges = ref.bipartite_records([ref.InteractionRecord(*r) for r in rows])
    with pytest.raises(ref.RecordError) as want:
        ref.graph_side_records(users, items, edges, item_attrs if head_is_user else user_attrs, head_is_user)
    with pytest.raises(UnresolvedEntityError) as got:
        build_graphs(build_bipartite(table(rows)), user_attrs, item_attrs)
    assert str(got.value) == str(want.value)
