"""Shared fixtures: toy graphs, a tiny dual model, and the slow synthetic run.

The expensive 300x200 training run is computed once per session and
shared between the trainer property tests and the acceptance suite.
"""

import time

import numpy as np
import pytest

from ckgrec import checkpoint
from ckgrec.config import RunConfig
from ckgrec.evaluate import make_val_recall, pairs_of, split_dataset
from ckgrec.graph import (
    BuildStats,
    CollaborativeKG,
    build_bipartite,
    build_graphs,
)
from ckgrec.ingest import SynthConfig, merge_records, synth_generate
from ckgrec.model import BprBatch, build_model
from ckgrec.rng import Rng
from ckgrec.table import Interactions
from ckgrec.training import train
from ckgrec.transr import TripleBatch, init_table

from reference import checkpoint_v2_reference
from tablerows import interactions_from_rows


def make_kg(n_entities: int, triples, n_relations: int | None = None) -> CollaborativeKG:
    """Bare triple store for propagation/encoding unit tests."""
    n_relations = n_relations or (max((r for _, r, _ in triples), default=-1) + 1)
    relations = [("interaction", f"t{i}") for i in range(n_relations)]
    heads = [h for h, _, _ in triples]
    rels = [r for _, r, _ in triples]
    tails = [t for _, _, t in triples]
    names = [("e", str(i)) for i in range(n_entities)]
    return CollaborativeKG(n_entities, relations, heads, rels, tails, names, BuildStats())


def head_edges(kg: CollaborativeKG, h: int) -> slice:
    """Positions of head h's triples in the head-sorted graph."""
    lo, hi = np.searchsorted(kg.heads, [h, h + 1])
    return slice(int(lo), int(hi))


def edge_terms(kg: CollaborativeKG, cache) -> tuple[np.ndarray, np.ndarray]:
    """A layer cache's attention terms as one row per edge: (A_r x_t, tanh(A_r x_h + e_r)).

    The cache holds pt feature-major with one column per tail pair, and q
    with one column per entry of `cache.q_rows`.
    """
    return cache.pt.T[kg.propagation_plan.tail_pairs.of_edge], cache.q.T[cache.q_rows]


def rec(u, i, *types):
    """One interaction row, (user, item, type set); "view" when no type is given."""
    return (u, i, frozenset(types or ("view",)))


def table(rows) -> Interactions:
    return interactions_from_rows(rows)


def toy_dual(seed: int = 3, d: int = 4, k: int = 3, n_layers: int = 2, dims=(4, 3, 2), **kwargs):
    """Two 5-entity / 2-relation graphs and a small dual model.

    Each side: 2 users + 2 items + 1 attribute value, one interaction
    relation plus one attribute relation.
    """
    bg = build_bipartite(table([rec("u0", "i0"), rec("u1", "i1")]))
    user_attrs = [("u0", "group", "G"), ("u1", "group", "G")]
    item_attrs = [("i0", "topic", "T"), ("i1", "topic", "T")]
    kg_u, kg_i, align = build_graphs(bg, user_attrs, item_attrs)
    assert kg_u.entity_count == 5 and kg_u.relation_count == 2
    assert kg_i.entity_count == 5 and kg_i.relation_count == 2
    model = build_model(
        kg_u, kg_i, align, d=d, k=k, n_layers=n_layers, dims=dims, std=0.3, rng=Rng(seed, (11,)), **kwargs
    )
    return model, bg


def toy_cf_batch() -> BprBatch:
    # (u0, i0) and (u1, i1) observed; the opposite item is each user's negative
    return BprBatch(
        users=np.array([0, 1], dtype=np.int64),
        pos_items=np.array([0, 1], dtype=np.int64),
        neg_items=np.array([1, 0], dtype=np.int64),
    )


def toy_kg_batch(kg: CollaborativeKG, rng: Rng, size: int = 4) -> TripleBatch:
    from ckgrec.transr import sample_batch

    idx = rng.integers(kg.n_triples, size=size)
    return sample_batch(kg, idx, rng.split(1))


def checkpoint_sides(table_u, stack_u, table_i, stack_i):
    """Both sides' raw arrays in the reference writers' argument order."""
    return [
        (t.entity, t.relation, t.projection, s.w1, None if s.shared else s.w2, s.attn)
        for t, s in ((table_u, stack_u), (table_i, stack_i))
    ]


def rewrite_metadata(src, dst, change) -> None:
    """Copy checkpoint `src` to `dst` with `change(metadata)` applied, through the reference writer."""
    table_u, stack_u, table_i, stack_i, meta, serving = checkpoint.load(src)
    change(meta)
    sides = checkpoint_sides(table_u, stack_u, table_i, stack_i)
    arrays = (serving.users, serving.items, serving.train_ptr, serving.train_items)
    dst.write_bytes(checkpoint_v2_reference(*sides, stack_u.dims, meta, arrays))


def fresh_table(n_entities=5, n_relations=2, d=4, k=3, seed=9, std=0.3):
    return init_table(n_entities, n_relations, d, k, std, Rng(seed, (21,)))


SYNTH_PARAMS = dict(n_users=300, n_items=200, latent_dim=8, interactions_per_user=20, noise=0.1, seed=42)


@pytest.fixture(scope="session")
def synth_world():
    """The acceptance-scale synthetic dataset, split and indexed."""
    interactions, user_attrs, item_attrs, truth = synth_generate(SynthConfig(**SYNTH_PARAMS))
    records = merge_records(interactions)
    split = split_dataset(records, (0.8, 0.1, 0.1), 42)
    bg = build_bipartite(split.train, vocab_records=records)
    kg_u, kg_i, align = build_graphs(bg, user_attrs, item_attrs)
    return {
        "records": records,
        "split": split,
        "bg": bg,
        "kg_u": kg_u,
        "kg_i": kg_i,
        "align": align,
        "train_pairs": pairs_of(split.train, bg),
        "val_pairs": pairs_of(split.validation, bg),
        "test_pairs": pairs_of(split.test, bg),
        "truth": truth,
    }


@pytest.fixture(scope="session")
def synth_trained(synth_world):
    """50-epoch training run on the synthetic dataset, timed."""
    w = synth_world
    model = build_model(
        w["kg_u"], w["kg_i"], w["align"],
        d=64, k=64, n_layers=2, dims=(64, 32, 16), std=0.1, rng=Rng(42, (11,)),
    )
    settings = RunConfig(lr=0.001, reg=1e-5, epochs=50, patience=50, top_k=10)
    val_fn = make_val_recall(w["train_pairs"], w["val_pairs"], 10)
    started = time.perf_counter()
    result = train(model, w["train_pairs"], settings, Rng(42, (13,)), val_fn)
    wall = time.perf_counter() - started
    return {"result": result, "model": result.model, "wall_s": wall, "history": result.history}
