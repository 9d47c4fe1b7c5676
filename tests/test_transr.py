"""Relation-space projection, triple energy, negative sampling, encoding loss."""

import math

import numpy as np
import pytest

from ckgrec.errors import NumericFaultError, SamplingExhaustedError, ShapeError
from ckgrec.rng import Rng
from ckgrec.transr import (
    EmbeddingTable,
    TripleBatch,
    init_table,
    kg_loss,
    sample_absent,
    sample_batch,
)

from conftest import fresh_table, make_kg
from gradcheck import dense_kg_loss, finite_diff_check, project, triple_energy
from reference import energy_reference, kg_loss_dense_reference

# chi-square critical value at p = 0.01 for 98 degrees of freedom
CHI2_98_P01 = 133.476


def table_from(entity, relation, projection) -> EmbeddingTable:
    return EmbeddingTable(
        np.array(entity, dtype=np.float64),
        np.array(relation, dtype=np.float64),
        np.array(projection, dtype=np.float64),
    )


class TestProject:
    def test_identity_projection(self):
        t = table_from(np.zeros((1, 3)), np.zeros((1, 3)), [np.eye(3)])
        v = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(project(t, 0, v), v)

    def test_zero_projection(self):
        t = table_from(np.zeros((1, 3)), np.zeros((1, 3)), [np.zeros((3, 3))])
        assert np.array_equal(project(t, 0, np.ones(3)), np.zeros(3))

    def test_basis_vector_reads_column(self):
        w = Rng(2).normal(size=(3, 4))
        t = table_from(np.zeros((1, 4)), np.zeros((1, 3)), [w])
        e2 = np.zeros(4)
        e2[2] = 1.0
        assert np.allclose(project(t, 0, e2), w[:, 2], atol=0)

    def test_dim_mismatch(self):
        t = table_from(np.zeros((1, 4)), np.zeros((1, 3)), [np.zeros((3, 4))])
        with pytest.raises(ShapeError):
            project(t, 0, np.zeros(5))

    def test_unknown_relation(self):
        t = table_from(np.zeros((1, 4)), np.zeros((1, 3)), [np.zeros((3, 4))])
        with pytest.raises(IndexError):
            project(t, 5, np.zeros(4))


class TestTripleEnergy:
    def test_degenerate_triple_zero(self):
        # t = h and e_r = 0
        t = table_from([[1.0, 2.0]], np.zeros((1, 2)), [Rng(1).normal(size=(2, 2))])
        assert triple_energy(t, 0, 0, 0) == 0.0

    def test_exact_translation_zero(self):
        t = table_from([[1.0, 0.0], [1.0, 1.0]], [[0.0, 1.0]], [np.eye(2)])
        assert abs(triple_energy(t, 0, 0, 1)) < 1e-15

    def test_matches_independent_formula(self):
        rng = Rng(17)
        ent = rng.normal(size=(4, 5))
        rel = rng.normal(size=(2, 5))
        proj = rng.normal(size=(2, 5, 5))
        t = table_from(ent, rel, proj)
        for trial in range(30):
            h, tt = int(rng.integers(4)), int(rng.integers(4))
            r = int(rng.integers(2))
            want = energy_reference(proj[r], ent[h], rel[r], ent[tt])
            assert abs(triple_energy(t, h, r, tt) - want) < 1e-12

    def test_non_negative(self):
        t = fresh_table()
        for h in range(5):
            for r in range(2):
                for tt in range(5):
                    assert triple_energy(t, h, r, tt) >= 0.0

    def test_rotation_invariance(self):
        # orthogonal Q applied to e_r and the rows of W_r leaves g unchanged
        rng = Rng(23)
        t = fresh_table(d=4, k=3, seed=5)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        rotated = EmbeddingTable(
            t.entity.copy(),
            t.relation @ q.T,
            np.einsum("ab,rbd->rad", q, t.projection),
        )
        for h in range(5):
            for r in range(2):
                for tt in range(5):
                    g0 = triple_energy(t, h, r, tt)
                    g1 = triple_energy(rotated, h, r, tt)
                    assert abs(g0 - g1) <= 1e-9 * max(1.0, abs(g0))


class CountingRng:
    """Passes draws through to an Rng and counts them."""

    def __init__(self, rng: Rng):
        self.rng, self.draws = rng, 0

    def integers(self, n, size):
        self.draws += int(np.prod(size))
        return self.rng.integers(n, size=size)


class TestNegativeSampling:
    def test_never_returns_positive(self):
        kg = make_kg(3, [(0, 0, 1)], n_relations=1)
        seen = set(sample_batch(kg, np.zeros(1000, dtype=np.int64), Rng(31)).t_neg.tolist())
        assert 1 not in seen
        assert seen <= {0, 2}

    def test_uniform_over_valid_tails(self):
        # single positive leaves 99 valid tails (the head itself is valid)
        kg = make_kg(100, [(0, 0, 1)], n_relations=1)
        t_neg = sample_batch(kg, np.zeros(10_000, dtype=np.int64), Rng(33)).t_neg
        counts = np.bincount(t_neg, minlength=100)
        assert counts[1] == 0
        valid = np.delete(counts, 1)
        expected = 10_000 / 99
        chi2 = float(np.sum((valid - expected) ** 2 / expected))
        assert chi2 < CHI2_98_P01

    def test_exhaustion_error(self):
        # head 0 holds every tail under relation 0
        kg = make_kg(3, [(0, 0, 0), (0, 0, 1), (0, 0, 2)], n_relations=1)
        with pytest.raises(SamplingExhaustedError):
            sample_batch(kg, [0], Rng(1))
        # tail 0 is reached from every head under relation 0
        kg = make_kg(3, [(0, 0, 0), (1, 0, 0), (2, 0, 0)], n_relations=1)
        with pytest.raises(SamplingExhaustedError):
            sample_batch(kg, np.zeros(20, dtype=np.int64), Rng(1), corrupt_heads=True)
        # user 1 of 2 holds all 5 items (ranking keys u * n_items + i); it gives up after 4 * 5 draws
        keys = np.array([0, 5, 6, 7, 8, 9], dtype=np.int64)
        rng = CountingRng(Rng(1))
        with pytest.raises(SamplingExhaustedError):
            sample_absent(keys, [1 * 5], 1, 5, rng)
        assert rng.draws == 20

    def test_batch_negatives_absent_from_graph(self):
        triples = [(0, 0, 1), (1, 0, 2), (2, 1, 3), (3, 1, 4), (4, 0, 0)]
        kg = make_kg(5, triples)
        observed = set(triples)
        for corrupt_heads in (False, True):
            batch = sample_batch(kg, np.tile(np.arange(5), 4), Rng(3), corrupt_heads=corrupt_heads)
            assert np.any(batch.h_neg != batch.h) == corrupt_heads
            for j in range(len(batch)):
                assert (int(batch.h_neg[j]), int(batch.r[j]), int(batch.t_neg[j])) not in observed
                assert (int(batch.h[j]), int(batch.r[j]), int(batch.t[j])) in observed

    def test_head_corruption_flag(self):
        triples = [(0, 0, 1), (1, 0, 2), (2, 1, 3), (3, 1, 4), (4, 0, 0)]
        kg = make_kg(5, triples)
        tails_only = sample_batch(kg, np.arange(5), Rng(3), corrupt_heads=False)
        assert np.array_equal(tails_only.h_neg, tails_only.h)
        mixed = sample_batch(kg, np.tile(np.arange(5), 40), Rng(3), corrupt_heads=True)
        assert np.any(mixed.h_neg != mixed.h)
        assert np.any(mixed.t_neg != mixed.t)


def equal_energy_table(n=4, d=3, k=2):
    # zero entities and relations: every energy is 0, so every margin is 0
    return table_from(np.zeros((n, d)), np.zeros((1, k)), np.zeros((1, k, d)))


class TestKgLoss:
    def test_equal_energies_give_ln2_each(self):
        t = equal_energy_table()
        batch = TripleBatch(
            h=np.array([0, 1, 2]),
            r=np.array([0, 0, 0]),
            t=np.array([1, 2, 3]),
            h_neg=np.array([0, 1, 2]),
            t_neg=np.array([3, 0, 1]),
        )
        loss, *_ = kg_loss(t, batch)
        assert abs(loss - 3 * math.log(2)) < 1e-9

    def test_saturated_pair_loss_vanishes(self):
        # huge positive margin: g(neg) - g(pos) = large -> softplus(-large) -> 0
        ent = np.array([[0.0, 0.0], [0.0, 0.0], [100.0, 0.0]])
        t = table_from(ent, np.zeros((1, 2)), [np.eye(2)])
        batch = TripleBatch(
            h=np.array([0]), r=np.array([0]), t=np.array([1]),
            h_neg=np.array([0]), t_neg=np.array([2]),
        )
        loss, *_ = kg_loss(t, batch)
        assert loss < 1e-12

    def test_empty_batch(self):
        t = fresh_table()
        empty = np.array([], dtype=np.int64)
        batch = TripleBatch(empty, empty, empty, empty, empty)
        loss, grads, ents, rels = kg_loss(t, batch)
        assert loss == 0.0
        assert len(ents) == 0 and len(rels) == 0
        assert grads["entity"].shape == (0, t.d)
        assert grads["relation"].shape == (0, t.k)
        assert grads["projection"].shape == (0, t.k, t.d)
        self.assert_matches_dense_oracle(t, batch)

    def test_non_finite_reports_pair(self):
        t = table_from([[np.inf, 0.0], [0.0, 0.0]], np.zeros((1, 2)), [np.eye(2)])
        batch = TripleBatch(
            h=np.array([0]), r=np.array([0]), t=np.array([1]),
            h_neg=np.array([0]), t_neg=np.array([1]),
        )
        with pytest.raises(NumericFaultError, match="pair 0"):
            kg_loss(t, batch)

    def sample_toy(self, seed=7):
        triples = [(0, 0, 1), (1, 0, 2), (2, 1, 3), (3, 1, 4)]
        kg = make_kg(5, triples)
        batch = sample_batch(kg, np.arange(4), Rng(seed))
        return kg, batch

    def test_gradients_match_finite_differences(self):
        _, batch = self.sample_toy()
        base = fresh_table(seed=11)

        def loss_fn(params):
            t = EmbeddingTable(params["entity"], params["relation"], params["projection"])
            return dense_kg_loss(t, batch)

        report = finite_diff_check(
            loss_fn,
            {"entity": base.entity, "relation": base.relation, "projection": base.projection},
            tolerance=1e-4,
        )
        assert report.passed, f"max rel err {report.max_rel_error:.3e} at {report.worst}"

    def test_grads_touch_only_batch_rows(self):
        _, batch = self.sample_toy()
        t = fresh_table(seed=13)
        _, grads, ents, rels = kg_loss(t, batch)
        assert ents.tolist() == sorted({*batch.h, *batch.t, *batch.h_neg, *batch.t_neg})
        assert rels.tolist() == sorted(set(batch.r))
        assert grads["entity"].shape == (len(ents), t.d)
        assert grads["relation"].shape == (len(rels), t.k)
        assert grads["projection"].shape == (len(rels), t.k, t.d)

    def assert_matches_dense_oracle(self, t, batch):
        loss, grads, ents, rels = kg_loss(t, batch)
        want_loss, want = kg_loss_dense_reference(t, batch)
        assert loss == want_loss
        for name, rows in (("entity", ents), ("relation", rels), ("projection", rels)):
            assert np.array_equal(grads[name], want[name][rows]), name
            assert not np.any(np.delete(want[name], rows, axis=0)), name

    def test_matches_dense_oracle_bitwise(self):
        rng = Rng(43)
        triples = list(dict.fromkeys(
            (int(rng.integers(12)), int(rng.integers(3)), int(rng.integers(12))) for _ in range(40)
        ))
        kg = make_kg(12, triples, n_relations=3)
        t = fresh_table(n_entities=12, n_relations=3, d=5, k=4, seed=3)
        for corrupt_heads in (False, True):
            idx = rng.integers(len(triples), size=60)  # repeated triples too
            self.assert_matches_dense_oracle(t, sample_batch(kg, idx, rng.split(int(corrupt_heads)), corrupt_heads))

    def test_one_entity_in_every_role_and_relation(self):
        # entity 0 is head, tail, corrupted head and corrupted tail, under both relations
        t = fresh_table(n_entities=4, n_relations=3, seed=17)
        batch = TripleBatch(
            h=np.array([0, 1, 0, 2, 0]),
            r=np.array([2, 0, 0, 2, 2]),
            t=np.array([1, 0, 3, 0, 0]),
            h_neg=np.array([0, 0, 3, 2, 1]),
            t_neg=np.array([2, 0, 0, 3, 0]),
        )
        self.assert_matches_dense_oracle(t, batch)
        _, _, ents, rels = kg_loss(t, batch)
        assert ents.tolist() == [0, 1, 2, 3] and rels.tolist() == [0, 2]

    def test_one_pair_batch(self):
        t = fresh_table(seed=29)
        batch = TripleBatch(h=np.array([3]), r=np.array([1]), t=np.array([4]), h_neg=np.array([3]), t_neg=np.array([0]))
        self.assert_matches_dense_oracle(t, batch)

    def test_full_batch_descent_monotone_after_transient(self):
        # 10-triple toy graph, 50 plain gradient steps at lr 0.01
        rng = Rng(41)
        triples = [(int(rng.integers(6)), int(rng.integers(2)), int(rng.integers(6))) for _ in range(14)]
        triples = list(dict.fromkeys(triples))[:10]
        kg = make_kg(6, triples, n_relations=2)
        batch = sample_batch(kg, np.arange(len(triples)), rng.split(1))
        t = fresh_table(n_entities=6, n_relations=2, d=4, k=3, seed=19, std=0.5)
        losses = []
        for _ in range(50):
            loss, grads, ents, rels = kg_loss(t, batch)
            losses.append(loss)
            t.entity[ents] -= 0.01 * grads["entity"]
            t.relation[rels] -= 0.01 * grads["relation"]
            t.projection[rels] -= 0.01 * grads["projection"]
        for j in range(3, 49):
            assert losses[j + 1] < losses[j], f"loss rose at step {j}: {losses[j]} -> {losses[j + 1]}"


class TestInitTable:
    def test_shapes(self):
        t = init_table(7, 3, 4, 2, 0.1, Rng(0))
        assert t.entity.shape == (7, 4)
        assert t.relation.shape == (3, 2)
        assert t.projection.shape == (3, 2, 4)
        assert (t.n_entities, t.n_relations, t.d, t.k) == (7, 3, 4, 2)

    def test_deterministic(self):
        a = init_table(5, 2, 3, 3, 0.1, Rng(8, (21,)))
        b = init_table(5, 2, 3, 3, 0.1, Rng(8, (21,)))
        assert np.array_equal(a.entity, b.entity)
        assert np.array_equal(a.projection, b.projection)

    def test_copy_is_deep(self):
        t = fresh_table()
        c = t.copy()
        c.entity[0, 0] += 1.0
        assert t.entity[0, 0] != c.entity[0, 0]
