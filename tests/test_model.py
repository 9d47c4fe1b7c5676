"""Dual-graph stitching, ranking loss, and the joint objective."""

import dataclasses
import math

import numpy as np
import pytest

from ckgrec.errors import ColdEntityError
from ckgrec.graph import AlignmentMap, build_bipartite, build_graphs
from ckgrec.kernels import finite_diff_check
from ckgrec.model import BprBatch, bpr_loss, build_model, total_loss
from ckgrec.rng import Rng
from ckgrec.transr import sample_batch

from conftest import rec, table, toy_cf_batch, toy_dual


class TestDualModel:
    def test_final_dim_toy(self):
        model, _ = toy_dual()
        # two stitched (4+3+2)-vectors concatenated
        assert model.final_dim == 18

    def test_final_dim_default_widths(self):
        bg = build_bipartite(table([rec("u0", "i0"), rec("u1", "i1")]))
        kg_u, kg_i, align = build_graphs(bg, [], [])
        model = build_model(kg_u, kg_i, align, d=64, k=64, n_layers=2, dims=None, std=0.1, rng=Rng(1))
        assert model.stack_u.stitched_dim == 64 + 32 + 16
        assert model.final_dim == 224

    def test_param_names(self):
        model, _ = toy_dual()
        want = set()
        for p in ("u.", "i."):
            want |= {p + "entity", p + "relation", p + "projection", p + "w1.1", p + "w1.2", p + "attn.2"}
        assert set(model.params()) == want

    def test_set_params_round_trip(self):
        model, _ = toy_dual()
        saved = {n: p.copy() for n, p in model.params().items()}
        model.table_u.entity += 1.0
        model.stack_i.w1[0] *= 2.0
        model.set_params(saved)
        for n, p in model.params().items():
            assert np.array_equal(p, saved[n])

    def test_copy_is_independent(self):
        model, _ = toy_dual()
        clone = model.copy()
        clone.table_u.entity[0, 0] += 5.0
        clone.stack_u.w1[0][0, 0] += 5.0
        assert model.table_u.entity[0, 0] != clone.table_u.entity[0, 0]
        assert model.stack_u.w1[0][0, 0] != clone.stack_u.w1[0][0, 0]

    def test_final_representation_concatenates_sides(self):
        model, _ = toy_dual()
        res_u, res_i = model.propagate_both()
        a = model.align
        for u in range(2):
            want = np.concatenate(
                [res_u.stitched[a.users_user_side[u]], res_i.stitched[a.users_item_side[u]]]
            )
            assert np.array_equal(model.final_representation("user", u, res_u, res_i), want)
        for i in range(2):
            want = np.concatenate(
                [res_u.stitched[a.items_user_side[i]], res_i.stitched[a.items_item_side[i]]]
            )
            assert np.array_equal(model.final_representation("item", i, res_u, res_i), want)

    def test_representations_match_per_entity_path(self):
        model, _ = toy_dual()
        res_u, res_i = model.propagate_both()
        users, items = model.representations(res_u, res_i)
        for u in range(2):
            assert np.array_equal(users[u], model.final_representation("user", u, res_u, res_i))
        for i in range(2):
            assert np.array_equal(items[i], model.final_representation("item", i, res_u, res_i))

    def test_predict_score_is_inner_product(self):
        model, _ = toy_dual()
        res_u, res_i = model.propagate_both()
        fu = model.final_representation("user", 0, res_u, res_i)
        fi = model.final_representation("item", 1, res_u, res_i)
        want = float(sum(a * b for a, b in zip(fu, fi)))
        assert abs(model.predict_score(0, 1, res_u, res_i) - want) < 1e-12

    def test_cold_entity_strict_and_zero_filled(self):
        model, _ = toy_dual()
        a = model.align
        cold = AlignmentMap(
            users_user_side=a.users_user_side.copy(),
            items_user_side=a.items_user_side.copy(),
            users_item_side=a.users_item_side.copy(),
            items_item_side=a.items_item_side.copy(),
        )
        cold.users_item_side[0] = -1
        chilled = dataclasses.replace(model, align=cold)
        res_u, res_i = chilled.propagate_both()
        with pytest.raises(ColdEntityError):
            chilled.final_representation("user", 0, res_u, res_i)
        users, _ = chilled.representations(res_u, res_i)
        su = chilled.stack_u.stitched_dim
        assert not np.any(users[0, su:])  # missing side zero-filled
        assert np.any(users[0, :su])

    def test_unknown_kind_rejected(self):
        model, _ = toy_dual()
        res_u, res_i = model.propagate_both()
        with pytest.raises(ValueError):
            model.final_representation("session", 0, res_u, res_i)


class TestBprLoss:
    def test_zero_embeddings_give_ln2_per_triplet(self):
        model, _ = toy_dual()
        model.table_u.entity[:] = 0.0
        model.table_i.entity[:] = 0.0
        res_u, res_i = model.propagate_both()
        batch = toy_cf_batch()
        loss, _ = bpr_loss(model, batch, res_u, res_i)
        assert abs(loss - 2 * math.log(2)) < 1e-12

    def test_gradients_match_finite_differences(self):
        model, _ = toy_dual()
        batch = toy_cf_batch()

        def loss_fn(p):
            m = model.copy()
            m.set_params(p)
            res_u, res_i = m.propagate_both()
            return bpr_loss(m, batch, res_u, res_i)

        report = finite_diff_check(loss_fn, model.params(), tolerance=1e-4)
        assert report.passed, f"max rel err {report.max_rel_error:.3e} at {report.worst}"

    def test_gradient_step_descends(self):
        model, _ = toy_dual()
        batch = toy_cf_batch()
        res_u, res_i = model.propagate_both()
        loss0, grads = bpr_loss(model, batch, res_u, res_i)
        stepped = model.copy()
        stepped.set_params({n: p - 1e-3 * grads[n] for n, p in model.params().items()})
        res_u2, res_i2 = stepped.propagate_both()
        loss1, _ = bpr_loss(stepped, batch, res_u2, res_i2)
        assert loss1 < loss0

    def test_gradients_cover_every_parameter(self):
        model, _ = toy_dual()
        res_u, res_i = model.propagate_both()
        _, grads = bpr_loss(model, toy_cf_batch(), res_u, res_i)
        for name, p in model.params().items():
            assert name in grads and grads[name].shape == p.shape


class TestTotalLoss:
    def make_batches(self, model, seed=5):
        rng = Rng(seed)
        batch_u = sample_batch(model.kg_u, np.arange(model.kg_u.n_triples), rng.split(0))
        batch_i = sample_batch(model.kg_i, np.arange(model.kg_i.n_triples), rng.split(1))
        return batch_u, batch_i, toy_cf_batch()

    def test_decomposition_is_exact(self):
        model, _ = toy_dual()
        batch_u, batch_i, cf = self.make_batches(model)
        total, _, parts = total_loss(model, batch_u, batch_i, cf, lam=1e-3)
        assert abs(total - sum(parts.values())) < 1e-12
        assert set(parts) == {"kg_u", "kg_i", "cf", "reg"}
        assert all(v >= 0.0 for v in parts.values())

    def test_reg_term_formula(self):
        model, _ = toy_dual()
        batch_u, batch_i, cf = self.make_batches(model)
        lam = 1e-3
        _, _, parts = total_loss(model, batch_u, batch_i, cf, lam)
        want = lam * sum(float(np.sum(p * p)) for p in model.params().values())
        assert abs(parts["reg"] - want) < 1e-12

    def test_lambda_zero_drops_reg(self):
        model, _ = toy_dual()
        batch_u, batch_i, cf = self.make_batches(model)
        total, _, parts = total_loss(model, batch_u, batch_i, cf, 0.0)
        assert parts["reg"] == 0.0
        assert abs(total - (parts["kg_u"] + parts["kg_i"] + parts["cf"])) < 1e-12

    def test_gradients_match_finite_differences(self):
        model, _ = toy_dual()
        batch_u, batch_i, cf = self.make_batches(model)

        def loss_fn(p):
            m = model.copy()
            m.set_params(p)
            total, grads, _ = total_loss(m, batch_u, batch_i, cf, lam=1e-3)
            return total, grads

        report = finite_diff_check(loss_fn, model.params(), tolerance=1e-4)
        assert report.passed, f"max rel err {report.max_rel_error:.3e} at {report.worst}"

    def test_gradients_cover_every_parameter(self):
        model, _ = toy_dual()
        batch_u, batch_i, cf = self.make_batches(model)
        _, grads, _ = total_loss(model, batch_u, batch_i, cf, lam=1e-4)
        assert set(grads) == set(model.params())
