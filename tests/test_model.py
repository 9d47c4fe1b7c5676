"""Dual-graph stitching, ranking loss, and the joint objective."""

import copy
import math

import numpy as np
import pytest

from ckgrec.graph import build_bipartite, build_graphs
from ckgrec.model import BprBatch, bpr_loss, build_model
from ckgrec.rng import Rng
from ckgrec.transr import sample_batch

from conftest import rec, table, toy_cf_batch, toy_dual
from gradcheck import bpr_loss_add_at, finite_diff_check, total_loss


class TestDualModel:
    def test_final_dim_toy(self):
        model, _ = toy_dual()
        users, items = model.representations(*model.stitched())
        # two stitched (4+3+2)-vectors concatenated
        assert users.shape[1] == items.shape[1] == 18

    def test_final_dim_default_widths(self):
        bg = build_bipartite(table([rec("u0", "i0"), rec("u1", "i1")]))
        kg_u, kg_i, align = build_graphs(bg, [], [])
        model = build_model(kg_u, kg_i, align, d=64, k=64, n_layers=2, dims=None, std=0.1, rng=Rng(1))
        assert model.stack_u.stitched_dim == 64 + 32 + 16
        users, items = model.representations(*model.stitched())
        assert users.shape[1] == items.shape[1] == 224

    def test_param_names(self):
        for shared in (True, False):
            model, _ = toy_dual(shared_weights=shared)
            want = []
            for p in ("u.", "i."):
                want += [p + "entity", p + "relation", p + "projection", p + "w1.1"]
                want += [p + "w1.2", p + "attn.2"] if shared else [p + "w2.1", p + "w1.2", p + "w2.2", p + "attn.2"]
            assert list(model.params()) == want

    def test_set_params_round_trip(self):
        model, _ = toy_dual()
        saved = {n: p.copy() for n, p in model.params().items()}
        model.table_u.entity += 1.0
        model.stack_i.w1[0] *= 2.0
        model.set_params(saved)
        for n, p in model.params().items():
            assert np.array_equal(p, saved[n])

    def test_representations_concatenate_sides(self):
        model, _ = toy_dual()
        stitched_u, stitched_i = model.stitched()
        (users_u, items_u), (users_i, items_i) = model.align.user_side, model.align.item_side
        users, items = model.representations(stitched_u, stitched_i)
        su = model.stack_u.stitched_dim
        assert users.shape == (2, 2 * su) and items.shape == (2, 2 * su)
        assert np.array_equal(users[:, :su], stitched_u[users_u])
        assert np.array_equal(users[:, su:], stitched_i[users_i])
        assert np.array_equal(items[:, :su], stitched_u[items_u])
        assert np.array_equal(items[:, su:], stitched_i[items_i])

    def test_representations_match_per_entity_path(self):
        model, _ = toy_dual()
        stitched_u, stitched_i = model.stitched()
        users, items = model.representations(stitched_u, stitched_i)
        (users_u, items_u), (users_i, items_i) = model.align.user_side, model.align.item_side
        for u in range(2):
            want = np.concatenate([stitched_u[users_u.start + u], stitched_i[users_i.start + u]])
            assert np.array_equal(users[u], want)
        for i in range(2):
            want = np.concatenate([stitched_u[items_u.start + i], stitched_i[items_i.start + i]])
            assert np.array_equal(items[i], want)

    def test_stitched_matches_propagate_both(self):
        model, _ = toy_dual()
        res_u, res_i = model.propagate_both()
        stitched_u, stitched_i = model.stitched()
        assert np.array_equal(stitched_u, res_u.stitched)
        assert np.array_equal(stitched_i, res_i.stitched)


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
            m = copy.deepcopy(model)
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
        stepped = copy.deepcopy(model)
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

    @pytest.mark.parametrize("shared_weights", [True, False], ids=["shared", "unshared"])
    def test_matches_add_at_oracle_bitwise(self, synth_world, shared_weights):
        w = synth_world
        # stitched width 2 * (64 + 32 + 16) = 224 spans four row-sum column blocks
        model = build_model(w["kg_u"], w["kg_i"], w["align"], d=64, k=64, n_layers=2, dims=(64, 32, 16),
                            std=0.1, rng=Rng(42, (11,)), shared_weights=shared_weights)
        rng = np.random.default_rng(7)
        pairs = w["train_pairs"][rng.integers(len(w["train_pairs"]), size=1024)]  # users repeat
        # every positive item is also some other triplet's negative
        batch = BprBatch(pairs[:, 0], pairs[:, 1], np.roll(pairs[:, 1], 1))
        res_u, res_i = model.propagate_both()
        loss, grads = bpr_loss(model, batch, res_u, res_i)
        want_loss, want = bpr_loss_add_at(model, batch, res_u, res_i)
        assert loss == want_loss
        assert list(grads) == list(want) == list(model.params())
        for name, g in grads.items():
            assert np.array_equal(g, want[name]), name
            assert np.array_equal(np.signbit(g), np.signbit(want[name])), name


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
            m = copy.deepcopy(model)
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
