"""Optimizer behavior, the alternating training loop, and its failure modes."""

import math

import numpy as np
import pytest

from ckgrec import training
from ckgrec.config import RunConfig
from ckgrec.errors import TrainingDiverged
from ckgrec.graph import build_bipartite, build_graphs
from ckgrec.model import BprBatch, build_model, bpr_loss
from ckgrec.rng import Rng
from ckgrec.training import Adam, train

from conftest import rec, table, toy_dual

# chi-square critical value at p = 0.01 for 98 degrees of freedom
CHI2_98_P01 = 133.476


class TestAdam:
    def test_zero_lr_is_bitwise_noop(self):
        p = Rng(1).normal(size=(4, 3))
        before = p.copy()
        opt = Adam(lr=0.0)
        opt.step("p", p, np.ones_like(p))
        assert np.array_equal(p, before)
        assert opt.m == {} and opt.t == {}

    def test_first_step_moves_against_gradient(self):
        p = np.zeros((3,))
        g = np.array([1.0, -2.0, 0.0])
        opt = Adam(lr=0.1)
        opt.step("p", p, g)
        assert p[0] < 0 and p[1] > 0 and p[2] == 0.0

    def test_descends_on_quadratic(self):
        p = np.array([3.0, -4.0])
        opt = Adam(lr=0.05)
        for _ in range(300):
            opt.step("p", p, 2.0 * p)
        assert np.linalg.norm(p) < 0.05

    def test_lazy_rows_leave_others_bitwise(self):
        p = Rng(2).normal(size=(6, 4))
        before = p.copy()
        opt = Adam(lr=0.01)
        rows = np.array([1, 3])
        opt.step("p", p, np.ones((len(rows), 4)), rows=rows)  # one gradient row per stepped row
        untouched = np.array([0, 2, 4, 5])
        assert np.array_equal(p[untouched], before[untouched])
        assert not np.array_equal(p[rows], before[rows])
        # moments exist only where stepped
        assert not np.any(opt.m["p"][untouched])

    def test_full_row_set_matches_dense(self):
        rng = Rng(3)
        p_dense = rng.normal(size=(5, 2))
        p_lazy = p_dense.copy()
        opt_d, opt_l = Adam(lr=0.02), Adam(lr=0.02)
        for step in range(7):
            g = np.sin(p_dense + step)  # any deterministic grad stream
            opt_d.step("p", p_dense, g)
            opt_l.step("p", p_lazy, g, rows=np.arange(5))
            assert np.array_equal(p_dense, p_lazy)


def toy_pairs():
    return np.array([[0, 0], [1, 1]], dtype=np.int64)


class TestTrainLoop:
    def test_zero_epochs_bitwise_unchanged(self):
        model, _ = toy_dual()
        saved = {n: p.copy() for n, p in model.params().items()}
        result = train(model, toy_pairs(), RunConfig(epochs=0), Rng(4))
        assert result.history == []
        for n, p in result.model.params().items():
            assert np.array_equal(p, saved[n])

    def test_same_seed_identical_runs(self):
        settings = RunConfig(lr=0.01, epochs=5, kg_batch=3, cf_batch=1)
        histories, finals = [], []
        for _ in range(2):
            model, _ = toy_dual()
            result = train(model, toy_pairs(), settings, Rng(42, (13,)))
            histories.append(result.history)
            finals.append({n: p.copy() for n, p in result.model.params().items()})
        deterministic = ("epoch", "kg_u", "kg_i", "cf", "reg", "total")
        for a, b in zip(histories[0], histories[1], strict=True):
            assert all(a[k] == b[k] for k in deterministic)  # wall_ms may differ
        for n in finals[0]:
            assert np.array_equal(finals[0][n], finals[1][n])

    def test_history_rows_are_complete(self):
        model, _ = toy_dual()
        result = train(model, toy_pairs(), RunConfig(epochs=3), Rng(5))
        assert len(result.history) == 3
        for row in result.history:
            assert set(row) == {"epoch", "kg_u", "kg_i", "cf", "reg", "total", "wall_ms", "val_recall"}
            parts = row["kg_u"] + row["kg_i"] + row["cf"] + row["reg"]
            assert abs(row["total"] - parts) < 1e-12

    def test_loss_decreases_on_toy(self):
        model, _ = toy_dual()
        result = train(model, toy_pairs(), RunConfig(lr=0.01, epochs=40), Rng(6))
        assert result.history[-1]["total"] < result.history[0]["total"]

    def test_divergence_aborts_with_last_good_state(self):
        model, _ = toy_dual()
        saved = {n: p.copy() for n, p in model.params().items()}
        with pytest.raises(TrainingDiverged) as err:
            train(model, toy_pairs(), RunConfig(lr=1e154, epochs=3), Rng(7))
        state = err.value.last_good_state
        assert state is not None
        for n, p in state.items():
            assert np.all(np.isfinite(p))
        assert err.value.history is not None
        # diverged inside the very first epoch: snapshot is the initial state
        if not err.value.history:
            for n in saved:
                assert np.array_equal(state[n], saved[n])

    def test_early_stop_after_patience(self):
        model, _ = toy_dual()
        recalls = iter([0.5, 0.4, 0.3, 0.2, 0.1, 0.05])
        result = train(
            model, toy_pairs(), RunConfig(epochs=30, patience=3), Rng(8),
            val_recall=lambda m: next(recalls),
        )
        assert len(result.history) == 4  # epoch 0 best, then 3 stale epochs
        assert result.best_epoch == 0 and result.best_recall == 0.5

    def test_restores_best_validation_state(self):
        model, _ = toy_dual()
        recalls = [0.1, 0.9, 0.1, 0.1, 0.1]
        snapshots = []

        def val_fn(m):
            snapshots.append({n: p.copy() for n, p in m.params().items()})
            return recalls[len(snapshots) - 1]

        result = train(model, toy_pairs(), RunConfig(epochs=10, patience=3), Rng(9), val_fn)
        assert result.best_epoch == 1 and result.best_recall == 0.9
        best = snapshots[1]
        for n, p in result.model.params().items():
            assert np.array_equal(p, best[n])

    def test_full_catalog_user_dropped_from_ranking(self):
        model, _ = toy_dual()
        pairs = np.array([[0, 0], [0, 1], [1, 1]], dtype=np.int64)  # user 0 holds every item
        result = train(model, pairs, RunConfig(lr=0.01, epochs=2), Rng(10))
        assert len(result.history) == 2  # completes without sampling exhaustion


class TestRankingNegatives:
    def test_never_a_training_item_and_uniform_over_the_rest(self, monkeypatch):
        # 100 items; user u0 trained on i0 only, user u1 on i1 and i2
        items = [f"i{j}" for j in range(100)]
        records = [rec("u0", "i0"), rec("u1", "i1"), rec("u1", "i2")]
        bg = build_bipartite(table(records), vocab_records=table(records + [rec("u0", it) for it in items]))
        kg_u, kg_i, align = build_graphs(bg, [], [])
        model = build_model(kg_u, kg_i, align, d=2, k=2, n_layers=1, dims=(2, 2), std=0.1, rng=Rng(1))
        pairs = np.array([[0, 0]] * 10_000 + [[1, 1], [1, 2]] * 500, dtype=np.int64)
        seen = []

        def spy(m, batch, res_u, res_i):
            seen.append(batch)
            return bpr_loss(m, batch, res_u, res_i)

        monkeypatch.setattr(training, "bpr_loss", spy)
        train(model, pairs, RunConfig(epochs=1, cf_batch=len(pairs)), Rng(34))
        (batch,) = seen
        negs_u0 = batch.neg_items[batch.users == 0]
        negs_u1 = batch.neg_items[batch.users == 1]
        assert len(negs_u0) == 10_000 and len(negs_u1) == 1000
        assert not np.isin(negs_u1, [1, 2]).any()
        counts = np.bincount(negs_u0, minlength=100)
        assert counts[0] == 0
        valid = counts[1:]
        expected = 10_000 / 99
        chi2 = float(np.sum((valid - expected) ** 2 / expected))
        assert chi2 < CHI2_98_P01


class TestTrainingProperties:
    def test_single_triplet_bpr_strictly_decreases(self):
        # plain gradient descent, lr 0.01, 100 steps, one (u, i, j) triplet
        model, _ = toy_dual()
        batch = BprBatch(
            users=np.array([0], dtype=np.int64),
            pos_items=np.array([0], dtype=np.int64),
            neg_items=np.array([1], dtype=np.int64),
        )
        losses = []
        for _ in range(100):
            res_u, res_i = model.propagate_both()
            loss, grads = bpr_loss(model, batch, res_u, res_i)
            losses.append(loss)
            model.set_params({n: p - 0.01 * grads[n] for n, p in model.params().items()})
        for j in range(99):
            assert losses[j + 1] < losses[j], f"ranking loss rose at step {j}"

    def test_ranking_invariant_to_positive_rescale(self):
        model, _ = toy_dual()
        users, items = model.representations(*model.stitched())
        scores = users @ items.T
        scaled = users @ (37.5 * items).T
        assert np.array_equal(
            np.argsort(-scores, axis=1, kind="stable"),
            np.argsort(-scaled, axis=1, kind="stable"),
        )

    def test_smoothed_total_loss_non_increasing(self, synth_trained):
        totals = [row["total"] for row in synth_trained["history"]]
        window = 5
        smoothed = [
            sum(totals[j - window + 1: j + 1]) / window
            for j in range(window - 1, len(totals))
        ]
        # smoothed curve starts at epoch 5; tolerate float noise only
        for j in range(1, len(smoothed)):
            assert smoothed[j] <= smoothed[j - 1] * (1 + 1e-9), (
                f"smoothed total rose at window {j}: {smoothed[j - 1]} -> {smoothed[j]}"
            )
