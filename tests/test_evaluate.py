"""Splitting, ranking, the two metrics, baselines, and the layer sweep report."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckgrec import cli
from ckgrec import model as model_module
from ckgrec.errors import ConfigError
from ckgrec.evaluate import (
    EvalReport,
    evaluate_model,
    model_scores,
    pairs_of,
    popularity_scores,
    random_scores,
    RANK_BLOCK,
    rank_and_score,
    score_block,
    score_matrix,
    split_dataset,
    topk_from_scores,
    truth_by_user,
)
from ckgrec.graph import build_bipartite
from ckgrec.rng import Rng

from conftest import rec, table, toy_dual
from reference import precision_recall_at_k, rank_and_score_reference, topk_reference, truth_by_user_reference
from tablerows import rows_of


def user_records(user: str, n: int):
    return [rec(user, f"i{j}") for j in range(n)]


class TestSplitDataset:
    def test_exact_8_1_1(self):
        split = split_dataset(table(user_records("u", 10)), (0.8, 0.1, 0.1), 7)
        # n*fraction is integral: stochastic rounding has nothing to round
        assert (len(split.train), len(split.validation), len(split.test)) == (8, 1, 1)

    def test_same_seed_identical(self):
        records = [rec(f"u{j % 7}", f"i{j}") for j in range(50)]
        a = split_dataset(table(records), seed=3)
        b = split_dataset(table(records), seed=3)
        assert rows_of(a.train) == rows_of(b.train) and rows_of(a.validation) == rows_of(b.validation)
        assert rows_of(a.test) == rows_of(b.test)

    def test_different_seed_differs(self):
        records = [rec(f"u{j % 7}", f"i{j}") for j in range(50)]
        a = split_dataset(table(records), seed=3)
        b = split_dataset(table(records), seed=4)
        assert rows_of(a.train) != rows_of(b.train) or rows_of(a.test) != rows_of(b.test)

    def test_small_users_go_to_train(self):
        records = user_records("a", 2) + user_records("b", 1)
        split = split_dataset(table(records))
        assert len(split.train) == 3 and not split.validation and not split.test

    def test_every_user_keeps_a_train_record(self):
        records = []
        for j in range(40):
            records += user_records(f"u{j}", 3)
        split = split_dataset(table(records), (0.1, 0.45, 0.45), seed=11)
        train_users = {u for u, *_ in rows_of(split.train)}
        assert train_users == {f"u{j}" for j in range(40)}

    def test_disjoint_and_union(self):
        records = [rec(f"u{j % 9}", f"i{j}") for j in range(60)]
        split = split_dataset(table(records), seed=5)
        parts = [split.train, split.validation, split.test]
        assert sum(len(p) for p in parts) == len(records)
        seen = [(u, i) for p in parts for u, i, *_ in rows_of(p)]
        assert sorted(seen) == sorted((u, i) for u, i, _ in records)

    def test_binomial_concentration(self):
        records = []
        for u in range(100):
            records += [rec(f"u{u}", f"i{j}") for j in range(100)]
        split = split_dataset(table(records), (0.8, 0.1, 0.1), seed=2)
        frac = len(split.train) / 10_000
        assert abs(frac - 0.8) < 0.02

    def test_ratio_validation(self):
        with pytest.raises(ConfigError):
            split_dataset(table([]), (0.8, 0.1, 0.2))
        with pytest.raises(ConfigError):
            split_dataset(table([]), (0.8, 0.2))
        with pytest.raises(ConfigError):
            split_dataset(table([]), (1.0, 0.0, 0.0))


class TestTopK:
    def test_orders_by_score_then_id(self):
        scores = np.array([0.5, 0.9, 0.5, 0.1])
        assert topk_from_scores(scores, 3).tolist() == [1, 0, 2]

    def test_all_ties_give_ascending_ids(self):
        scores = np.ones(6)
        assert topk_from_scores(scores, 4).tolist() == [0, 1, 2, 3]

    def test_k_larger_than_candidates(self):
        scores = np.array([0.3, 0.2])
        assert topk_from_scores(scores, 10).tolist() == [0, 1]

    def test_exclusion(self):
        scores = np.array([0.9, 0.8, 0.7, 0.6])
        assert topk_from_scores(scores, 2, exclude={0, 2}).tolist() == [1, 3]

    def test_never_returns_excluded(self):
        rng = Rng(14)
        for trial in range(50):
            scores = rng.random(20)
            exclude = {int(x) for x in rng.integers(0, 20, size=6)}
            got = topk_from_scores(scores, 10, exclude)
            assert not (set(got.tolist()) & exclude)

    def test_k_zero_rejected(self):
        with pytest.raises(ConfigError):
            topk_from_scores(np.ones(3), 0)

    def test_hand_ranking_on_toy_model(self):
        model, _ = toy_dual()
        scores = model_scores(model)
        users, items = model.representations(*model.stitched())
        for u in range(2):
            by_hand = sorted(range(2), key=lambda i: (-float(users[u] @ items[i]), i))
            assert topk_from_scores(scores[u], 2).tolist() == by_hand

    def test_ties_infinities_nan_and_exclusions(self):
        scores = np.array([np.nan, 1.0, np.inf, 1.0, -np.inf, np.nan, 0.0, np.inf])
        got = topk_from_scores(scores, 10, exclude={2, 6})
        assert got.tolist() == [7, 1, 3, 4, 0, 5]
        assert got.tolist() == topk_reference(scores, 10, {2, 6}).tolist()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_argsort_oracle(self, data):
        value = st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.5, 2.0, np.inf, np.nan])
        scores = np.array(data.draw(st.lists(value, min_size=1, max_size=12)))
        exclude = data.draw(st.sets(st.integers(0, len(scores) - 1)))
        k = data.draw(st.integers(1, len(scores) + 3))
        assert topk_from_scores(scores, k, exclude).tolist() == topk_reference(scores, k, exclude).tolist()

    @pytest.mark.parametrize("kind", ["set", "ndarray", "list"])
    def test_random_rows_and_exclusions_match_the_reference(self, kind):
        # rows with ties and NaNs; exclusions with duplicates, negative ids and ids past the row, which are dropped
        rng = np.random.default_rng(23)
        for trial in range(200):
            n = int(rng.integers(1, 40))
            scores = rng.choice([-1.0, 0.0, 0.25, 0.5, np.nan], size=n) if trial % 2 else rng.random(n).round(1)
            ids = rng.integers(-n - 3, 2 * n + 3, size=int(rng.integers(0, 2 * n)))
            exclude = {"set": set(ids.tolist()), "ndarray": ids, "list": ids.tolist()}[kind]
            inside = {int(i) for i in ids if 0 <= i < n}
            for k in (1, max(1, n // 2), n, n + 5):  # the last ones past what is left after the exclusions
                got = topk_from_scores(scores, k, exclude)
                assert got.tolist() == topk_reference(scores, k, inside).tolist(), (trial, k)
                assert len(got) == min(k, n - len(inside))

    def test_k_greater_than_the_row_returns_every_rankable_id(self):
        scores = np.array([0.1, np.nan, 0.7, 0.7])
        assert topk_from_scores(scores, 9).tolist() == [2, 3, 0, 1]
        assert topk_from_scores(scores, 9, np.array([3, 3, -1, 4])).tolist() == [2, 0, 1]
        assert topk_from_scores(scores, 9, {0, 1, 2, 3}).tolist() == []


class TestModelScores:
    def test_one_propagation_result_alive_at_a_time(self, monkeypatch):
        model, _ = toy_dual()
        real = model_module.propagate
        earlier = []

        def tracked(*args):
            alive = sum(ref() is not None for ref in earlier)
            assert not alive, "an earlier propagation result is still alive"
            result = real(*args)
            earlier.append(weakref.ref(result))
            return result

        monkeypatch.setattr(model_module, "propagate", tracked)
        model_scores(model)
        assert len(earlier) == 2


    def test_blocks_are_aligned_rows_of_the_score_matrix(self):
        rng = np.random.default_rng(4)
        users, items = rng.normal(size=(2 * RANK_BLOCK + 44, 12)), rng.normal(size=(30, 12))
        scores = score_matrix(users, items)
        assert scores.shape == (len(users), len(items))
        for at in range(0, len(users), RANK_BLOCK):  # the last block is partial
            block = score_block(users, items, at)
            assert block.shape == (min(RANK_BLOCK, len(users) - at), len(items))
            assert block.tobytes() == scores[at: at + RANK_BLOCK].tobytes()
        assert np.allclose(scores, users @ items.T, rtol=1e-12, atol=1e-12)

    def test_no_users_give_an_empty_matrix(self):
        assert score_matrix(np.zeros((0, 3)), np.ones((4, 3))).shape == (0, 4)


class TestTruthByUser:
    @pytest.mark.parametrize("n_pairs, n_users", [(0, 1), (1, 1), (7, 3), (500, 40), (2000, 2000)])
    def test_equals_the_per_pair_reference(self, n_pairs, n_users):
        rng = np.random.default_rng(n_pairs)
        pairs = np.stack([rng.integers(0, n_users, n_pairs), rng.integers(0, 50, n_pairs)], axis=1)
        for ordered in (pairs, pairs[np.argsort(pairs[:, 0], kind="stable")]):
            got, want = truth_by_user(ordered), truth_by_user_reference(ordered)
            # the same users in the same order, each set built in the same insertion order
            assert list(got.items()) == list(want.items())
            assert [list(s) for s in got.values()] == [list(s) for s in want.values()]

    def test_empty_pairs(self):
        assert truth_by_user(np.zeros((0, 2), dtype=np.int64)) == {}


class TestPrecisionRecall:
    def test_three_hits_of_five(self):
        recommended = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        truth = {1, 2, 3, 90, 91}
        assert precision_recall_at_k(recommended, truth, 10) == (0.3, 0.6)

    def test_no_hits(self):
        assert precision_recall_at_k([5, 6], {1, 2}, 2) == (0.0, 0.0)

    def test_full_coverage_recall_one(self):
        p, r = precision_recall_at_k([1, 2, 3], {1, 2}, 3)
        assert r == 1.0

    def test_empty_truth_rejected(self):
        with pytest.raises(ValueError):
            precision_recall_at_k([1], set(), 1)

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            precision_recall_at_k([1], {1}, 0)

    @given(
        st.sets(st.integers(0, 30), min_size=1, max_size=10),
        st.lists(st.integers(0, 30), min_size=0, max_size=10, unique=True),
        st.integers(1, 12),
    )
    @settings(max_examples=200)
    def test_hit_count_identity(self, truth, recommended, k):
        recommended = recommended[:k]
        p, r = precision_recall_at_k(recommended, truth, k)
        hits = len(set(recommended) & truth)
        assert p * k == pytest.approx(hits)
        assert r * len(truth) == pytest.approx(hits)


class TestRankAndScore:
    def matrix_world(self):
        # 3 users x 5 items with hand scores
        scores = np.array(
            [
                [0.9, 0.8, 0.7, 0.6, 0.5],
                [0.1, 0.9, 0.2, 0.8, 0.3],
                [0.5, 0.5, 0.5, 0.5, 0.5],
            ]
        )
        train_items = {0: {0}, 1: set(), 2: {1, 2}}
        truth = {0: {1, 4}, 1: {3}, 2: {0}}
        return scores, train_items, truth

    def test_hand_case(self):
        scores, train_items, truth = self.matrix_world()
        p, r = rank_and_score(scores, train_items, truth, 2)
        # u0: top2 w/o item0 = [1,2] -> 1 hit; u1: [1,3] -> 1 hit; u2: [0,3] -> 1 hit
        assert p == pytest.approx((0.5 + 0.5 + 0.5) / 3)
        assert r == pytest.approx((0.5 + 1.0 + 1.0) / 3)

    def test_train_items_never_recommended(self):
        scores, train_items, truth = self.matrix_world()
        truth_incl_train = {0: {0}, 2: {1}}
        p, r = rank_and_score(scores, train_items, truth_incl_train, 5)
        assert r == 0.0  # train items are off the candidate list

    def test_user_order_permutation_invariant(self):
        scores, train_items, truth = self.matrix_world()
        base = rank_and_score(scores, train_items, truth, 2)
        # feeding users in any order changes nothing: macro mean over a set
        shuffled = rank_and_score(scores, train_items, dict(reversed(list(truth.items()))), 2)
        assert base == shuffled

    def test_perfect_oracle_reaches_recall_one(self):
        truth = {0: {1, 4}, 1: {3}, 2: {0}}
        oracle = np.zeros((3, 5))
        for u, items in truth.items():
            for i in items:
                oracle[u, i] = 1.0
        p, r = rank_and_score(oracle, {}, truth, 2)
        assert r == 1.0

    def test_empty_truth_gives_nan(self):
        p, r = rank_and_score(np.ones((2, 3)), {}, {}, 2)
        assert np.isnan(p) and np.isnan(r)

    @staticmethod
    def random_world(rng, n_users, n_items, shared):
        """Heavy ties, -0.0, +-inf and NaN scores; as one row broadcast to every user when `shared`."""
        scores = rng.integers(0, 3, size=(n_users, n_items)).astype(np.float64)
        scores[rng.random(scores.shape) < 0.1] = -0.0  # ties with 0.0
        scores[rng.random(scores.shape) < 0.1] = np.inf
        scores[rng.random(scores.shape) < 0.1] = -np.inf
        scores[rng.random(scores.shape) < 0.05] = np.nan  # ranked last, as a stable argsort does
        if shared:
            scores = np.broadcast_to(scores[0], scores.shape)
        train_items = {
            u: set(rng.choice(n_items, size=int(rng.integers(0, n_items + 1)), replace=False).tolist())
            for u in range(n_users) if rng.random() < 0.9
        }
        truth = {
            u: set(rng.choice(n_items, size=int(rng.integers(0, min(n_items, 4) + 1)), replace=False).tolist())
            for u in range(n_users) if rng.random() < 0.9
        }
        return scores, train_items, truth

    @pytest.mark.parametrize("n_users,n_items,k,shared", [
        pytest.param(*case, shared, id="-".join(map(str, case)) + ("-shared" if shared else ""))
        for shared in (False, True) for case in [(300, 40, 10), (25, 6, 5), (30, 6, 6), (40, 3, 10)]
    ])
    def test_matches_per_user_reference(self, n_users, n_items, k, shared):
        """Some users have fewer than k rankable items or no truth; k reaches n_items in two cases."""
        rng = np.random.default_rng(n_users)
        for trial in range(5):
            scores, train_items, truth = self.random_world(rng, n_users, n_items, shared)
            assert any(not items for items in truth.values())
            assert any(n_items - len(train_items.get(u, ())) < k for u in truth)
            assert rank_and_score(scores, train_items, truth, k) == rank_and_score_reference(scores, train_items, truth, k)

    @pytest.mark.parametrize("shared", [False, True])
    def test_ids_outside_the_catalog_are_dropped(self, shared):
        """Negative ids and ids >= n_items in either dict change nothing, on both ranking paths."""
        n_users, n_items, k = 200, 12, 5
        rng = np.random.default_rng(3)
        scores, train_items, truth = self.random_world(rng, n_users, n_items, shared)
        outside = [-n_items - 1, -1, n_items, n_items + 7]
        with_outside = [{u: items | set(rng.choice(outside, size=2).tolist()) for u, items in sets.items()}
                        for sets in (train_items, truth)]
        assert any(not items for items in truth.values())  # users whose truth lies wholly outside are not scored
        got = rank_and_score(scores, *with_outside, k)
        assert got == rank_and_score(scores, train_items, truth, k)
        assert got == rank_and_score_reference(scores, train_items, truth, k)
        for u in range(3):
            assert (topk_from_scores(scores[u], k, with_outside[0].get(u)).tolist()
                    == topk_from_scores(scores[u], k, train_items.get(u)).tolist())


class TestBaselines:
    def test_popularity_ranks_by_count(self):
        pairs = np.array([[0, 2], [1, 2], [2, 2], [0, 1], [1, 1], [0, 0]])
        scores = popularity_scores(pairs, 3, 4)
        assert topk_from_scores(scores[0], 4).tolist() == [2, 1, 0, 3]

    def test_random_is_seed_stable(self):
        a = random_scores(9, 4, 7)
        b = random_scores(9, 4, 7)
        assert np.array_equal(a, b)
        c = random_scores(10, 4, 7)
        assert not np.array_equal(a, c)

    def test_popularity_beats_random_on_zipf(self):
        # heavily skewed interactions: popularity should dominate random
        rng = Rng(77)
        n_users, n_items = 200, 50
        weights = 1.0 / np.arange(1, n_items + 1)
        weights /= weights.sum()
        train, test = [], []
        for u in range(n_users):
            items = rng.choice(n_items, size=8, replace=False, p=weights)
            train.extend((u, int(i)) for i in items[:6])
            test.extend((u, int(i)) for i in items[6:])
        train = np.array(train)
        test = np.array(test)
        train_items = truth_by_user(train)
        truth = truth_by_user(test)
        p_pop, r_pop = rank_and_score(popularity_scores(train, n_users, n_items), train_items, truth, 10)
        p_rnd, r_rnd = rank_and_score(random_scores(1, n_users, n_items), train_items, truth, 10)
        assert r_pop > r_rnd


class TestReportAndSweep:
    def test_metrics_bounds_enforced(self):
        report = EvalReport()
        report.add("ok", 10, 0.5, 1.0, 0, 12.0)
        with pytest.raises(ConfigError):
            report.add("bad", 10, 1.5, 0.5, 0, 12.0)
        with pytest.raises(ConfigError):
            report.add("bad", 10, 0.5, -0.1, 0, 12.0)

    def test_csv_shape(self, tmp_path):
        report = EvalReport()
        report.add("model", 10, 0.25, 0.5, 42, 3.25)
        out = tmp_path / "r.csv"
        report.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "label,K,precision,recall,seed,wall_ms"
        assert lines[1].startswith("model,10,0.25,0.5,42,")

    def test_pairs_of_skips_out_of_vocab(self):
        bg = build_bipartite(table([rec("u1", "i1")]))
        pairs = pairs_of(table([rec("u1", "i1"), rec("ghost", "i1"), rec("u1", "phantom")]), bg)
        assert pairs.tolist() == [[0, 0]]

    def test_evaluate_model_runs_on_toy(self):
        model, bg = toy_dual()
        train_pairs = np.array([[0, 0], [1, 1]])
        eval_pairs = np.array([[0, 1], [1, 0]])
        row = evaluate_model(model, train_pairs, eval_pairs, k=1, seed=0)
        assert row.label == "model" and row.k == 1
        assert 0.0 <= row.precision <= 1.0 and 0.0 <= row.recall <= 1.0

    def test_sweep_labels_and_report(self, tmp_path, monkeypatch):
        data = tmp_path / "data"
        synth = ["--users", "12", "--items", "10", "--factors", "2", "--per-user", "5", "--seed", "3"]
        assert cli.main(["synth", "--out", str(data), *synth]) == 0
        calls = []
        real_train = cli.train

        def recording(model, *args, **kwargs):
            calls.append(model.stack_u.n_layers)
            return real_train(model, *args, **kwargs)

        monkeypatch.setattr(cli, "train", recording)
        out = tmp_path / "sweep"
        code = cli.main([
            "sweep-layers", "--l-values", "1,2,3", "--out", str(out), "--seed", "0",
            "--interactions", str(data / "interactions.tsv"),
            "--user-attrs", str(data / "user_attrs.tsv"),
            "--item-attrs", str(data / "item_attrs.tsv"),
            "--set", "d=4", "--set", "k=4", "--set", "dims=4,4,4",
            "--set", "epochs=1", "--set", "top_k=1",
        ])
        assert code == 0
        assert calls == [1, 2, 3]
        rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == ["L=1", "L=2", "L=3"]
        for _, k, precision, recall, _, _ in rows:
            assert k == "1"
            assert 0.0 <= float(precision) <= 1.0 and 0.0 <= float(recall) <= 1.0
