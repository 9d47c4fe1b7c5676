"""Attention weighting, bi-interaction aggregation, and multi-layer propagation."""

import copy
import math
import tracemalloc

import numpy as np
import pytest

from ckgrec import propagation
from ckgrec.errors import ConfigError, ShapeError
from ckgrec.kernels import leaky_relu
from ckgrec.propagation import (
    LayerStack,
    _Pairs,
    _Runs,
    init_stack,
    propagate,
    propagate_backward,
    resolve_dims,
)
from ckgrec.rng import Rng
from ckgrec.transr import EmbeddingTable, init_table

from conftest import edge_terms, fresh_table, head_edges, make_kg
from gradcheck import finite_diff_check
from reference import (
    aggregate_reference,
    logit_reference,
    pairs_reference,
    propagate_backward_edgewise,
    propagate_edgewise,
    propagate_reference,
    runs_sum_edge_major,
    softmax_reference,
)


def table_from(entity, relation, projection) -> EmbeddingTable:
    return EmbeddingTable(
        np.array(entity, dtype=np.float64),
        np.array(relation, dtype=np.float64),
        np.array(projection, dtype=np.float64),
    )


TOY_TRIPLES = [(0, 0, 1), (0, 1, 2), (1, 0, 3), (2, 1, 4), (3, 0, 0), (0, 0, 4)]


def toy_setup(seed=7, d=4, k=3, dims=(4, 3, 2), **kwargs):
    kg = make_kg(5, TOY_TRIPLES, n_relations=2)
    table = fresh_table(n_entities=5, n_relations=2, d=d, k=k, seed=seed)
    stack = init_stack(list(dims), 2, k, 0.3, Rng(seed, (22,)), **kwargs)
    return kg, table, stack


def one_layer(kg, table, w1=None):
    """`propagate` through a single layer of width 3: (its layer-1 cache, its output)."""
    stack = init_stack([table.d, 3], kg.relation_count, table.k, 0.3, Rng(0))
    if w1 is not None:
        stack.w1[0][...] = w1
    res = propagate(kg, table, stack)
    return res.cache[0], res.layers[1]


def logits_of(kg, cache):
    return np.einsum("ij,ij->i", *edge_terms(kg, cache))


class TestAttentionLogit:
    def test_zero_tail_gives_zero(self):
        kg = make_kg(2, [(0, 0, 1)], n_relations=1)
        t = table_from([[1.0, 2.0], [0.0, 0.0]], [[0.5, 0.5]], [Rng(1).normal(size=(2, 2))])
        assert logits_of(kg, one_layer(kg, t)[0]).tolist() == [0.0]

    def test_zero_tanh_argument_gives_zero(self):
        kg = make_kg(2, [(0, 0, 1)], n_relations=1)
        t = table_from([[0.0, 0.0], [3.0, -1.0]], [[0.0, 0.0]], [np.eye(2)])
        assert logits_of(kg, one_layer(kg, t)[0]).tolist() == [0.0]

    def test_saturated_hand_case(self):
        # W=I, e_h=0, e_r=(0,20), e_t=(0,1): logit -> tanh(20) ~ 1
        kg = make_kg(2, [(0, 0, 1)], n_relations=1)
        t = table_from([[0.0, 0.0], [0.0, 1.0]], [[0.0, 20.0]], [np.eye(2)])
        got = float(logits_of(kg, one_layer(kg, t)[0])[0])
        assert abs(got - math.tanh(20.0)) < 1e-15
        assert got > 0.999999


class TestAttentionWeights:
    def test_single_neighbor_weight_one(self):
        kg = make_kg(3, [(0, 0, 1)], n_relations=1)
        cache, _ = one_layer(kg, fresh_table(3, 1))
        assert np.array_equal(cache.w, [1.0]) and kg.tails.tolist() == [1]

    def test_equal_logits_split_evenly(self):
        kg = make_kg(3, [(0, 0, 1), (0, 0, 2)], n_relations=1)
        t = fresh_table(3, 1)
        t.entity[2] = t.entity[1]  # identical tails -> identical logits
        cache, _ = one_layer(kg, t)
        assert np.allclose(cache.w, [0.5, 0.5], atol=1e-15)

    def test_matches_independent_softmax_oracle(self):
        kg, table, stack = toy_setup()
        edges = [(0, 1), (1, 2), (0, 4)]  # head 0's (relation, tail) pairs
        logits = [
            logit_reference(table.projection[r], table.relation[r], table.entity[0], table.entity[t])
            for r, t in edges
        ]
        s = head_edges(kg, 0)
        assert list(zip(kg.rels[s].tolist(), kg.tails[s].tolist())) == edges
        w = propagate(kg, table, stack).cache[0].w[s]
        assert np.max(np.abs(w - np.array(softmax_reference(logits)))) < 1e-12

    def test_empty_neighborhood(self):
        kg = make_kg(3, [(0, 0, 1)], n_relations=1)
        cache, _ = one_layer(kg, fresh_table(3, 1))
        assert len(cache.w) == kg.n_triples
        assert len(cache.w[head_edges(kg, 2)]) == 0

    def test_sum_to_one_and_nonnegative(self):
        kg, table, stack = toy_setup()
        for cache in propagate(kg, table, stack).cache:
            for h in range(5):
                w = cache.w[head_edges(kg, h)]
                if len(w):
                    assert abs(w.sum() - 1.0) < 1e-12 and np.all(w >= 0)


class TestNeighborhoodMessage:
    def test_no_neighbors_zero_vector(self):
        kg = make_kg(2, [(0, 0, 1)], n_relations=1)
        cache, _ = one_layer(kg, fresh_table(2, 1))
        assert np.array_equal(cache.msg[1], np.zeros(4))

    def test_single_neighbor_returns_tail(self):
        kg = make_kg(2, [(0, 0, 1)], n_relations=1)
        t = fresh_table(2, 1)
        assert np.array_equal(one_layer(kg, t)[0].msg[0], t.entity[1])

    def test_equal_logits_give_mean(self):
        kg = make_kg(3, [(0, 0, 1), (0, 0, 2)], n_relations=1)
        t = fresh_table(3, 1)
        t.entity[2] = t.entity[1]  # same embedding, same logit
        cache, _ = one_layer(kg, t)
        assert np.allclose(cache.msg[0], t.entity[1], atol=1e-15)


class TestBiInteraction:
    def test_zero_message_reduces_to_first_term(self):
        kg = make_kg(2, [(0, 0, 1)], n_relations=1)  # head 1 is isolated
        t = fresh_table(2, 1, d=3)
        t.entity[1] = [1.0, -2.0, 0.5]
        _, out = one_layer(kg, t, w1=np.eye(3))
        assert np.array_equal(out[1], leaky_relu(t.entity[1]))

    def test_ones_hand_arithmetic(self):
        kg = make_kg(2, [(0, 0, 1)], n_relations=1)
        t = fresh_table(2, 1, d=3)
        t.entity[:] = 1.0
        _, out = one_layer(kg, t, w1=np.eye(3))
        assert np.array_equal(out[0], 3.0 * np.ones(3))  # LeakyReLU(2) + LeakyReLU(1)

    def test_matches_independent_formula(self):
        kg, table, stack = toy_setup(shared=False)
        res = propagate(kg, table, stack)
        for l, cache in enumerate(res.cache, start=1):
            x = res.layers[l - 1]
            for h in range(5):
                want = aggregate_reference(x[h], cache.msg[h], stack.w1[l - 1], stack.w2[l - 1], 0.2)
                assert np.max(np.abs(res.layers[l][h] - want)) < 1e-12

    def test_w2_defaults_to_w1(self):
        kg, table, shared = toy_setup()
        unshared = LayerStack(shared.dims, shared.w1, [w.copy() for w in shared.w1], shared.attn, shared=False)
        assert np.array_equal(propagate(kg, table, shared).stitched, propagate(kg, table, unshared).stitched)

    def test_shape_errors(self):
        kg, table, _ = toy_setup()
        with pytest.raises(ShapeError):
            propagate(kg, table, init_stack([3, 2], 2, 3, 0.3, Rng(0)))


class TestResolveDims:
    def test_defaults(self):
        assert resolve_dims(64, None, 2) == [64, 32, 16]
        assert resolve_dims(64, None, 1) == [64, 32]
        assert resolve_dims(64, None, 4) == [64, 32, 16, 16, 16]

    def test_explicit_trim_and_extend(self):
        assert resolve_dims(64, (64, 48, 24, 12, 6), 2) == [64, 48, 24]
        assert resolve_dims(8, (8, 4), 3) == [8, 4, 4, 4]

    def test_first_width_forced_to_d(self):
        assert resolve_dims(10, (9, 5), 1) == [10, 5]

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            resolve_dims(4, (4, 0), 1)


class TestInitStack:
    def test_shapes_and_param_names(self):
        stack = init_stack([4, 3, 2], n_relations=2, k=3, std=0.1, rng=Rng(5))
        assert stack.n_layers == 2 and stack.stitched_dim == 9
        assert stack.w1[0].shape == (3, 4) and stack.w1[1].shape == (2, 3)
        assert stack.attn[0] is None and stack.attn[1].shape == (2, 3, 3)
        assert set(stack.params()) == {"w1.1", "w1.2", "attn.2"}

    def test_unshared_has_w2_params(self):
        stack = init_stack([4, 3], n_relations=1, k=2, std=0.1, rng=Rng(5), shared=False)
        assert set(stack.params()) == {"w1.1", "w2.1"}
        assert not np.array_equal(stack.w1[0], stack.w2[0])

    def test_shared_aliases_w2(self):
        stack = init_stack([4, 3], n_relations=1, k=2, std=0.1, rng=Rng(5))
        assert stack.w2[0] is stack.w1[0]
        # the tests' deep copies keep the alias, so set_params on w1 moves w2
        copied = copy.deepcopy(stack)
        assert copied.w2[0] is copied.w1[0]
        copied.w1[0][0, 0] += 1.0
        assert stack.w1[0][0, 0] != copied.w1[0][0, 0]

    def test_rejects_bad_slope(self):
        for slope in (0.0, 1.0, -0.1):
            with pytest.raises(ConfigError):
                init_stack([4, 3], 1, 2, 0.1, Rng(0), slope=slope)

    def test_printed_form_requires_k_widths(self):
        with pytest.raises(ConfigError):
            init_stack([4, 3, 2], 1, k=3, std=0.1, rng=Rng(0), printed_attention=True)
        # all input widths equal k -> accepted
        init_stack([3, 3, 2], 1, k=3, std=0.1, rng=Rng(0), printed_attention=True)


class TestPropagate:
    def test_stitched_length(self):
        kg, table, stack = toy_setup()
        res = propagate(kg, table, stack)
        assert res.stitched.shape == (5, 4 + 3 + 2)
        assert [x.shape[1] for x in res.layers] == [4, 3, 2]

    def test_layer_zero_is_entity_table(self):
        kg, table, stack = toy_setup()
        res = propagate(kg, table, stack)
        assert np.array_equal(res.layers[0], table.entity)
        assert np.array_equal(res.stitched[:, :4], table.entity)

    def test_edgeless_graph_reduces_to_linear_chain(self):
        kg = make_kg(4, [], n_relations=1)
        table = fresh_table(n_entities=4, n_relations=1)
        stack = init_stack([4, 3, 2], 1, 3, 0.3, Rng(8))
        res = propagate(kg, table, stack)
        x = table.entity
        for l in range(1, 3):
            x = leaky_relu(x @ stack.w1[l - 1].T, 0.2)
            assert np.allclose(res.layers[l], x, atol=1e-15)

    def test_single_edge_hand_composition(self):
        kg = make_kg(2, [(0, 0, 1)], n_relations=1)
        table = fresh_table(n_entities=2, n_relations=1, d=4, k=3, seed=31)
        stack = init_stack([4, 3], 1, 3, 0.3, Rng(32))
        res = propagate(kg, table, stack)
        e_h, e_t = table.entity[0], table.entity[1]
        head_want = aggregate_reference(e_h, e_t, stack.w1[0], stack.w2[0], 0.2)
        tail_want = aggregate_reference(e_t, np.zeros(4), stack.w1[0], stack.w2[0], 0.2)
        assert np.allclose(res.layers[1][0], head_want, atol=1e-14)
        assert np.allclose(res.layers[1][1], tail_want, atol=1e-14)
        assert np.allclose(res.stitched[0], np.concatenate([e_h, head_want]), atol=1e-14)

    def test_matches_brute_force_reference(self):
        kg, table, stack = toy_setup()
        res = propagate(kg, table, stack)
        want = propagate_reference(
            TOY_TRIPLES,
            table.entity,
            table.relation,
            table.projection,
            [table.projection, stack.attn[1]],
            stack.w1,
            stack.w2,
            0.2,
        )
        assert np.max(np.abs(res.stitched - want)) < 1e-10

    def test_reference_is_iteration_order_independent(self):
        rng = Rng(55)
        n = 20
        triples = list({(int(rng.integers(n)), int(rng.integers(2)), int(rng.integers(n))) for _ in range(40)})
        table = fresh_table(n_entities=n, n_relations=2, d=3, k=2, seed=56)
        stack = init_stack([3, 2, 2], 2, 2, 0.3, Rng(57))
        args = (
            triples, table.entity, table.relation, table.projection,
            [table.projection, stack.attn[1]], stack.w1, stack.w2, 0.2,
        )
        natural = propagate_reference(*args)
        order_rng = Rng(58)

        def scrambled(count, layer):
            return order_rng.permutation(count).tolist()

        shuffled = propagate_reference(*args, entity_order=scrambled)
        assert np.array_equal(natural, shuffled)
        res = propagate(kg := make_kg(n, triples, n_relations=2), table, stack)
        assert np.max(np.abs(res.stitched - natural)) < 1e-10

    def test_relabeling_invariance(self):
        kg, table, stack = toy_setup()
        res = propagate(kg, table, stack)

        perm = np.array([3, 0, 4, 1, 2])  # new id of each old entity
        relabeled = [(int(perm[h]), r, int(perm[t])) for h, r, t in TOY_TRIPLES]
        table2 = copy.deepcopy(table)
        table2.entity[perm] = table.entity
        kg2 = make_kg(5, relabeled, n_relations=2)
        res2 = propagate(kg2, table2, stack)
        assert np.allclose(res2.stitched[perm], res.stitched, atol=1e-12, rtol=0)

    def test_cached_weights_sum_to_one_per_layer(self):
        rng = Rng(61)
        n = 30
        triples = list({(int(rng.integers(n)), int(rng.integers(3)), int(rng.integers(n))) for _ in range(70)})
        kg = make_kg(n, triples, n_relations=3)
        table = fresh_table(n_entities=n, n_relations=3, d=4, k=3, seed=62)
        stack = init_stack([4, 3, 2], 3, 3, 0.3, Rng(63))
        res = propagate(kg, table, stack)
        for c in res.cache:
            sums = np.zeros(n)
            np.add.at(sums, kg.heads, c.w)
            degree = np.bincount(kg.heads, minlength=n)
            busy = degree > 0
            assert np.max(np.abs(sums[busy] - 1.0)) < 1e-12
            assert not np.any(sums[~busy])


def fd_params_loss(kg, v, shared=True, printed=False, d=4, k=3, dims=(4, 3, 2), seed=71):
    """Loss closure over a full parameter dict for the gradient checker."""
    base_table = fresh_table(n_entities=kg.entity_count, n_relations=kg.relation_count, d=d, k=k, seed=seed)
    base_stack = init_stack(list(dims), kg.relation_count, k, 0.3, Rng(seed, (5,)), shared=shared, printed_attention=printed)
    params = {**base_table.params(), **base_stack.params()}

    base_relation = base_table.relation

    def loss_fn(p):
        # "relation" may be dropped from the checked set (printed form)
        table = EmbeddingTable(p["entity"], p.get("relation", base_relation), p["projection"])
        n_layers = len(dims) - 1
        w1 = [p[f"w1.{l}"] for l in range(1, n_layers + 1)]
        w2 = w1 if shared else [p[f"w2.{l}"] for l in range(1, n_layers + 1)]
        attn = [None] + [p[f"attn.{l}"] for l in range(2, n_layers + 1)]
        stack = LayerStack(list(dims), w1, w2, attn, 0.2, shared, printed)
        res = propagate(kg, table, stack)
        loss = float(np.sum(res.stitched * v))
        grads = propagate_backward(kg, table, stack, res, v)
        return loss, {name: grads[name] for name in params}

    return loss_fn, params


class TestPropagateBackward:
    def test_gradients_match_finite_differences(self):
        kg = make_kg(5, TOY_TRIPLES, n_relations=2)
        v = Rng(72).normal(size=(5, 9))
        loss_fn, params = fd_params_loss(kg, v)
        report = finite_diff_check(loss_fn, params, tolerance=1e-4)
        assert report.passed, f"max rel err {report.max_rel_error:.3e} at {report.worst}"

    def test_gradients_unshared_aggregator(self):
        kg = make_kg(5, TOY_TRIPLES, n_relations=2)
        v = Rng(73).normal(size=(5, 9))
        loss_fn, params = fd_params_loss(kg, v, shared=False)
        assert "w2.1" in params and "w2.2" in params
        report = finite_diff_check(loss_fn, params, tolerance=1e-4)
        assert report.passed, f"max rel err {report.max_rel_error:.3e} at {report.worst}"

    def test_gradients_printed_attention(self):
        kg = make_kg(5, TOY_TRIPLES, n_relations=2)
        v = Rng(74).normal(size=(5, 6))
        loss_fn, params = fd_params_loss(kg, v, printed=True, d=2, k=2, dims=(2, 2, 2))
        # the printed form never reads relation vectors; check them separately
        _, analytic = loss_fn({k2: p.copy() for k2, p in params.items()})
        assert not np.any(analytic["relation"])
        del params["relation"]
        report = finite_diff_check(loss_fn, params, tolerance=1e-4)
        assert report.passed, f"max rel err {report.max_rel_error:.3e} at {report.worst}"

    @pytest.mark.parametrize("printed", [False, True])
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_shared_w1_gradient_is_the_unshared_sum_bitwise(self, n_layers, printed):
        # one W1 in both terms must give, byte for byte, the W1 + W2 gradients of a copy whose W2 equals W1
        k = 3
        dims = [k] * n_layers + [2]
        kg = mixed_graph(n_layers)
        table = fresh_table(n_entities=12, n_relations=3, d=k, k=k, seed=n_layers, std=0.5)
        shared = init_stack(dims, 3, k, 0.5, Rng(n_layers, (5,)), shared=True, printed_attention=printed)
        unshared = copy.deepcopy(shared)
        unshared.shared, unshared.w2 = False, [w.copy() for w in unshared.w1]
        g = np.random.default_rng(n_layers).normal(size=(12, sum(dims)))
        g[::3] = 0.0  # rows with no upstream gradient
        got = propagate_backward(kg, table, shared, propagate(kg, table, shared), g)
        want = propagate_backward(kg, table, unshared, propagate(kg, table, unshared), g)
        for l in range(1, n_layers + 1):
            assert got[f"w1.{l}"].tobytes() == (want.pop(f"w1.{l}") + want.pop(f"w2.{l}")).tobytes(), l
        assert set(got) == set(want) | {f"w1.{l}" for l in range(1, n_layers + 1)}
        for name, w in want.items():
            assert got[name].tobytes() == w.tobytes(), name

    def test_edgeless_backward(self):
        kg = make_kg(3, [], n_relations=1)
        v = Rng(75).normal(size=(3, 9))
        loss_fn, params = fd_params_loss(kg, v)
        report = finite_diff_check(loss_fn, params, tolerance=1e-4)
        assert report.passed

    def test_rejects_wrong_gradient_shape(self):
        kg, table, stack = toy_setup()
        res = propagate(kg, table, stack)
        with pytest.raises(ShapeError):
            propagate_backward(kg, table, stack, res, np.zeros((5, 3)))


def mixed_graph(seed: int):
    """12 entities, 3 relations: heads 0-5 point at tails 3-10 through interleaved relations.

    Tails 6-10 are never heads, entity 11 is isolated, and (head, relation)
    and (tail, relation) pairs repeat across edges.
    """
    rng = np.random.default_rng(seed)
    candidates = [(h, r, t) for h in range(6) for r in range(3) for t in range(3, 11) if h != t]
    chosen = rng.choice(len(candidates), size=60, replace=False)
    triples = [candidates[i] for i in chosen]
    kg = make_kg(12, triples, n_relations=3)
    runs = [kg.rels[head_edges(kg, h)] for h in range(6)]
    assert any(np.count_nonzero(r[1:] != r[:-1]) + 1 > len(set(r)) for r in runs)  # a relation comes back
    assert len(set(zip(kg.heads, kg.rels))) < len(kg.heads)
    assert len(set(zip(kg.tails, kg.rels))) < len(kg.heads)
    assert 11 not in kg.heads and 11 not in kg.tails and not set(range(6, 11)) & set(kg.heads)
    return kg


def assert_close(got, want, what):
    scale = max(1.0, float(np.max(np.abs(want)))) if np.size(want) else 1.0
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * scale, what


class TestEdgewiseOracle:
    """`propagate` and its backward pass against the per-edge kernel in tests/reference.py."""

    def check(self, kg, table, stack, seed):
        res = propagate(kg, table, stack)
        want = propagate_edgewise(kg, table, stack)
        assert_close(res.stitched, want.stitched, "stitched")
        for l, (c, w) in enumerate(zip(res.cache, want.cache), start=1):
            per_edge = dict(zip(("pt", "q"), edge_terms(kg, c)))
            for name in ("pt", "q", "w", "msg", "a1", "a2"):
                got, ref = per_edge.get(name, getattr(c, name)), getattr(w, name)
                if ref is None:  # the oracle keeps no per-edge terms on a graph without edges
                    assert len(got) == len(kg.heads) == 0, name
                else:
                    assert_close(got, ref, f"layer {l} {name}")
        g = np.random.default_rng(seed).normal(size=res.stitched.shape)
        grads = propagate_backward(kg, table, stack, res, g)
        want_grads = propagate_backward_edgewise(kg, table, stack, want, g)
        assert grads.keys() == want_grads.keys()
        for name, ref in want_grads.items():
            assert_close(grads[name], ref, name)

    @pytest.mark.parametrize(
        "dims,shared,printed",
        [((5, 4), True, False), ((5, 4, 3), False, False), ((5, 4, 4, 2), True, False),
         ((3, 3, 2), True, True), ((3, 3, 3, 2), False, True)],
    )
    def test_matches_edgewise_kernel(self, dims, shared, printed):
        k = 3
        for seed in range(3):
            kg = mixed_graph(seed)
            table = fresh_table(n_entities=12, n_relations=3, d=dims[0], k=k, seed=seed, std=0.5)
            stack = init_stack(list(dims), 3, k, 0.5, Rng(seed, (5,)), shared=shared, printed_attention=printed)
            self.check(kg, table, stack, seed)

    def test_edgeless_graph(self):
        kg = make_kg(4, [], n_relations=2)
        table = fresh_table(n_entities=4, n_relations=2, d=4, k=3)
        self.check(kg, table, init_stack([4, 3, 2], 2, 3, 0.3, Rng(8), shared=False), 0)

    def test_plan_built_once_and_edge_order_kept(self, monkeypatch):
        built = []

        class CountingPlan(propagation.PropagationPlan):
            def __init__(self, kg):
                built.append(kg)
                super().__init__(kg)

        monkeypatch.setattr(propagation, "PropagationPlan", CountingPlan)
        kg = mixed_graph(0)
        before = [kg.heads.copy(), kg.rels.copy(), kg.tails.copy()]
        table = fresh_table(n_entities=12, n_relations=3, d=4, k=3)
        stack = init_stack([4, 3, 2], 3, 3, 0.3, Rng(9))
        res = propagate(kg, table, stack)
        propagate_backward(kg, table, stack, res, np.ones_like(res.stitched))
        again = propagate(kg, table, stack)
        assert built == [kg]
        assert np.array_equal(again.stitched, res.stitched)
        for got, want in zip((kg.heads, kg.rels, kg.tails), before):
            assert np.array_equal(got, want)


class TestPlanOwnsItsEdges:
    """Once a graph's plan is built, both passes read the graph's edges from the plan alone."""

    @pytest.mark.parametrize("printed", [False, True])
    def test_permuted_graph_edges_change_no_bit(self, printed):
        dims = (3, 3, 3) if printed else (5, 4, 3)
        kg = mixed_graph(3)
        table = fresh_table(n_entities=12, n_relations=3, d=dims[0], k=3, seed=3, std=0.5)
        stack = init_stack(list(dims), 3, 3, 0.5, Rng(3, (5,)), printed_attention=printed)
        res = propagate(kg, table, stack)
        g = np.random.default_rng(4).normal(size=res.stitched.shape)
        want = propagate_backward(kg, table, stack, res, g)
        perm = np.random.default_rng(5).permutation(len(kg.heads))
        assert not np.array_equal(kg.tails[perm], kg.tails) and not np.array_equal(kg.heads[perm], kg.heads)
        kg.heads, kg.tails = kg.heads[perm], kg.tails[perm]
        again = propagate(kg, table, stack)
        assert again.stitched.tobytes() == res.stitched.tobytes()
        for c, d in zip(again.cache, res.cache):
            for name in ("pt", "q", "q_rows", "w", "msg", "a1", "a2"):
                assert getattr(c, name).tobytes() == getattr(d, name).tobytes(), name
        got = propagate_backward(kg, table, stack, res, g)
        assert got.keys() == want.keys()
        for name, w in want.items():
            assert got[name].tobytes() == w.tobytes(), name


class TestEdgeBlocks:
    """Both passes make their per-edge terms EDGE_BLOCK edges at a time."""

    def test_blocks_tile_the_runs(self, monkeypatch):
        monkeypatch.setattr(propagation, "EDGE_BLOCK", 4)
        sorted_keys = np.array([0, 0, 0, 0, 0, 0, 1, 2, 2, 3, 4, 4, 4, 5])
        keys = sorted_keys[np.random.default_rng(2).permutation(14)]
        runs = _Runs.of(keys)
        assert sorted(runs.order.tolist()) == list(range(14))
        assert not np.array_equal(runs.order, np.arange(14))  # a real permutation
        assert np.array_equal(keys[runs.order], sorted_keys)
        assert runs.ids.tolist() == [0, 1, 2, 3, 4, 5]
        for start, n in zip(runs.starts, runs.repeats):
            assert np.all(np.diff(runs.order[start: start + n]) > 0)  # stable within a run
        blocks = runs.blocks
        assert [b[0].start for b in blocks] == [0] + [b[0].stop for b in blocks[:-1]]
        assert blocks[-1][0].stop == len(runs.starts)
        for block, lo, hi in blocks:
            assert lo == runs.starts[block.start]
            assert hi == runs.starts[block.stop - 1] + runs.repeats[block.stop - 1]
            assert hi - lo <= 4 or block.stop - block.start == 1
        assert blocks[0] == (slice(0, 1), 0, 6)  # a run longer than a block stands alone
        values = np.random.default_rng(0).normal(size=(14, 3))
        columns = np.ascontiguousarray(values.T)
        assert np.array_equal(
            runs.sum(lambda e: np.take(columns, e, axis=1), 3), np.add.reduceat(values[runs.order], runs.starts)
        )
        assert np.array_equal(runs.per_edge(lambda e: values[e, 0]), values[runs.order, 0])

    @pytest.mark.parametrize("printed", [False, True])
    def test_small_blocks_give_the_same_gradients(self, monkeypatch, printed):
        dims = (3, 3, 3) if printed else (5, 4, 3)
        table = fresh_table(n_entities=12, n_relations=3, d=dims[0], k=3, seed=2, std=0.5)
        stack = init_stack(list(dims), 3, 3, 0.5, Rng(2, (5,)), printed_attention=printed)
        grads = {}
        for block in (propagation.EDGE_BLOCK, 4):
            monkeypatch.setattr(propagation, "EDGE_BLOCK", block)
            kg = mixed_graph(2)  # a fresh graph, so its plan is built with this block size
            res = propagate(kg, table, stack)
            assert (len(kg.propagation_plan.tails.blocks) > 1) == (block < len(kg.heads))
            assert (len(kg.propagation_plan.heads.blocks) > 1) == (block < len(kg.heads))
            g = np.random.default_rng(3).normal(size=res.stitched.shape)
            grads[block] = propagate_backward(kg, table, stack, res, g)
            grads[block]["stitched"] = res.stitched
            for l, c in enumerate(res.cache, start=1):
                grads[block][f"w.{l}"] = c.w
                grads[block][f"msg.{l}"] = c.msg
        one, many = grads.values()
        for name in one:
            assert np.array_equal(one[name], many[name]), name


class TestFeatureMajorSum:
    """`_Runs.sum` over feature-major blocks equals the edge-major walk in tests/reference.py bit for bit."""

    @staticmethod
    def assert_same_bits(lengths, values, seed=0):
        keys = np.repeat(np.arange(len(lengths)), lengths)
        runs = _Runs.of(keys[np.random.default_rng(seed).permutation(len(keys))])
        columns = np.ascontiguousarray(values.T)
        got = runs.sum(lambda e: np.take(columns, e, axis=1), values.shape[1])
        want = runs_sum_edge_major(runs, lambda e: values[e])
        assert got.flags.c_contiguous and got.shape == (len(lengths), values.shape[1])
        assert np.array_equal(got, want, equal_nan=True)
        assert got.tobytes() == want.tobytes()  # signed zeros and nan bits too

    @pytest.mark.parametrize("width", [1, 5, 64])
    def test_run_lengths_around_the_pairwise_unroll(self, width):
        """Runs of 8 and more edges are where a pairwise sum could reorder the additions."""
        lengths = [1, 7, 8, 9, 1, 16, 17, 127, 128, 129, 1000, 1203, 3]
        scale = 10.0 ** np.arange(-6, 7, 3)[np.arange(sum(lengths)) % 5]
        values = np.random.default_rng(width).normal(size=(sum(lengths), width)) * scale[:, None]
        self.assert_same_bits(lengths, values, seed=width)

    def test_runs_longer_than_a_block(self, monkeypatch):
        monkeypatch.setattr(propagation, "EDGE_BLOCK", 16)
        lengths = [3, 1000, 9, 8, 1, 40, 7, 17]
        self.assert_same_bits(lengths, np.random.default_rng(1).normal(size=(sum(lengths), 6)))

    def test_signed_zeros_infinities_and_nans(self, monkeypatch):
        monkeypatch.setattr(propagation, "EDGE_BLOCK", 64)
        lengths = [1, 7, 8, 9, 300, 2, 1024]
        rng = np.random.default_rng(2)
        values = rng.normal(size=(sum(lengths), 4))
        hit = rng.random(values.shape) < 0.05
        values[hit] = rng.choice([-0.0, 0.0, np.inf, -np.inf, np.nan], size=int(hit.sum()))
        values[:, 0] = -0.0  # every run of this column sums to -0.0
        with np.errstate(invalid="ignore"):  # inf + -inf
            self.assert_same_bits(lengths, values, seed=2)

    def test_one_block_alive_at_a_time(self, monkeypatch):
        """The walk holds its result and one block of terms, never two blocks at once."""
        monkeypatch.setattr(propagation, "EDGE_BLOCK", 1024)
        runs = _Runs.of(np.random.default_rng(3).integers(0, 2000, size=16 * 1024))
        columns = np.random.default_rng(4).normal(size=(64, 16 * 1024))
        block_bytes = 64 * 1024 * 8
        assert len(runs.blocks) >= 15 and max(hi - lo for _, lo, hi in runs.blocks) <= 1024 + 64
        tracemalloc.start()
        try:
            got = runs.sum(lambda e: np.take(columns, e, axis=1), 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < got.nbytes + 1.5 * block_bytes

    def test_edge_major_block_is_refused(self):
        runs = _Runs.of(np.array([2, 0, 1, 1, 0, 2, 2]))
        values = np.arange(21.0).reshape(7, 3)
        with pytest.raises(ShapeError, match="feature-major"):
            runs.sum(lambda e: values[e], 3)


class TestPairs:
    """`_Pairs.of` against the dict-of-edge-lists oracle in tests/reference.py."""

    def check(self, ends, rels, n_entities):
        got = _Pairs.of(ends, rels, n_entities)
        pairs, edges, of_edge, relations = pairs_reference(ends, rels, n_entities)
        assert list(zip(got.relation.tolist(), got.entity.tolist())) == pairs
        runs = got.runs
        assert [runs.order[a: a + n].tolist() for a, n in zip(runs.starts, runs.repeats)] == edges
        assert got.of_edge.tolist() == of_edge
        assert got.relations == relations

    @pytest.mark.parametrize("seed", range(4))
    def test_random_graphs_with_repeated_pairs(self, seed):
        rng = np.random.default_rng(seed)
        ends, rels = rng.integers(9, size=120), rng.integers(4, size=120)
        assert len(set(zip(ends.tolist(), rels.tolist()))) < len(ends)
        self.check(ends, rels, 9)

    @pytest.mark.parametrize("end", ["heads", "tails"])
    def test_graph_ends(self, end):
        kg = mixed_graph(2)
        self.check(getattr(kg, end), kg.rels, kg.entity_count)

    def test_single_relation(self):
        ends = np.random.default_rng(5).integers(6, size=40)
        self.check(ends, np.full(40, 2), 6)

    def test_no_edges(self):
        self.check(np.array([], dtype=np.int64), np.array([], dtype=np.int64), 4)

    def test_runs_of_no_edges(self):
        runs, empty = _Runs.of(np.array([], dtype=np.int64)), np.array([])
        assert runs.blocks == []
        assert runs.sum(lambda e: np.ones((3, len(e))), 3).shape == (0, 3)
        assert runs.per_edge(lambda e: np.ones(len(e))).shape == (0,)
        assert runs.softmax(empty).shape == runs.softmax_backward(empty, empty).shape == (0,)


def dense_graph(n=200, m=4, n_edges=6000, seed=0):
    """`n_edges` distinct random triples over n entities and m relations: many edges per pair."""
    chosen = np.random.default_rng(seed).choice(n * m * n, size=n_edges, replace=False)
    return make_kg(n, [(int(c // (m * n)), int(c // n % m), int(c % n)) for c in chosen], n_relations=m)


class TestLayerCacheSize:
    """Attention terms are made and kept once per (entity, relation) pair, not once per edge."""

    @pytest.mark.parametrize("printed", [False, True])
    def test_one_row_per_pair(self, printed):
        dims = (3, 3, 3) if printed else (5, 4, 3)
        kg = mixed_graph(1)
        plan = kg.propagation_plan
        table = fresh_table(n_entities=12, n_relations=3, d=dims[0], k=3, seed=1, std=0.5)
        stack = init_stack(list(dims), 3, 3, 0.5, Rng(1, (5,)), printed_attention=printed)
        for c in propagate(kg, table, stack).cache:
            assert c.pt.shape[1] == len(plan.tail_pairs.entity) < len(kg.heads)
            assert c.q.shape[1] == (len(kg.heads) if printed else len(plan.head_pairs.entity))
            assert len(c.pt) == len(c.q) == 3  # feature-major: one row per attention dimension
            assert len(c.q_rows) == len(kg.heads)

    def test_forward_peak_memory(self, monkeypatch):
        """A forward pass holds well under three (edges, k) float arrays at once."""
        peak, n_edges, k = forward_peak(monkeypatch)
        assert peak < 3 * n_edges * k * 8

    def test_pair_form_forward_makes_no_edge_by_width_array(self, monkeypatch):
        """The weighted tails are made a block at a time: the peak stays under two (edges, k) arrays."""
        peak, n_edges, k = forward_peak(monkeypatch)
        assert peak < 2 * n_edges * k * 8


def forward_peak(monkeypatch, k=16):
    """(traced peak bytes of a pair-form forward on `dense_graph()` with 1024-edge blocks, edges, k)."""
    monkeypatch.setattr(propagation, "EDGE_BLOCK", 1024)
    kg = dense_graph()
    table = fresh_table(n_entities=200, n_relations=4, d=k, k=k, seed=0)
    stack = init_stack([k, k, 8], 4, k, 0.3, Rng(0))
    propagate(kg, table, stack)  # builds the plan and its blocks
    assert len(kg.propagation_plan.heads.blocks) > 1
    tracemalloc.start()
    try:
        propagate(kg, table, stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, len(kg.heads), k
