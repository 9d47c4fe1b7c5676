"""Numeric primitives: activations, init, row sums, the per-head softmax, and the gradient checker."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckgrec.errors import ConfigError, ShapeError
from ckgrec.kernels import (
    ROW_SUM_COLUMNS,
    gaussian_init,
    leaky_relu,
    leaky_relu_grad,
    row_sums,
    sigmoid,
    softplus,
)
from ckgrec.propagation import _Runs
from ckgrec.rng import Rng

from gradcheck import OracleError, finite_diff_check
from reference import row_sums_reference, softmax_reference


class TestGaussianInit:
    def test_shape_and_dtype(self):
        a = gaussian_init((3, 4), 0.1, Rng(0))
        assert a.shape == (3, 4) and a.dtype == np.float64

    def test_moments(self):
        # 1e5 samples: sample mean within 5 sigma/sqrt(n), std within 2%
        a = gaussian_init((100_000,), 0.1, Rng(1))
        assert abs(a.mean()) < 5 * 0.1 / math.sqrt(100_000)
        assert abs(a.std() - 0.1) < 0.002

    def test_deterministic(self):
        assert np.array_equal(gaussian_init((7, 7), 0.5, Rng(4, (2,))), gaussian_init((7, 7), 0.5, Rng(4, (2,))))

    def test_rejects_bad_std(self):
        with pytest.raises(ConfigError):
            gaussian_init((2,), 0.0, Rng(0))
        with pytest.raises(ConfigError):
            gaussian_init((2,), -1.0, Rng(0))


class TestActivations:
    def test_leaky_relu_values(self):
        x = np.array([-2.0, -0.5, 0.0, 0.5, 3.0])
        assert np.allclose(leaky_relu(x, 0.2), [-0.4, -0.1, 0.0, 0.5, 3.0])

    def test_leaky_relu_grad_values(self):
        x = np.array([-2.0, 0.0, 3.0])
        # kink resolves to the positive branch
        assert np.array_equal(leaky_relu_grad(x, 0.2), [0.2, 1.0, 1.0])

    @given(st.floats(-30, 30))
    def test_leaky_grad_matches_finite_difference(self, x):
        if abs(x) < 1e-3:
            return  # step would straddle the kink
        eps = 1e-6 * max(1.0, abs(x))
        num = (leaky_relu(x + eps) - leaky_relu(x - eps)) / (2 * eps)
        assert abs(float(leaky_relu_grad(x)) - float(num)) < 1e-6

    def test_sigmoid_midpoint_and_symmetry(self):
        assert sigmoid(np.array(0.0)) == 0.5
        x = np.linspace(-8, 8, 33)
        assert np.allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-15)

    def test_sigmoid_matches_naive_in_safe_range(self):
        for v in [-20.0, -3.3, 0.7, 10.0]:
            assert abs(float(sigmoid(np.array(v))) - 1 / (1 + math.exp(-v))) < 1e-15

    def test_sigmoid_extreme_no_overflow(self):
        out = sigmoid(np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(out)) and out[0] == 0.0 and out[1] == 1.0

    def test_softplus_known_values(self):
        assert abs(float(softplus(np.array(0.0))) - math.log(2)) < 1e-15
        assert abs(float(softplus(np.array(3.0))) - math.log(1 + math.exp(3.0))) < 1e-14

    def test_softplus_extreme_no_overflow(self):
        out = softplus(np.array([1000.0, -1000.0]))
        assert out[0] == 1000.0 and out[1] == 0.0


class TestRowSums:
    """row_sums must equal np.add.at into zeros bit for bit, signs of zero included."""

    def assert_matches_add_at(self, index, terms, n_rows):
        got = row_sums(index, terms, n_rows)
        want = row_sums_reference(index, terms, n_rows)
        assert got.shape == want.shape and got.dtype == np.float64
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_repeated_and_missed_rows_and_negative_zero(self):
        rng = np.random.default_rng(3)
        index = np.array([4, 0, 4, 4, 2, 0, 4])  # rows 1, 3 and 5 are never hit
        terms = rng.normal(size=(7, 5)) * 10.0 ** rng.integers(-8, 9, size=(7, 5))
        terms[1] = -0.0  # row 0 gets -0.0 then a number; 0.0 + -0.0 is 0.0
        terms[4, 2] = -0.0  # row 2 holds one -0.0 term: +0.0, as np.add.at gives
        self.assert_matches_add_at(index, terms, 6)
        assert not np.signbit(row_sums(index, terms, 6)[2, 2])

    def test_cancellation_keeps_input_order(self):
        # (1e16 + 1) - 1e16 is 0 but (1e16 - 1e16) + 1 is 1: the order must be the input's
        index = np.array([0, 0, 0, 1, 1, 1])
        terms = np.array([[1e16], [1.0], [-1e16], [1e16], [-1e16], [1.0]])
        assert row_sums(index, terms, 2)[:, 0].tolist() == [0.0, 1.0]
        self.assert_matches_add_at(index, terms, 2)

    def test_empty_index(self):
        self.assert_matches_add_at(np.zeros(0, dtype=np.int64), np.zeros((0, 3)), 4)
        assert row_sums(np.zeros(0, dtype=np.int64), np.zeros((0, 3)), 4).tolist() == [[0.0] * 3] * 4

    def test_width_one(self):
        self.assert_matches_add_at(np.array([2, 2, 0]), np.array([[0.1], [0.2], [-0.3]]), 3)

    def test_width_not_a_multiple_of_the_column_block(self):
        rng = np.random.default_rng(5)
        width = 150
        assert width % ROW_SUM_COLUMNS
        index = rng.integers(0, 40, size=500)
        self.assert_matches_add_at(index, rng.normal(size=(500, width)), 40)

    @given(st.integers(1, 6), st.integers(1, 140), st.integers(0, 30), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_add_at(self, n_rows, width, n_terms, seed):
        rng = np.random.default_rng(seed)
        terms = rng.normal(size=(n_terms, width))
        terms[rng.random(terms.shape) < 0.2] = -0.0
        self.assert_matches_add_at(rng.integers(0, n_rows, size=n_terms), terms, n_rows)


def softmax(v, lengths=None):
    """The per-head softmax `propagate` applies, over consecutive segments of v."""
    v = np.asarray(v, dtype=np.float64)
    lengths = [len(v)] if lengths is None else lengths
    # segment j gets key -j, so the runs list the segments last first and `order` is a real permutation
    runs = _Runs.of(np.repeat(-np.arange(len(lengths)), lengths))
    out = np.empty_like(v)
    out[runs.order] = runs.softmax(v[runs.order])
    return out


class TestSoftmax:
    def test_sums_to_one(self):
        w = softmax(np.array([1.0, 2.0, 3.0]))
        assert abs(w.sum() - 1.0) < 1e-15

    def test_matches_reference(self):
        v = Rng(5).normal(size=40)
        lengths = [1, 7, 12, 20]
        w = softmax(v, lengths)
        at = 0
        for n in lengths:
            assert np.allclose(w[at: at + n], softmax_reference(v[at: at + n].tolist()), atol=1e-14)
            at += n

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=30), st.floats(-100, 100))
    @settings(max_examples=200)
    def test_shift_invariant(self, vals, c):
        v = np.array(vals)
        assert np.max(np.abs(softmax(v + c) - softmax(v))) < 1e-12

    def test_single_element(self):
        assert np.array_equal(softmax(np.array([123.0])), [1.0])


class TestFiniteDiffCheck:
    def test_quadratic_passes(self):
        def loss(p):
            x = p["x"]
            return float(np.sum(x * x)), {"x": 2 * x}

        report = finite_diff_check(loss, {"x": np.array([1.0, -2.0, 0.5])})
        assert report.passed and report.max_rel_error < 1e-7

    def test_two_params_linear(self):
        a = np.array([0.3, -0.7])
        b = np.array([[1.0, 2.0], [3.0, 4.0]])

        def loss(p):
            return float(a @ p["x"] + np.sum(b * p["y"])), {"x": a.copy(), "y": b.copy()}

        report = finite_diff_check(loss, {"x": np.zeros(2), "y": np.ones((2, 2))})
        assert report.passed

    def test_wrong_gradient_fails_and_reports_worst(self):
        def loss(p):
            x = p["x"]
            return float(np.sum(x * x)), {"x": 2 * x + 0.5}

        report = finite_diff_check(loss, {"x": np.array([1.0, 2.0])})
        assert not report.passed
        assert report.worst is not None and report.worst.param == "x"

    def test_impure_loss_detected(self):
        calls = []

        def loss(p):
            calls.append(1)
            return float(len(calls)), {"x": np.zeros(1)}

        with pytest.raises(OracleError):
            finite_diff_check(loss, {"x": np.zeros(1)})

    def test_gradient_shape_mismatch(self):
        def loss(p):
            return 0.0, {"x": np.zeros(3)}

        with pytest.raises(ShapeError):
            finite_diff_check(loss, {"x": np.zeros(2)})
