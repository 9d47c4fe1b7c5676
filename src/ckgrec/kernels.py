"""Dense numeric kernels: initialization, activations and exact row sums.

All arrays are row-major float64.  The learning modules supply analytic
gradients by hand; the tests hold them against central differences.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .rng import Rng

ROW_SUM_COLUMNS = 64  # columns per bincount pass; caps its flat index at (terms x 64)


def gaussian_init(shape, std: float, rng: Rng) -> np.ndarray:
    """I.i.d. zero-mean Gaussian entries with the given standard deviation."""
    if not std > 0:
        raise ConfigError(f"init std must be positive, got {std}")
    return rng.normal(0.0, std, shape).astype(np.float64, copy=False)


def leaky_relu(x, slope: float = 0.2):
    """x for x >= 0, slope * x otherwise (elementwise)."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x >= 0.0, x, slope * x)


def leaky_relu_grad(x, slope: float = 0.2):
    """Derivative of leaky_relu; the kink at 0 takes the positive branch."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x >= 0.0, 1.0, slope)


def sigmoid(x):
    """Logistic sigmoid, stable for large |x| (elementwise)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softplus(x):
    """ln(1 + e^x) without overflow; softplus(-x) is the pairwise ranking loss."""
    return np.logaddexp(0.0, np.asarray(x, dtype=np.float64))


def row_sums(index, terms, n_rows: int) -> np.ndarray:
    """(n_rows, width) array whose row r sums the rows of `terms` with index r.

    Each cell adds its terms from 0.0 in input order, bitwise as np.add.at into zeros.
    """
    out = np.empty((n_rows, terms.shape[1]))
    for lo in range(0, terms.shape[1], ROW_SUM_COLUMNS):
        block = terms[:, lo:lo + ROW_SUM_COLUMNS]
        w = block.shape[1]
        flat = (np.asarray(index, dtype=np.int64)[:, None] * w + np.arange(w)).ravel()
        out[:, lo:lo + w] = np.bincount(flat, weights=block.ravel(), minlength=n_rows * w).reshape(n_rows, w)
    return out
