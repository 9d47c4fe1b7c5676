"""Dense numeric kernels: initialization and activations.

All arrays are row-major float64.  The learning modules supply analytic
gradients by hand; the tests hold them against central differences.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .rng import Rng


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
