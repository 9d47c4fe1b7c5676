"""Dense numeric kernels: initialization, activations, and a gradient checker.

All arrays are row-major float64.  The learning modules supply analytic
gradients by hand; `finite_diff_check` is the independent referee that
keeps them honest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import ConfigError, OracleError, ShapeError
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


@dataclass
class GradCheckEntry:
    param: str
    index: tuple
    analytic: float
    numeric: float
    rel_error: float


@dataclass
class GradCheckReport:
    """Outcome of comparing analytic gradients against central differences."""

    max_rel_error: float
    tolerance: float
    worst: GradCheckEntry | None
    n_coordinates: int
    per_param: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tolerance


LossFn = Callable[[dict[str, np.ndarray]], tuple[float, Mapping[str, np.ndarray]]]


def finite_diff_check(
    loss_fn: LossFn,
    params: Mapping[str, np.ndarray],
    epsilon: float = 1e-5,
    tolerance: float = 1e-4,
    rel_floor: float = 1e-6,
) -> GradCheckReport:
    """Compare analytic gradients with central differences coordinate by coordinate.

    `loss_fn` maps a parameter dict to (loss, gradient dict) and must be pure:
    the checker evaluates it twice at the base point and refuses to proceed if
    the two losses differ.  The relative error of each coordinate is
    |analytic - numeric| / max(|analytic|, |numeric|, rel_floor).
    """
    base = {name: np.array(p, dtype=np.float64) for name, p in params.items()}

    loss_a, grads = loss_fn({k: v.copy() for k, v in base.items()})
    loss_b, _ = loss_fn({k: v.copy() for k, v in base.items()})
    if loss_a != loss_b:
        raise OracleError(
            f"loss_fn is non-deterministic: {loss_a!r} != {loss_b!r} at the same point"
        )

    worst: GradCheckEntry | None = None
    max_rel = 0.0
    per_param: dict[str, float] = {}
    n_coords = 0

    for name, p in base.items():
        grad = np.asarray(grads[name], dtype=np.float64)
        if grad.shape != p.shape:
            raise ShapeError(
                f"gradient shape {grad.shape} != parameter shape {p.shape} for '{name}'"
            )
        param_max = 0.0
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            n_coords += 1

            perturbed = {k: v.copy() for k, v in base.items()}
            perturbed[name][idx] += epsilon
            f_plus, _ = loss_fn(perturbed)

            perturbed = {k: v.copy() for k, v in base.items()}
            perturbed[name][idx] -= epsilon
            f_minus, _ = loss_fn(perturbed)

            numeric = (f_plus - f_minus) / (2.0 * epsilon)
            analytic = float(grad[idx])
            denom = max(abs(analytic), abs(numeric), rel_floor)
            rel = abs(analytic - numeric) / denom
            param_max = max(param_max, rel)
            if rel >= max_rel:
                max_rel = rel
                worst = GradCheckEntry(name, idx, analytic, float(numeric), rel)
            it.iternext()
        per_param[name] = param_max

    return GradCheckReport(
        max_rel_error=max_rel,
        tolerance=tolerance,
        worst=worst,
        n_coordinates=n_coords,
        per_param=per_param,
    )
