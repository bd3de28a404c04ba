"""DDE model interface and the two built-in benchmark oscillators.

A model is the right-hand side F(x(t), x(t - tau)) and nothing else: its
two partial Jacobians are derived from F by the complex step (see
ModelSpec.jacobians).  F broadcasts over leading axes: inputs of shape
(..., m) yield F of shape (..., m), and the Jacobians have shape
(..., m, m).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, NonFiniteState

# Complex-step size: F(z + ih e_j) = F(z) + ih DF e_j + O(h^2), and h^2
# underflows to zero, so Im F / h is DF e_j to round-off.  A power of two
# (about 1.3e-200), so that scaling by h and dividing by it are exact.
_COMPLEX_STEP = 2.0**-664


@dataclass(frozen=True)
class ModelSpec:
    """A delay system x'(t) = F(x(t), x(t - tau)).

    F must be real-analytic and complex-safe: called with complex arrays
    it computes the same formula, with no float casts, abs, max or writes
    into a float buffer.  Its Jacobians then follow exactly from one
    complex evaluation (jacobians); verify_jacobians checks that F
    qualifies.  They feed the Floquet and adjoint operators, where
    finite-difference noise would contaminate determinant root-finding.
    The delay tau must be positive.
    """

    name: str
    m: int
    tau: float
    F: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __post_init__(self):
        if not self.tau > 0:  # NaN included
            raise ValueError(f"delay tau must be positive, got tau={self.tau!r}")

    def jacobians(self, z0, z1) -> tuple[np.ndarray, np.ndarray]:
        """(DF0, DF1), the partials of F in the current and the delayed
        state at (z0, z1), each of shape (..., m, m).

        DF e_j = Im F(z + ih e_j) / h, with the 2m perturbed copies of the
        points stacked on an axis before the component axis and passed to
        F in one call.
        """
        m = self.m
        z0, z1 = np.broadcast_arrays(z0, z1)
        step = np.zeros((2, 2 * m, m), dtype=complex)
        step[0, :m] = step[1, m:] = 1j * _COMPLEX_STEP * np.eye(m)
        f = self.F(z0[..., None, :] + step[0], z1[..., None, :] + step[1])
        cols = np.imag(f) / _COMPLEX_STEP  # (..., 2m, m): row j is DF e_j
        return np.swapaxes(cols[..., :m, :], -1, -2), np.swapaxes(cols[..., m:, :], -1, -2)


def kotani_scalar(delta: float = 0.05) -> ModelSpec:
    """Scalar benchmark with delay pi/2 whose limit cycle is cos(t).

    x'(t) = -x(t - pi/2) + delta * x(t) * (1 - x(t)^2 - x(t - pi/2)^2)
    """

    def F(z0, z1):
        return -z1 + delta * z0 * (1.0 - z0**2 - z1**2)

    return ModelSpec(name="kotani", m=1, tau=np.pi / 2.0, F=F)


def cortico_thalamic(
    alpha: float = -0.039,
    beta: float = -0.4,
    gamma: float = -2.0,
    delta: float = -10.0,
    tau: float = 8.0,
) -> ModelSpec:
    """Two-component model for delayed cortico-thalamic EEG rhythms.

    x' = y
    y' = gamma*y + alpha*x + beta*x(t - tau) + delta*x^3
    """

    def F(z0, z1):
        x, y = z0[..., 0], z0[..., 1]
        out = np.empty(z0.shape, dtype=np.result_type(z0, z1, 1.0))
        out[..., 0] = y
        out[..., 1] = gamma * y + alpha * x + beta * z1[..., 0] + delta * x**3
        return out

    return ModelSpec(name="cortico", m=2, tau=tau, F=F)


BUILTIN_MODELS = {
    "kotani": kotani_scalar,
    "cortico": cortico_thalamic,
}


def make_model(name: str, **params) -> ModelSpec:
    """Instantiate a built-in model by name with parameter overrides."""
    try:
        factory = BUILTIN_MODELS[name]
    except KeyError:
        raise ConfigError(
            f"unknown model.name {name!r}; built-ins: {sorted(BUILTIN_MODELS)}"
        ) from None
    return factory(**params)


@np.errstate(all="ignore")  # an overflow in F is reported at its point, not warned
def verify_jacobians(
    model: ModelSpec, trials: int = 100, tol: float = 1e-6, seed: int = 0
) -> float:
    """Check that F is analytic: its complex-step Jacobians against central
    differences of F at random points, uniform in [-2, 2]^m for both
    arguments, drawn from the stdlib random.Random(seed) (numpy.random is
    not loaded for them).

    Returns the largest error relative to max(|entry|, 1).  ConfigError,
    naming the Jacobian, the entry and the point, if it exceeds tol or if
    F rejects complex input; NonFiniteState, naming the point, where F
    overflows, so that a Jacobian entry or its central difference is not
    finite.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    m, h = model.m, 1e-5
    rng = random.Random(seed)
    draws = [rng.uniform(-2.0, 2.0) for _ in range(trials * 2 * m)]
    z0, z1 = np.moveaxis(np.reshape(draws, (trials, 2, m)), 1, 0)
    try:
        derived = model.jacobians(z0, z1)
    except TypeError as exc:
        raise ConfigError(f"model {model.name!r}: F rejects complex input ({exc})") from None
    dz = h * np.eye(m)[:, None, :]  # (m, 1, m): one step per column j
    Z0, Z1 = (np.broadcast_to(z, (m,) + z.shape) for z in (z0, z1))
    central = (
        (model.F(Z0 + dz, Z1) - model.F(Z0 - dz, Z1)) / (2.0 * h),
        (model.F(Z0, Z1 + dz) - model.F(Z0, Z1 - dz)) / (2.0 * h),
    )
    worst = 0.0
    for which, J, diff in zip(("DF0", "DF1"), derived, central):
        err = np.abs(np.moveaxis(diff, 0, -1) - J) / np.maximum(np.abs(J), 1.0)
        finite = np.isfinite(err).all(axis=(-2, -1))
        if not finite.all():
            k = int(np.argmin(finite))
            raise NonFiniteState(
                f"model {model.name!r}: F or its {which} is not finite at "
                f"z0={z0[k].tolist()}, z1={z1[k].tolist()}"
            )
        k, i, j = np.unravel_index(np.argmax(err), err.shape)
        if err[k, i, j] > tol:
            raise ConfigError(
                f"model {model.name!r}: {which}[{i}, {j}] at z0={z0[k].tolist()}, "
                f"z1={z1[k].tolist()} differs from a central difference of F by "
                f"{err[k, i, j]:.2e} (tol {tol:g}): F must be real-analytic and "
                "accept complex input (no float casts, abs or max)"
            )
        worst = max(worst, float(err[k, i, j]))
    return worst
