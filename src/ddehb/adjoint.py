"""Phase and amplitude response curves from the adjoint spectral system.

The response curve is the left null vector Q of

    A(mu) = A0 + mu I - e^{-mu tau} (Delta kron I_m) J1~,

with A0 = (D0 kron I_m) - J0 the matrix of the stability operator,
assembled once per orbit with this advanced delay block
(`floquet.orbit_linearization`).  J1~ holds the delayed-state Jacobian
evaluated at the advanced pair (x(t_n + tau), x(t_n)).  Written out column-wise (A^T Q = 0), the rows
sample the continuous adjoint equation: the advance operator Delta^T
realizes q(t + tau) exactly for trigonometric polynomials, and the
advanced Jacobian multiplies it pointwise.  No mode yields the phase
response (mu = 0); a Floquet mode yields the amplitude response at its mu.

Normalization pins the scale through the bilinear pairing of the curve
with the cycle tangent (phase, pairing omega) or the Floquet
eigenfunction (amplitude, pairing 1).  `normalization` is the one place
that rule lives; the oracle applies it to its own curves and partners.
The delay integral in the pairing uses QUAD_NODES-point Gauss-Legendre
quadrature because tau is generally incommensurate with the grid
spacing.  The count is fixed: on both shipped configs 16 to 256 nodes
give the same pairing to within 8e-15.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .cycle import PeriodicOrbit
from .errors import NormalizationSingular
from .floquet import FloquetMode, orbit_linearization, simple_null_svd
from .spectral import FourierSeries, sample_to_coeffs

NORMALIZATION_FLOOR = 1e-10  # smallest |pairing| a curve may be rescaled from
QUAD_NODES = 64  # Gauss-Legendre nodes of the pairing's delay integral


def build_adjoint_matrix(orbit: PeriodicOrbit, mu: float) -> np.ndarray:
    """Assemble the operator whose left null vector is the response curve;
    NonFiniteState where it is not finite."""
    return orbit_linearization(orbit, advanced=True).matrix(mu)


@dataclass
class ResponseCurve:
    """Normalized phase (z) or amplitude (q) response samples."""

    mu: float
    Q: np.ndarray  # (2M+1, m)
    series: FourierSeries
    normalization_residual: float
    sigma_min: float
    sigma_max: float
    residual: float  # ||Q^T A(mu)|| / ||Q||

    def value(self, t) -> np.ndarray:
        return self.series.evaluate(t)


def _evaluator(f, orbit: PeriodicOrbit):
    """The values of a pairing factor as a function of time."""
    if isinstance(f, (ResponseCurve, FloquetMode)):
        return f.value
    if isinstance(f, FourierSeries):
        return f.evaluate
    if isinstance(f, np.ndarray):
        return sample_to_coeffs(f, orbit.T).evaluate
    if callable(f):
        return f
    raise TypeError(f"unsupported pairing factor: {type(f)!r}")


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per n and
    returned read-only, since every caller shares them."""
    xi, w = np.polynomial.legendre.leggauss(n)
    xi.flags.writeable = w.flags.writeable = False
    return xi, w


def pairing_functional(
    orbit: PeriodicOrbit,
    response,
    partner,
    mu: float,
    t0: float = 0.0,
) -> float:
    """Bilinear form behind the normalization identities, based at t0.

    value = q(t0)^T p(t0)
            + e^{-mu tau} int_{-tau}^0 q(t0+tau+z)^T DF1(t0+tau+z) p(t0+z) dz

    with p the cycle tangent or a Floquet eigenfunction.  Each of q and p
    is a ResponseCurve, FloquetMode, FourierSeries, grid samples, or a
    callable of time (the oracle's interpolants).  Constant in t0 for
    correctly paired (mu, q, p); without the e^{-mu tau} factor it is not.
    Every model has tau > 0, so the delay integral always runs.
    """
    model = orbit.model
    q = _evaluator(response, orbit)
    p = _evaluator(partner, orbit)

    head = float(np.atleast_2d(q(t0))[0] @ np.atleast_2d(p(t0))[0])
    xi, w = _gauss_legendre(QUAD_NODES)
    zeta = 0.5 * model.tau * (xi - 1.0)  # nodes on [-tau, 0]
    weights = 0.5 * model.tau * w

    s = t0 + model.tau + zeta
    DF1 = model.jacobians(orbit.value(s), orbit.value(s - model.tau))[1]
    integrand = np.einsum("ni,nij,nj->n", q(s), DF1, p(t0 + zeta))
    return head + np.exp(-mu * model.tau) * float(weights @ integrand)


def normalization(orbit: PeriodicOrbit, curve, partner, mu: float,
                  target: float) -> float:
    """The factor that scales curve so that its pairing with partner is
    target: omega against the cycle tangent for a phase response, 1
    against the Floquet eigenfunction for an amplitude response.
    NormalizationSingular if the pairing is below NORMALIZATION_FLOOR."""
    c = pairing_functional(orbit, curve, partner, mu)
    if abs(c) < NORMALIZATION_FLOOR:
        raise NormalizationSingular(
            f"normalization pairing is {c:.3e} before rescaling"
        )
    return target / c


def solve_response(orbit: PeriodicOrbit,
                   mode: FloquetMode | None = None) -> ResponseCurve:
    """The normalized response curve that pairs with mode: with no mode the
    phase response (mu = 0, pairing omega with the cycle tangent), with a
    FloquetMode the amplitude response at mode.mu (pairing 1 with its
    eigenfunction).  The raw curve is the left null vector of the adjoint
    operator, extracted as the smallest left singular vector."""
    mu, partner, target = ((0.0, orbit.series.derivative(), orbit.omega) if mode is None
                           else (mode.mu, mode, 1.0))
    A = build_adjoint_matrix(orbit, mu)
    U, svals, _ = simple_null_svd(A, mu, "adjoint system")
    raw = U[:, -1].reshape(-1, orbit.model.m)
    Q = raw * normalization(orbit, raw, partner, mu, target)
    achieved = pairing_functional(orbit, Q, partner, mu)

    Qflat = Q.ravel()
    residual = float(np.linalg.norm(Qflat @ A) / np.linalg.norm(Qflat))
    return ResponseCurve(
        mu=float(mu),
        Q=Q,
        series=sample_to_coeffs(Q, orbit.T),
        normalization_residual=abs(achieved - target) / abs(target),
        sigma_min=float(svals[-1]),
        sigma_max=float(svals[0]),
        residual=residual,
    )
