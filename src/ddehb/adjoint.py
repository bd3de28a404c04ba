"""Phase and amplitude response curves as left null vectors of M(mu).

The response curve is the left null vector Q of the stability matrix

    M(mu) = A0 + mu I - e^{-mu tau} B,    B = J1 (Delta kron I_m),

the one whose right null vectors are the Floquet modes, updated from the
orbit's one (A0, B) (`PeriodicOrbit.linearization`).  Its transpose is
the harmonic-balance matrix of the adjoint equation: D0 is antisymmetric
and Delta^T is the exact advance by tau (`spectral.SpectralOperators`),
so Q^T M(mu) = 0 collocates

    -q' - DF0^T q + mu q - e^{-mu tau} [DF1^T q](t + tau) = 0.

The product DF1^T q is formed on the grid and then shifted by tau.
Evaluating DF1 at (x(t + tau), x(t)) and shifting q alone differs from
that only by the aliasing of the product on the grid; in a Galerkin
harmonic balance the two coincide.  A Floquet mode carries Q from its SVD
(`FloquetMode.left`): the trivial mode's (mu = 0) scales to the phase
response, any other mode's to the amplitude response at its mu.

Normalization pins the scale through the bilinear pairing of the curve
with the cycle tangent (phase, pairing omega) or the Floquet
eigenfunction (amplitude, pairing 1).  On the grid it is
Q^T M'(mu) P / (2M+1), P the sampled partner and M'(mu) = I + tau
e^{-mu tau} B (`cycle.Linearization.dmu`).  `normalization` is the one
place the rule lives; the oracle feeds it its own pairing.  Validation
checks t0-invariance with `pairing_functional`, which pairs the Fourier
series of a curve and of its partner and takes the delay integral by a
fixed QUAD_NODES-point Gauss-Legendre rule (on both shipped configs 16 to
256 nodes agree to within 8e-15).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .cycle import PeriodicOrbit
from .errors import NormalizationSingular
from .floquet import FloquetMode, _null_mode
from .spectral import FourierSeries, sample_to_coeffs

NORMALIZATION_FLOOR = 1e-10  # smallest |pairing| a curve may be rescaled from
QUAD_NODES = 64  # Gauss-Legendre nodes of the pairing's delay integral


def build_adjoint_matrix(orbit: PeriodicOrbit, mu: float) -> np.ndarray:
    """M(mu), whose left null vector is the response curve, updated from the
    orbit's one (A0, B).  NonFiniteState where not finite."""
    return orbit.linearization.matrix(mu)


@dataclass(eq=False)
class ResponseCurve:
    """Normalized phase (z) or amplitude (q) response samples."""

    mu: float
    Q: np.ndarray  # (2M+1, m)
    series: FourierSeries
    normalization_residual: float
    residual: float  # ||Q^T M(mu)|| / ||Q||

    def value(self, t) -> np.ndarray:
        return self.series.evaluate(t)


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per n and
    returned read-only, since every caller shares them."""
    xi, w = np.polynomial.legendre.leggauss(n)
    xi.flags.writeable = w.flags.writeable = False
    return xi, w


def pairing_functional(orbit: PeriodicOrbit, response: FourierSeries,
                       partner: FourierSeries, mu: float, t0: float = 0.0) -> float:
    """Bilinear form behind the normalization identities, based at t0.

    value = q(t0)^T p(t0)
            + e^{-mu tau} int_{-tau}^0 q(t0+tau+z)^T DF1(t0+tau+z) p(t0+z) dz

    with q the Fourier series of a response curve and p that of the cycle
    tangent or a Floquet eigenfunction.  Constant in t0 for correctly
    paired (mu, q, p); without the e^{-mu tau} factor it is not.  Every
    model has tau > 0, so the delay integral always runs.
    """
    model = orbit.model
    q, p = response.evaluate, partner.evaluate

    head = float(np.atleast_2d(q(t0))[0] @ np.atleast_2d(p(t0))[0])
    xi, w = _gauss_legendre(QUAD_NODES)
    zeta = 0.5 * model.tau * (xi - 1.0)  # nodes on [-tau, 0]
    weights = 0.5 * model.tau * w

    s = t0 + model.tau + zeta
    DF1 = model.jacobians(orbit.value(s), orbit.value(s - model.tau))[1]
    integrand = np.einsum("ni,nij,nj->n", q(s), DF1, p(t0 + zeta))
    return head + np.exp(-mu * model.tau) * float(weights @ integrand)


def normalization(c: float, target: float) -> float:
    """The factor that scales a curve whose pairing with its partner is c so
    that the pairing becomes target: omega against the cycle tangent for a
    phase response, 1 against the Floquet eigenfunction for an amplitude
    response.  NormalizationSingular if |c| is below NORMALIZATION_FLOOR."""
    if abs(c) < NORMALIZATION_FLOOR:
        raise NormalizationSingular(
            f"normalization pairing is {c:.3e} before rescaling"
        )
    return target / c


def solve_response(orbit: PeriodicOrbit,
                   mode: FloquetMode | None = None) -> ResponseCurve:
    """The normalized response curve that pairs with mode, mode.left scaled by
    the grid pairing: for the trivial mode (mu = 0) the phase response,
    pairing omega with the cycle tangent; for any other mode the amplitude
    response at mode.mu, pairing 1 with its eigenfunction.  With no mode,
    the trivial mode comes from one SVD of M(0), updated from the orbit's
    (A0, B)."""
    mu = 0.0 if mode is None else mode.mu
    lin = orbit.linearization
    A = lin.matrix(mu)
    if mode is None:
        mode = _null_mode(orbit, mu, A)
    P, target = (orbit.xdot_samples, orbit.omega) if mu == 0.0 else (mode.R, 1.0)
    MP = lin.dmu(mu, P.ravel()) / len(P)  # one product serves scaling and check
    Qflat = mode.left * normalization(float(mode.left @ MP), target)
    achieved = float(Qflat @ MP)
    residual = float(np.linalg.norm(Qflat @ A) / np.linalg.norm(Qflat))
    Q = Qflat.reshape(-1, orbit.model.m)
    return ResponseCurve(
        mu=float(mu),
        Q=Q,
        series=sample_to_coeffs(Q, orbit.T),
        normalization_residual=abs(achieved - target) / abs(target),
        residual=residual,
    )
