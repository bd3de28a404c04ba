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
(`FloquetMode.left`), and `solve_response` only scales the mode it is
given: the trivial mode's (mu = 0, `floquet.eigenfunction(orbit, 0.0)`) to
the phase response, any other mode's to the amplitude response at its mu.

Normalization pins the scale through the bilinear pairing of the curve
with the cycle tangent (phase, pairing omega) or the Floquet
eigenfunction (amplitude, pairing 1).  On the grid it is
Q^T M'(mu) P / (2M+1), P the sampled partner and M'(mu) = I + tau
e^{-mu tau} B (`cycle.Linearization.dmu`).  `normalization` is the one
place the rule lives; the oracle feeds it its own pairing.  Validation
checks t0-invariance with `pairing_functional`, which pairs the Fourier
series of a curve and of its partner at an array of base times in one
call and takes the delay integral by one 64-node Gauss-Legendre rule,
held as a constant table (on both shipped configs 16 to 256 nodes agree to
within 8e-15).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cycle import PeriodicOrbit
from .errors import NormalizationSingular
from .floquet import FloquetMode
from .spectral import FourierSeries, sample_to_coeffs

NORMALIZATION_FLOOR = 1e-10  # smallest |pairing| a curve may be rescaled from
# The pairing's rule, a table so that `ddehb validate` loads no numpy.polynomial:
# leggauss(64), which is symmetric, as its 32 positive nodes in ascending order
# and their weights, mirrored for the negative half
_GL64_NODES = (
    0.02435029266342443, 0.07299312178779904, 0.12146281929612054, 0.16964442042399283,
    0.21742364374000708, 0.2646871622087674, 0.31132287199021097, 0.3572201583376681,
    0.4022701579639916, 0.4463660172534641, 0.48940314570705296, 0.5312794640198946,
    0.571895646202634, 0.6111553551723933, 0.6489654712546573, 0.6852363130542333,
    0.7198818501716109, 0.7528199072605319, 0.7839723589433414, 0.8132653151227975,
    0.8406292962525803, 0.8659993981540928, 0.8893154459951141, 0.9105221370785028,
    0.9295691721319396, 0.9464113748584028, 0.9610087996520538, 0.973326827789911,
    0.983336253884626, 0.9910133714767443, 0.9963401167719552, 0.9993050417357722,
)
_GL64_WEIGHTS = (
    0.048690957009139814, 0.04857546744150351, 0.048344762234802996, 0.04799938859645842,
    0.04754016571483042, 0.046968182816210076, 0.04628479658131447, 0.045491627927418184,
    0.044590558163756566, 0.04358372452932355, 0.04247351512365361, 0.041262563242623576,
    0.039953741132720544, 0.03855015317861564, 0.03705512854024009, 0.0354722132568823,
    0.033805161837141794, 0.032057928354851495, 0.030234657072402554, 0.028339672614259535,
    0.02637746971505491, 0.0243527025687112, 0.02227017380838297, 0.020134823153530088,
    0.017951715775697284, 0.01572603047602503, 0.01346304789671786, 0.011168139460131028,
    0.008846759826363397, 0.006504457968978502, 0.004147033260564499, 0.00178328072169414,
)


def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The 64-node Gauss-Legendre nodes and weights on [-1, 1], read-only,
    since every pairing shares them."""
    half, w_half = np.array(_GL64_NODES), np.array(_GL64_WEIGHTS)
    xi, w = np.concatenate([-half[::-1], half]), np.concatenate([w_half[::-1], w_half])
    xi.flags.writeable = w.flags.writeable = False
    return xi, w


_GAUSS_LEGENDRE = _gauss_legendre()  # made once, at import


def build_adjoint_matrix(orbit: PeriodicOrbit, mu: float) -> np.ndarray:
    """M(mu), whose left null vector is the response curve, updated from the
    orbit's one (A0, B).  NonFiniteState where not finite.  No command calls
    it; bench/tracer.py's TIMED needs it."""
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


def pairing_functional(orbit: PeriodicOrbit, response: FourierSeries,
                       partner: FourierSeries, mu: float,
                       t0: float | np.ndarray = 0.0) -> float | np.ndarray:
    """Bilinear form behind the normalization identities, based at t0.

    value = q(t0)^T p(t0)
            + e^{-mu tau} int_{-tau}^0 q(t0+tau+z)^T DF1(t0+tau+z) p(t0+z) dz

    with q the Fourier series of a response curve and p that of the cycle
    tangent or a Floquet eigenfunction.  Constant in t0 for correctly
    paired (mu, q, p); without the e^{-mu tau} factor it is not.  Every
    model has tau > 0, so the delay integral always runs.

    t0 may be an array of base times; the value has its shape (a scalar
    t0 gives a scalar).  The orbit, its delayed values, DF1 and both series
    are read at the quadrature nodes once for all base times.  Each base
    time then takes its own head (q and p read at that time alone: numpy
    may round a readout of a few points differently from one of a single
    point), delay sum and quadrature sum, so its value is the one a call at
    that base time alone gives, to the bit.
    """
    model = orbit.model
    q, p = response.evaluate, partner.evaluate
    t0s = np.asarray(t0, dtype=float).ravel()

    xi, w = _GAUSS_LEGENDRE
    zeta = 0.5 * model.tau * (xi - 1.0)  # nodes on [-tau, 0]
    weights = 0.5 * model.tau * w

    s = (t0s + model.tau)[:, None] + zeta  # (base times, nodes)
    DF1 = model.jacobians(orbit.value(s), orbit.value(s - model.tau))[1]
    qs, ps = q(s), p(t0s[:, None] + zeta)
    damping = np.exp(-mu * model.tau)
    values = np.array([
        float(q(t) @ p(t))
        + damping * float(weights @ np.einsum("ni,nij,nj->n", qs[k], DF1[k], ps[k]))
        for k, t in enumerate(t0s)
    ])
    return values.reshape(np.shape(t0))[()]


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


def solve_response(orbit: PeriodicOrbit, mode: FloquetMode) -> ResponseCurve:
    """The normalized response curve that pairs with mode, mode.left scaled by
    the grid pairing: for the trivial mode (mu = 0) the phase response,
    pairing omega with the cycle tangent; for any other mode the amplitude
    response at mode.mu, pairing 1 with its eigenfunction.  It factors
    nothing; M(mu), for the residual, is updated from the orbit's (A0, B)."""
    mu = mode.mu
    lin = orbit.linearization
    A = lin.matrix(mu)
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
