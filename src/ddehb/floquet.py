"""Nonlinear eigenproblem det(M(mu)) = 0 for real Floquet exponents.

The stability operator collocates the linearized dynamics about the
converged orbit,

    M(mu) = A0 + mu I - e^{-mu tau} B,
    A0 = (D0 kron I_m) - J0,    B = J1 (Delta kron I_m),

with D0 and Delta the differentiation and delay matrices and
J0, J1 the block-diagonal Jacobians of the right-hand side along the
cycle (delayed orbit values read from the Fourier interpolant, never from
nearest samples).  Only the scalar factors depend on mu, so each public
call assembles (A0, B) once per orbit and every M(mu) it needs is one
matrix update.  Raw determinants overflow at modest sizes, so the scan
works with log-magnitude plus sign from pivoted factorization; the
smallest singular value serves as the refinement objective because it is
smooth near simple roots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cycle import Linearization, PeriodicOrbit, assemble_linearization
from .errors import DegenerateNullspace, NonFiniteState, NoRootInBracket, NotSingular
from .spectral import FourierSeries, build_operators, sample_to_coeffs

SINGULARITY_RATIO = 1e-8  # sigma_min/sigma_max threshold for "singular"
DEGENERACY_GAP = 1e-6  # relative gap between two smallest singular values
GAUGE_TIE_RATIO = 1e-9  # entries within this relative margin of the largest magnitude tie
SCAN_CHUNK = 25  # det_scan grid points per stacked assembly and LAPACK call


def orbit_linearization(orbit: PeriodicOrbit, advanced: bool = False) -> Linearization:
    """(A0, B) about the orbit; advanced=True gives the adjoint's B."""
    tau = orbit.model.tau
    t = orbit.grid.sample_times
    x_adv = orbit.value(t + tau) if advanced else None
    ops = build_operators(orbit.M, orbit.T, tau)
    return assemble_linearization(orbit.model, ops, orbit.X, orbit.delayed(t), x_adv)


def build_stability_matrix(orbit: PeriodicOrbit, mu: float) -> np.ndarray:
    """Assemble M(mu) for the linearization about the converged orbit."""
    return orbit_linearization(orbit).matrix(mu)


@dataclass
class DetScanResult:
    """log|det M(mu)|, its sign (+1, -1, or 0 where the factorization is
    exactly singular) and sigma_min at the grid values mu, one array each."""

    mu: np.ndarray
    log_abs_det: np.ndarray
    sign: np.ndarray
    sigma_min: np.ndarray

    def sign_changes(self):
        """Bracketing intervals (mu_lo, mu_hi) of neighbouring grid values
        where det changes sign, in grid order; a zero sign brackets nothing."""
        s = self.sign
        return [(float(self.mu[i]), float(self.mu[i + 1]))
                for i in np.flatnonzero(s[:-1] * s[1:] < 0)]


def det_scan(orbit: PeriodicOrbit, mu_range, grid_points: int = 200) -> DetScanResult:
    """Evaluate log|det M(mu)|, its sign and sigma_min on a uniform grid.
    NonFiniteState where e^{-mu tau} overflows and M(mu) is not finite.

    The grid is assembled SCAN_CHUNK points at a time (Linearization.matrices)
    and each chunk goes through one stacked slogdet and one stacked
    singular-value call that fills its slice of the arrays.  These run the
    same LAPACK routine on each matrix as a call per point would, so the
    values are the same to the bit; a chunk holds at most SCAN_CHUNK n^2
    doubles (1.3 MB at n = 81).
    """
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    lo, hi = mu_range
    scan = DetScanResult(np.linspace(lo, hi, grid_points), *np.empty((3, grid_points)))
    lin = orbit_linearization(orbit)
    for start in range(0, grid_points, SCAN_CHUNK):
        chunk = slice(start, start + SCAN_CHUNK)
        try:
            mats = lin.matrices(scan.mu[chunk])
        except NonFiniteState as exc:
            raise NonFiniteState(f"{exc}; increase scan.mu_min (now {lo:g})") from None
        scan.sign[chunk], scan.log_abs_det[chunk] = np.linalg.slogdet(mats)
        scan.sigma_min[chunk] = np.linalg.svd(mats, compute_uv=False)[:, -1]
    return scan


def _sigma_extremes(lin: Linearization, mu):
    svals = np.linalg.svd(lin.matrix(mu), compute_uv=False)
    return float(svals[-1]), float(svals[0])


def _det_sign(lin: Linearization, mu):
    sign, _ = np.linalg.slogdet(lin.matrix(mu))
    return sign


def refine_exponent(orbit: PeriodicOrbit, bracket) -> float:
    """Polish a root of det(M(mu)) = 0 inside the bracket.

    Bisection on the determinant sign when the endpoints disagree,
    golden-section descent on sigma_min otherwise.  The refined mu must
    satisfy sigma_min <= 1e-8 sigma_max or NoRootInBracket is raised.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not hi > lo:
        raise ValueError("bracket must satisfy mu_lo < mu_hi")
    width_tol = 1e-14 * max(1.0, abs(lo), abs(hi))
    lin = orbit_linearization(orbit)

    s_lo, s_hi = _det_sign(lin, lo), _det_sign(lin, hi)
    if s_lo != 0 and s_hi != 0 and s_lo != s_hi:
        a, b, sa = lo, hi, s_lo
        while b - a > width_tol:
            mid = 0.5 * (a + b)
            sm = _det_sign(lin, mid)
            if sm == 0:
                a = b = mid
                break
            if sm == sa:
                a = mid
            else:
                b = mid
        mu_hat = 0.5 * (a + b)
    else:
        # no sign change: descend on the sigma_min dip
        invphi = (np.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c = b - invphi * (b - a)
        dpt = a + invphi * (b - a)
        fc, _ = _sigma_extremes(lin, c)
        fd, _ = _sigma_extremes(lin, dpt)
        while b - a > width_tol:
            if fc < fd:
                b, dpt, fd = dpt, c, fc
                c = b - invphi * (b - a)
                fc, _ = _sigma_extremes(lin, c)
            else:
                a, c, fc = c, dpt, fd
                dpt = a + invphi * (b - a)
                fd, _ = _sigma_extremes(lin, dpt)
        mu_hat = 0.5 * (a + b)

    s_min, s_max = _sigma_extremes(lin, mu_hat)
    if s_min > SINGULARITY_RATIO * s_max:
        raise NoRootInBracket(
            f"refinement stagnated at mu={mu_hat:.6e} with "
            f"sigma_min/sigma_max = {s_min / s_max:.3e}"
        )
    return float(mu_hat)


@dataclass
class FloquetMode:
    """A real exponent with its max-normalized sampled eigenfunction."""

    mu: float
    R: np.ndarray  # (2M+1, m) samples of rho on the grid
    series: FourierSeries
    sigma_min: float
    sigma_max: float
    residual: float  # ||M(mu) R|| / ||R||

    def value(self, t) -> np.ndarray:
        return self.series.evaluate(t)


def _fix_mode_gauge(R: np.ndarray) -> np.ndarray:
    """Scale so max per-sample Euclidean norm is 1; sign so the overall
    largest-magnitude entry is positive.

    Entries whose magnitude is within GAUGE_TIE_RATIO of the largest are
    tied, and the first of them in flattened (grid-major) order sets the
    sign.  Symmetric profiles such as -sin t on a grid symmetric about 0
    have exactly tied entries of opposite sign; without the tie rule,
    round-off would decide which one wins and the sign would flip.
    """
    norms = np.linalg.norm(R, axis=1)
    R = R / norms.max()
    mag = np.abs(R).ravel()
    idx = int(np.argmax(mag >= (1.0 - GAUGE_TIE_RATIO) * mag.max()))
    if R.flat[idx] < 0:
        R = -R
    return R


def _sign_against(a: np.ndarray, ref: np.ndarray) -> float:
    """-1.0 if the inner product of a with ref is negative, else 1.0: the
    sign that aligns a profile with a reference of the same gauge class,
    such as an eigenfunction or amplitude response from another method."""
    return -1.0 if float(np.sum(a * ref)) < 0 else 1.0


def eigenfunction(orbit: PeriodicOrbit, mu: float) -> FloquetMode:
    """Extract the sampled eigenfunction of M(mu) at a refined exponent.

    The eigenfunction is the right singular vector for the smallest
    singular value (full SVD for robustness near near-degenerate
    spectra); raises DegenerateNullspace when the two smallest singular
    values are within 1e-6 relative, and NonFiniteState where M(mu) is
    not finite.
    """
    return _null_mode(orbit, mu, orbit_linearization(orbit).matrix(mu))


def simple_null_svd(mat: np.ndarray, mu: float, name: str = "M(mu)"):
    """Full SVD (U, s, Vt) of a matrix with a one-dimensional null space.

    Raises NotSingular when sigma_min/sigma_max exceeds SINGULARITY_RATIO
    and DegenerateNullspace when the two smallest singular values are
    within DEGENERACY_GAP relative; name labels the matrix in the message.
    """
    U, svals, Vt = np.linalg.svd(mat)
    s_min, s_next, s_max = svals[-1], svals[-2], svals[0]
    if s_min > SINGULARITY_RATIO * s_max:
        raise NotSingular(
            f"{name} is not singular at mu={mu:.6e}: "
            f"sigma_min/sigma_max = {s_min / s_max:.3e}"
        )
    if s_next - s_min <= DEGENERACY_GAP * max(s_next, np.finfo(float).eps * s_max):
        raise DegenerateNullspace(
            f"two smallest singular values within {DEGENERACY_GAP:.0e} relative "
            f"at mu={mu:.6e}: {s_min:.3e}, {s_next:.3e}"
        )
    return U, svals, Vt


def _null_mode(orbit: PeriodicOrbit, mu: float, mat: np.ndarray) -> FloquetMode:
    """The gauged eigenfunction from an assembled M(mu)."""
    _, svals, Vt = simple_null_svd(mat, mu)
    R = _fix_mode_gauge(Vt[-1].reshape(-1, orbit.model.m))
    residual = float(
        np.linalg.norm(mat @ R.ravel()) / np.linalg.norm(R.ravel())
    )
    return FloquetMode(
        mu=float(mu),
        R=R,
        series=sample_to_coeffs(R, orbit.T),
        sigma_min=float(svals[-1]),
        sigma_max=float(svals[0]),
        residual=residual,
    )


def find_exponents(
    orbit: PeriodicOrbit,
    mu_range,
    grid_points: int = 200,
    exclude_zero_radius: float = 1e-4,
) -> list[float]:
    """Scan-and-refine pipeline for nontrivial real exponents.

    The trivial root at mu = 0 is always present, so candidates inside
    exclude_zero_radius of zero are dropped.  Candidates come from
    determinant sign changes and from interior sigma_min dips.
    """
    scan = det_scan(orbit, mu_range, grid_points)
    brackets = scan.sign_changes()
    mu, s = scan.mu, scan.sigma_min
    for i in np.flatnonzero((s[1:-1] < s[:-2]) & (s[1:-1] < s[2:])) + 1:
        if not any(b[0] <= mu[i] <= b[1] for b in brackets):
            brackets.append((mu[i - 1], mu[i + 1]))
    roots = []
    for bracket in brackets:
        try:
            mu = refine_exponent(orbit, bracket)
        except NoRootInBracket:
            continue
        if abs(mu) < exclude_zero_radius:
            continue
        if all(abs(mu - r) > exclude_zero_radius for r in roots):
            roots.append(mu)
    roots.sort(reverse=True)
    return roots
