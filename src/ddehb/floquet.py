"""Nonlinear eigenproblem det(M(mu)) = 0 for real Floquet exponents.

The stability operator collocates the linearized dynamics about the
converged orbit,

    M(mu) = A0 + mu I - e^{-mu tau} B,
    A0 = (D0 kron I_m) - J0,    B = J1 (Delta kron I_m),

with D0 and Delta the differentiation and delay matrices and
J0, J1 the block-diagonal Jacobians of the right-hand side along the
cycle (delayed orbit values read from the Fourier interpolant, never from
nearest samples).  Only the scalar factors depend on mu, so each orbit
assembles (A0, B) once, on first use (`PeriodicOrbit.linearization`), and
every M(mu) that a scan, a refinement, an eigenfunction or a response
curve needs is one matrix update of it.
Raw determinants overflow at modest sizes, so the scan works with
log-magnitude plus sign from pivoted factorization: a sign change
brackets a root, and so does a dip of log|det| without one.  The smallest
singular value serves as the objective that refines a dip because it is
smooth near simple roots.  No scan computes it: scan_sigma_min gives it
over a scan's grid, for floquet_scan.csv.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cycle import Linearization, PeriodicOrbit
from .errors import (ConfigError, DegenerateNullspace, GaugeAmbiguous, NonFiniteState,
                     NoRootInBracket, NotSingular)
from .spectral import FourierSeries, sample_to_coeffs

SINGULARITY_RATIO = 1e-8  # sigma_min/sigma_max threshold for "singular"
DEGENERACY_GAP = 1e-6  # relative gap between two smallest singular values
GAUGE_COSINE_FLOOR = 0.1  # least |cosine| of a mode with its gauge reference; cortico's is 0.50
SCAN_CHUNK = 10  # scan grid points per stacked assembly and LAPACK call
MAX_SCAN_POINTS = 100_000  # scan.points: each scan array; shipped 200


def build_stability_matrix(orbit: PeriodicOrbit, mu: float) -> np.ndarray:
    """Assemble M(mu) for the linearization about the converged orbit.  No
    command calls it; bench/tracer.py's TIMED needs it."""
    return orbit.linearization.matrix(mu)


@dataclass
class ScanOptions:
    """The config's `scan` section: the search grid, and the radius about 0
    inside which a root is the trivial one."""

    mu_min: float = -0.2
    mu_max: float = 0.05
    points: int = 200
    exclude_zero_radius: float = 1e-4

    def check(self) -> None:
        """ConfigError naming the broken rule: the one copy of the scan rules,
        which the config check and every search run."""
        if not 2 <= self.points <= MAX_SCAN_POINTS:
            raise ConfigError(f"scan.points must lie in 2..{MAX_SCAN_POINTS}, "
                              f"got {self.points}")
        if not self.mu_max > self.mu_min:
            raise ConfigError("scan.mu_max must exceed scan.mu_min")
        if not self.exclude_zero_radius > 0:
            raise ConfigError(
                "scan.exclude_zero_radius must be positive: it sets the trivial root "
                f"apart from the nontrivial ones, got {self.exclude_zero_radius}"
            )


@dataclass(eq=False)
class DetScanResult:
    """log|det M(mu)| and its sign (+1, -1, or 0 where the factorization is
    exactly singular) at the grid values mu, one array each, on lin = (A0, B)."""

    mu: np.ndarray
    log_abs_det: np.ndarray
    sign: np.ndarray
    lin: Linearization


def det_scan(orbit: PeriodicOrbit, scan: ScanOptions) -> DetScanResult:
    """Evaluate log|det M(mu)| and its sign on the scan's uniform grid.
    ConfigError as ScanOptions.check; NonFiniteState where e^{-mu tau}
    overflows and M(mu) is not finite.

    The grid is assembled SCAN_CHUNK points at a time (Linearization.matrices)
    and each chunk goes through one stacked slogdet that fills its slice of
    the arrays.  It runs the same LAPACK routine on each matrix as a call
    per point would, so the values are the same to the bit whatever the
    chunk bounds; a chunk holds at most SCAN_CHUNK n^2 doubles (0.52 MB at
    n = 81).  No bracket depends on sigma_min, so no scan computes it.
    """
    res = _empty_scan(orbit, scan)
    for start in range(0, scan.points, SCAN_CHUNK):
        _scan_chunk(res, slice(start, start + SCAN_CHUNK))
    return res


def scan_sigma_min(scan: DetScanResult) -> np.ndarray:
    """sigma_min of M(mu) at each scan.mu, from one stacked singular-value
    call per SCAN_CHUNK values on the scan's own (A0, B); bit-identical to a
    call per point, as det_scan's slogdet.  NonFiniteState as det_scan where
    M(mu) is not finite."""
    sigma_min = np.empty(len(scan.mu))
    for start in range(0, len(scan.mu), SCAN_CHUNK):
        chunk = slice(start, start + SCAN_CHUNK)
        sigma_min[chunk] = np.linalg.svd(_scan_matrices(scan.lin, scan.mu, chunk),
                                         compute_uv=False)[:, -1]
    return sigma_min


def _empty_scan(orbit: PeriodicOrbit, scan: ScanOptions) -> DetScanResult:
    """The checked scan grid with unfilled value arrays, on the orbit's (A0, B)."""
    scan.check()
    return DetScanResult(np.linspace(scan.mu_min, scan.mu_max, scan.points),
                         *np.empty((2, scan.points)), orbit.linearization)


def _scan_matrices(lin: Linearization, mu: np.ndarray, chunk: slice) -> np.ndarray:
    """M(mu) stacked over a chunk of the grid mu; NonFiniteState names the
    setting to move when e^{-mu tau} overflows."""
    try:
        return lin.matrices(mu[chunk])
    except NonFiniteState as exc:
        raise NonFiniteState(f"{exc}; increase scan.mu_min (now {mu[0]:g})") from None


def _scan_chunk(scan: DetScanResult, chunk: slice) -> None:
    """Fill the sign and log|det| of a chunk of the scan with one stacked
    slogdet."""
    scan.sign[chunk], scan.log_abs_det[chunk] = np.linalg.slogdet(
        _scan_matrices(scan.lin, scan.mu, chunk))


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
    No command calls it; bench/tracer.py's TIMED needs it.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not hi > lo:
        raise ValueError("bracket must satisfy mu_lo < mu_hi")
    return _refine(orbit.linearization, lo, hi, 0.0)


def _refine(lin: Linearization, lo: float, hi: float,
            exclude_zero_radius: float) -> float | None:
    """refine_exponent's search on the assembled (A0, B).  It returns None as
    soon as its interval lies inside (-exclude_zero_radius,
    exclude_zero_radius): the root it would reach lies there too, and
    find_exponents drops it as the trivial one."""

    def excluded(a, b):
        return -exclude_zero_radius < a and b < exclude_zero_radius

    if excluded(lo, hi):
        return None
    width_tol = 1e-14 * max(1.0, abs(lo), abs(hi))
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
            if excluded(a, b):
                return None
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
            if excluded(a, b):
                return None
        mu_hat = 0.5 * (a + b)

    s_min, s_max = _sigma_extremes(lin, mu_hat)
    if s_min > SINGULARITY_RATIO * s_max:
        raise NoRootInBracket(
            f"refinement stagnated at mu={mu_hat:.6e} with "
            f"sigma_min/sigma_max = {s_min / s_max:.3e}"
        )
    return float(mu_hat)


@dataclass(eq=False)
class FloquetMode:
    """A real exponent with its eigenfunction, gauged by mode_gauge, and
    left null vector."""

    mu: float
    R: np.ndarray  # (2M+1, m) samples of rho on the grid
    left: np.ndarray  # (m(2M+1),) unit left null vector, the unscaled response curve
    series: FourierSeries
    sigma_min: float
    sigma_max: float
    residual: float  # ||M(mu) R|| / ||R||


def mode_gauge(R: np.ndarray, ref: np.ndarray) -> float:
    """The factor that gives uniform samples R (n, m) of one period unit RMS
    and a positive mean product with the reference samples ref: x - mean(x)
    for a nontrivial mode, the tangent x' for the trivial one, which is
    orthogonal to x - mean(x).  On the collocation grid both means are
    Parseval sums, rho's L^2 norm and its L^2 product with the reference, so
    the gauge moves with the curve under a time shift and does not depend on
    M.  GaugeAmbiguous where |cosine| of R with ref is below
    GAUGE_COSINE_FLOOR: there the sign cannot be trusted."""
    dot, norm = float(np.vdot(ref, R)), float(np.linalg.norm(R))
    cosine = dot / (norm * float(np.linalg.norm(ref)))
    if not abs(cosine) >= GAUGE_COSINE_FLOOR:
        raise GaugeAmbiguous(f"mode's cosine with its gauge reference is {cosine:.3e}, "
                             f"below {GAUGE_COSINE_FLOOR:g} in magnitude")
    return float(np.copysign(np.sqrt(len(R)) / norm, dot))


def eigenfunction(orbit: PeriodicOrbit, mu: float) -> FloquetMode:
    """The Floquet mode of M(mu) at a refined exponent, or at mu = 0 the
    trivial mode, the one source of the mode that scales to z.

    The eigenfunction, gauged by mode_gauge, and the left null vector are
    the singular vectors of the smallest singular value of one full SVD
    (robust near near-degenerate spectra); NotSingular and
    DegenerateNullspace as simple_null_svd, NonFiniteState where M(mu) is
    not finite.
    """
    mat = orbit.linearization.matrix(mu)
    U, svals, Vt = simple_null_svd(mat, mu)
    R = Vt[-1].reshape(-1, orbit.model.m)
    ref = orbit.xdot_samples if mu == 0.0 else orbit.X - orbit.X.mean(axis=0)
    R = R * mode_gauge(R, ref)
    residual = float(np.linalg.norm(mat @ R.ravel()) / np.linalg.norm(R.ravel()))
    return FloquetMode(
        mu=float(mu),
        R=R,
        left=U[:, -1],  # a view: a contiguous copy can round left @ x differently
        series=sample_to_coeffs(R, orbit.T),
        sigma_min=float(svals[-1]),
        sigma_max=float(svals[0]),
        residual=residual,
    )


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


def find_exponents(orbit: PeriodicOrbit, scan: ScanOptions) -> list[float]:
    """Scan-and-refine pipeline for nontrivial real exponents, largest first.

    The trivial root at mu = 0 is always present, so candidates inside
    scan.exclude_zero_radius of zero are dropped, and a refinement stops as
    soon as it is confined there.  Candidates come from determinant sign
    changes and from interior log|det| dips.  One assembly of (A0, B), the
    scan's, serves the scan and every refinement.  ConfigError and
    NonFiniteState as det_scan.
    """
    res, radius = det_scan(orbit, scan), scan.exclude_zero_radius
    brackets = _brackets(res.mu, res.sign, res.log_abs_det)
    return _distinct_roots([_try_refine(res.lin, brackets[key], radius)
                            for key in sorted(brackets)], radius)


class LeadingExponent(NamedTuple):
    """The largest nontrivial exponent of the scan, or None if it has none,
    and the number of grid points the search evaluated."""

    mu: float | None
    points: int


def leading_exponent(orbit: PeriodicOrbit, scan: ScanOptions) -> LeadingExponent:
    """find_exponents(orbit, scan)[0] to the bit (None where that list is
    empty), from as little of the scan as decides it.

    The same grid is evaluated SCAN_CHUNK points at a time from the top, by
    sign and log|det| alone, as in det_scan, and each bracket is refined,
    through find_exponents' refinement on the one (A0, B) of the search, as
    soon as the points it depends on are known.
    Once the collected nontrivial roots above the highest undecided
    bracket's top theta all lie above theta + 2 scan.exclude_zero_radius,
    and at least one does, the search stops: a root from a bracket not yet
    decided lies at or below theta, so it can neither exceed those roots nor
    drop one of them as a near-duplicate, and the roots kept above theta are
    the ones find_exponents keeps.  ConfigError as det_scan; NonFiniteState
    as det_scan where M(mu) overflows anywhere on the grid: e^{-mu tau} is
    largest at mu_min, so that one matrix is assembled first.
    """
    res = _empty_scan(orbit, scan)
    _scan_matrices(res.lin, res.mu, slice(0, 1))
    radius, points = scan.exclude_zero_radius, scan.points
    refined = {}  # bracket key -> refined root, None where it failed or was trivial
    top = points  # points top.. are evaluated
    while top > 0:
        start = max(top - SCAN_CHUNK, 0)
        _scan_chunk(res, slice(start, top))
        # the chunk and the two points above it decide every bracket that
        # needs a point of the chunk
        window = slice(start, top + 2)
        brackets = _brackets(res.mu[window], res.sign[window], res.log_abs_det[window], start)
        for key in sorted(brackets.keys() - refined.keys()):
            refined[key] = _try_refine(res.lin, brackets[key], radius)
        top = start
        # undecided: the sign change below point top and the dip at it
        theta = res.mu[min(top + 1, points - 1)]
        above = [mu for mu in refined.values()
                 if mu is not None and abs(mu) >= radius and mu > theta]
        if above and min(above) > theta + 2.0 * radius:
            break
    roots = _distinct_roots([refined[key] for key in sorted(refined)], radius)
    return LeadingExponent(roots[0] if roots else None, points - top)


def _brackets(mu, sign, log_abs_det, offset: int = 0) -> dict:
    """Candidate brackets of consecutive scan values, keyed in
    find_exponents' order: (0, i) for a sign change between points i and
    i + 1 (a zero sign brackets nothing), then (1, i) for a dip of log|det|
    (a strict local minimum) at interior point i, bracketed by its
    neighbours and skipped where mu[i] lies in a sign change.  Each bracket
    needs only its own points, so a slice of the scan decides the brackets
    inside it; offset is the grid index of the slice's first point."""
    changes = sign[:-1] * sign[1:] < 0
    brackets = {(0, offset + i): (float(mu[i]), float(mu[i + 1]))
                for i in np.flatnonzero(changes)}
    s = log_abs_det
    for i in np.flatnonzero((s[1:-1] < s[:-2]) & (s[1:-1] < s[2:])) + 1:
        # on a monotone grid only the changes at i - 1 and i can hold mu[i]
        if not any(changes[j] and mu[j] <= mu[i] <= mu[j + 1] for j in (i - 1, i)):
            brackets[(1, offset + i)] = (float(mu[i - 1]), float(mu[i + 1]))
    return brackets


def _try_refine(lin: Linearization, bracket, exclude_zero_radius: float) -> float | None:
    """The refined root of a scan bracket, or None where the refinement
    fails or is confined to the trivial root's exclusion zone."""
    try:
        return _refine(lin, *bracket, exclude_zero_radius)
    except NoRootInBracket:
        return None


def _distinct_roots(refined, exclude_zero_radius: float) -> list[float]:
    """Refined roots in bracket order, less failed refinements, the trivial
    root and near-duplicates of a root kept before them, largest first."""
    roots = []
    for mu in refined:
        if mu is None or abs(mu) < exclude_zero_radius:
            continue
        if all(abs(mu - r) > exclude_zero_radius for r in roots):
            roots.append(mu)
    roots.sort(reverse=True)
    return roots
