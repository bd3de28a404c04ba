"""Independent time-evolution oracle for validating the spectral path.

Its engines share no operator code with the harmonic balance modules
(separate delayed-value interpolation, separate Jacobian assembly, their
own discretization of the delay), so that agreement is evidence rather
than tautology:

* method-of-steps RK4 integration of the delay system, with delayed
  values from piecewise-cubic interpolation of the stored history;
* the pseudospectral oracle: monodromy matrix, eigenfunction and phase
  and amplitude responses of the variational equation with the delay
  interval held on a Chebyshev grid, normalized by the shared convention
  `adjoint.normalization` against the oracle's own tangent and rho;
* direct pulse-perturbation PRC measurement.

The delay-line chain engines at the end have no caller in the command
line; `bench/tracer.py` still times them by name.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .adjoint import normalization  # the paper's normalization, no operator
from .config import MIN_DELAY_STEPS, _snap_step
from .cycle import CycleSeed, PeriodicOrbit
from .errors import (
    MonodromyIllConditioned,
    NoOscillationDetected,
    NonConvergentAdjoint,
    NonFiniteState,
    PeriodDrift,
)
# shared conventions, no operator
from .floquet import _fix_mode_gauge as _mode_gauge
from .model import ModelSpec
from .spectral import sample_to_coeffs
from .sweep import _sweep_backward, _sweep_forward, _sweep_plan

# settle_to_cycle: the period is the mean of the last SETTLE_LAST_INTERVALS
# of at least SETTLE_MIN_CROSSINGS upward mean-crossings
SETTLE_MIN_CROSSINGS = 12
SETTLE_LAST_INTERVALS = 10
SETTLE_DRIFT_TOL = 0.01  # largest interval spread, relative to the period
SETTLE_AMPLITUDE_FLOOR = 1e-8  # smallest post-transient peak-to-peak swing

MONODROMY_MAX_ITERATIONS = 40
RITZ_TOL = 1e-10  # residual of a leading Ritz pair, relative to max(1, |theta|)

ADJOINT_MAX_PERIODS = 50
ADJOINT_TOL = 1e-8  # residual of a target's unit Ritz vector, relative to |theta|
ADJOINT_SEED = 1  # random start block of the backward iteration
ADJOINT_SUBSPACE = 6  # vectors in that block

PRC_EPS = 1e-3  # pulse size relative to the orbit's peak in PRC_COMPONENT
PRC_COMPONENT = 0  # the kicked and observed component
PRC_PHASES = 16  # pulse phases of the validation PRC, evenly spaced
PRC_PERIODS = 20  # cycles each perturbed copy runs
PRC_WINDOW_PERIODS = 5  # trailing periods the phase shift is read over


def _lagrange4(x: np.ndarray) -> np.ndarray:
    """Cubic Lagrange basis on the nodes 0..3 at local coordinates x, (n, 4)."""
    w = np.ones((x.size, 4))
    for i in range(4):
        for j in range(4):
            if j != i:
                w[:, i] *= (x - j) / (i - j)
    return w


def _cubic(values: np.ndarray, s: np.ndarray, periodic: bool) -> np.ndarray:
    """Piecewise-cubic readout of uniform samples values (n, ...) at the
    sample coordinates s.  The 4-point stencil is clamped at the ends, or,
    if periodic, wraps around: the n samples cover one period, and sample
    n is sample 0 again."""
    j = np.floor(s).astype(int)
    if periodic:
        n = values.shape[0]
        j0 = np.clip(j, 0, n - 1) - 1
        idx = (j0[:, None] + np.arange(4)) % n
    else:
        j0 = np.clip(j - 1, 0, values.shape[0] - 4)
        idx = j0[:, None] + np.arange(4)
    return np.einsum("pk,pk...->p...", _lagrange4(s - j0), values[idx])


@dataclass
class Trajectory:
    """Uniform-step trajectory; the leading samples cover one delay span."""

    t_start: float
    dt: float
    states: np.ndarray  # (n_points, ..., m)

    @property
    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.states.shape[0])

    def value(self, t) -> np.ndarray:
        """Piecewise-cubic readout at arbitrary times (stencil clamped at
        the ends)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return _cubic(self.states, (t - self.t_start) / self.dt, periodic=False)


def integrate_dde(
    model: ModelSpec,
    history,
    t_end: float,
    dt: float,
    initial_kick: np.ndarray | None = None,
) -> Trajectory:
    """Method-of-steps RK4 integration of the delay system from t=0.

    history(s) supplies the state for s in [-tau, 0] (tau > 0, as every
    ModelSpec has it); it may return a batch (..., m), in which case the
    whole ensemble is advanced in lockstep.  dt is rounded down so it
    divides tau exactly (and must leave at least MIN_DELAY_STEPS steps per
    delay), which keeps full-step delayed lookups on stored nodes; only the
    half-step stage values are interpolated, by the clamped cubic readout
    of Trajectory.value.
    initial_kick, if given, is added to the state at t=0.
    """
    tau = model.tau
    dt, n_tau = _snap_step(tau, dt)
    if n_tau < MIN_DELAY_STEPS:
        raise ValueError(
            f"dt={dt:g} too coarse: need dt <= tau/{MIN_DELAY_STEPS} "
            f"= {tau / MIN_DELAY_STEPS:g}"
        )
    n_steps = int(np.ceil(t_end / dt))

    x0 = np.asarray(history(0.0), dtype=float)
    buf = np.empty((n_tau + n_steps + 1,) + x0.shape)
    for j in range(n_tau + 1):
        buf[j] = history((j - n_tau) * dt)
    if initial_kick is not None:
        buf[n_tau] = buf[n_tau] + initial_kick

    half = 0.5 * dt
    # Step k reads its delayed midpoint from the nodes k-1..k+2 (0..3 at
    # k = 0); over a span of n_tau - 1 steps all of them are stored before
    # the span starts, so its delayed midpoints are read at once.
    for k0 in range(0, n_steps, n_tau - 1):
        k_end = min(k0 + n_tau - 1, n_steps)
        xdm = _cubic(buf, np.arange(k0, k_end) + 0.5, periodic=False)
        for k in range(k0, k_end):
            x, xm = buf[n_tau + k], xdm[k - k0]
            k1 = model.F(x, buf[k])
            k2 = model.F(x + half * k1, xm)
            k3 = model.F(x + half * k2, xm)
            k4 = model.F(x + dt * k3, buf[k + 1])
            buf[n_tau + k + 1] = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        span = buf[n_tau + k0 + 1 : n_tau + k_end + 1].reshape(k_end - k0, -1)
        finite = np.isfinite(span).all(axis=1)
        if not finite.all():
            t_last = (k0 + int(np.argmin(finite))) * dt
            raise NonFiniteState(f"integration blew up at t={t_last:.6g}", t_last=t_last)

    return Trajectory(t_start=-tau, dt=dt, states=buf)


@dataclass
class SettleResult:
    period: float
    spread: float
    crossings: np.ndarray
    seed: CycleSeed


def settle_to_cycle(model: ModelSpec, history, transient: float, dt: float = 0.05,
                    M: int = 20, component: int = 0,
                    observe_time: float | None = None) -> SettleResult:
    """Relax onto the attracting cycle at step dt and extract a period and
    a Fourier seed.  The period comes from successive upward mean-crossings
    of the anchor component over the observe_time (default 100 max(tau, 1))
    after the transient: the mean of the last SETTLE_LAST_INTERVALS
    intervals, spread reported.  The seed resamples one period onto a 2M+1
    grid, time-shifted so the anchor component peaks at t=0, which
    pre-satisfies the solver's phase anchor.
    """
    if observe_time is None:
        observe_time = 100.0 * max(model.tau, 1.0)
    traj = integrate_dde(model, history, transient + observe_time, dt)

    times = traj.times
    comp = traj.states[..., component]
    window = times >= transient
    tw = times[window]
    xw = comp[window]
    if np.ptp(xw) < SETTLE_AMPLITUDE_FLOOR:
        raise NoOscillationDetected(
            f"post-transient oscillation amplitude {np.ptp(xw):.3e} below floor"
        )
    ref = xw.mean()
    y = xw - ref
    up = np.nonzero((y[:-1] < 0.0) & (y[1:] >= 0.0))[0]
    crossings = tw[up] - y[up] * traj.dt / (y[up + 1] - y[up])
    if crossings.size < SETTLE_MIN_CROSSINGS:
        raise NoOscillationDetected(
            f"only {crossings.size} upward crossings detected "
            f"(need >= {SETTLE_MIN_CROSSINGS})"
        )
    intervals = np.diff(crossings)[-SETTLE_LAST_INTERVALS:]
    period = float(intervals.mean())
    spread = float(intervals.max() - intervals.min())
    if spread > SETTLE_DRIFT_TOL * period:
        raise PeriodDrift(
            f"crossing interval spread {spread:.3e} exceeds "
            f"{SETTLE_DRIFT_TOL:.0%} of the mean period {period:.6g}"
        )

    # anchor the seed at the maximum of the anchored component
    t_ref = crossings[-1]
    fine = np.linspace(t_ref - period, t_ref, 4096)
    vals = traj.value(fine)[..., component]
    i = int(np.argmax(vals))
    if 0 < i < fine.size - 1:
        a, b, c = vals[i - 1], vals[i], vals[i + 1]
        denom = a - 2.0 * b + c
        shift = 0.5 * (a - c) / denom if denom != 0 else 0.0
        t_max = fine[i] + shift * (fine[1] - fine[0])
    else:
        t_max = fine[i]

    K = 2 * M + 1
    grid_t = t_max + np.arange(-M, M + 1) * (period / K)
    samples = traj.value(grid_t)
    seed = CycleSeed(series=sample_to_coeffs(samples, period), period=period)
    return SettleResult(period=period, spread=spread, crossings=crossings, seed=seed)


# ---------------------------------------------------------------------------
# Pseudospectral oracle: monodromy, eigenfunction and responses
# ---------------------------------------------------------------------------
#
# The history segment x(t + theta), theta in [-tau, 0], is held by its values
# u_j at the n + 1 Chebyshev extremal nodes theta_j = (tau/2)(cos(j pi/n) - 1),
# so theta_0 = 0 is the head and theta_n = -tau.  Linearized along the orbit,
# the head follows u_0' = DF0(t) u_0 + DF1(t) u_n and every other node the
# transport equation u_j' = sum_k (2/tau) D_jk u_k, D the Chebyshev
# differentiation matrix (D. Breda, O. Diekmann, M. Gyllenberg, F. Scarabel and
# R. Vermiglio, SIAM J. Appl. Dyn. Syst. 15 (2016) 1-23; `cheb` of Trefethen,
# Spectral Methods in MATLAB).  Only the head rows depend on t.

CHEB_NODES = 16  # n: the history segment is held at n + 1 nodes
STEPS_PER_PERIOD = 4000  # RK4 steps over one period
# Largest h |lambda| over the eigenvalues lambda of the transport block; RK4
# is stable on the left half-disk of radius 2.5, so this leaves a margin.
RK4_STABLE_STEP = 2.0
STEP_BATCH = 40  # step matrices built at once; a period's worth is never held


@dataclass
class _PeriodicInterp:
    """Cubic interpolant of dense uniform samples over one period."""

    T: float
    values: np.ndarray  # (steps, m) at t = 0, h, ..., T - h

    def __call__(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        h = self.T / self.values.shape[0]
        return _cubic(self.values, np.mod(t, self.T) / h, periodic=True)


def _orbit_tangent(orbit):
    """Cycle tangent from the delay system itself, x' = F(x, x_delayed)."""

    def xdot(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return orbit.model.F(orbit.value(t), orbit.value(t - orbit.model.tau))

    return xdot


def _response(orbit, curve, mode) -> _PeriodicInterp:
    """Response from a periodic curve sampled uniformly over one period,
    scaled to pair with the cycle tangent to omega (mode None: phase, at
    mu = 0) or with rho to 1 (mode (mu, rho): amplitude, at mu)."""
    mu, partner, target = ((0.0, _orbit_tangent(orbit), orbit.omega) if mode is None
                           else (*mode, 1.0))
    raw = _PeriodicInterp(T=orbit.T, values=curve)
    scale = normalization(orbit, raw, partner, mu, target)
    return _PeriodicInterp(T=orbit.T, values=curve * scale)


def _leading_nontrivial(multipliers: np.ndarray, exponents: np.ndarray) -> complex:
    """Exponent with the largest real part besides the trivial one (the
    multiplier closest to 1); exponents are sorted by descending real part."""
    i_unit = int(np.argmin(np.abs(multipliers - 1.0)))
    return [mu for i, mu in enumerate(exponents) if i != i_unit][0]


@functools.lru_cache(maxsize=None)
def _cheb(n: int) -> tuple[np.ndarray, float]:
    """Chebyshev differentiation matrix D on the nodes cos(j pi / n),
    j = 0..n (Trefethen's cheb), read-only, and the spectral radius of its
    transport block D[1:, 1:]."""
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.where((np.arange(n + 1) % n) == 0, 2.0, 1.0) * (-1.0) ** np.arange(n + 1)
    D = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(n + 1))
    D -= np.diag(D.sum(axis=1))
    D.flags.writeable = False
    return D, float(np.abs(np.linalg.eigvals(D[1:, 1:])).max())


@dataclass
class PseudospectralSystem:
    """The pseudospectral variational equation u' = A(t) u along one period,
    stepped by RK4 in `steps` steps of h = T / steps."""

    T: float
    steps: int
    h: float
    m: int
    transport: np.ndarray  # (dim, dim) the t-independent rows of A; head rows zero
    jac0: np.ndarray  # (2 steps + 1, m, m) DF0 at t = 0, h/2, ..., T
    jac1: np.ndarray  # DF1 at the same times

    def step_matrices(self, k0: int, k1: int) -> np.ndarray:
        """RK4 step matrices of the steps k0..k1-1, (k1 - k0, dim, dim); step
        k maps the state at t_k = k h to the state at t_k + h."""
        m, h = self.m, self.h

        def generator(i):
            A = np.repeat(self.transport[None], i.size, axis=0)
            A[:, :m, :m], A[:, :m, -m:] = self.jac0[i], self.jac1[i]
            return A

        i = 2 * np.arange(k0, k1)
        A0, A1, A2 = generator(i), generator(i + 1), generator(i + 2)
        K2 = A1 + (0.5 * h) * (A1 @ A0)
        K3 = A1 + (0.5 * h) * (A1 @ K2)
        K4 = A2 + h * (A2 @ K3)
        return np.eye(A0.shape[-1]) + (h / 6.0) * (A0 + 2.0 * (K2 + K3) + K4)


def pseudospectral_system(model: ModelSpec, orbit: PeriodicOrbit, n: int = CHEB_NODES,
                          steps: int = STEPS_PER_PERIOD) -> PseudospectralSystem:
    """The variational equation along orbit on n + 1 nodes.  steps is raised
    where needed so that h |lambda| stays within RK4_STABLE_STEP on the
    transport block."""
    m, tau, T = model.m, model.tau, orbit.T
    D, radius = _cheb(n)
    steps = max(steps, math.ceil(T * (2.0 / tau) * radius / RK4_STABLE_STEP))
    transport = np.kron((2.0 / tau) * D, np.eye(m))
    transport[:m] = 0.0
    t = np.arange(2 * steps + 1) * (0.5 * T / steps)
    jac0, jac1 = model.jacobians(orbit.value(t), orbit.value(t - tau))
    return PseudospectralSystem(T, steps, T / steps, m, transport, jac0, jac1)


@dataclass
class OracleMonodromy:
    """Every Floquet multiplier of a pseudospectral system, from its
    monodromy matrix."""

    system: PseudospectralSystem
    matrix: np.ndarray  # (dim, dim) the monodromy matrix
    heads: np.ndarray  # (steps + 1, m, dim) head rows of the step products up to t_k
    multipliers: np.ndarray  # in the order of exponents
    exponents: np.ndarray  # complex, by descending real part, upper member of a pair first
    unit_multiplier_error: float

    def leading_nontrivial(self) -> float:
        """Real part of the leading exponent besides the trivial one."""
        return float(_leading_nontrivial(self.multipliers, self.exponents).real)


def oracle_floquet(model: ModelSpec, orbit: PeriodicOrbit, n: int = CHEB_NODES,
                   steps: int = STEPS_PER_PERIOD) -> OracleMonodromy:
    """The monodromy matrix of the pseudospectral variational equation as
    the product of its RK4 step matrices over one period, and all its
    multipliers from one eig.  The head rows of each partial product are
    kept for the eigenfunction.  The unit multiplier must be present:
    deviation beyond 1e-2 raises MonodromyIllConditioned.
    """
    system = pseudospectral_system(model, orbit, n, steps)
    P = np.eye(system.transport.shape[0])
    heads = np.empty((system.steps + 1, system.m, P.shape[0]))
    heads[0] = P[:system.m]
    for k0 in range(0, system.steps, STEP_BATCH):
        k1 = min(k0 + STEP_BATCH, system.steps)
        for k, S in enumerate(system.step_matrices(k0, k1), k0 + 1):
            P = S @ P
            heads[k] = P[:system.m]
    multipliers = np.linalg.eigvals(P).astype(complex)
    exponents = np.log(multipliers) / orbit.T
    order = np.lexsort((-exponents.imag, -exponents.real))
    unit_err = float(np.min(np.abs(multipliers - 1.0)))
    if unit_err > 1e-2:
        raise MonodromyIllConditioned(
            f"unit Floquet multiplier missing: closest is off by {unit_err:.3e}"
        )
    return OracleMonodromy(system, P, heads, multipliers[order], exponents[order], unit_err)


def _null_vectors(mono: OracleMonodromy, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Right and left eigenvectors of the monodromy matrix at the real
    multiplier lam: the null vectors of matrix - lam I, from one SVD."""
    U, _, Vt = np.linalg.svd(mono.matrix - lam * np.eye(mono.matrix.shape[0]))
    return Vt[-1], U[:, -1]


def oracle_eigenfunction(orbit: PeriodicOrbit, mono: OracleMonodromy) -> _PeriodicInterp:
    """Eigenfunction rho(t) = e^{-mu t} y(t) at the leading nontrivial
    exponent mu, y the head of the right eigenvector carried forward by the
    partial products.  It is gauged as the spectral eigenfunction is, by
    _fix_mode_gauge on its samples at the orbit's collocation grid."""
    mu, system = mono.leading_nontrivial(), mono.system
    v, _ = _null_vectors(mono, float(np.exp(mu * system.T)))
    t = np.arange(system.steps) * system.h
    rho = _PeriodicInterp(system.T, np.exp(-mu * t)[:, None] * (mono.heads[:-1] @ v))
    samples = rho(orbit.grid.sample_times)
    i = int(np.argmax(np.abs(samples)))
    rho.values *= _mode_gauge(samples).flat[i] / samples.flat[i]
    return rho


def oracle_responses(orbit: PeriodicOrbit, mono: OracleMonodromy,
                     rho: _PeriodicInterp) -> tuple[_PeriodicInterp, _PeriodicInterp]:
    """Phase response z and amplitude response q at the leading nontrivial
    exponent mu, which pairs with rho (from oracle_eigenfunction).  The left
    eigenvectors at the multipliers 1 and e^{mu T} are stepped back over one
    period by the transposed step matrices together, and each is read at
    the head; q takes the factor e^{mu (t - T)}.  Both are scaled by
    adjoint.normalization, against the orbit's own tangent and against rho.
    """
    mu, system = mono.leading_nontrivial(), mono.system
    m, T = system.m, system.T
    Y = np.stack([_null_vectors(mono, lam)[1] for lam in (1.0, np.exp(mu * T))], axis=1)
    heads = np.empty((system.steps + 1, m, 2))
    heads[-1] = Y[:m]
    for k1 in range(system.steps, 0, -STEP_BATCH):
        k0 = max(k1 - STEP_BATCH, 0)
        S = system.step_matrices(k0, k1)
        for k in range(k1 - 1, k0 - 1, -1):
            Y = S[k - k0].T @ Y
            heads[k] = Y[:m]
    t = np.arange(system.steps) * system.h
    z = _response(orbit, heads[:-1, :, 0], None)
    q = _response(orbit, np.exp(mu * (t - T))[:, None] * heads[:-1, :, 1], (mu, rho))
    return z, q


# ---------------------------------------------------------------------------
# Direct pulse-perturbation PRC measurement
# ---------------------------------------------------------------------------


@dataclass
class PrcResult:
    eps: float
    raw_shifts: np.ndarray  # asymptotic phase shifts (radians)
    measured: np.ndarray  # shifts / eps, comparable to z at the pulse phase


def direct_prc(
    model: ModelSpec,
    orbit: PeriodicOrbit,
    phases,
    scales=(1.0,),
) -> list[PrcResult]:
    """Measure the PRC by pulse perturbation and cross-correlation.

    For each phase the unperturbed copy and one copy per pulse size
    eps * scale, kicked in PRC_COMPONENT with eps = PRC_EPS times the
    orbit's peak there, start from the same orbit history and run for
    PRC_PERIODS cycles at step tau/64; all trajectories advance as one
    batch, so the unperturbed copies are integrated once for every size.
    The asymptotic time shift is read off as the phase difference of the
    fundamental harmonic over the trailing PRC_WINDOW_PERIODS periods,
    which is the peak of the circular cross-correlation of the two
    near-sinusoidal signals, located spectrally.  Returns one result per
    entry of scales.
    """
    phases = np.asarray(phases, dtype=float)
    T = orbit.T
    omega = orbit.omega
    eps = PRC_EPS * float(np.abs(orbit.X[:, PRC_COMPONENT]).max())
    t_theta = phases / omega  # kick times along the cycle
    B = phases.size
    sizes = [eps * s for s in scales]

    def history(s):
        # batch of orbit histories: rows 0..B-1 unperturbed, then B kicked
        # rows per pulse size
        return orbit.value(np.tile(t_theta, 1 + len(sizes)) + s)

    kick = np.zeros(((1 + len(sizes)) * B, model.m))
    for j, size in enumerate(sizes):
        kick[(j + 1) * B : (j + 2) * B, PRC_COMPONENT] = size
    traj = integrate_dde(model, history, PRC_PERIODS * T, model.tau / 64.0,
                         initial_kick=kick)

    times = traj.times
    sel = times >= PRC_PERIODS * T - PRC_WINDOW_PERIODS * T
    tw = times[sel]
    xw = traj.states[sel][:, :, PRC_COMPONENT]  # (nt, (1 + sizes) B)
    phi = np.angle(np.exp(-1j * omega * tw) @ xw)
    results = []
    for j, size in enumerate(sizes):
        dphi = phi[(j + 1) * B : (j + 2) * B] - phi[:B]
        dphi = np.mod(dphi + np.pi, 2.0 * np.pi) - np.pi
        results.append(PrcResult(eps=size, raw_shifts=dphi, measured=dphi / size))
    return results


# ---------------------------------------------------------------------------
# Delay-line chain engines (N first-order lags), timed by bench/tracer.py only
# ---------------------------------------------------------------------------
#
# Both subspace iterations stop at the first sweep whose Ritz pairs have
# small residuals against that sweep's own image.


@dataclass
class DiscretizedSystem:
    """Delay line of N first-order lags: y = (x_0, ..., x_N), dim m(N+1)."""

    model: ModelSpec
    N: int

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("N must be >= 2")

    @property
    def m(self) -> int:
        return self.model.m

    @property
    def dim(self) -> int:
        return self.model.m * (self.N + 1)

    @property
    def rate(self) -> float:
        return self.N / self.model.tau


# ---------------------------------------------------------------------------
# Monodromy of the variational equation along the orbit
# ---------------------------------------------------------------------------


def _choose_steps(system: DiscretizedSystem, T: float) -> int:
    # The upwind lag blocks put eigenvalues on the circle |z + c| = c with
    # c = N/tau, reaching -2c, so RK4 stability needs 2*h*c below ~2.78.
    h_max = 1.0 * system.model.tau / system.N
    return max(int(np.ceil(T / h_max)), 1024)


def _by_magnitude(vals: np.ndarray) -> np.ndarray:
    """Order of descending magnitude.  A conjugate pair ties exactly, so its
    upper member goes first, whatever order eig returned the pair in."""
    return np.lexsort((-vals.imag, -np.abs(vals)))


@dataclass
class MonodromyResult:
    exponents: np.ndarray  # complex, sorted by descending real part
    multipliers: np.ndarray
    vectors: np.ndarray  # (dim, n_modes) Ritz vectors matching multipliers
    coeffs: np.ndarray  # (kk, n_modes) the Ritz vectors in the last swept basis
    head: np.ndarray  # (steps+1, m, kk) head block of that basis over the period
    unit_multiplier_error: float
    T: float
    steps: int
    iterations: int

    def leading_nontrivial(self) -> complex:
        return _leading_nontrivial(self.multipliers, self.exponents)


def monodromy_exponents(
    system: DiscretizedSystem,
    orbit: PeriodicOrbit,
    k: int = 2,
    seed: int = 0,
) -> MonodromyResult:
    """Leading Floquet exponents of the discretized variational equation.

    Subspace iteration over one-period sweeps (k+3 vectors, QR
    re-orthonormalization, Rayleigh-Ritz extraction) instead of the full
    fundamental matrix; the default k = 2 keeps the unit multiplier and
    the leading nontrivial one.  It stops at
    the first sweep W = Phi V after which each of the k leading Ritz pairs
    (theta, y) of V^T W has the residual
    ||W y - theta V y|| <= RITZ_TOL max(1, |theta|), so that it is an exact
    eigenpair of a matrix that far from Phi (or after
    MONODROMY_MAX_ITERATIONS sweeps).  Every sweep records the head block
    of its basis, so the result carries the last one and eigenfunction
    profiles are read from it without sweeping again.  The unit multiplier
    must be present: deviation beyond 1e-2 raises MonodromyIllConditioned.
    The start block is drawn from seed.
    """
    steps = _choose_steps(system, orbit.T)
    plan = _sweep_plan(system, orbit, steps)
    kk = min(k + 3, system.dim)
    V, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((system.dim, kk)))

    for iterations in range(1, MONODROMY_MAX_ITERATIONS + 1):
        W, head = _sweep_forward(plan, V, steps, store_head=True)
        vals, vecs = np.linalg.eig(V.T @ W)
        order = _by_magnitude(vals)[:k]
        multipliers, coeffs = vals[order], vecs[:, order]
        vectors = V @ coeffs
        # residual of each leading Ritz pair: an exact eigenpair of Phi + E
        # with ||E|| equal to it, since V is orthonormal and coeffs unit
        residual = np.linalg.norm(W @ coeffs - vectors * multipliers, axis=0)
        if iterations == MONODROMY_MAX_ITERATIONS or np.all(
            residual <= RITZ_TOL * np.maximum(1.0, np.abs(multipliers))
        ):
            break
        V, _ = np.linalg.qr(W)

    exponents = np.log(multipliers.astype(complex)) / orbit.T
    order = np.argsort(-exponents.real)
    multipliers, exponents, vectors, coeffs = (
        multipliers[order],
        exponents[order],
        vectors[:, order],
        coeffs[:, order],
    )
    unit_err = float(np.min(np.abs(multipliers - 1.0)))
    if unit_err > 1e-2:
        raise MonodromyIllConditioned(
            f"unit Floquet multiplier missing: closest is off by {unit_err:.3e}"
        )
    return MonodromyResult(
        exponents=exponents,
        multipliers=multipliers,
        vectors=vectors,
        coeffs=coeffs,
        head=head,
        unit_multiplier_error=unit_err,
        T=orbit.T,
        steps=steps,
        iterations=iterations,
    )


def _realify(vec: np.ndarray, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotate a numerically-real complex Ritz vector onto the real axis; the
    same rotation makes its coefficients in the real basis real."""
    i = int(np.argmax(np.abs(vec)))
    phase = np.exp(-1j * np.angle(vec[i]))
    return np.real(vec * phase), np.real(coeffs * phase)


def monodromy_eigenfunction(result: MonodromyResult, mu: float) -> _PeriodicInterp:
    """Periodic eigenfunction profile rho(t) = e^{-mu t} y_0(t) from the
    monodromy eigenvector at multiplier e^{mu T}, max-normalized with the
    same gauge as the spectral path.  y_0 is read from the head block the
    last sweep recorded, combined with the eigenvector's real coefficients;
    by linearity that is its own sweep, up to round-off."""
    lam = np.exp(mu * result.T)
    i = int(np.argmin(np.abs(result.multipliers - lam)))
    _, c = _realify(result.vectors[:, i], result.coeffs[:, i])
    t = np.arange(result.steps) * (result.T / result.steps)
    rho = np.exp(-mu * t)[:, None] * (result.head @ c)[:-1]
    return _PeriodicInterp(T=result.T, values=_mode_gauge(rho))


# ---------------------------------------------------------------------------
# Discretized adjoint (oracle response curves)
# ---------------------------------------------------------------------------


def _target_mu(mode) -> float:
    return 0.0 if mode is None else mode[0]  # None is the phase response


def _adjoint_response(orbit, mode, w0):
    """Response q(t) = e^{mu t} w(t) to the target mode (z for None) from
    the head profile w0 of an adjoint vector, sampled at the steps+1 nodes
    of one period; the last node repeats the first and is dropped."""
    steps = w0.shape[0] - 1
    t = np.arange(steps) * (orbit.T / steps)
    curve = np.exp(_target_mu(mode) * t)[:, None] * w0[:-1]
    return _response(orbit, curve, mode)


@dataclass
class AdjointIteration:
    """One backward subspace iteration on a chain level and the response
    curves it served."""

    responses: list[_PeriodicInterp]  # one per target, in the order given
    periods: list[int]  # backward periods each target needed
    vectors: np.ndarray  # (dim, targets) unit adjoint vectors, as converged

    @property
    def iterations(self) -> int:
        """Backward periods swept: the most any target needed."""
        return max(self.periods)


def discretized_adjoint(
    system: DiscretizedSystem,
    orbit: PeriodicOrbit,
    targets,
) -> AdjointIteration:
    """Oracle response curves from backward adjoint integration.

    Repeated one-period backward sweeps of I' = -J(t)^T I (a small block
    of vectors at once, re-orthonormalized each period) converge on the
    left eigenspace of the monodromy map.  Each target names the mode its
    response pairs with: None gives the phase response (mu = 0), a mode
    (mu, rho) the amplitude response at mu, normalized against rho (from
    monodromy_eigenfunction).  Each target follows the Ritz pair (theta, c)
    at multiplier e^{mu T}: with u = V c its unit real Ritz vector and W the
    period's image of V, it has converged once
    ||W c - theta u|| <= ADJOINT_TOL |theta|.  Its profile, whose first
    block is the response, is read from the head block that same period's
    sweep recorded.  The sweeps do not depend on the targets, so each
    target gets what a one-target run gives, and the iteration stops when
    the last target has converged; NonConvergentAdjoint after
    ADJOINT_MAX_PERIODS.  The start block of ADJOINT_SUBSPACE vectors is
    drawn from ADJOINT_SEED.
    """
    steps = _choose_steps(system, orbit.T)
    plan = _sweep_plan(system, orbit, steps, backward=True)
    kk = min(ADJOINT_SUBSPACE, system.dim)
    rng = np.random.default_rng(ADJOINT_SEED)
    V, _ = np.linalg.qr(rng.standard_normal((system.dim, kk)))

    vectors = np.empty((system.dim, len(targets)))
    responses = [None] * len(targets)
    periods = [0] * len(targets)
    for iterations in range(1, ADJOINT_MAX_PERIODS + 1):
        W, head = _sweep_backward(plan, V, steps, store_head=True)
        H = V.T @ W
        vals, vecs = np.linalg.eig(H)
        for j, mode in enumerate(targets):
            if responses[j] is not None:
                continue
            i = int(np.argmin(np.abs(vals - float(np.exp(_target_mu(mode) * orbit.T)))))
            u, c = _realify(V @ vecs[:, i], vecs[:, i])
            norm = np.linalg.norm(u)
            u, c = u / norm, c / norm
            if np.linalg.norm(W @ c - vals[i] * u) <= ADJOINT_TOL * abs(vals[i]):
                responses[j] = _adjoint_response(orbit, mode, head @ c)
                periods[j] = iterations
                vectors[:, j] = u
        if all(r is not None for r in responses):
            break
        V, _ = np.linalg.qr(W)
    else:
        raise NonConvergentAdjoint(
            f"adjoint Ritz residual above {ADJOINT_TOL:g} after "
            f"{ADJOINT_MAX_PERIODS} backward periods"
        )
    return AdjointIteration(responses=responses, periods=periods, vectors=vectors)
