"""Independent time-evolution oracle for validating the spectral path.

Its engines share no operator code with the harmonic balance modules
(separate delayed-value interpolation, separate Jacobian assembly, their
own discretization of the delay), so that agreement is evidence rather
than tautology:

* method-of-steps RK4 integration of the delay system, with delayed
  values from piecewise-cubic interpolation of the stored history;
* the pseudospectral oracle: monodromy matrix, eigenfunction and phase
  and amplitude responses of the variational equation with the delay
  interval held on a Chebyshev grid, stepped by a sixth-order Runge-Kutta
  method and read between its steps by trigonometric interpolation, and
  scaled by `adjoint.normalization` from the oracle's own pairing (a left
  null vector of the monodromy matrix against the forward state);
* direct pulse-perturbation PRC measurement.

Each input has one source: the engines that work along an orbit read the
model from it (`orbit.model`), and `oracle_curves` reads the orbit from
the monodromy built along it, so no result mixes two systems.

The module ends with five placeholders under the names of the deleted
delay-line chain engines, which `bench/tracer.py` still looks up.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .adjoint import normalization
from .config import MIN_DELAY_STEPS, _snap_step, settle_times
from .cycle import PeriodicOrbit, SolveOptions
from .errors import (
    MonodromyIllConditioned,
    NoOscillationDetected,
    NonFiniteState,
    PeriodDrift,
    SlowPhaseDecay,
)
# a shared convention and an SVD check, no operator
from .floquet import mode_gauge, simple_null_svd
from .model import ModelSpec
from .spectral import FourierSeries, grid_times, sample_to_coeffs

# settle_to_cycle: the period is the mean of the last SETTLE_LAST_INTERVALS
# of at least SETTLE_MIN_CROSSINGS upward mean-crossings
SETTLE_MIN_CROSSINGS = 12
SETTLE_LAST_INTERVALS = 10
SETTLE_DRIFT_TOL = 0.01  # largest interval spread, relative to the period
SETTLE_AMPLITUDE_FLOOR = 1e-8  # smallest post-transient peak-to-peak swing

PRC_EPS = 1e-3  # pulse size relative to the orbit's peak in PRC_COMPONENT
PRC_COMPONENT = 0  # the kicked and observed component
PRC_PHASES = 16  # pulse phases of the validation PRC, evenly spaced
PRC_DELAY_STEPS = MIN_DELAY_STEPS  # RK4 steps per delay: the coarsest step allowed
PRC_PERIODS = 10  # cycles each perturbed copy runs; the last window ends there
PRC_WINDOW_PERIODS = 1  # whole periods each phase window covers
PRC_WINDOW_SAMPLES = 64  # uniform samples a period of a window
PRC_SPACING = 3  # periods between the starts of successive windows
PRC_MAX_RATIO = 0.9  # largest |r| the residue extrapolation accepts


def _lagrange4(x: np.ndarray) -> np.ndarray:
    """Cubic Lagrange basis on the nodes 0..3 at local coordinates x, (n, 4)."""
    w = np.ones((x.size, 4))
    for i in range(4):
        for j in range(4):
            if j != i:
                w[:, i] *= (x - j) / (i - j)
    return w


def _cubic(values: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Piecewise-cubic readout of uniform samples values (n, ...) at the
    sample coordinates s, the 4-point stencil clamped at the ends."""
    j0 = np.clip(np.floor(s).astype(int) - 1, 0, values.shape[0] - 4)
    idx = j0[:, None] + np.arange(4)
    return np.einsum("pk,pk...->p...", _lagrange4(s - j0), values[idx])


@dataclass(eq=False)
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
        return _cubic(self.states, (t - self.t_start) / self.dt)


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
    whole ensemble is advanced in lockstep.  dt is rounded down to divide tau
    (config._snap_step: ConfigError unless dt leaves at least MIN_DELAY_STEPS
    steps per delay and the run at most MAX_RK4_STEPS), which keeps full-step
    delayed lookups on stored nodes; only the half-step stage values are
    interpolated, by the clamped cubic readout of Trajectory.value.
    initial_kick, if given, is added to the state at t=0, so x jumps there,
    x' at tau and x'' at 2 tau, and these are the break points of the run:
    the stored sample at t=0 is x(0+), delayed values for s <= 0 come from
    the history samples, which end at x(0-), and those for s >= 0 from the
    solution samples, and no cubic stencil straddles t=0, tau or 2 tau, so
    a kicked run stays fourth order.  A run without a kick is one with no
    break points: its stencils read across t=0, tau and 2 tau.
    """
    tau = model.tau
    dt, n_tau = _snap_step(tau, dt, t_end=t_end)
    n_steps = int(np.ceil(t_end / dt))

    x0 = np.asarray(history(0.0), dtype=float)
    buf = np.empty((n_tau + n_steps + 1,) + x0.shape)
    for j in range(n_tau + 1):
        buf[j] = history((j - n_tau) * dt)
    # the delayed values of the steps k < n_tau, whose delayed times are <= 0,
    # and the node slices between the break points: none without a kick
    left, breaks, pieces = buf, [], [(buf, 0, None)]
    if initial_kick is not None:
        left = buf[: n_tau + 1].copy()
        buf[n_tau] = buf[n_tau] + initial_kick
        # at 0, tau and 2 tau: the history's, which ends at x(0-), then the
        # solution's
        breaks = n_tau * np.arange(1, 4)
        pieces = [(left, 0, n_tau + 1), (buf, n_tau, 2 * n_tau + 1),
                  (buf, 2 * n_tau, 3 * n_tau + 1), (buf, 3 * n_tau, None)]

    half = 0.5 * dt
    # Step k reads its delayed midpoint from the nodes k-1..k+2 (0..3 at
    # k = 0); over a span of n_tau - 1 steps all of them are stored before
    # the span starts, so its delayed midpoints are read at once.  A state
    # that overflows raises NonFiniteState at the check of its span.
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, n_steps, n_tau - 1):
            k_end = min(k0 + n_tau - 1, n_steps)
            s = np.arange(k0, k_end) + 0.5
            # each stencil clamps inside the piece between two break points
            parts = np.split(s, np.searchsorted(s, breaks))
            xdm = np.concatenate([_cubic(src[a:b], part - a)
                                  for part, (src, a, b) in zip(parts, pieces) if part.size])
            for k in range(k0, k_end):
                x, xm = buf[n_tau + k], xdm[k - k0]
                lag = left if k < n_tau else buf
                k1 = model.F(x, lag[k])
                k2 = model.F(x + half * k1, xm)
                k3 = model.F(x + half * k2, xm)
                k4 = model.F(x + dt * k3, lag[k + 1])
                buf[n_tau + k + 1] = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            span = buf[n_tau + k0 + 1 : n_tau + k_end + 1].reshape(k_end - k0, -1)
            finite = np.isfinite(span).all(axis=1)
            if not finite.all():
                t_last = (k0 + int(np.argmin(finite))) * dt
                raise NonFiniteState(f"integration blew up at t={t_last:.6g}", t_last=t_last)

    return Trajectory(t_start=-tau, dt=dt, states=buf)


@dataclass(eq=False)
class SettleResult:
    """A settle onto the attracting cycle: its crossings and Fourier seed."""

    spread: float
    crossings: np.ndarray
    seed: FourierSeries  # its T is the settled period


def settle_to_cycle(model: ModelSpec, history, transient: float, dt: float | None = None,
                    opts: SolveOptions | None = None,
                    observe_time: float | None = None) -> SettleResult:
    """Relax onto the attracting cycle at step dt (default tau/64) and
    extract a period and a Fourier seed of the size opts.M (opts None is
    SolveOptions(), as in cycle.solve_cycle).  The period comes from
    successive upward mean-crossings of the anchor component,
    opts.anchor_component, over the observe_time (default 100 max(tau, 1))
    after the transient: the mean of the last SETTLE_LAST_INTERVALS
    intervals, spread reported.  The seed resamples the last whole period,
    [crossings[-1] - period, crossings[-1]), on a 2M+1 grid centred in it,
    so it reads only computed states; it is not anchored, since
    cycle.solve_cycle anchors every seed.  ConfigError as
    SolveOptions.check and config.settle_times, before the first step.
    """
    opts = opts or SolveOptions()
    opts.check(model.m)
    dt, observe_time = settle_times(model.tau, transient, dt, observe_time)
    traj = integrate_dde(model, history, transient + observe_time, dt)

    times = traj.times
    comp = traj.states[..., opts.anchor_component]
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

    grid_t = crossings[-1] - 0.5 * period + grid_times(opts.M, period)
    return SettleResult(spread=spread, crossings=crossings,
                        seed=sample_to_coeffs(traj.value(grid_t), period))


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
# Spectral Methods in MATLAB).  Only the head rows depend on t.  The system is
# stepped by Butcher's seven-stage sixth-order explicit Runge-Kutta method
# (J. C. Butcher, Numerical Methods for Ordinary Differential Equations).

CHEB_NODES = 16  # n: the history segment is held at n + 1 nodes
STEPS_PER_PERIOD = 750  # Runge-Kutta steps over one period
STEP_BATCH = 40  # step matrices built at once; a period's worth is never held

# The tableau: the nodes c_i in sixths of a step (the stages' offsets in the
# Jacobian tables), the matrix A and the weights b.
RK_SIXTHS = (0, 2, 4, 2, 3, 3, 6)
RK_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 3, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 2 / 3, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 12, 1 / 3, -1 / 12, 0.0, 0.0, 0.0, 0.0],
    [-1 / 16, 9 / 8, -3 / 16, -3 / 8, 0.0, 0.0, 0.0],
    [0.0, 9 / 8, -3 / 8, -3 / 4, 1 / 2, 0.0, 0.0],
    [9 / 44, -9 / 11, 63 / 44, 18 / 11, 0.0, -16 / 11, 0.0],
])
RK_B = np.array([11 / 120, 0.0, 27 / 40, 27 / 40, -4 / 15, -4 / 15, 11 / 120])
# Its stability function R(z) = sum_{k <= 6} z^k / k! - z^7 / 2160, by
# ascending power: a step multiplies an eigencomponent at lambda by R(h lambda).
RK_STABILITY = tuple(1.0 / math.factorial(k) for k in range(7)) + (-1.0 / 2160,)


@dataclass(eq=False)
class _PeriodicInterp:
    """Trigonometric interpolant of uniform samples over one period."""

    T: float
    values: np.ndarray  # (N, m) at t = 0, T/N, ..., T - T/N

    def __call__(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        n = self.values.shape[0]
        c = np.fft.rfft(self.values, axis=0) / n
        c[1:(n + 1) // 2] *= 2.0  # k and -k in one term; the Nyquist term (even n) alone
        # z^k, k >= 1, as running products: one exp per time instead of one per term
        z = np.exp((2j * np.pi / self.T) * np.mod(t, self.T))[:, None]
        powers = np.cumprod(np.broadcast_to(z, (z.shape[0], c.shape[0] - 1)), axis=1)
        return (c[0] + powers @ c[1:]).real


@functools.lru_cache(maxsize=None)
def _cheb(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev differentiation matrix D on the nodes cos(j pi / n),
    j = 0..n (Trefethen's cheb), read-only, and the eigenvalues of its
    transport block D[1:, 1:]."""
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.where((np.arange(n + 1) % n) == 0, 2.0, 1.0) * (-1.0) ** np.arange(n + 1)
    D = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(n + 1))
    D -= np.diag(D.sum(axis=1))
    D.flags.writeable = False
    lam = np.linalg.eigvals(D[1:, 1:])
    lam.flags.writeable = False
    return D, lam


def _stable_steps(z: np.ndarray, steps: int) -> int:
    """The fewest steps s >= steps with |R(z / s)| <= 1 for every z, the
    eigenvalues of the transport block times the period.  The method's
    stability region holds no left half-disk of radius above about 0.07, so
    each eigenvalue is checked where it falls.  R is evaluated by np.polyval
    (no numpy.polynomial) on 32 counts at a time: the shipped configs need
    the first count tried, and a larger block only raises peak memory."""
    highest_first = RK_STABILITY[::-1]
    while True:
        s = steps + np.arange(32)  # counts tried at once
        r = np.polyval(highest_first, z[None, :] / s[:, None])
        stable = (np.abs(r) <= 1.0).all(axis=1)
        if stable.any():
            return int(s[np.argmax(stable)])
        steps += s.size


@dataclass(eq=False)
class PseudospectralSystem:
    """The pseudospectral variational equation u' = A(t) u along one period,
    stepped by Butcher's seven-stage sixth-order Runge-Kutta method in
    `steps` steps of h = T / steps, T the orbit's period."""

    orbit: PeriodicOrbit
    steps: int
    transport: np.ndarray  # (dim, dim) the t-independent rows of A; head rows zero
    jac0: np.ndarray  # (6 steps + 1, m, m) DF0 at t = 0, h/6, ..., T
    jac1: np.ndarray  # DF1 at the same times

    def step_matrices(self, k0: int, k1: int) -> np.ndarray:
        """Step matrices of the steps k0..k1-1, (k1 - k0, dim, dim); step k
        maps the state at t_k = k h to the state at t_k + h.  They are built
        stage by stage, K_i = A(t_k + c_i h) (I + h sum_j a_ij K_j), and
        the step is I + h sum_i b_i K_i."""
        m, h = self.orbit.model.m, self.orbit.T / self.steps
        eye = np.eye(self.transport.shape[0])
        K = np.empty((RK_B.size, k1 - k0) + eye.shape)
        flat = K.reshape(RK_B.size, -1)  # the stages as rows, to combine them by one product
        X = np.empty(K.shape[1:])  # one buffer for every stage's argument and the result

        def combine(coeffs):  # X = I + h sum_j coeffs_j K_j, in place
            np.matmul(coeffs, flat[: coeffs.size], out=X.reshape(-1))
            np.multiply(X, h, out=X)
            np.add(X, eye, out=X)

        for s, sixths in enumerate(RK_SIXTHS):
            combine(RK_A[s, :s])
            # A(t) X: the transport rows, then the head rows DF0 X_0 + DF1 X_n
            at = slice(6 * k0 + sixths, 6 * k1 + sixths, 6)  # t_k + c_s h, k = k0..k1-1
            np.matmul(self.transport, X, out=K[s])
            K[s, :, :m] = self.jac0[at] @ X[:, :m] + self.jac1[at] @ X[:, -m:]
        combine(RK_B)
        return X


def pseudospectral_system(orbit: PeriodicOrbit, n: int = CHEB_NODES,
                          steps: int = STEPS_PER_PERIOD) -> PseudospectralSystem:
    """The variational equation along orbit, of orbit.model, on n + 1 nodes.
    steps is raised where needed so that |R(h lambda)| <= 1 for every
    eigenvalue lambda of the transport block (2/tau) D[1:, 1:], R the
    method's stability function."""
    m, tau, T = orbit.model.m, orbit.model.tau, orbit.T
    D, lam = _cheb(n)
    steps = _stable_steps(T * (2.0 / tau) * lam, steps)
    transport = np.kron((2.0 / tau) * D, np.eye(m))
    transport[:m] = 0.0
    t = np.arange(6 * steps + 1) * (T / (6 * steps))
    x, x_tau = orbit.value(np.stack([t, t - tau]))  # x and x(t - tau) in one readout
    jac0, jac1 = orbit.model.jacobians(x, x_tau)
    return PseudospectralSystem(orbit, steps, transport, jac0, jac1)


@dataclass(eq=False)
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
        """Real part of the leading exponent besides the trivial one (the
        multiplier closest to 1); exponents are sorted by descending real part."""
        i_unit = int(np.argmin(np.abs(self.multipliers - 1.0)))
        return float(next(mu for i, mu in enumerate(self.exponents) if i != i_unit).real)


def oracle_floquet(orbit: PeriodicOrbit, n: int = CHEB_NODES,
                   steps: int = STEPS_PER_PERIOD) -> OracleMonodromy:
    """The monodromy matrix of the pseudospectral variational equation as
    the product of its sixth-order Runge-Kutta step matrices over one
    period, built STEP_BATCH at a time, and all its multipliers from one
    eig.  The head rows of each partial product are kept for the
    eigenfunction.  The unit multiplier must be present:
    deviation beyond 1e-2 raises MonodromyIllConditioned.
    """
    system, m = pseudospectral_system(orbit, n, steps), orbit.model.m
    P = np.eye(system.transport.shape[0])
    heads = np.empty((system.steps + 1, m, P.shape[0]))
    heads[0] = P[:m]
    for k0 in range(0, system.steps, STEP_BATCH):
        k1 = min(k0 + STEP_BATCH, system.steps)
        for k, S in enumerate(system.step_matrices(k0, k1), k0 + 1):
            P = S @ P
            heads[k] = P[:m]
    multipliers = np.linalg.eigvals(P).astype(complex)
    exponents = np.log(multipliers) / orbit.T
    order = np.lexsort((-exponents.imag, -exponents.real))
    unit_err = float(np.min(np.abs(multipliers - 1.0)))
    if unit_err > 1e-2:
        raise MonodromyIllConditioned(
            f"unit Floquet multiplier missing: closest is off by {unit_err:.3e}"
        )
    return OracleMonodromy(system, P, heads, multipliers[order], exponents[order], unit_err)


def oracle_curves(mono: OracleMonodromy
                  ) -> tuple[_PeriodicInterp, _PeriodicInterp, _PeriodicInterp]:
    """Eigenfunction rho, phase response z and amplitude response q along
    the orbit of mono's system at the leading nontrivial exponent mu, from
    the null vectors of P - e^{mu T} I (right v, left w_q) and of P - I
    (left w_z), P the monodromy matrix; simple_null_svd raises NotSingular
    where e^{mu T} is no multiplier.

    rho(t) = e^{-mu t} y(t), y the head of v carried forward by the stored
    partial products, is gauged by floquet.mode_gauge on its own uniform
    samples at the step nodes, against x - mean(x) there: the spectral
    eigenfunction's convention, on none of its samples.  w_z
    and w_q are stepped back over one period by the transposed step
    matrices together and read at the head; q takes the factor
    e^{mu (t - T)}.  A left null vector's product with the forward state
    is the pairing of the discretized system, so adjoint.normalization
    scales z from w_z against the tangent x' = F(x, x_tau) at the nodes
    (target omega) and q from w_q against rho's state at t = 0, the gauged
    v (target 1).
    """
    mu, system, P = mono.leading_nontrivial(), mono.system, mono.matrix
    orbit = system.orbit
    model, T, m = orbit.model, orbit.T, orbit.model.m
    eye = np.eye(P.shape[0])
    U, _, Vt = simple_null_svd(P - np.exp(mu * T) * eye, mu, "oracle P - e^{mu T} I")
    v, w_q = Vt[-1], U[:, -1]
    w_z = simple_null_svd(P - eye, 0.0, "oracle P - I")[0][:, -1]

    t = np.arange(system.steps) * (T / system.steps)
    y, x = np.exp(-mu * t)[:, None] * (mono.heads[:-1] @ v), orbit.value(t)
    gauge = mode_gauge(y, x - x.mean(axis=0))
    rho = _PeriodicInterp(T, gauge * y)

    Y = np.stack([w_z, w_q], axis=1)
    heads = np.empty((system.steps + 1, m, 2))
    heads[-1] = Y[:m]
    for k1 in range(system.steps, 0, -STEP_BATCH):
        k0 = max(k1 - STEP_BATCH, 0)
        S = system.step_matrices(k0, k1)
        for k in range(k1 - 1, k0 - 1, -1):
            Y = S[k - k0].T @ Y
            heads[k] = Y[:m]

    n = P.shape[0] // m - 1
    theta = 0.5 * model.tau * (np.cos(np.pi * np.arange(n + 1) / n) - 1.0)
    xdot = model.F(orbit.value(theta), orbit.value(theta - model.tau)).ravel()
    z = heads[:-1, :, 0] * normalization(w_z @ xdot, orbit.omega)
    q = (np.exp(mu * (t - T))[:, None] * heads[:-1, :, 1]
         * normalization(gauge * (w_q @ v), 1.0))
    return rho, _PeriodicInterp(T, z), _PeriodicInterp(T, q)


# ---------------------------------------------------------------------------
# Direct pulse-perturbation PRC measurement
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class PrcResult:
    """A direct PRC measured by pulse perturbation at one pulse scale."""

    eps: float
    raw_shifts: np.ndarray  # asymptotic phase shifts (radians)
    measured: np.ndarray  # shifts / eps, comparable to z at the pulse phase
    ratio: float  # r, the decay of the residue over PRC_SPACING periods
    mu_flow: float  # log(r) / (PRC_SPACING T), nan unless r > 0


def direct_prc(orbit: PeriodicOrbit, phases, scales=(1.0,)) -> list[PrcResult]:
    """Measure the PRC of orbit.model by pulse perturbation and
    cross-correlation.

    For each phase the unperturbed copy and one copy per pulse size
    eps * scale, kicked in PRC_COMPONENT with eps = PRC_EPS times the
    orbit's peak there, start from the same orbit history and run for
    PRC_PERIODS cycles at the RK4 step tau / PRC_DELAY_STEPS; all
    trajectories advance as one batch, so the unperturbed copies are
    integrated once for every size.  The kick's jumps in x at 0, in x' at
    tau and in x'' at 2 tau are break points of the integration, so the run
    stays fourth order and even the coarsest step, tau / MIN_DELAY_STEPS,
    leaves the measured PRC at the O(eps) term of the pulse.

    The time shift is read as the phase difference of the fundamental
    harmonic over a window of PRC_WINDOW_PERIODS whole periods, sampled on
    a half-open uniform grid of PRC_WINDOW_SAMPLES points a period: the
    peak of the circular cross-correlation of the two near-sinusoidal
    signals, located spectrally.  Three windows PRC_SPACING periods apart,
    the last one ending at PRC_PERIODS periods, give the shifts s1, s2, s3.
    Each kicked copy still decays onto the cycle, and after the fast modes
    have died its residue falls by one ratio r = e^{mu L T} (L the spacing)
    from window to window.  With d1 = s2 - s1 and d2 = s3 - s2, r is fitted
    over the whole ensemble as sum(d1 d2) / sum(d1^2), and the asymptotic
    shift is s3 + d2 r / (1 - r).  An r that is not finite or has |r| at
    or above PRC_MAX_RATIO raises SlowPhaseDecay.  Returns one result per
    entry of scales.
    """
    phases = np.asarray(phases, dtype=float)
    model, T = orbit.model, orbit.T
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
    traj = integrate_dde(model, history, PRC_PERIODS * T, model.tau / PRC_DELAY_STEPS,
                         initial_kick=kick)

    grid = np.arange(PRC_WINDOW_PERIODS * PRC_WINDOW_SAMPLES) * (T / PRC_WINDOW_SAMPLES)
    shifts = []  # s1, s2, s3: (sizes B,) each
    for back in (2, 1, 0):  # windows counted back from the last
        tw = (PRC_PERIODS - PRC_WINDOW_PERIODS - back * PRC_SPACING) * T + grid
        phi = np.angle(np.exp(-1j * omega * tw) @ traj.value(tw)[:, :, PRC_COMPONENT])
        dphi = phi[B:] - np.tile(phi[:B], len(sizes))
        shifts.append(np.mod(dphi + np.pi, 2.0 * np.pi) - np.pi)
    d1, d2 = shifts[1] - shifts[0], shifts[2] - shifts[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = float(np.dot(d1, d2) / np.dot(d1, d1))
    if not abs(ratio) < PRC_MAX_RATIO:  # NaN included
        raise SlowPhaseDecay(
            f"phase residue ratio r={ratio:.6g} over {PRC_SPACING} periods: need "
            f"|r| < {PRC_MAX_RATIO:g} to extrapolate the phase shift"
        )
    shift = shifts[2] + d2 * (ratio / (1.0 - ratio))
    mu_flow = math.log(ratio) / (PRC_SPACING * T) if ratio > 0.0 else math.nan
    return [
        PrcResult(eps=size, raw_shifts=s, measured=s / size, ratio=ratio, mu_flow=mu_flow)
        for size, s in zip(sizes, shift.reshape(len(sizes), B))
    ]


# ---------------------------------------------------------------------------
# Names of the deleted delay-line chain engines
# ---------------------------------------------------------------------------
#
# bench/tracer.py still wraps these five names when it traces a command, and
# the benchmark's files change only with the benchmark itself.  Nothing calls
# them; they go when the benchmark retires its chain metrics (ROADMAP item 3).


def monodromy_exponents(*args, **kwargs):
    raise NotImplementedError("the delay-line chain engines are deleted")


def monodromy_eigenfunction(*args, **kwargs):
    raise NotImplementedError("the delay-line chain engines are deleted")


def discretized_adjoint(*args, **kwargs):
    raise NotImplementedError("the delay-line chain engines are deleted")


def _sweep_forward(*args, **kwargs):
    raise NotImplementedError("the delay-line chain engines are deleted")


def _sweep_backward(*args, **kwargs):
    raise NotImplementedError("the delay-line chain engines are deleted")
