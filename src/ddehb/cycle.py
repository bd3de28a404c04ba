"""Harmonic-balance zero problem for the periodic orbit and its period.

The unknown vector is the sampled orbit X (grid-major, shape (2M+1, m))
together with the period T.  Collocating the delay system on the grid
gives m(2M+1) equations

    (D0 kron I_m) X - F(X, (Delta kron I_m) X) = 0,

closed by one phase-anchor equation: the chosen state component has
vanishing time derivative at t = 0.  solve_cycle alone anchors a seed:
it shifts the seed so that component peaks at t = 0, so a seed of any
time origin will do.  The square system is solved by Newton's method
with an exact Jacobian: the model's partials come from the complex step
(ModelSpec.jacobians), and D0 and Delta depend on T only through
omega_p = 2 pi p / T, so dD0/dT = -D0/T and dDelta/dT = (tau/T) D0 Delta,
which gives the T column in closed form.
A seed is a FourierSeries; its period T is the period guess.  The solved
PeriodicOrbit is its Fourier series too: T, M and the grid samples X are
derived from the series, so an orbit read back from its coefficients is
the same to the bit.  The orbit owns its linearization (A0, B) as well
(`PeriodicOrbit.linearization`), assembled on first use and kept, from its
spectral operators (`PeriodicOrbit.operators`), which solve_cycle hands on
from its last Newton step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (ConfigError, DivergedToEquilibrium, MaxIterations, NonFiniteState,
                     SingularJacobian, _finite_real)
from .model import ModelSpec
from .spectral import (FourierSeries, SpectralOperators, build_operators, grid_times,
                       sample_to_coeffs)

EQUILIBRIUM_HARMONIC_FLOOR = 1e-8
MAX_HARMONICS = 250  # solver.M: M(mu) holds (m(2M+1))^2 doubles; shipped M = 20


@dataclass
class SolveOptions:
    """The config's `solver` section: solve_cycle's truncation order, anchor
    component and Newton budget."""

    M: int = 20
    anchor_component: int = 0
    max_iterations: int = 100
    tolerance: float = 1e-10  # bound on the last Newton step and the residual

    def check(self, m: int) -> None:
        """ConfigError naming the broken rule, for a model of m components:
        the one copy of the solver rules, which the config check and
        solve_cycle both run."""
        if not 1 <= self.M <= MAX_HARMONICS:
            raise ConfigError(f"solver.M must lie in 1..{MAX_HARMONICS}, got {self.M}")
        if not 0 <= self.anchor_component < m:
            raise ConfigError(
                f"solver.anchor_component must name one of the {m} components "
                f"(0..{m - 1}), got {self.anchor_component}"
            )
        if not self.tolerance > 0:
            raise ConfigError("solver.tolerance must be positive")
        if self.max_iterations < 1:
            raise ConfigError(f"solver.max_iterations must be >= 1, got {self.max_iterations}")


@dataclass(eq=False)
class PeriodicOrbit:
    """A converged harmonic-balance orbit: its Fourier series owns T, M and
    the grid samples X, which are computed from it once, and the
    linearization (A0, B) about it, which is assembled once, on first use,
    from the orbit's spectral operators."""

    model: ModelSpec
    series: FourierSeries
    anchor_component: int
    residual_norm: float
    iterations: int
    X: np.ndarray = field(init=False)  # (2M+1, m) samples on the collocation grid

    def __post_init__(self):
        self.X = self.series.evaluate(self.sample_times)

    @property
    def T(self) -> float:
        return self.series.T

    @property
    def M(self) -> int:
        return self.series.M

    @property
    def omega(self) -> float:
        return 2.0 * np.pi / self.T

    @property
    def sample_times(self) -> np.ndarray:
        return grid_times(self.M, self.T)

    def value(self, t) -> np.ndarray:
        return self.series.evaluate(t)

    @property
    def xdot_samples(self) -> np.ndarray:
        return self.series.derivative().evaluate(self.sample_times)

    @cached_property
    def operators(self) -> SpectralOperators:
        """The spectral operators at (M, T, tau): solve_cycle hands on those of
        its last Newton step, and an orbit read back builds them on first use."""
        return build_operators(self.M, self.T, self.model.tau)

    @cached_property
    def linearization(self) -> "Linearization":
        """(A0, B) about the orbit, delayed values read from its interpolant:
        the one copy that every M(mu) of the orbit is updated from."""
        return assemble_linearization(self.model, self.operators, self.X,
                                      self.value(self.sample_times - self.model.tau))


def _stacked_residual(model, ops, X, anchor):
    """Collocated residual rows (grid-major), then the anchor derivative at
    t = 0.  Overflow gives non-finite entries, not warnings: every caller
    checks them and raises NonFiniteState or rejects the step."""
    with np.errstate(over="ignore", invalid="ignore"):
        R = ops.D0 @ X - model.F(X, ops.Delta @ X)
        phase = float((ops.D0 @ X[:, anchor])[ops.M])
    return np.concatenate([R.ravel(), [phase]])


@dataclass(eq=False)
class Linearization:
    """M(mu) = A0 + mu I - e^{-mu tau} B, one matrix update per mu."""

    A0: np.ndarray
    B: np.ndarray
    tau: float

    def matrices(self, mus) -> np.ndarray:
        """M(mu) for each mu of a 1-D array, stacked to (len(mus), n, n);
        NonFiniteState naming the first mu where e^{-mu tau} overflows."""
        mus = np.asarray(mus, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            mats = np.exp(-mus * self.tau)[:, None, None] * self.B
            np.subtract(self.A0, mats, out=mats)
            mats.reshape(mus.size, -1)[:, :: self.A0.shape[0] + 1] += mus[:, None]
        finite = np.isfinite(mats).all(axis=(1, 2))
        if not finite.all():
            raise NonFiniteState(
                f"M(mu) is not finite at mu={mus[np.argmin(finite)]:g}: "
                "e^(-mu tau) overflows"
            )
        return mats

    def matrix(self, mu: float) -> np.ndarray:
        """M(mu); NonFiniteState naming mu where e^{-mu tau} overflows."""
        return self.matrices([mu])[0]

    def dmu(self, mu, v: np.ndarray) -> np.ndarray:
        """M'(mu) v = v + tau e^{-mu tau} B v for a stacked vector v."""
        return v + self.tau * np.exp(-mu * self.tau) * (self.B @ v)


def assemble_linearization(model, ops, X, Xd) -> Linearization:
    """A0 = (D0 kron I_m) - blockdiag(DF0), B = blockdiag(DF1) (Delta kron I_m)
    at samples X and delayed samples Xd, each built by broadcasting on its
    (K, m, K, m) view: block (n, j) of B is Delta[n, j] DF1[n].  M(mu) serves
    both the Floquet modes and the response curves (right and left null
    vectors)."""
    (K, m), n = X.shape, np.arange(X.shape[0])
    DF0, DF1 = model.jacobians(X, Xd)
    A0 = ops.D0[:, None, :, None] * np.eye(m)[:, None, :]
    A0[n, :, n] -= DF0
    B = DF1[:, :, None, :] * ops.Delta[:, None, :, None]
    return Linearization(A0=A0.reshape(K * m, -1), B=B.reshape(K * m, -1), tau=model.tau)


def _jacobian(model, ops, X, anchor):
    """d(residual)/d(X, T) at X and the period ops.T.

    The X-block is M(0) = A0 - B.  In T, dD0/dT = -D0/T and dDelta/dT =
    (tau/T) D0 Delta, and D0 commutes with Delta, so the dynamic rows of
    the T column are -M'(0) vec(D0 X) / T, with M'(0) = I + tau B.
    """
    n_dyn, m = X.size, model.m
    lin = assemble_linearization(model, ops, X, ops.Delta @ X)
    J = np.zeros((n_dyn + 1, n_dyn + 1))
    J[:n_dyn, :n_dyn] = lin.A0 - lin.B  # M(0) at the current iterate

    center, T = ops.M, ops.T
    J[n_dyn, anchor : n_dyn : m] = ops.D0[center, :]

    D0X = (ops.D0 @ X).ravel()
    J[:n_dyn, n_dyn] = -lin.dmu(0.0, D0X) / T
    J[n_dyn, n_dyn] = -D0X[center * m + anchor] / T
    return J


def seed_from_ansatz(m: int, amplitude, period_guess: float, M: int) -> FourierSeries:
    """Single-harmonic seed of period period_guess: a_1 = amplitude/2, a_0 = 0,
    amplitude one number or a list of 1 or m, one per component.  ConfigError
    unless they are finite real numbers (no bool) and period_guess > 0: the
    one copy of the rules, which the config check runs too."""
    amps = amplitude if isinstance(amplitude, list) else np.atleast_1d(amplitude).tolist()
    if len(amps) not in (1, m) or not all(map(_finite_real, amps)):
        counts = "1" if m == 1 else f"1 or {m}"
        raise ConfigError(f"seed.amplitude must hold {counts} finite real numbers, "
                          f"got {amplitude!r}")
    if not period_guess > 0:
        raise ConfigError("seed.period_guess must be positive")
    amp = np.broadcast_to(np.asarray(amps, dtype=float), (m,))
    coeffs = np.zeros((2 * M + 1, m), dtype=complex)
    coeffs[M + 1] = amp / 2.0  # p = +1
    coeffs[M - 1] = amp / 2.0  # p = -1 (conjugate partner)
    return FourierSeries(period_guess, coeffs)


def _anchor_at_max(series: FourierSeries, component: int) -> FourierSeries:
    """The series shifted in time so that `component` peaks at t = 0: the
    argmax over 8(2M+1) times, refined by at most 8 Newton steps on
    x'_component = 0, which stop once a step leaves s where it was."""
    t = np.linspace(0.0, series.T, 8 * (2 * series.M + 1), endpoint=False)
    s = t[int(np.argmax(series.evaluate(t)[:, component]))]
    d1, d2 = series.derivative(), series.derivative().derivative()
    for _ in range(8):
        curv = d2.evaluate(s)[component]  # a constant seed has no strict maximum: no step
        s_new = s - d1.evaluate(s)[component] / curv if curv < 0.0 else s
        if s_new == s:  # every later step would start from this s again
            break
        s = s_new
    return series if s == 0.0 else series.shifted(s)


def _off_equilibrium(X: np.ndarray, T: float) -> FourierSeries:
    """The Fourier series of the samples X; DivergedToEquilibrium if all its
    nonzero harmonics lie below EQUILIBRIUM_HARMONIC_FLOOR."""
    series = sample_to_coeffs(X, T)
    nonzero = np.abs(series.coeffs)
    nonzero[series.M] = 0.0  # drop the a_0 row
    if nonzero.max() < EQUILIBRIUM_HARMONIC_FLOOR:
        raise DivergedToEquilibrium(
            "orbit is a constant (an equilibrium): all nonzero harmonics below "
            f"{EQUILIBRIUM_HARMONIC_FLOOR:.0e}"
        )
    return series


def solve_cycle(model: ModelSpec, seed: FourierSeries,
                opts: SolveOptions | None = None) -> PeriodicOrbit:
    """Solve the collocated zero problem for (X, T) by Newton's method from
    the seed series, whose period seed.T is the period guess.

    The seed is first shifted so that its anchor component peaks at t = 0.
    Each step solves J delta = -r and is halved until ||r||_2 falls; a
    step halved below opts.tolerance fails the search.  The iteration
    stops on the first step with both ||delta||_inf and ||r||_inf at most
    opts.tolerance; that step is applied and counts as an iteration.
    ValueError if the anchor component is not one of the model's or the
    tolerance is not positive (checked here, whatever set the options).
    Raises NonFiniteState (a seed whose residual or its 2-norm overflows),
    MaxIterations (budget spent or line search failed), SingularJacobian
    or DivergedToEquilibrium; the last one signals a seed
    or a solution on an equilibrium (all nonzero harmonics below 1e-8),
    which the zero problem always admits.
    """
    opts = opts or SolveOptions()
    opts.check(model.m)

    M = opts.M
    K = 2 * M + 1
    T = float(seed.T)
    ops = build_operators(M, T, model.tau)  # always those of the current T
    anchor = opts.anchor_component
    X = _anchor_at_max(seed, anchor).evaluate(grid_times(M, T))

    r = _stacked_residual(model, ops, X, anchor)
    if not np.all(np.isfinite(r)):
        raise NonFiniteState("non-finite residual at the seed")
    with np.errstate(over="ignore"):  # an overflowing norm is inf
        r_norm = np.linalg.norm(r)
    if not np.isfinite(r_norm):  # no trial step could make it fall
        raise NonFiniteState("residual 2-norm overflows at the seed")
    _off_equilibrium(X, T)  # J is singular on an equilibrium: no step from there
    n_dyn = K * model.m
    iterations, done = 0, False

    while not done:
        res_norm = float(np.abs(r).max())
        if iterations >= opts.max_iterations:
            raise MaxIterations(
                f"no convergence in {opts.max_iterations} iterations "
                f"(residual {res_norm:.3e})"
            )
        iterations += 1
        try:
            step = np.linalg.solve(_jacobian(model, ops, X, anchor), -r)
        except np.linalg.LinAlgError:
            raise SingularJacobian("the Newton matrix is singular") from None
        if not np.all(np.isfinite(step)):
            raise SingularJacobian("the Newton step is not finite")
        step_norm = float(np.abs(step).max())
        done = step_norm <= opts.tolerance and res_norm <= opts.tolerance

        t = 1.0
        while True:  # halve the step until ||r||_2 falls
            T_new = T + t * step[n_dyn]
            if T_new > 0:
                X_new = X + t * step[:n_dyn].reshape(K, model.m)
                ops_new = build_operators(M, T_new, model.tau)
                r_new = _stacked_residual(model, ops_new, X_new, anchor)
                with np.errstate(over="ignore"):
                    r_new_norm = np.linalg.norm(r_new)
                if done or (np.all(np.isfinite(r_new)) and r_new_norm < r_norm):
                    break
            t /= 2
            if t * step_norm < opts.tolerance:
                raise MaxIterations(
                    f"line search failed at residual {res_norm:.3e} "
                    f"(Newton step {step_norm:.3e})"
                )
        X, T, ops, r, r_norm = X_new, T_new, ops_new, r_new, r_new_norm

    orbit = PeriodicOrbit(
        model=model,
        series=_off_equilibrium(X, T),  # a safety check: the step may land there
        anchor_component=anchor,
        residual_norm=float(np.abs(r).max()),
        iterations=iterations,
    )
    orbit.operators = ops  # those of the final T, which the orbit would rebuild
    return orbit
