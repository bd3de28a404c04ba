import dataclasses
import math
import re

import numpy as np
import pytest

import ddehb as d
from ddehb import adjoint, cycle, floquet, oracle
from ddehb.errors import (
    ConfigError,
    MonodromyIllConditioned,
    NoOscillationDetected,
    NonFiniteState,
    NotSingular,
    PeriodDrift,
    SlowPhaseDecay,
)
from ddehb.model import ModelSpec

from conftest import mackey_glass_orbit_at


def cos_history(s):
    return np.cos(np.asarray(s, dtype=float))[..., None]


def decaying_model():
    def F(z0, z1):
        return -z0

    return ModelSpec("decay", 1, 0.5, F)


def shearing_spiral():
    """Slowly contracting planar spiral whose rotation rate depends on the
    radius, so successive crossing intervals drift."""
    a = 0.02

    def F(z0, z1):
        x, y = z0[..., 0], z0[..., 1]
        w = 1.0 + x**2 + y**2
        return np.stack([-a * x - w * y, -a * y + w * x], axis=-1)

    return ModelSpec("spiral", 2, 0.5, F)


def blowup_model():
    """x' = x^2 + x(t - 1/4)/2: from a unit history it blows up near t = 0.9."""

    def F(z0, z1):
        return z0**2 + 0.5 * z1

    return ModelSpec("blowup", 1, 0.25, F)


def per_step_integrate(model, history, t_end, dt):
    """Method-of-steps RK4 one step at a time, each new state checked at
    once: the reference for the span-batched integrator."""
    dt, n_tau = oracle._snap_step(model.tau, dt)
    n_steps = int(np.ceil(t_end / dt))
    x0 = np.asarray(history(0.0), dtype=float)
    buf = np.empty((n_tau + n_steps + 1,) + x0.shape)
    for j in range(n_tau + 1):
        buf[j] = history((j - n_tau) * dt)
    for k in range(n_steps):
        j = n_tau + k
        if k > 0:  # nodes k-1..k+2 at their middle
            xdm = np.einsum("k,k...->...", np.array([-1, 9, 9, -1]) / 16, buf[k - 1 : k + 3])
        else:  # nodes 0..3 between the first two
            xdm = np.einsum("k,k...->...", np.array([5, 15, -5, 1]) / 16, buf[0:4])
        x = buf[j]
        k1 = model.F(x, buf[k])
        k2 = model.F(x + 0.5 * dt * k1, xdm)
        k3 = model.F(x + 0.5 * dt * k2, xdm)
        k4 = model.F(x + dt * k3, buf[k + 1])
        buf[j + 1] = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(buf[j + 1])):
            raise NonFiniteState("reference blew up", t_last=k * dt)
    return buf


class TestIntegrateDde:
    def test_spans_match_per_step_loop(self, kotani_model, cortico_model):
        # a batch of kotani histories and the two-component cortico model
        def batch(s):
            s = np.asarray(s, dtype=float)
            return np.cos(s[..., None] + np.linspace(0.0, 3.0, 4))[..., None]

        def cortico(s):
            s = np.asarray(s, dtype=float)
            return np.stack([0.05 * np.cos(0.2 * s), 0.01 * np.sin(0.2 * s)], -1)

        for model, history, t_end, dt in (
            (kotani_model, batch, 8.0, kotani_model.tau / 16),
            (cortico_model, cortico, 60.0, 0.04),
        ):
            traj = oracle.integrate_dde(model, history, t_end, dt)
            assert np.array_equal(
                traj.states, per_step_integrate(model, history, t_end, dt)
            )

    def test_blowup_names_first_bad_step(self):
        model, dt = blowup_model(), 0.01
        n_tau = oracle._snap_step(model.tau, dt)[1]

        def history(s):
            return np.ones(np.shape(np.asarray(s)) + (1,))

        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteState) as ref:
                per_step_integrate(model, history, 5.0, dt)
            with pytest.raises(NonFiniteState) as got:
                oracle.integrate_dde(model, history, 5.0, dt)
        k_bad = round(ref.value.t_last / dt)
        assert k_bad > n_tau and k_bad % (n_tau - 1)  # inside a later span
        assert got.value.t_last == ref.value.t_last
        assert f"t={ref.value.t_last:.6g}" in str(got.value)

    def test_exact_cycle_preserved(self, kotani_model):
        T = 2 * np.pi
        traj = oracle.integrate_dde(kotani_model, cos_history, 20 * T,
                                    kotani_model.tau / 64)
        sel = traj.times >= 0
        dev = np.abs(traj.states[sel][:, 0] - np.cos(traj.times[sel])).max()
        assert dev < 1e-4

    def test_zero_history_stays_at_equilibrium(self, kotani_model):
        traj = oracle.integrate_dde(
            kotani_model, lambda s: np.zeros(np.shape(np.asarray(s)) + (1,)),
            20.0, kotani_model.tau / 16,
        )
        assert np.abs(traj.states).max() == 0.0

    def test_fourth_order_convergence(self, kotani_model):
        T = 2 * np.pi
        errs = []
        for denom in (16, 32):
            traj = oracle.integrate_dde(kotani_model, cos_history, 4 * T,
                                        kotani_model.tau / denom)
            sel = traj.times >= 0
            errs.append(np.abs(traj.states[sel][:, 0] - np.cos(traj.times[sel])).max())
        ratio = errs[0] / errs[1]
        assert 11.0 < ratio < 23.0  # ~16x per halving

    def test_initial_kick_added_at_zero(self, kotani_model):
        dt = kotani_model.tau / 16  # t = 0 is sample 16
        plain = oracle.integrate_dde(kotani_model, cos_history, 1.0, dt)
        kicked = oracle.integrate_dde(kotani_model, cos_history, 1.0, dt,
                                      initial_kick=np.array([0.25]))
        assert kicked.times[16] == 0.0
        assert np.array_equal(kicked.states[:16], plain.states[:16])  # the history
        assert kicked.states[16, 0] == plain.states[16, 0] + 0.25
        assert np.all(kicked.states[17:] != plain.states[17:])

    @staticmethod
    def kicked_linear(t_end, dt):
        """x' = a x(t - tau) from the constant history c, kicked by kappa at
        t = 0: the run's samples from t = 0 on, the exact solution there and
        the times.  By the method of steps x is a polynomial of degree j on
        [(j - 1) tau, j tau], so x jumps at 0, x' at tau and x'' at 2 tau."""
        a, tau, c, kappa = -0.7, 1.0, 0.4, 0.3
        model = ModelSpec("linear", 1, tau, lambda z0, z1: a * z1)
        traj = oracle.integrate_dde(
            model, lambda s: np.full(np.shape(np.asarray(s)) + (1,), c), t_end, dt,
            initial_kick=np.array([kappa]),
        )
        after = traj.times >= 0.0
        t = traj.times[after]
        piece, start = np.polynomial.Polynomial([c]), c + kappa
        exact = np.empty_like(t)
        for j in range(int(np.ceil(t[-1] / tau))):
            piece = start + a * piece.integ()  # x on [j tau, (j + 1) tau]
            sel = (t >= j * tau) & (t <= (j + 1) * tau)
            exact[sel] = piece(t[sel] - j * tau)
            start = piece(tau)
        return traj.states[after, 0], exact, t

    def test_kicked_run_exact_to_two_delays(self):
        # x is linear, quadratic and cubic on the first three delays, which
        # RK4 with cubic delayed reads holds exactly once no stencil straddles
        # a break point; the jump in the third derivative at 3 tau spoils
        # later steps
        x, exact, t = self.kicked_linear(4.0, 1.0 / 16)
        sel = t <= 3.0
        assert np.abs(x[sel] - exact[sel]).max() <= 1e-13
        assert np.abs(x[~sel] - exact[~sel]).max() > 1e-10

    def test_kicked_run_is_fourth_order(self):
        # past 3 tau the run is no longer exact, and its error falls 16 times
        # per halving of the step (measured 16.0 twice)
        errs = []
        for n in (16, 32, 64):
            x, exact, t = self.kicked_linear(6.0, 1.0 / n)
            errs.append(np.abs(x[t > 3.0] - exact[t > 3.0]).max())
        assert errs[0] >= 12.0 * errs[1] and errs[1] >= 12.0 * errs[2]

    def test_step_coarser_than_tau_over_10_rejected(self, kotani_model):
        with pytest.raises(ValueError):
            oracle.integrate_dde(kotani_model, cos_history, 5.0, kotani_model.tau / 4)

    def test_step_floor_has_one_text(self, kotani_model):
        # the integrator said "dt=0.392699 too coarse: need dt <= tau/10", the
        # settle "seed.dt=0.4 too coarse: need at most tau/10"
        tau = kotani_model.tau
        text = f"dt={tau / 4:g} too coarse: need at most tau/10 = {tau / 10:g}"
        with pytest.raises(ConfigError, match=f"^{re.escape(text)}$"):
            oracle.integrate_dde(kotani_model, cos_history, 5.0, tau / 4)
        with pytest.raises(ConfigError, match=f"^seed\\.{re.escape(text)}$"):
            oracle.settle_to_cycle(kotani_model, cos_history, 60.0, dt=tau / 4)

    @pytest.mark.parametrize("t_end, dt", [(1.0, 5e-324), (1e300, 0.01), (math.nan, 0.01)])
    def test_run_beyond_the_step_cap_rejected(self, t_end, dt):
        # a subnormal step ended in numpy's "Maximum allowed dimension exceeded"
        # and a NaN run length in "cannot convert float NaN to integer"; none
        # of these allocates
        with pytest.raises(ConfigError, match=r"^t_end at dt=.*, over 2,000,000$"):
            oracle.integrate_dde(d.kotani_scalar(0.05), lambda s: [1.0], t_end, dt)

    def test_step_cap_boundary(self):
        # (tau + t_end) / dt steps: 2,000,000 pass, 2,000,002 do not
        assert oracle._snap_step(1.0, 1e-6, t_end=1.0) == (1e-6, 1_000_000)
        with pytest.raises(ConfigError, match="would take 2e\\+06 steps"):
            oracle._snap_step(1.0, 1.0 / 1_000_001, t_end=1.0)

    @pytest.mark.parametrize("dt", [math.inf, math.nan, 0.0, -1.0])
    def test_step_not_finite_and_positive_rejected(self, kotani_model, dt):
        # inf ended in a ZeroDivisionError and nan in "cannot convert float
        # NaN to integer"
        text = f"dt must be positive and finite, got {dt}"
        with pytest.raises(ValueError, match=re.escape(text)):
            oracle.integrate_dde(kotani_model, cos_history, 5.0, dt)


class TestCubicReadout:
    """oracle._cubic, the piecewise-cubic readout behind Trajectory.value,
    and the periodic readout of the oracle's profiles."""

    @staticmethod
    def cubic(t):
        return np.stack([1.0 - 2.0 * t + 0.5 * t**2 - 0.25 * t**3, t**3], axis=-1)

    def test_clamped_reproduces_a_cubic(self):
        traj = oracle.Trajectory(t_start=-0.3, dt=0.1, states=self.cubic(
            -0.3 + 0.1 * np.arange(12)))
        # both end intervals, where the stencil is one-sided, and every node
        t = np.concatenate([np.linspace(-0.3, -0.2, 7), np.linspace(0.7, 0.8, 7),
                            np.linspace(-0.3, 0.8, 45)])
        assert np.abs(traj.value(t) - self.cubic(t)).max() <= 1e-12

    def test_periodic_wraps_past_the_period(self):
        T, steps = 2.0 * np.pi, 64
        grid = np.arange(steps) * (T / steps)
        interp = oracle._PeriodicInterp(T=T, values=np.sin(grid)[:, None])
        t = np.linspace(0.0, T, 97)
        for k in (1, 3):
            assert np.array_equal(interp(t + k * T), interp(np.mod(t + k * T, T)))
            assert np.abs(interp(t + k * T)[:, 0] - np.sin(t)).max() <= 1e-5


class TestPeriodicReadout:
    """oracle._PeriodicInterp, the trigonometric interpolant behind every
    oracle curve."""

    @pytest.mark.parametrize("N", [64, 75])
    def test_reproduces_trigonometric_polynomials(self, N):
        # a random real trigonometric polynomial of degree below N/2, two
        # components, read from its N samples away from the nodes, before 0
        # and past T
        rng = np.random.default_rng(N)
        T, degree = 3.7, (N - 1) // 2
        a, b = rng.standard_normal((2, degree + 1, 2))
        k = np.arange(degree + 1)

        def poly(t):
            phase = (2.0 * np.pi / T) * np.outer(t, k)
            return np.cos(phase) @ a + np.sin(phase) @ b

        interp = oracle._PeriodicInterp(T=T, values=poly(np.arange(N) * (T / N)))
        t = np.concatenate([rng.uniform(0.0, T, 50), rng.uniform(-3.0 * T, 0.0, 25),
                            rng.uniform(T, 4.0 * T, 25)])
        exact = poly(t)
        assert np.abs(interp(t) - exact).max() <= 1e-13 * np.abs(exact).max()


class TestSettleToCycle:
    def test_kotani_period(self, kotani_model):
        # the seed's size comes from the solver section
        res = oracle.settle_to_cycle(
            kotani_model,
            lambda s: 0.9 * cos_history(s),
            transient=60.0,
            dt=kotani_model.tau / 64,
            opts=d.SolveOptions(M=8),
        )
        assert abs(res.seed.T - 2 * np.pi) < 1e-3
        assert res.crossings.size >= 12
        assert res.seed.M == 8

    def test_seed_from_the_last_whole_period(self, kotani_model, monkeypatch):
        # the run ends 2.9 after its last upward crossing, less than T/2: the
        # seed reads the run only in the last whole period before that
        # crossing, so never past its end, and anchored as the solver anchors
        # it, it is the cosine cycle within 1e-3 on every grid sample
        # (measured 6.1e-4, the relaxation still running)
        reads, value = [], oracle.Trajectory.value

        def recorded(traj, t):
            reads.append(np.atleast_1d(t))
            return value(traj, t)

        monkeypatch.setattr(oracle.Trajectory, "value", recorded)
        transient, observe = 100.0, 90.0
        res = oracle.settle_to_cycle(kotani_model, lambda s: 0.9 * cos_history(s), transient,
                                     dt=kotani_model.tau / 16, observe_time=observe)
        last, T = res.crossings[-1], res.seed.T
        assert transient + observe - last < T / 2
        reads = np.concatenate(reads)
        assert last - T <= reads.min() and reads.max() < last
        n = np.arange(-20, 21)
        seed = cycle._anchor_at_max(res.seed, 0).evaluate(n * (T / 41))[:, 0]
        assert np.abs(seed - np.cos(2.0 * np.pi * n / 41)).max() <= 1e-3

    def test_decaying_model_raises(self):
        with pytest.raises(NoOscillationDetected):
            oracle.settle_to_cycle(
                decaying_model(),
                lambda s: np.ones(np.shape(np.asarray(s)) + (1,)),
                transient=25.0,
                dt=0.05,
                observe_time=30.0,
            )

    def test_crossings_read_at_the_step_it_ran(self, kotani_model):
        # dt = 0.15 does not divide tau, so the settle runs at a smaller
        # step; each crossing is a root of the linear interpolant of the
        # anchor component, less its window mean, at that step
        history = lambda s: 0.9 * cos_history(s)
        res = oracle.settle_to_cycle(kotani_model, history, transient=60.0, dt=0.15,
                                     observe_time=100.0)
        traj = oracle.integrate_dde(kotani_model, history, 160.0, 0.15)
        assert traj.dt < 0.15
        x = traj.states[:, 0]
        y = x - x[traj.times >= 60.0].mean()
        assert res.crossings.size >= 12
        assert np.abs(np.interp(res.crossings, traj.times, y)).max() <= 1e-12

    def test_default_step_is_tau_over_64(self, kotani_model):
        # config.settle_times gives the default step, as to the config's seed
        history = lambda s: 0.9 * cos_history(s)
        default, explicit = (
            oracle.settle_to_cycle(kotani_model, history, 60.0, observe_time=90.0, **step)
            for step in ({}, {"dt": kotani_model.tau / 64}))
        assert default.seed.T == explicit.seed.T
        np.testing.assert_array_equal(default.seed.coeffs, explicit.seed.coeffs)
        np.testing.assert_array_equal(default.crossings, explicit.crossings)

    @pytest.mark.parametrize("key, bad", [
        # NoOscillationDetected: only 8 upward crossings
        ("seed.transient", {"transient": -5.0}),
        # ValueError: negative dimensions are not allowed
        ("seed.transient", {"transient": -1000.0}),
        # ValueError: zero-size array to reduction operation maximum
        ("seed.observe_time", {"observe_time": -1.0}),
        # ValueError: dt=-0.10472 too coarse
        ("seed.dt", {"dt": -0.1}),
        # the step cap, tested beyond numpy's index range, where nothing allocates
        ("seed.dt", {"dt": 1e-300}),
        # a step that is not finite: the guard that integrate_dde runs too
        ("seed.dt", {"dt": math.inf}),
        ("seed.dt", {"dt": math.nan}),
        # IndexError: kotani has one component
        ("solver.anchor_component", {"opts": d.SolveOptions(anchor_component=1)}),
    ], ids=["transient=-5", "transient=-1000", "observe_time=-1", "dt=-0.1", "dt=1e-300",
            "dt=inf", "dt=nan", "anchor_component=1"])
    def test_bad_arguments_name_their_key(self, kotani_model, key, bad):
        # the settle runs the config's solver and seed rules before it takes a step
        args = {"transient": 60.0, "dt": kotani_model.tau / 16, "observe_time": 60.0, **bad}
        with pytest.raises(ConfigError, match=re.escape(key)):
            oracle.settle_to_cycle(kotani_model, cos_history, **args)

    def test_drifting_period_raises(self):
        history = lambda s: np.broadcast_to(
            np.array([1.5, 0.0]), np.shape(np.asarray(s)) + (2,)
        ).copy()
        with pytest.raises(PeriodDrift):
            oracle.settle_to_cycle(
                shearing_spiral(), history, transient=5.0,
                dt=0.05, observe_time=60.0,
            )


def on_grid(curve, orbit):
    """The Fourier series of an oracle curve from its samples on the orbit's
    collocation grid: the form the quadrature pairing takes."""
    return d.sample_to_coeffs(curve(orbit.sample_times), orbit.T)


def oracle_gaps(orbit, mu, mode, z, q, n, steps):
    """Gaps of the pseudospectral oracle on n + 1 nodes and `steps` steps to
    the spectral side: the exponent (relative), the unit multiplier, and the
    largest gap of rho, z and q on the collocation grid."""
    mono = oracle.oracle_floquet(orbit, n, steps)
    rho, z_o, q_o = oracle.oracle_curves(mono)
    tg = orbit.sample_times
    return {
        "mu": abs(mono.leading_nontrivial() - mu) / abs(mu),
        "unit": mono.unit_multiplier_error,
        "rho": np.abs(rho(tg) - mode.R).max(),
        "z": np.abs(z_o(tg) - z.Q).max(),
        "q": np.abs(q_o(tg) - q.Q).max(),
    }


class TestPseudospectralOracle:
    def test_cheb_differentiates_polynomials(self):
        D, _ = oracle._cheb(8)
        x = np.cos(np.pi * np.arange(9) / 8)
        for k in range(9):
            np.testing.assert_allclose(D @ x**k, k * x ** max(k - 1, 0) * (k > 0),
                                       atol=1e-12)

    def test_one_step_matches_assembled_tableau(self, cortico_model, cortico_orbit):
        # the batched step matrices against Butcher's seven-stage sixth-order
        # tableau applied stage by stage to the generator assembled from its
        # definition at the stage times t + c_i h
        model, n = cortico_model, 6
        system = oracle.pseudospectral_system(cortico_orbit, n, 500)
        h, k = cortico_orbit.T / system.steps, 123
        D, _ = oracle._cheb(n)

        def A(t):
            DF0, DF1 = model.jacobians(cortico_orbit.value(t),
                                       cortico_orbit.value(t - model.tau))
            out = np.kron((2.0 / model.tau) * D, np.eye(2))
            out[:2] = 0.0
            out[:2, :2], out[:2, -2:] = DF0, DF1
            return out

        c = [0.0, 1 / 3, 2 / 3, 1 / 3, 1 / 2, 1 / 2, 1.0]
        a = [[], [1 / 3], [0.0, 2 / 3], [1 / 12, 1 / 3, -1 / 12],
             [-1 / 16, 9 / 8, -3 / 16, -3 / 8], [0.0, 9 / 8, -3 / 8, -3 / 4, 1 / 2],
             [9 / 44, -9 / 11, 63 / 44, 18 / 11, 0.0, -16 / 11]]
        b = [11 / 120, 0.0, 27 / 40, 27 / 40, -4 / 15, -4 / 15, 11 / 120]
        V = np.random.default_rng(3).standard_normal((system.transport.shape[0], 4))
        stages = []
        for ci, row in zip(c, a):
            stages.append(A((k + ci) * h) @ (V + h * sum(aj * kj for aj, kj in zip(row, stages))))
        dense = V + h * sum(bi * ki for bi, ki in zip(b, stages))
        (S,) = system.step_matrices(k, k + 1)
        assert np.abs(S @ V - dense).max() <= 1e-13 * np.abs(dense).max()

    def test_sixth_order_in_the_step(self, kotani_orbit):
        # F = -(5/2) x^2 has DF1 = 0, so on the cycle cos t the head of the
        # partial product P_k is exp(-5 sin t_k); halving the step cuts its
        # error at least 32-fold (sixth order gives 64; RK4 about 16).  The
        # cycle is the exact cosine: the solved orbit's 4e-13 error, grown
        # by up to e^5 along the product, would reach the error at 800 steps
        model = ModelSpec("quadratic", 1, kotani_orbit.model.tau, lambda z0, z1: -2.5 * z0**2)
        T, M = 2.0 * np.pi, kotani_orbit.M
        X = np.cos(np.arange(-M, M + 1) * (T / (2 * M + 1)))[:, None]
        orbit = d.PeriodicOrbit(model, d.sample_to_coeffs(X, T), 0, 0.0, 0)
        errs = []
        for steps in (400, 800):
            mono = oracle.oracle_floquet(orbit, oracle.CHEB_NODES, steps)
            t = np.arange(steps + 1) * (T / steps)
            assert np.array_equal(mono.heads[:, 0, 1:], np.zeros((steps + 1, oracle.CHEB_NODES)))
            errs.append(np.abs(mono.heads[:, 0, 0] - np.exp(-5.0 * np.sin(t))).max())
        assert errs[1] * 32.0 <= errs[0], errs

    def test_steps_raised_for_stability(self, kotani_orbit):
        # a delay short against the period: the transport block is stiff,
        # and the step count rises to the fewest that keep |R(h lambda)| <= 1
        # for every eigenvalue lambda of the transport block
        def worst(tau, steps):
            _, lam = oracle._cheb(16)
            z = (kotani_orbit.T / steps) * (2.0 / tau) * lam
            R = sum(z**k / math.factorial(k) for k in range(7)) - z**7 / 2160.0
            return np.abs(R).max()

        model = ModelSpec("short_delay", 1, 0.01, lambda z0, z1: -z1)
        orbit = dataclasses.replace(kotani_orbit, model=model)
        system = oracle.pseudospectral_system(orbit, 16, 100)
        assert system.steps > 100
        assert worst(model.tau, system.steps) <= 1.0 < worst(model.tau, system.steps - 1)
        # the shipped kotani delay needs 73 steps a period
        assert oracle.pseudospectral_system(kotani_orbit, 16, 1).steps == 73

    def test_stable_step_counts(self, kotani_orbit, cortico_orbit):
        # the fewest stable counts from the floor of 1 step and from the shipped
        # 750 on both configs, and the count a short delay raises 100 steps to
        _, lam = oracle._cheb(16)
        for tau, T, start, steps in (
            (kotani_orbit.model.tau, kotani_orbit.T, 1, 73),
            (kotani_orbit.model.tau, kotani_orbit.T, oracle.STEPS_PER_PERIOD, 750),
            (cortico_orbit.model.tau, cortico_orbit.T, 1, 71),
            (cortico_orbit.model.tau, cortico_orbit.T, oracle.STEPS_PER_PERIOD, 750),
            (0.01, kotani_orbit.T, 100, 11345),  # test_steps_raised_for_stability's model
        ):
            assert oracle._stable_steps(T * (2.0 / tau) * lam, start) == steps

    def test_step_matrices_built_in_batches(self, kotani_orbit, kotani_oracle_floquet,
                                            monkeypatch):
        built = []
        step_matrices = oracle.PseudospectralSystem.step_matrices

        def recording(system, k0, k1):
            built.append((k0, k1))
            return step_matrices(system, k0, k1)

        monkeypatch.setattr(oracle.PseudospectralSystem, "step_matrices", recording)
        mono = oracle.oracle_floquet(kotani_orbit)
        forward = built[:]
        oracle.oracle_curves(mono)
        # the eigenfunction is read from the stored heads: oracle_curves
        # builds the batches of one backward sweep and nothing else
        backward = built[len(forward):]
        steps = mono.system.steps
        for batches in (forward, backward[::-1]):
            assert all(0 < k1 - k0 <= oracle.STEP_BATCH for k0, k1 in batches)
            assert [k for k0, k1 in batches for k in range(k0, k1)] == list(range(steps))
        assert np.array_equal(mono.matrix, kotani_oracle_floquet.matrix)

    def test_converges_on_doubling(self, kotani_orbit, kotani_mu, kotani_mode, kotani_z,
                                   kotani_q):
        # half the step, from 250 to 500 a period, where every gap is above
        # round-off: each gap to the spectral side falls at least 16-fold
        # (measured 18x to 118x; the method is sixth order in the step)
        args = (kotani_orbit, kotani_mu, kotani_mode, kotani_z, kotani_q)
        base = oracle_gaps(*args, oracle.CHEB_NODES, 250)
        fine = oracle_gaps(*args, oracle.CHEB_NODES, 500)
        for name in base:
            assert fine[name] <= base[name] / 16, (name, base[name], fine[name])

    def test_converged_in_the_nodes(self, kotani_orbit, kotani_mu, kotani_mode, kotani_z,
                                    kotani_q):
        # twice the nodes at a fixed step, twice the shipped count so the
        # step error stays small for the stiffer transport of 2n: n + 1 nodes
        # and 2n + 1 nodes both sit within 1e-11 of the spectral side
        # (measured at most 3.1e-13 and 5.3e-12)
        args = (kotani_orbit, kotani_mu, kotani_mode, kotani_z, kotani_q)
        for n in (oracle.CHEB_NODES, 2 * oracle.CHEB_NODES):
            gaps = oracle_gaps(*args, n, 2 * oracle.STEPS_PER_PERIOD)
            assert max(gaps.values()) <= 1e-11, (n, gaps)

    def test_kotani_z_exact(self, kotani_orbit, kotani_oracle_curves):
        # the phase response of the exact cosine cycle
        _, z, _ = kotani_oracle_curves
        t = np.linspace(0.0, kotani_orbit.T, 257)
        exact = -8.0 * np.sin(t) / (4.0 + np.pi * 0.05)
        assert np.abs(z(t)[:, 0] - exact).max() <= 1e-9

    @pytest.mark.parametrize("name, pair", [("kotani", -1.0213110 + 0.1251805j),
                                            ("cortico", -0.1896844 + 0.0980210j)])
    def test_leading_complex_pair(self, request, name, pair):
        # the leading complex pair, which the spectral det scan cannot see,
        # against a complex root of det M(mu) polished by Newton on log det,
        # mu <- mu - 1 / tr(M(mu)^-1 M'(mu)), from the oracle's value; pair is
        # that root to 7 decimals
        mono = request.getfixturevalue(f"{name}_oracle_floquet")
        upper = [mu for mu in mono.exponents if mu.imag > 0][0]
        assert np.conj(upper) in mono.exponents
        lin = request.getfixturevalue(f"{name}_orbit").linearization
        eye, root = np.eye(lin.A0.shape[0]), upper
        for _ in range(5):
            E = np.exp(-root * lin.tau) * lin.B
            M, dM = lin.A0 + root * eye - E, eye + lin.tau * E
            root -= 1.0 / np.trace(np.linalg.solve(M, dM))
        assert abs(root - pair) <= 1e-7
        assert abs(upper - root) <= 1e-8

    def test_eigenfunction_gauged_on_its_samples(self, kotani_orbit, kotani_mode,
                                                 kotani_oracle_curves):
        # the spectral gauge's convention on the oracle's own step nodes, and
        # the spectral eigenfunction at the grid with no sign alignment
        rho, _, _ = kotani_oracle_curves
        x = kotani_orbit.value(np.arange(len(rho.values)) * (kotani_orbit.T / len(rho.values)))
        assert abs(floquet.mode_gauge(rho.values, x - x.mean(axis=0)) - 1.0) <= 1e-15
        assert np.abs(rho(kotani_orbit.sample_times) - kotani_mode.R).max() <= 1e-9

    def test_corrupted_orbit_rejected(self, kotani_orbit):
        bad = dataclasses.replace(
            kotani_orbit, series=d.sample_to_coeffs(2.5 * kotani_orbit.X, kotani_orbit.T)
        )
        with pytest.raises(MonodromyIllConditioned):
            oracle.oracle_floquet(bad, 8, 500)

    def test_no_delay_influence_reduces_to_ode_adjoint(self, sl_orbit):
        # DF1 == 0: the history nodes do not feed back into the head, so z
        # solves the plain ODE adjoint, which is (-sin, cos) for this
        # oscillator (measured 5e-15); the radial mode at mu = -2 gives
        # rho = g (cos, sin) and q = (cos, sin) / g, whose pairing is the
        # pointwise product (measured 6.4e-11 and 2.0e-11)
        rho, z, q = oracle.oracle_curves(oracle.oracle_floquet(sl_orbit))
        t = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
        expected = np.stack([-np.sin(t), np.cos(t)], axis=-1)
        assert np.abs(z(t) - expected).max() <= 1e-12
        radial, g = np.stack([np.cos(t), np.sin(t)], axis=-1), rho(0.0)[0, 0]
        assert np.abs(rho(t) - g * radial).max() <= 1e-9
        assert np.abs(q(t) - radial / g).max() <= 1e-9

    def test_negative_leading_multiplier_rejected(self):
        # Mackey-Glass at tau = 8: the leading nontrivial multiplier is
        # -0.23582, so e^{Re mu T} is no multiplier (sigma_min/sigma_max
        # of P - e^{Re mu T} I is 3.0e-2) and no curve is returned
        orbit = mackey_glass_orbit_at(8.0)
        mono = oracle.oracle_floquet(orbit)
        assert mono.multipliers[1].real < 0.0
        with pytest.raises(NotSingular, match="sigma_min/sigma_max = 3.0"):
            oracle.oracle_curves(mono)

    @pytest.mark.parametrize("name", ["kotani", "cortico"])
    def test_quadrature_pairing_checks_the_scale(self, request, name):
        # the oracle scales z and q by its own left-right pairing; the
        # spectral side's quadrature pairs their series from the grid
        # samples with the tangent to omega and with rho to 1 (measured
        # 2.0e-13 and 5.0e-12 on kotani, 1.2e-13 and 8.4e-14 on cortico,
        # relative)
        orbit = request.getfixturevalue(f"{name}_orbit")
        mono = request.getfixturevalue(f"{name}_oracle_floquet")
        rho, z, q = (on_grid(curve, orbit) for curve in oracle.oracle_curves(mono))
        phase = adjoint.pairing_functional(orbit, z, orbit.series.derivative(), 0.0)
        amplitude = adjoint.pairing_functional(orbit, q, rho, mono.leading_nontrivial())
        assert abs(phase - orbit.omega) <= 2e-12 * orbit.omega
        assert abs(amplitude - 1.0) <= 5e-11


class TestMonodromy:
    # checks the pseudospectral oracle's monodromy; the class keeps the name
    # its test ids have carried since the chain engines were tested here
    def test_cortico_exponent_near_paper_value(self, cortico_oracle_floquet):
        mu_o = cortico_oracle_floquet.leading_nontrivial()
        assert abs(mu_o - (-0.00296)) / 0.00296 < 0.1


class TestDiscretizedAdjoint:
    # checks the pseudospectral oracle's response normalisation; the class
    # keeps the name its test ids have carried since the chain engines were
    # tested here
    def test_oracle_pairing_constant(self, kotani_orbit, kotani_oracle_curves):
        # the pseudospectral oracle's z, by its series from the grid
        # samples, with the orbit's own tangent (measured spread 1.1e-11)
        z = on_grid(kotani_oracle_curves[1], kotani_orbit)
        tangent = kotani_orbit.series.derivative()
        vals = [
            adjoint.pairing_functional(kotani_orbit, z, tangent, 0.0, t0)
            for t0 in np.arange(8) * kotani_orbit.T / 8
        ]
        assert max(vals) - min(vals) < 1e-10

    def test_curves_scaled_without_the_quadrature(self, kotani_orbit, kotani_oracle_floquet,
                                                   kotani_oracle_curves, monkeypatch):
        # the oracle shares no pairing with the spectral side: with the
        # quadrature disabled it gives the same curves
        def disabled(*args, **kwargs):
            raise AssertionError("the oracle called the spectral quadrature")

        monkeypatch.setattr(adjoint, "pairing_functional", disabled)
        curves = oracle.oracle_curves(kotani_oracle_floquet)
        for got, ref in zip(curves, kotani_oracle_curves):
            assert np.array_equal(got.values, ref.values)


class TestDirectPrc:
    def test_linearity_in_pulse_size(self, kotani_orbit):
        phases = np.arange(8) * 2 * np.pi / 8
        prc1, prc2 = oracle.direct_prc(kotani_orbit, phases, scales=(1.0, 0.5))
        assert prc2.eps == prc1.eps / 2
        ratio = np.linalg.norm(prc1.raw_shifts) / np.linalg.norm(prc2.raw_shifts)
        assert abs(ratio - 2.0) < 0.04

    def test_converges_in_the_step(self, kotani_orbit, kotani_z, kotani_mu, monkeypatch):
        # the kick's break points keep the run fourth order, so the measured
        # PRC converges in the step (the move from tau/16 to tau/32 is 19.8
        # times the move from tau/32 to tau/64), and the decay ratio of the
        # kicked copies gives the leading exponent from the flow alone
        phases = np.arange(8) * 2 * np.pi / 8
        measured = {}
        for n in (16, 32, 64):
            monkeypatch.setattr(oracle, "PRC_DELAY_STEPS", n)
            [prc] = oracle.direct_prc(kotani_orbit, phases)
            measured[n] = prc.measured
            assert abs(prc.mu_flow - kotani_mu) <= 1e-5
        coarse = np.abs(measured[16] - measured[32]).max()
        fine = np.abs(measured[32] - measured[64]).max()
        assert coarse <= 2e-3 * np.abs(kotani_z.Q).max()
        assert fine * 15.0 <= coarse

    def test_nondecaying_residue_raises(self):
        # a neutral shear oscillator: a kick moves the amplitude and so the
        # frequency for good, the phase difference grows without end, r ~ 1
        def F(z0, z1):
            x, y = z0[..., 0], z0[..., 1]
            w = x**2 + y**2
            return np.stack([-w * y, w * x], axis=-1)

        model = ModelSpec("shear", 2, 1.0, F)
        T, M = 2 * np.pi, 20
        t = np.arange(-M, M + 1) * (T / (2 * M + 1))
        X = np.stack([np.cos(t), np.sin(t)], axis=-1)
        orbit = d.PeriodicOrbit(model, d.sample_to_coeffs(X, T), 0, 0.0, 0)
        with pytest.raises(SlowPhaseDecay, match="r=0.99"):
            oracle.direct_prc(orbit, np.arange(4) * np.pi / 2)

    def test_pulse_at_zero_of_z(self, kotani_orbit, kotani_z):
        # locate a zero crossing of z by bisection on the interpolant
        t = np.linspace(0.0, kotani_orbit.T, 2049)
        zv = kotani_z.value(t)[:, 0]
        i = int(np.nonzero(np.sign(zv[:-1]) != np.sign(zv[1:]))[0][0])
        lo, hi = t[i], t[i + 1]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if np.sign(kotani_z.value(mid)[0]) == np.sign(kotani_z.value(lo)[0]):
                lo = mid
            else:
                hi = mid
        theta0 = 0.5 * (lo + hi) * kotani_orbit.omega
        [prc] = oracle.direct_prc(kotani_orbit, [theta0])
        assert abs(prc.measured[0]) < 0.05 * np.abs(kotani_z.Q).max()
