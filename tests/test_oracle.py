import math

import numpy as np
import pytest

import ddehb as d
from ddehb import adjoint, floquet, oracle
from ddehb.errors import (
    MonodromyIllConditioned,
    NoOscillationDetected,
    NonConvergentAdjoint,
    NonFiniteState,
    NormalizationSingular,
    PeriodDrift,
    SlowPhaseDecay,
)
from ddehb.model import ModelSpec


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
        res = oracle.settle_to_cycle(
            kotani_model,
            lambda s: 0.9 * cos_history(s),
            transient=60.0,
            dt=kotani_model.tau / 64,
            M=20,
        )
        assert abs(res.period - 2 * np.pi) < 1e-3
        assert res.crossings.size >= 12

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

    def test_drifting_period_raises(self):
        history = lambda s: np.broadcast_to(
            np.array([1.5, 0.0]), np.shape(np.asarray(s)) + (2,)
        ).copy()
        with pytest.raises(PeriodDrift):
            oracle.settle_to_cycle(
                shearing_spiral(), history, transient=5.0,
                dt=0.05, observe_time=60.0,
            )


def chain_field(system, y):
    """Vector field of the discretized system on flat states (..., dim)."""
    y = np.asarray(y, dtype=float)
    blocks = y.reshape(y.shape[:-1] + (system.N + 1, system.m))
    out = np.empty_like(blocks)
    out[..., 0, :] = system.model.F(blocks[..., 0, :], blocks[..., system.N, :])
    out[..., 1:, :] = system.rate * (blocks[..., :-1, :] - blocks[..., 1:, :])
    return out.reshape(y.shape)


def chain_jacobian(system, z0, zN):
    """Dense Jacobian of chain_field at states with heads z0 and tails zN of
    shape (..., m), (..., dim, dim); only sensible for small N."""
    m, N, c = system.m, system.N, system.rate
    z0 = np.asarray(z0)
    J = np.zeros(z0.shape[:-1] + (system.dim, system.dim))
    J[..., :m, :m], J[..., :m, N * m :] = system.model.jacobians(z0, zN)
    for i in range(1, N + 1):
        J[..., i * m : (i + 1) * m, (i - 1) * m : i * m] = c * np.eye(m)
        J[..., i * m : (i + 1) * m, i * m : (i + 1) * m] = -c * np.eye(m)
    return J


def lift(system, orbit, t):
    """Lifted orbit state: x_i = x^gamma(t - i tau / N), flattened."""
    s = t - np.arange(system.N + 1) * (system.model.tau / system.N)
    return orbit.value(s).reshape(-1)


def integrate_chain(system, y0, t_end, dt):
    """Plain RK4 on the discretized vector field; records the head x(t)."""
    n_steps = int(np.ceil(t_end / dt))
    dt = t_end / n_steps
    y = np.asarray(y0, dtype=float).copy()
    out = np.empty((n_steps + 1, system.m))
    out[0] = y[: system.m]
    for k in range(n_steps):
        k1 = chain_field(system, y)
        k2 = chain_field(system, y + 0.5 * dt * k1)
        k3 = chain_field(system, y + 0.5 * dt * k2)
        k4 = chain_field(system, y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k + 1] = y[: system.m]
    return oracle.Trajectory(t_start=0.0, dt=dt, states=out)


class TestDiscretizedSystem:
    def test_minimal_jacobian_pattern(self, kotani_model):
        sys2 = oracle.DiscretizedSystem(kotani_model, 2)
        z0, zN = np.array([0.3]), np.array([-0.2])
        J = chain_jacobian(sys2, z0, zN)
        c = 2.0 / kotani_model.tau
        assert J.shape == (3, 3)
        DF0, DF1 = kotani_model.jacobians(z0, zN)
        assert abs(J[0, 0] - DF0[0, 0]) < 1e-15
        assert J[0, 1] == 0.0
        assert abs(J[0, 2] - DF1[0, 0]) < 1e-15
        np.testing.assert_allclose(J[1], [c, -c, 0.0], atol=1e-15)
        np.testing.assert_allclose(J[2], [0.0, c, -c], atol=1e-15)

    def test_vector_field_on_lifted_cycle(self, kotani_model, kotani_orbit):
        sys = oracle.DiscretizedSystem(kotani_model, 50)
        g = chain_field(sys, lift(sys, kotani_orbit, 0.7))
        expected = kotani_model.F(
            kotani_orbit.value(0.7), kotani_orbit.value(0.7 - kotani_model.tau)
        )
        np.testing.assert_allclose(g[:1], expected, atol=1e-12)

    def test_discretized_tracks_dde_over_one_period(self, kotani_model, kotani_orbit):
        # the lag-chain bias is first order in 1/N: check the rate on two
        # coarse chains, then the 1e-3 bound on a chain fine enough to meet it
        T = kotani_orbit.T
        traj = oracle.integrate_dde(
            kotani_model, lambda s: kotani_orbit.value(s), T, kotani_model.tau / 64
        )
        probe = np.linspace(0.0, T, 101)

        def gap(N):
            sys = oracle.DiscretizedSystem(kotani_model, N)
            traj_d = integrate_chain(
                sys, lift(sys, kotani_orbit, 0.0), T, kotani_model.tau / N
            )
            return np.abs(traj_d.value(probe) - traj.value(probe)).max()

        g500, g1000 = gap(500), gap(1000)
        assert 1.6 < g500 / g1000 < 2.4
        assert gap(4000) < 1e-3

    def test_rejects_tiny_N(self, kotani_model):
        with pytest.raises(ValueError):
            oracle.DiscretizedSystem(kotani_model, 1)


class TestMonodromy:
    def test_single_level_unit_multiplier(self, kotani_model, kotani_orbit):
        sys = oracle.DiscretizedSystem(kotani_model, 1000)
        res = oracle.monodromy_exponents(sys, kotani_orbit, k=4)
        assert res.unit_multiplier_error < 1e-2

    def test_two_pairs_suffice(self, kotani_model, kotani_orbit):
        # the default k = 2 keeps the unit multiplier and the leading
        # nontrivial one, and reads them as a k = 5 run does
        system = oracle.DiscretizedSystem(kotani_model, 500)
        two = oracle.monodromy_exponents(system, kotani_orbit)
        five = oracle.monodromy_exponents(system, kotani_orbit, k=5)
        assert two.multipliers.size == 2
        mu = float(five.leading_nontrivial().real)
        assert abs(two.leading_nontrivial().real - mu) <= 1e-10 * abs(mu)
        # |lambda - 1| of the multiplier closest to 1, relative to that multiplier
        assert abs(two.unit_multiplier_error - five.unit_multiplier_error) <= 1e-10
        t = np.linspace(0.0, kotani_orbit.T, 512)
        rho = oracle.monodromy_eigenfunction(five, mu)(t)
        gap = np.abs(oracle.monodromy_eigenfunction(two, mu)(t) - rho).max()
        assert gap <= 1e-10 * np.abs(rho).max()

    def test_cortico_exponent_near_paper_value(self, cortico_oracle_floquet):
        mu_o = cortico_oracle_floquet.leading_nontrivial()
        assert abs(mu_o - (-0.00296)) / 0.00296 < 0.1

    def test_conjugate_pair_order_is_fixed(self):
        lam = 4.4e-5 + 5.7e-5j
        for vals in ([lam.conjugate(), lam, 0.8], [0.8, lam, lam.conjugate()]):
            vals = np.array(vals)
            assert list(vals[oracle._by_magnitude(vals)]) == [0.8, lam, lam.conjugate()]

    def test_corrupted_orbit_rejected(self, kotani_model, kotani_orbit):
        import dataclasses

        bad = dataclasses.replace(
            kotani_orbit,
            X=2.5 * kotani_orbit.X,
            series=d.sample_to_coeffs(2.5 * kotani_orbit.X, kotani_orbit.T),
        )
        with pytest.raises(MonodromyIllConditioned):
            oracle.monodromy_exponents(
                oracle.DiscretizedSystem(kotani_model, 64), bad, k=4
            )

    def test_nonconvergence_reported(self, kotani_model, kotani_orbit, monkeypatch):
        # Ritz pairs still uncertified at the sweep cap are an error
        sys = oracle.DiscretizedSystem(kotani_model, 64)
        monkeypatch.setattr(oracle, "MONODROMY_MAX_ITERATIONS", 1)
        with pytest.raises(MonodromyIllConditioned, match="Ritz residual"):
            oracle.monodromy_exponents(sys, kotani_orbit)


def _recording(monkeypatch, name):
    """Wrap oracle.<name> so that every call appends its (V, W) to a list."""
    calls = []
    run = getattr(oracle, name)

    def recording(plan, V, steps, **kwargs):
        W, head = run(plan, V, steps, **kwargs)
        calls.append((V, W))
        return W, head

    monkeypatch.setattr(oracle, name, recording)
    return calls


def _first_pass(flags):
    """1-based index of the first True in flags, as a sweep count."""
    return flags.index(True) + 1


class TestStoppingRule:
    """Each subspace iteration stops at the first sweep whose Ritz residuals
    pass, computed from the (V, W = Phi V) pairs the sweeps were handed and
    returned, and not one sweep later."""

    @staticmethod
    def forward_passes(V, W, k):
        vals, vecs = np.linalg.eig(V.T @ W)
        order = oracle._by_magnitude(vals)[:k]
        vals, vecs = vals[order], vecs[:, order]
        residual = np.linalg.norm(W @ vecs - (V @ vecs) * vals, axis=0)
        return bool(np.all(residual <= oracle.RITZ_TOL * np.maximum(1.0, np.abs(vals))))

    @staticmethod
    def adjoint_passes(V, W, multiplier):
        vals, vecs = np.linalg.eig(V.T @ W)
        i = int(np.argmin(np.abs(vals - multiplier)))
        u, c = oracle._realify(V @ vecs[:, i], vecs[:, i])
        u, c = u / np.linalg.norm(u), c / np.linalg.norm(u)
        return bool(np.linalg.norm(W @ c - vals[i] * u) <= oracle.ADJOINT_TOL * abs(vals[i]))

    def test_monodromy_stops_at_first_passing_sweep(self, sweep_case, monkeypatch):
        model, orbit = sweep_case
        calls = _recording(monkeypatch, "_sweep_forward")
        res = oracle.monodromy_exponents(oracle.DiscretizedSystem(model, 512), orbit, k=4)
        flags = [self.forward_passes(V, W, 4) for V, W in calls]
        assert res.iterations == _first_pass(flags) == len(flags)

    def test_adjoint_stops_at_first_passing_sweep(self, sweep_case, monkeypatch):
        model, orbit = sweep_case
        system = oracle.DiscretizedSystem(model, 128)
        res = oracle.monodromy_exponents(system, orbit, k=3)
        mu = float(res.leading_nontrivial().real)
        targets = [None, (mu, oracle.monodromy_eigenfunction(res, mu))]
        calls = _recording(monkeypatch, "_sweep_backward")
        adj = oracle.discretized_adjoint(system, orbit, targets)
        periods = []
        for mu_j, n in zip([0.0, mu], adj.periods):
            lam = float(np.exp(mu_j * orbit.T))
            periods.append(_first_pass([self.adjoint_passes(V, W, lam) for V, W in calls]))
            assert n == periods[-1]
        assert len(calls) == adj.iterations == max(periods)


SWEEP_RTOL = 1e-12  # sup-norm gap relative to the reference, fixed in advance


def _rel_gap(a, ref):
    return np.abs(a - ref).max() / np.abs(ref).max()


@pytest.fixture(params=["kotani", "cortico"])
def sweep_case(request):
    """Model and orbit of the sweep checks: the scalar benchmark (m = 1) and
    the two-component cortico cycle, whose delayed Jacobian DF1 is nonzero."""
    model = request.getfixturevalue(f"{request.param}_model")
    orbit = request.getfixturevalue(f"{request.param}_orbit")
    return model, orbit


def dense_rk4_steps(system, orbit, steps, backward):
    """Dense RK4 step matrices of the chain over one period, (steps, dim, dim),
    in the order a sweep takes them: forward from t = 0, or backward with
    -J^T and the step -h from t = T."""
    h = orbit.T / steps
    t = np.arange(2 * steps + 1) * (0.5 * h)  # nodes and midpoints
    J = chain_jacobian(system, orbit.value(t), orbit.value(t - system.model.tau))
    s = h
    if backward:
        J, s = -np.swapaxes(J, -1, -2)[::-1], -h
    eye = np.eye(system.dim)
    k1 = J[:-1:2]
    k2 = J[1::2] @ (eye + 0.5 * s * k1)
    k3 = J[1::2] @ (eye + 0.5 * s * k2)
    k4 = J[2::2] @ (eye + s * k3)
    return eye + (s / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class TestSweepPlan:
    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    @pytest.mark.parametrize("N", [2, 3, 5, 7])
    def test_one_step_matches_dense_rk4(self, sweep_case, N, backward):
        model, orbit = sweep_case
        system = oracle.DiscretizedSystem(model, N)
        steps = oracle._choose_steps(system, orbit.T)
        plan = oracle._sweep_plan(system, orbit, steps)
        h = plan.h

        def J(t):
            x = orbit.value(np.array([t, t - model.tau]))
            return chain_jacobian(system, x[0], x[1])

        V = np.random.default_rng(N).standard_normal((system.dim, 3))
        if backward:  # first interval swept is [T - h, T], from its right end
            t0, s = steps * h, -h
            A = [-J(t).T for t in (t0, t0 - 0.5 * h, t0 - h)]
            W, _ = oracle._sweep_backward(plan, V, 1)
        else:
            t0, s = 0.0, h
            A = [J(t) for t in (t0, 0.5 * h, h)]
            W, _ = oracle._sweep_forward(plan, V, 1)
        k1 = A[0] @ V
        k2 = A[1] @ (V + 0.5 * s * k1)
        k3 = A[1] @ (V + 0.5 * s * k2)
        k4 = A[2] @ (V + s * k3)
        dense = V + (s / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert _rel_gap(W, dense) <= SWEEP_RTOL

    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    def test_full_period_matches_dense_product(self, sweep_case, backward):
        # the ordered product of the dense step matrices, and the head rows
        # of its partial products
        model, orbit = sweep_case
        system = oracle.DiscretizedSystem(model, 2)
        steps = oracle._choose_steps(system, orbit.T)
        V = np.random.default_rng(2).standard_normal((system.dim, 3))
        P, heads = V, [V[: system.m]]
        for S in dense_rk4_steps(system, orbit, steps, backward):
            P = S @ P
            heads.append(P[: system.m])
        heads = np.array(heads[::-1] if backward else heads)
        sweep = oracle._sweep_backward if backward else oracle._sweep_forward
        W, head = sweep(oracle._sweep_plan(system, orbit, steps), V, steps, store_head=True)
        assert _rel_gap(W, P) <= SWEEP_RTOL
        assert _rel_gap(head, heads) <= SWEEP_RTOL
        assert np.array_equal(head[-1 if backward else 0], V[: system.m])


class TestHeadReadout:
    """Profiles read as head_V @ c from the stored heads of a subspace
    iteration against an explicit sweep of the same real vector."""

    N = 128

    def test_eigenfunction_readout_matches_sweep(self, sweep_case):
        model, orbit = sweep_case
        system = oracle.DiscretizedSystem(model, self.N)
        res = oracle.monodromy_exponents(system, orbit, k=3)
        plan = oracle._sweep_plan(system, orbit, res.steps)
        for i in range(res.multipliers.size):
            v, c = oracle._realify(res.vectors[:, i], res.coeffs[:, i])
            _, head = oracle._sweep_forward(plan, v[:, None], res.steps, store_head=True)
            assert _rel_gap(res.head @ c, head[..., 0]) <= SWEEP_RTOL

    def test_adjoint_readout_matches_sweep(self, sweep_case):
        model, orbit = sweep_case
        system = oracle.DiscretizedSystem(model, self.N)
        res = oracle.monodromy_exponents(system, orbit, k=3)
        mu = float(res.leading_nontrivial().real)
        targets = [None, (mu, oracle.monodromy_eigenfunction(res, mu))]
        adj = oracle.discretized_adjoint(system, orbit, targets)
        steps = oracle._choose_steps(system, orbit.T)
        plan = oracle._sweep_plan(system, orbit, steps)
        for j, mode in enumerate(targets):
            u = adj.vectors[:, j]
            _, head = oracle._sweep_backward(plan, u[:, None], steps, store_head=True)
            ref = oracle._adjoint_response(orbit, mode, head[..., 0])
            assert _rel_gap(adj.responses[j].values, ref.values) <= SWEEP_RTOL


class TestDiscretizedAdjoint:
    def test_oracle_pairing_constant(self, kotani_orbit, kotani_oracle_curves):
        # the pseudospectral oracle's z with the orbit's own tangent
        _, z, _ = kotani_oracle_curves
        tangent = oracle._orbit_tangent(kotani_orbit)
        vals = [
            adjoint.pairing_functional(kotani_orbit, z, tangent, 0.0, t0)
            for t0 in np.arange(8) * kotani_orbit.T / 8
        ]
        assert max(vals) - min(vals) < 1e-10

    # None is the phase target, named by the mu it sits at
    @pytest.mark.parametrize("mu", [pytest.param(None, id="0.0"), -0.03])
    def test_zero_curve_rejected(self, kotani_orbit, mu):
        # a vanishing pairing is an error, not a curve scaled to NaN
        rho = oracle._PeriodicInterp(T=kotani_orbit.T, values=np.ones((64, 1)))
        mode = None if mu is None else (mu, rho)
        with pytest.raises(NormalizationSingular):
            oracle._response(kotani_orbit, np.zeros((64, 1)), mode)

    def test_no_delay_influence_reduces_to_ode_adjoint(self, sl_model, sl_orbit):
        # DF1 == 0: the chain decouples and the head block must solve the
        # plain ODE adjoint, which is (-sin, cos) for this oscillator
        sys = oracle.DiscretizedSystem(sl_model, 128)
        (res,) = oracle.discretized_adjoint(sys, sl_orbit, [None]).responses
        t = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
        expected = np.stack([-np.sin(t), np.cos(t)], axis=-1)
        assert np.abs(res(t) - expected).max() < 1e-4

    def test_shared_iteration_matches_one_target_runs(self, kotani_model,
                                                      kotani_orbit, monkeypatch):
        system = oracle.DiscretizedSystem(kotani_model, 128)
        res = oracle.monodromy_exponents(system, kotani_orbit, k=3)
        mu = float(res.leading_nontrivial().real)
        targets = [None, (mu, oracle.monodromy_eigenfunction(res, mu))]
        swept = []
        sweep_backward = oracle._sweep_backward

        def counting(plan, V, steps, **kwargs):
            swept.append(V.shape[-1])
            return sweep_backward(plan, V, steps, **kwargs)

        monkeypatch.setattr(oracle, "_sweep_backward", counting)
        both = oracle.discretized_adjoint(system, kotani_orbit, targets)
        n_both = len(swept)
        single = [oracle.discretized_adjoint(system, kotani_orbit, [t]) for t in targets]
        for j, one in enumerate(single):
            (r,) = one.responses
            assert np.array_equal(both.responses[j].values, r.values)
            assert np.array_equal(both.vectors[:, j], one.vectors[:, 0])
            assert both.periods[j] == one.periods[0] == one.iterations
        periods = [one.iterations for one in single]
        assert n_both == both.iterations == max(periods)
        assert len(swept) - n_both == sum(periods)

    def test_amplitude_target_at_zero_pairs_with_its_rho(self, kotani_model,
                                                         kotani_orbit):
        # a mode at mu = 0 is an amplitude target: its curve pairs with its
        # own rho (here twice the tangent) to 1, not like the phase response
        tangent = oracle._orbit_tangent(kotani_orbit)
        partner = lambda t: 2.0 * tangent(t)
        system = oracle.DiscretizedSystem(kotani_model, 128)
        adj = oracle.discretized_adjoint(system, kotani_orbit, [None, (0.0, partner)])
        value = adjoint.pairing_functional(kotani_orbit, adj.responses[1], partner, 0.0)
        assert abs(value - 1.0) <= 1e-12

    def test_nonconvergence_reported(self, kotani_model, kotani_orbit, monkeypatch):
        sys = oracle.DiscretizedSystem(kotani_model, 64)
        monkeypatch.setattr(oracle, "ADJOINT_MAX_PERIODS", 1)
        with pytest.raises(NonConvergentAdjoint):
            oracle.discretized_adjoint(sys, kotani_orbit, [None])


def oracle_gaps(model, orbit, mu, mode, z, q, n, steps):
    """Gaps of the pseudospectral oracle on n + 1 nodes and `steps` steps to
    the spectral side: the exponent (relative), the unit multiplier, and the
    largest gap of rho, z and q on the collocation grid."""
    mono = oracle.oracle_floquet(model, orbit, n, steps)
    rho = oracle.oracle_eigenfunction(orbit, mono)
    z_o, q_o = oracle.oracle_responses(orbit, mono, rho)
    tg = orbit.grid.sample_times
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
        system = oracle.pseudospectral_system(model, cortico_orbit, n, 500)
        h, k = system.h, 123
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
        orbit = d.PeriodicOrbit(model, T, M, 0, X, d.sample_to_coeffs(X, T), 0.0, 0)
        errs = []
        for steps in (400, 800):
            mono = oracle.oracle_floquet(model, orbit, oracle.CHEB_NODES, steps)
            t = np.arange(steps + 1) * (T / steps)
            assert np.array_equal(mono.heads[:, 0, 1:], np.zeros((steps + 1, oracle.CHEB_NODES)))
            errs.append(np.abs(mono.heads[:, 0, 0] - np.exp(-5.0 * np.sin(t))).max())
        assert errs[1] * 32.0 <= errs[0], errs

    def test_steps_raised_for_stability(self, kotani_model, kotani_orbit):
        # a delay short against the period: the transport block is stiff,
        # and the step count rises to the fewest that keep |R(h lambda)| <= 1
        # for every eigenvalue lambda of the transport block
        def worst(tau, steps):
            _, lam = oracle._cheb(16)
            z = (kotani_orbit.T / steps) * (2.0 / tau) * lam
            R = sum(z**k / math.factorial(k) for k in range(7)) - z**7 / 2160.0
            return np.abs(R).max()

        model = ModelSpec("short_delay", 1, 0.01, lambda z0, z1: -z1)
        system = oracle.pseudospectral_system(model, kotani_orbit, 16, 100)
        assert system.steps > 100
        assert worst(model.tau, system.steps) <= 1.0 < worst(model.tau, system.steps - 1)
        # the shipped kotani delay needs 73 steps a period
        assert oracle.pseudospectral_system(kotani_model, kotani_orbit, 16, 1).steps == 73

    def test_step_matrices_built_in_batches(self, kotani_model, kotani_orbit,
                                            kotani_oracle_floquet, monkeypatch):
        built = []
        step_matrices = oracle.PseudospectralSystem.step_matrices

        def recording(system, k0, k1):
            built.append((k0, k1))
            return step_matrices(system, k0, k1)

        monkeypatch.setattr(oracle.PseudospectralSystem, "step_matrices", recording)
        mono = oracle.oracle_floquet(kotani_model, kotani_orbit)
        forward = built[:]
        rho = oracle.oracle_eigenfunction(kotani_orbit, mono)
        assert built == forward  # the eigenfunction is read from the stored heads
        oracle.oracle_responses(kotani_orbit, mono, rho)
        backward = built[len(forward):]
        steps = mono.system.steps
        for batches in (forward, backward[::-1]):
            assert all(0 < k1 - k0 <= oracle.STEP_BATCH for k0, k1 in batches)
            assert [k for k0, k1 in batches for k in range(k0, k1)] == list(range(steps))
        assert np.array_equal(mono.matrix, kotani_oracle_floquet.matrix)

    def test_converges_on_doubling(self, kotani_model, kotani_orbit, kotani_mu,
                                   kotani_mode, kotani_z, kotani_q):
        # half the step, from 250 to 500 a period, where every gap is above
        # round-off: each gap to the spectral side falls at least 16-fold
        # (measured 18x to 118x; the method is sixth order in the step)
        args = (kotani_model, kotani_orbit, kotani_mu, kotani_mode, kotani_z, kotani_q)
        base = oracle_gaps(*args, oracle.CHEB_NODES, 250)
        fine = oracle_gaps(*args, oracle.CHEB_NODES, 500)
        for name in base:
            assert fine[name] <= base[name] / 16, (name, base[name], fine[name])

    def test_converged_in_the_nodes(self, kotani_model, kotani_orbit, kotani_mu,
                                    kotani_mode, kotani_z, kotani_q):
        # twice the nodes at a fixed step, twice the shipped count so the
        # step error stays small for the stiffer transport of 2n: n + 1 nodes
        # and 2n + 1 nodes both sit within 1e-11 of the spectral side
        # (measured at most 3.1e-13 and 5.3e-12)
        args = (kotani_model, kotani_orbit, kotani_mu, kotani_mode, kotani_z, kotani_q)
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
        lin = floquet.orbit_linearization(request.getfixturevalue(f"{name}_orbit"))
        eye, root = np.eye(lin.A0.shape[0]), upper
        for _ in range(5):
            E = np.exp(-root * lin.tau) * lin.B
            M, dM = lin.A0 + root * eye - E, eye + lin.tau * E
            root -= 1.0 / np.trace(np.linalg.solve(M, dM))
        assert abs(root - pair) <= 1e-7
        assert abs(upper - root) <= 1e-8

    def test_eigenfunction_gauged_on_the_grid(self, kotani_orbit, kotani_mode,
                                              kotani_oracle_curves):
        rho, _, _ = kotani_oracle_curves
        samples = rho(kotani_orbit.grid.sample_times)
        assert np.abs(samples - floquet._fix_mode_gauge(samples)).max() <= 1e-15
        assert np.abs(samples - kotani_mode.R).max() <= 1e-9

    def test_corrupted_orbit_rejected(self, kotani_model, kotani_orbit):
        import dataclasses

        bad = dataclasses.replace(
            kotani_orbit,
            X=2.5 * kotani_orbit.X,
            series=d.sample_to_coeffs(2.5 * kotani_orbit.X, kotani_orbit.T),
        )
        with pytest.raises(MonodromyIllConditioned):
            oracle.oracle_floquet(kotani_model, bad, 8, 500)


class TestDirectPrc:
    def test_linearity_in_pulse_size(self, kotani_model, kotani_orbit):
        phases = np.arange(8) * 2 * np.pi / 8
        prc1, prc2 = oracle.direct_prc(kotani_model, kotani_orbit, phases,
                                       scales=(1.0, 0.5))
        assert prc2.eps == prc1.eps / 2
        ratio = np.linalg.norm(prc1.raw_shifts) / np.linalg.norm(prc2.raw_shifts)
        assert abs(ratio - 2.0) < 0.04

    def test_converges_in_the_step(self, kotani_model, kotani_orbit, kotani_z,
                                   kotani_mu, monkeypatch):
        # the kick's break points keep the run fourth order, so the measured
        # PRC converges in the step (the move from tau/16 to tau/32 is 19.8
        # times the move from tau/32 to tau/64), and the decay ratio of the
        # kicked copies gives the leading exponent from the flow alone
        phases = np.arange(8) * 2 * np.pi / 8
        measured = {}
        for n in (16, 32, 64):
            monkeypatch.setattr(oracle, "PRC_DELAY_STEPS", n)
            [prc] = oracle.direct_prc(kotani_model, kotani_orbit, phases)
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
        orbit = d.PeriodicOrbit(model, T, M, 0, X, d.sample_to_coeffs(X, T), 0.0, 0)
        with pytest.raises(SlowPhaseDecay, match="r=0.99"):
            oracle.direct_prc(model, orbit, np.arange(4) * np.pi / 2)

    def test_pulse_at_zero_of_z(self, kotani_model, kotani_orbit, kotani_z):
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
        [prc] = oracle.direct_prc(kotani_model, kotani_orbit, [theta0])
        assert abs(prc.measured[0]) < 0.05 * np.abs(kotani_z.Q).max()
