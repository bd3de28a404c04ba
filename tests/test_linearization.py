"""One assembly of the collocated linearization serves every mu.

M(mu) = A0 + mu I - e^{-mu tau} B is checked against the fresh per-mu
assembly from Re(S L(mu) S^-1), kept here as the reference; the two agree
in exact arithmetic and, at mu = 0, in every bit.
"""

from collections import Counter

import numpy as np
import pytest

from ddehb import adjoint, cycle, floquet, spectral
from ddehb.model import ModelSpec
from ddehb.spectral import build_operators

from conftest import CORTICO_SCAN, KOTANI_SCAN

CASES = [("kotani_orbit", KOTANI_SCAN), ("cortico_orbit", CORTICO_SCAN)]


def _blockdiag(blocks):
    K, m, _ = blocks.shape
    out = np.zeros((K * m, K * m))
    for n in range(K):
        out[n * m : (n + 1) * m, n * m : (n + 1) * m] = blocks[n]
    return out


def shifted_derivative(ops, mu):
    """D(mu) = Re(S L(mu) S^-1) with L(mu) = diag(mu + i omega_p), rebuilt at this mu."""
    L = np.diag(mu + 1j * ops.grid.frequencies)
    return (ops.S @ L @ ops.S_inv).real


def fresh_stability_matrix(orbit, mu):
    """M(mu) = (D(mu) kron I) - J0 - e^{-mu tau} J1 (Delta kron I), with D(mu)
    = Re(S L(mu) S^-1) rebuilt at this mu."""
    model = orbit.model
    ops = build_operators(orbit.M, orbit.T, model.tau)
    DF0, DF1 = model.jacobians(orbit.X, orbit.delayed(orbit.grid.sample_times))
    Im = np.eye(model.m)
    return (
        np.kron(shifted_derivative(ops, mu), Im)
        - _blockdiag(DF0)
        - np.exp(-mu * model.tau) * (_blockdiag(DF1) @ np.kron(ops.Delta, Im))
    )


def fresh_adjoint_matrix(orbit, mu):
    """A(mu) with the advanced Jacobian DF1(x(t + tau), x(t)), rebuilt at this mu."""
    model = orbit.model
    ops = build_operators(orbit.M, orbit.T, model.tau)
    t = orbit.grid.sample_times
    DF1_adv = model.jacobians(orbit.value(t + model.tau), orbit.X)[1]
    Im = np.eye(model.m)
    return (
        np.kron(shifted_derivative(ops, mu), Im)
        - _blockdiag(model.jacobians(orbit.X, orbit.delayed(t))[0])
        - np.exp(-mu * model.tau) * (np.kron(ops.Delta, Im) @ _blockdiag(DF1_adv))
    )


def loop_x_block(model, ops, X):
    """The X-block of the Newton Jacobian of the cycle solve, filled block by block."""
    K, m = X.shape
    Xd = ops.Delta @ X
    DF0, DF1 = model.jacobians(X, Xd)
    Im = np.eye(m)
    J = np.kron(ops.D0, Im)
    for n in range(K):
        r = slice(n * m, (n + 1) * m)
        J[r, r] -= DF0[n]
    J1 = np.zeros_like(J)
    for n in range(K):
        r = slice(n * m, (n + 1) * m)
        J1[r, r] = DF1[n]
    J -= J1 @ np.kron(ops.Delta, Im)
    return J


def assert_close(mat, ref):
    assert np.abs(mat - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("name, scan", CASES)
class TestAgainstFreshAssembly:
    def test_stability_matrix(self, request, name, scan):
        orbit = request.getfixturevalue(name)
        for mu in np.linspace(*scan, 5):
            assert_close(floquet.build_stability_matrix(orbit, mu),
                         fresh_stability_matrix(orbit, mu))

    def test_adjoint_matrix(self, request, name, scan):
        orbit = request.getfixturevalue(name)
        for mu in np.linspace(*scan, 5):
            assert_close(adjoint.build_adjoint_matrix(orbit, mu),
                         fresh_adjoint_matrix(orbit, mu))

    def test_bit_identical_at_zero(self, request, name, scan):
        orbit = request.getfixturevalue(name)
        lin = floquet.orbit_linearization(orbit)
        assert np.abs(lin.B).max() > 0.1  # the delay block is exercised
        np.testing.assert_array_equal(
            floquet.build_stability_matrix(orbit, 0.0),
            fresh_stability_matrix(orbit, 0.0),
        )
        np.testing.assert_array_equal(
            adjoint.build_adjoint_matrix(orbit, 0.0), fresh_adjoint_matrix(orbit, 0.0)
        )

    @pytest.mark.parametrize("points", [2, 40, 200])
    def test_stacked_scan_is_per_point(self, request, name, scan, points):
        """det_scan's chunked assembly and slogdet, and scan_sigma_min's
        singular values, equal the per-point ones bit for bit, a partial
        last chunk included."""
        orbit = request.getfixturevalue(name)
        lin = floquet.orbit_linearization(orbit)
        mus = np.linspace(*scan, points)
        np.testing.assert_array_equal(lin.matrices(mus), [lin.matrix(mu) for mu in mus])
        result = floquet.det_scan(orbit, scan, points)
        assert result.mu.shape == (points,)
        sigma = floquet.scan_sigma_min(orbit, result.mu)
        assert sigma.shape == (points,)
        for i, mu in enumerate(mus):
            mat = lin.matrix(mu)
            # the per-point assembly that the stacked one replaced
            ref = lin.A0 - np.exp(-mu * lin.tau) * lin.B
            ref[np.diag_indices_from(ref)] += mu
            np.testing.assert_array_equal(mat, ref)
            sign, logdet = np.linalg.slogdet(mat)
            sigma_min = np.linalg.svd(mat, compute_uv=False)[-1]
            assert (result.mu[i], result.sign[i], result.log_abs_det[i],
                    sigma[i]) == (mu, sign, logdet, sigma_min)

    def test_cycle_jacobian_x_block(self, request, name, scan):
        orbit = request.getfixturevalue(name)
        ops = build_operators(orbit.M, orbit.T, orbit.model.tau)
        n_dyn = orbit.X.size
        # the converged orbit and an iterate away from it
        for X in (orbit.X, orbit.X + 0.1 * np.cos(3.0 * orbit.X)):
            J = cycle._jacobian(orbit.model, ops, X, 0)
            np.testing.assert_array_equal(
                J[:n_dyn, :n_dyn], loop_x_block(orbit.model, ops, X)
            )

    def test_cycle_jacobian_period_column(self, request, name, scan):
        orbit = request.getfixturevalue(name)
        model, T, n_dyn = orbit.model, orbit.T, orbit.X.size
        ops = build_operators(orbit.M, T, model.tau)
        h = 1e-6 * T
        for X in (orbit.X, orbit.X + 0.1 * np.cos(3.0 * orbit.X)):
            column = cycle._jacobian(model, ops, X, 0)[:, n_dyn]
            # central difference of the residual, operators rebuilt at T +- h
            ref = (cycle.residual(model, X, T + h) - cycle.residual(model, X, T - h)) / (2 * h)
            assert np.abs(column - ref).max() <= 1e-7 * np.abs(ref).max()


def test_one_assembly_per_public_call(kotani_orbit, kotani_mu, monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    build = counted("build_operators", spectral.build_operators)
    for mod in (spectral, cycle, floquet, adjoint):
        if hasattr(mod, "build_operators"):
            monkeypatch.setattr(mod, "build_operators", build)
    monkeypatch.setattr(ModelSpec, "jacobians", counted("jacobians", ModelSpec.jacobians))
    for call in (
        lambda: floquet.det_scan(kotani_orbit, KOTANI_SCAN, 200),
        lambda: floquet.scan_sigma_min(kotani_orbit, np.linspace(*KOTANI_SCAN, 200)),
        lambda: floquet.refine_exponent(kotani_orbit, (-0.06, -0.01)),
        # the scan's assembly serves its refinements
        lambda: floquet.find_exponents(kotani_orbit, KOTANI_SCAN, 200),
        # one assembly for the scan and both of its brackets
        lambda: floquet.leading_exponent(kotani_orbit, KOTANI_SCAN, 200),
        lambda: floquet.eigenfunction(kotani_orbit, kotani_mu),
    ):
        calls.clear()
        call()
        assert calls == {"build_operators": 1, "jacobians": 1}
