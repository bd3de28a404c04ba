"""One assembly of the collocated linearization serves every mu.

M(mu) = A0 + mu I - e^{-mu tau} B is checked against the fresh per-mu
assembly from Re(S L(mu) S^-1), kept here as the reference; the two agree
in exact arithmetic and, at mu = 0, in every bit.  The response curves are
the left null vectors of that same M(mu); they are checked against those
of the paper's advanced collocation of the adjoint, kept here as well.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from ddehb import adjoint, cycle, floquet, spectral
from ddehb.model import ModelSpec
from ddehb.spectral import build_operators

from conftest import CORTICO_SCAN, KOTANI_SCAN, mackey_glass_orbit_at, quadrature_normalized

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
    """The paper's advanced collocation of the adjoint: A(mu) with the
    Jacobian DF1(x(t + tau), x(t)) applied after the advance, rebuilt at
    this mu.  Its left null vectors are the raw response curves."""
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
        for mu in np.linspace(scan.mu_min, scan.mu_max, 5):
            assert_close(floquet.build_stability_matrix(orbit, mu),
                         fresh_stability_matrix(orbit, mu))

    def test_adjoint_matrix(self, request, name, scan):
        # the response curves are left null vectors of M(mu) itself
        orbit = request.getfixturevalue(name)
        for mu in np.linspace(scan.mu_min, scan.mu_max, 5):
            np.testing.assert_array_equal(adjoint.build_adjoint_matrix(orbit, mu),
                                          floquet.build_stability_matrix(orbit, mu))

    def test_bit_identical_at_zero(self, request, name, scan):
        orbit = request.getfixturevalue(name)
        lin = orbit.linearization
        assert np.abs(lin.B).max() > 0.1  # the delay block is exercised
        for build in (floquet.build_stability_matrix, adjoint.build_adjoint_matrix):
            np.testing.assert_array_equal(build(orbit, 0.0),
                                          fresh_stability_matrix(orbit, 0.0))

    @pytest.mark.parametrize("points", [2, 40, 200])
    def test_stacked_scan_is_per_point(self, request, name, scan, points):
        """det_scan's chunked assembly and slogdet, and scan_sigma_min's
        singular values, equal the per-point ones bit for bit, a partial
        last chunk included."""
        orbit = request.getfixturevalue(name)
        lin = orbit.linearization
        mus = np.linspace(scan.mu_min, scan.mu_max, points)
        np.testing.assert_array_equal(lin.matrices(mus), [lin.matrix(mu) for mu in mus])
        result = floquet.det_scan(orbit, dataclasses.replace(scan, points=points))
        assert result.mu.shape == (points,)
        sigma = floquet.scan_sigma_min(result)
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

    def test_mu_derivative(self, request, name, scan):
        # M'(mu) v against a central difference of M(mu) v; the gap is at
        # most 8.8e-10 of the peak (cortico), the difference's round-off
        orbit = request.getfixturevalue(name)
        lin = orbit.linearization
        v = np.cos(np.arange(lin.A0.shape[0]))
        h = 1e-5
        for mu in np.linspace(scan.mu_min, scan.mu_max, 5):
            ref = (lin.matrix(mu + h) @ v - lin.matrix(mu - h) @ v) / (2 * h)
            assert np.abs(lin.dmu(mu, v) - ref).max() <= 1e-8 * np.abs(ref).max()


def test_one_assembly_per_public_call(kotani_orbit, kotani_mu, kotani_mode, monkeypatch):
    """A public call on a fresh orbit assembles (A0, B) once; a second call
    on the same orbit assembles nothing, since the orbit keeps its copy.  The
    modes that solve_response scales come from the session orbit, so the
    count is that of the response alone."""
    mode0 = floquet.eigenfunction(kotani_orbit, 0.0)
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
        lambda orbit: floquet.det_scan(orbit, KOTANI_SCAN),
        # a scan's singular values are taken on its own assembly
        lambda orbit: floquet.scan_sigma_min(floquet.det_scan(orbit, KOTANI_SCAN)),
        lambda orbit: floquet.refine_exponent(orbit, (-0.06, -0.01)),
        # the scan's assembly serves its refinements
        lambda orbit: floquet.find_exponents(orbit, KOTANI_SCAN),
        # one assembly for the scan and both of its brackets
        lambda orbit: floquet.leading_exponent(orbit, KOTANI_SCAN),
        lambda orbit: floquet.eigenfunction(orbit, kotani_mu),
        lambda orbit: floquet.build_stability_matrix(orbit, kotani_mu),
        lambda orbit: adjoint.build_adjoint_matrix(orbit, kotani_mu),
        lambda orbit: adjoint.solve_response(orbit, mode0),
        lambda orbit: adjoint.solve_response(orbit, kotani_mode),
    ):
        orbit = dataclasses.replace(kotani_orbit)  # same series, no (A0, B) yet
        calls.clear()
        call(orbit)
        assert calls == {"build_operators": 1, "jacobians": 1}
        calls.clear()
        call(orbit)
        assert not calls


def test_solved_orbit_keeps_its_newton_operators(kotani_model, monkeypatch):
    """solve_cycle hands the operators of its last Newton step on, so the
    first linearization of its orbit builds none; they are the operators at
    the orbit's (M, T, tau), to the bit."""
    orbit = cycle.solve_cycle(kotani_model, cycle.seed_from_ansatz(1, 0.8, 6.0, 20))
    built = []
    monkeypatch.setattr(cycle, "build_operators",
                        lambda *args: built.append(args) or build_operators(*args))
    assert orbit.linearization.A0 is not None and not built
    fresh = build_operators(orbit.M, orbit.T, kotani_model.tau)
    for name in ("S", "S_inv", "D0", "Delta"):
        assert np.array_equal(getattr(orbit.operators, name), getattr(fresh, name)), name
    assert orbit.operators.grid == orbit.grid


@pytest.fixture(scope="module")
def mackey_glass_orbit():
    return mackey_glass_orbit_at(5.0)


@pytest.mark.parametrize("name, scan", CASES + [("mackey_glass_orbit", floquet.ScanOptions(-0.5, 0.05))])
def test_responses_are_left_null_vectors_of_advanced_adjoint(request, name, scan):
    """z and q, the left null vectors of M(mu) scaled by the grid pairing,
    equal those of the advanced adjoint collocation scaled by the quadrature
    pairing, to 1e-12 of each curve's peak."""
    orbit = request.getfixturevalue(name)
    mode0, mode = (floquet.eigenfunction(orbit, mu)
                   for mu in (0.0, floquet.find_exponents(orbit, scan)[0]))
    for curve, partner, target in (
        (adjoint.solve_response(orbit, mode0), orbit.series.derivative(), orbit.omega),
        (adjoint.solve_response(orbit, mode), mode.series, 1.0),
    ):
        U = np.linalg.svd(fresh_adjoint_matrix(orbit, curve.mu))[0]
        raw = U[:, -1].reshape(-1, orbit.model.m)
        ref = quadrature_normalized(raw, orbit, partner, curve.mu, target)
        assert np.abs(curve.Q - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("name, scan", CASES + [("mackey_glass_orbit", floquet.ScanOptions(-0.5, 0.05))])
def test_grid_pairing_is_the_quadrature_pairing(request, name, scan):
    """Q^T M'(mu) P / (2M+1), the pairing solve_response scales by, equals
    pairing_functional's quadrature for z and q, relative to the target.
    Measured: 6.7e-16 and 4.4e-16 (kotani), 6.5e-15 and 1.4e-14 (cortico),
    1.5e-14 and 3.6e-15 (Mackey-Glass)."""
    orbit = request.getfixturevalue(name)
    lin = orbit.linearization
    mode0, mode = (floquet.eigenfunction(orbit, mu)
                   for mu in (0.0, floquet.find_exponents(orbit, scan)[0]))
    for curve, P, partner, target in (
        (adjoint.solve_response(orbit, mode0), orbit.xdot_samples, orbit.series.derivative(),
         orbit.omega),
        (adjoint.solve_response(orbit, mode), mode.R, mode.series, 1.0),
    ):
        grid = curve.Q.ravel() @ lin.dmu(curve.mu, P.ravel()) / len(P)
        quadrature = adjoint.pairing_functional(orbit, curve.series, partner, curve.mu)
        assert abs(grid - target) <= 1e-12 * abs(target)
        assert abs(grid - quadrature) <= 1e-13 * abs(target)
