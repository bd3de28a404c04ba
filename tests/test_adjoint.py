import dataclasses

import numpy as np
import pytest

from ddehb import adjoint
from ddehb.errors import NormalizationSingular, NotSingular

from conftest import quadrature_normalized


def normalize_phase(z, orbit):
    """z rescaled so its pairing with the cycle tangent is omega."""
    return quadrature_normalized(z, orbit, orbit.series.derivative(), 0.0, orbit.omega)


def normalize_amplitude(q, orbit, mu, mode):
    """q rescaled so its pairing with the eigenfunction is 1."""
    return quadrature_normalized(q, orbit, mode.series, mu, 1.0)


class TestAdjointMatrix:
    def test_singular_at_zero(self, kotani_orbit):
        A = adjoint.build_adjoint_matrix(kotani_orbit, 0.0)
        s = np.linalg.svd(A, compute_uv=False)
        assert s[-1] <= 1e-8 * s[0]

    def test_singular_at_leading_exponent(self, kotani_orbit, kotani_mu):
        A = adjoint.build_adjoint_matrix(kotani_orbit, kotani_mu)
        s = np.linalg.svd(A, compute_uv=False)
        assert s[-1] <= 1e-8 * s[0]

    def test_regular_between_exponents(self, kotani_orbit, kotani_mu):
        A = adjoint.build_adjoint_matrix(kotani_orbit, 0.5 * kotani_mu)
        s = np.linalg.svd(A, compute_uv=False)
        assert s[-1] > 1e-4 * s[0]


class TestSolveResponse:
    def test_nullvector_residuals(self, kotani_z, kotani_q, cortico_z, cortico_q):
        for curve in (kotani_z, kotani_q, cortico_z, cortico_q):
            assert curve.residual <= 1e-6

    def test_regular_mu_is_typed(self, kotani_orbit, kotani_mode):
        with pytest.raises(NotSingular, match="not singular"):
            adjoint.solve_response(kotani_orbit,
                                   dataclasses.replace(kotani_mode, mu=-0.015))

    def test_phase_and_amplitude_machinery_parallel_at_zero(
        self, kotani_orbit, kotani_z
    ):
        from ddehb import floquet

        mode0 = floquet.eigenfunction(kotani_orbit, 0.0)
        q0 = adjoint.solve_response(kotani_orbit, mode0)
        scale = float(
            (kotani_z.Q.ravel() @ q0.Q.ravel()) / (q0.Q.ravel() @ q0.Q.ravel())
        )
        assert np.abs(kotani_z.Q - scale * q0.Q).max() < 1e-8


class TestNormalizePhase:
    def test_scale_invariance(self, kotani_orbit, kotani_z):
        doubled = normalize_phase(2.0 * kotani_z.Q, kotani_orbit)
        np.testing.assert_allclose(doubled, kotani_z.Q, atol=1e-12)

    def test_identity_value_for_unit_frequency(self, kotani_orbit, kotani_z):
        # T = 2 pi makes the target omega = 1
        value = adjoint.pairing_functional(
            kotani_orbit, kotani_z.series, kotani_orbit.series.derivative(), 0.0
        )
        assert abs(value - 1.0) < 1e-8

    def test_quadrature_node_insensitivity(self, request, monkeypatch):
        # 64 and 256 nodes agree to 1.6e-15 (kotani) and 3.3e-16 (cortico)
        assert adjoint.QUAD_NODES == 64
        for config in ("kotani", "cortico"):
            orbit = request.getfixturevalue(f"{config}_orbit")
            z = request.getfixturevalue(f"{config}_z").series
            tangent = orbit.series.derivative()
            value = adjoint.pairing_functional(orbit, z, tangent, 0.0)
            with monkeypatch.context() as patch:
                patch.setattr(adjoint, "QUAD_NODES", 256)
                fine = adjoint.pairing_functional(orbit, z, tangent, 0.0)
            assert abs(fine - value) <= 8e-15

    def test_zero_curve_rejected(self, kotani_orbit):
        with pytest.raises(NormalizationSingular):
            normalize_phase(np.zeros_like(kotani_orbit.X), kotani_orbit)


class TestNormalizeAmplitude:
    def test_identity_holds(self, kotani_orbit, kotani_mu, kotani_mode, kotani_q):
        value = adjoint.pairing_functional(
            kotani_orbit, kotani_q.series, kotani_mode.series, kotani_mu
        )
        assert abs(value - 1.0) < 1e-8

    def test_reduces_to_phase_identity_at_zero_mu(self, kotani_orbit, kotani_z):
        from ddehb import floquet

        mode0 = floquet.eigenfunction(kotani_orbit, 0.0)  # xdot / max|xdot|
        mx = np.linalg.norm(kotani_orbit.xdot_samples, axis=1).max()
        q = normalize_amplitude(kotani_z.Q, kotani_orbit, 0.0, mode0)
        expected = kotani_z.Q * (mx / kotani_orbit.omega)
        sign = np.sign(np.sum(q * expected))
        assert np.abs(sign * q - expected).max() < 1e-8

    def test_quadrature_node_insensitivity(self, request, monkeypatch):
        # 64 and 256 nodes agree to 1.8e-15 (kotani) and 1.7e-15 (cortico)
        for config in ("kotani", "cortico"):
            orbit = request.getfixturevalue(f"{config}_orbit")
            mode = request.getfixturevalue(f"{config}_mode")
            q = request.getfixturevalue(f"{config}_q")
            value = adjoint.pairing_functional(orbit, q.series, mode.series, q.mu)
            with monkeypatch.context() as patch:
                patch.setattr(adjoint, "QUAD_NODES", 256)
                fine = adjoint.pairing_functional(orbit, q.series, mode.series, q.mu)
            assert abs(fine - value) <= 8e-15


class TestConservedPairing:
    def test_phase_pairing_constant(self, kotani_orbit, kotani_z):
        tangent = kotani_orbit.series.derivative()
        vals = [
            adjoint.pairing_functional(kotani_orbit, kotani_z.series, tangent, 0.0, t0)
            for t0 in np.arange(4) * kotani_orbit.T / 4
        ]
        np.testing.assert_allclose(vals, kotani_orbit.omega, atol=1e-10)
        assert max(vals) - min(vals) < 1e-6

    def test_amplitude_pairing_constant(self, kotani_orbit, kotani_mu, kotani_mode,
                                        kotani_q):
        vals = [
            adjoint.pairing_functional(
                kotani_orbit, kotani_q.series, kotani_mode.series, kotani_mu, t0
            )
            for t0 in np.arange(4) * kotani_orbit.T / 4
        ]
        np.testing.assert_allclose(vals, 1.0, atol=1e-10)
        assert max(vals) - min(vals) < 1e-6

    def test_full_period_shift_reproduces_base(self, kotani_orbit, kotani_z):
        tangent = kotani_orbit.series.derivative()
        v0 = adjoint.pairing_functional(kotani_orbit, kotani_z.series, tangent, 0.0, 0.0)
        vT = adjoint.pairing_functional(
            kotani_orbit, kotani_z.series, tangent, 0.0, kotani_orbit.T
        )
        assert abs(v0 - vT) < 1e-12

    def test_quadrature_rule_computed_once(self):
        # one shared, read-only rule per node count, equal to numpy's
        xi, w = adjoint._gauss_legendre(64)
        ref = np.polynomial.legendre.leggauss(64)
        assert np.array_equal(xi, ref[0]) and np.array_equal(w, ref[1])
        assert adjoint._gauss_legendre(64)[0] is xi
        assert not (xi.flags.writeable or w.flags.writeable)
        assert adjoint._gauss_legendre(32)[0].size == 32
