import dataclasses

import numpy as np
import pytest

from ddehb import adjoint, floquet
from ddehb.errors import NormalizationSingular

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

    def test_phase_and_amplitude_machinery_parallel_at_zero(self, kotani_orbit, kotani_z):
        # the trivial mode scales to the phase response through the pairing
        # with the cycle tangent, the same to the bit on an orbit that
        # assembles its own (A0, B)
        orbit = dataclasses.replace(kotani_orbit)
        z0 = adjoint.solve_response(orbit, floquet.eigenfunction(orbit, 0.0))
        assert z0.mu == kotani_z.mu == 0.0
        assert np.array_equal(z0.Q, kotani_z.Q)
        assert np.array_equal(z0.series.coeffs, kotani_z.series.coeffs)
        assert z0.normalization_residual == kotani_z.normalization_residual
        assert z0.residual == kotani_z.residual

    def test_scaling_a_mode_factors_nothing(self, kotani_orbit, kotani_mode, monkeypatch):
        # the mode's SVD already holds the left null vector: a response only
        # scales it, the trivial mode's as any other
        mode0 = floquet.eigenfunction(kotani_orbit, 0.0)
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        for mode in (kotani_mode, mode0):
            adjoint.solve_response(kotani_orbit, mode)
        assert not calls


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
        assert len(adjoint._GAUSS_LEGENDRE[0]) == 64
        for config in ("kotani", "cortico"):
            orbit = request.getfixturevalue(f"{config}_orbit")
            z = request.getfixturevalue(f"{config}_z").series
            tangent = orbit.series.derivative()
            value = adjoint.pairing_functional(orbit, z, tangent, 0.0)
            with monkeypatch.context() as patch:
                patch.setattr(adjoint, "_GAUSS_LEGENDRE", np.polynomial.legendre.leggauss(256))
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
        mode0 = floquet.eigenfunction(kotani_orbit, 0.0)  # xdot / rms(xdot)
        xdot = kotani_orbit.xdot_samples
        rms = np.sqrt(np.mean(np.sum(xdot**2, axis=1)))
        q = normalize_amplitude(kotani_z.Q, kotani_orbit, 0.0, mode0)
        assert np.abs(q - kotani_z.Q * (rms / kotani_orbit.omega)).max() < 1e-8

    def test_quadrature_node_insensitivity(self, request, monkeypatch):
        # 64 and 256 nodes agree to 1.8e-15 (kotani) and 1.7e-15 (cortico)
        for config in ("kotani", "cortico"):
            orbit = request.getfixturevalue(f"{config}_orbit")
            mode = request.getfixturevalue(f"{config}_mode")
            q = request.getfixturevalue(f"{config}_q")
            value = adjoint.pairing_functional(orbit, q.series, mode.series, q.mu)
            with monkeypatch.context() as patch:
                patch.setattr(adjoint, "_GAUSS_LEGENDRE", np.polynomial.legendre.leggauss(256))
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
        # one shared, read-only rule from the constant table, which holds
        # numpy's leggauss(64) mirrored from its positive half
        xi, w = adjoint._GAUSS_LEGENDRE
        ref_xi, ref_w = np.polynomial.legendre.leggauss(64)
        assert np.abs(xi - ref_xi).max() <= 1e-15 and np.abs(w - ref_w).max() <= 1e-15
        assert not (xi.flags.writeable or w.flags.writeable)

    @pytest.mark.parametrize("config", ["kotani", "cortico"])
    def test_base_times_in_one_call(self, request, config):
        # an array of base times gives each base time's own value to the bit,
        # for the phase and the amplitude pair (cortico, m = 2, sums over its
        # components); a scalar base time gives a scalar
        orbit = request.getfixturevalue(f"{config}_orbit")
        z, q = (request.getfixturevalue(f"{config}_{name}") for name in ("z", "q"))
        mode = request.getfixturevalue(f"{config}_mode")
        t0s = np.arange(8) * orbit.T / 8.0
        for curve, partner in ((z, orbit.series.derivative()), (q, mode.series)):
            def pairing(t0):
                return adjoint.pairing_functional(orbit, curve.series, partner, curve.mu, t0)

            values = pairing(t0s)
            assert values.shape == (8,)
            assert values.tolist() == [pairing(t0) for t0 in t0s]
            assert np.array_equal(pairing(t0s.reshape(2, 4)), values.reshape(2, 4))
            assert np.ndim(pairing(t0s[3])) == 0
