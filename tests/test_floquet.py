import numpy as np
import pytest

from ddehb import floquet, oracle
from ddehb.errors import NoRootInBracket, NotSingular

from conftest import CORTICO_SCAN, KOTANI_SCAN


class TestStabilityMatrix:
    def test_tangent_annihilated_at_mu_zero(self, kotani_orbit):
        mat = floquet.build_stability_matrix(kotani_orbit, 0.0)
        xdot = kotani_orbit.xdot_samples.ravel()
        assert np.linalg.norm(mat @ xdot) <= 1e-8 * np.linalg.norm(xdot)


class TestDetScan:
    def test_kotani_roots_at_zero_and_negative(self, kotani_orbit, kotani_mu,
                                               kotani_oracle_floquet):
        scan = floquet.det_scan(kotani_orbit, KOTANI_SCAN, 200)
        brackets = scan.sign_changes()
        assert any(lo <= 0.0 <= hi for lo, hi in brackets)
        assert any(hi < -0.005 for lo, hi in brackets)
        # nontrivial root agrees with the monodromy oracle within 1%
        mu_oracle = kotani_oracle_floquet.leading_nontrivial()
        assert abs(kotani_mu - mu_oracle) / abs(mu_oracle) < 0.01

    def test_cortico_dip_at_paper_value(self, cortico_orbit):
        scan = floquet.det_scan(cortico_orbit, CORTICO_SCAN, 200)
        sigmin, mus = scan.sigma_min, scan.mu
        negative = (mus < -1e-3) & (mus > -0.01)
        dip_mu = mus[negative][np.argmin(sigmin[negative])]
        assert abs(dip_mu - (-0.00296)) < 3e-4  # grid-resolution locate

    def test_rootfree_range_bounded_away(self, kotani_orbit):
        scan = floquet.det_scan(kotani_orbit, (-0.008, -0.001), 40)
        assert scan.sign_changes() == []
        sigmin = scan.sigma_min
        assert sigmin.min() > 1e-4
        assert np.all(np.diff(sigmin) < 0)  # single root ahead: monotone approach

    def test_zero_sign_brackets_nothing(self):
        # signs 1, 0, -1, -1, 1: the zero neither closes nor opens a bracket
        scan = floquet.DetScanResult(
            mu=np.arange(5.0), log_abs_det=np.zeros(5),
            sign=np.array([1.0, 0.0, -1.0, -1.0, 1.0]), sigma_min=np.ones(5),
        )
        assert scan.sign_changes() == [(3.0, 4.0)]

    def test_grid_validation(self, kotani_orbit):
        with pytest.raises(ValueError):
            floquet.det_scan(kotani_orbit, (-0.1, 0.0), 1)


class TestRefineExponent:
    def test_trivial_root_recovered(self, kotani_orbit):
        mu = floquet.refine_exponent(kotani_orbit, (-0.004, 0.003))
        assert abs(mu) < 1e-8

    def test_cortico_paper_value(self, cortico_orbit):
        mu = floquet.refine_exponent(cortico_orbit, (-0.01, -0.001))
        assert abs(mu - (-0.00296)) < 5e-5

    def test_kotani_matches_monodromy_oracle(self, kotani_orbit, kotani_oracle_floquet):
        mu = floquet.refine_exponent(kotani_orbit, (-0.06, -0.01))
        mu_oracle = kotani_oracle_floquet.leading_nontrivial()
        assert abs(mu - mu_oracle) / abs(mu_oracle) < 0.01

    def test_no_root_in_bracket(self, kotani_orbit):
        with pytest.raises(NoRootInBracket):
            floquet.refine_exponent(kotani_orbit, (-0.02, -0.01))

    @pytest.mark.parametrize("bracket, bisected", [((-0.04, 0.01), (-0.06, -0.01)),
                                                   ((-0.035, 0.02), (-0.004, 0.003))])
    def test_golden_section_finds_root(self, kotani_orbit, bracket, bisected):
        # each bracket holds two roots, so det M has one sign at both ends and
        # the refinement descends on sigma_min; it lands on the root that
        # bisection finds in a bracket around that root alone
        lin = floquet.orbit_linearization(kotani_orbit)
        assert floquet._det_sign(lin, bracket[0]) == floquet._det_sign(lin, bracket[1])
        assert floquet._det_sign(lin, bisected[0]) != floquet._det_sign(lin, bisected[1])
        mu = floquet.refine_exponent(kotani_orbit, bracket)
        assert abs(mu - floquet.refine_exponent(kotani_orbit, bisected)) <= 1e-12
        s_min, s_max = floquet._sigma_extremes(lin, mu)
        assert s_min <= 1e-8 * s_max


class TestEigenfunction:
    def test_cortico_mode_quality(self, cortico_mode):
        assert cortico_mode.residual < 1e-6
        assert abs(np.linalg.norm(cortico_mode.R, axis=1).max() - 1.0) < 1e-12

    def test_gauge_convention(self, kotani_mode, cortico_mode):
        for mode in (kotani_mode, cortico_mode):
            idx = np.unravel_index(np.argmax(np.abs(mode.R)), mode.R.shape)
            assert mode.R[idx] > 0

    def test_rejects_nonsingular_mu(self, kotani_orbit):
        with pytest.raises(NotSingular, match="not singular"):
            floquet.eigenfunction(kotani_orbit, -0.015)

    def test_gauge_tie_break_ignores_round_off(self):
        # -sin t on the symmetric 41-point grid: entries n = -10 and n = 10
        # tie exactly in magnitude with opposite signs
        t = 2.0 * np.pi * np.arange(-20, 21) / 41
        R = -np.sin(t)[:, None]
        mag = np.abs(R[:, 0])
        tied = np.flatnonzero(mag == mag.max())
        assert list(tied) == [10, 30]
        expected = floquet._fix_mode_gauge(R)
        winners = set()
        for i in tied:
            for eps in (-1e-14, 1e-14):
                Rp = R.copy()
                Rp[i, 0] += eps * np.sign(Rp[i, 0])
                winners.add(int(np.argmax(np.abs(Rp))))
                gauged = floquet._fix_mode_gauge(Rp)
                assert np.sign(gauged[10, 0]) == np.sign(expected[10, 0])
                assert np.abs(gauged - expected).max() < 1e-13
        assert winners == {10, 30}  # the perturbations do move argmax
        P = np.stack([R[:, 0], 0.5 * np.cos(t)], axis=1)
        np.testing.assert_array_equal(
            oracle._mode_gauge(P), floquet._fix_mode_gauge(P)
        )


class TestFindExponents:
    def test_kotani_single_nontrivial(self, kotani_orbit, kotani_mu):
        roots = floquet.find_exponents(kotani_orbit, KOTANI_SCAN, 200)
        assert len(roots) == 1
        assert roots[0] == kotani_mu
        assert all(mu < 0 for mu in roots)

    def test_cortico_stable(self, cortico_orbit):
        roots = floquet.find_exponents(cortico_orbit, CORTICO_SCAN, 200)
        assert all(mu < 0 for mu in roots)
