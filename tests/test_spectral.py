import numpy as np
import pytest

from ddehb.spectral import (
    FourierSeries,
    _frequencies,
    build_operators,
    grid_times,
    sample_to_coeffs,
)


def random_series(M, T, m, seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((2 * M + 1, m)) + 1j * rng.standard_normal(
        (2 * M + 1, m)
    )
    return FourierSeries(T, coeffs)  # constructor symmetrizes


class TestGrid:
    def test_sample_times(self):
        t = grid_times(3, 7.0)
        assert t.size == 7
        assert np.all(np.diff(t) > 0)
        np.testing.assert_allclose(t + t[::-1], 0.0, atol=1e-15)
        np.testing.assert_allclose(np.diff(t), 7.0 / 7, rtol=1e-14)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="M must be a positive integer"):
            build_operators(0, 1.0, 0.5)
        with pytest.raises(ValueError, match="M must be a positive integer"):
            build_operators(2.5, 1.0, 0.5)
        with pytest.raises(ValueError, match="period T must be positive"):
            build_operators(4, -2.0, 0.5)
        with pytest.raises(ValueError):
            build_operators(3, 1.0, -0.5)


class TestOperators:
    def test_dft_matrix_M1_entries(self):
        ops = build_operators(1, 2 * np.pi, 0.0)
        n = np.array([-1, 0, 1])
        expected = np.exp(2j * np.pi * np.outer(n, n) / 3.0)
        np.testing.assert_allclose(ops.S, expected, atol=1e-15)

    def test_inverse_pair(self):
        ops = build_operators(20, 2 * np.pi, 1.0)
        K = 41
        assert np.abs(ops.S @ ops.S_inv - np.eye(K)).max() < 1e-12

    def test_differentiates_cosine_M1(self):
        ops = build_operators(1, 2 * np.pi, 0.0)
        t = grid_times(ops.M, ops.T)
        assert np.abs(ops.D0 @ np.cos(t) - (-np.sin(t))).max() < 1e-12

    def test_zero_delay_is_identity(self):
        ops = build_operators(8, 5.0, 0.0)
        np.testing.assert_allclose(ops.Delta, np.eye(17), atol=1e-13)

    def test_mu_shift_and_antisymmetry(self):
        ops = build_operators(6, 3.0, 0.7)
        K = 13
        # D(mu) = Re(S L(mu) S^-1) with L(mu) = diag(mu + i omega_p)
        D = (ops.S @ np.diag(0.25 + 1j * _frequencies(ops.M, ops.T)) @ ops.S_inv).real
        np.testing.assert_allclose(D, 0.25 * np.eye(K) + ops.D0, atol=1e-13)
        np.testing.assert_allclose(ops.D0, -ops.D0.T, atol=1e-12)

    def test_advance_is_transpose_of_delay(self):
        ops = build_operators(7, 4.0, 1.1)
        # fresh construction of Re(S Gamma* S^-1)
        adv_symbol = np.diag(np.exp(1j * _frequencies(ops.M, ops.T) * ops.tau))
        adv = np.real(ops.S @ adv_symbol @ ops.S_inv)
        np.testing.assert_allclose(ops.Delta.T, adv, atol=1e-13)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exact_on_trig_polynomials(self, seed):
        M, T, tau = 12, 5.0, 1.3
        series = random_series(M, T, 2, seed)
        ops = build_operators(M, T, tau)
        t = grid_times(ops.M, ops.T)
        f = series.evaluate(t)
        df = series.derivative().evaluate(t)
        fd = series.evaluate(t - tau)
        fa = series.evaluate(t + tau)
        scale = np.abs(df).max()
        assert np.abs(ops.D0 @ f - df).max() < 1e-10 * scale
        assert np.abs(ops.Delta @ f - fd).max() < 1e-10 * np.abs(fd).max()
        assert np.abs(ops.Delta.T @ f - fa).max() < 1e-10 * np.abs(fa).max()


class TestSampling:
    def test_cosine_coefficients(self):
        series = sample_to_coeffs(np.cos(grid_times(20, 2 * np.pi)), 2 * np.pi)
        c = series.coeffs[:, 0]
        assert abs(c[21] - 0.5) < 1e-12  # p = +1
        assert abs(c[19] - 0.5) < 1e-12  # p = -1
        mask = np.ones(41, dtype=bool)
        mask[[19, 21]] = False
        assert np.abs(c[mask]).max() < 1e-12

    def test_constant_samples(self):
        series = sample_to_coeffs(np.full(9, 3.25), 1.0)
        c = series.coeffs[:, 0]
        assert abs(c[4] - 3.25) < 1e-14
        c4 = c.copy()
        c4[4] = 0
        assert np.abs(c4).max() < 1e-14

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((25, 3))
        series = sample_to_coeffs(X, 4.0)
        assert np.abs(series.evaluate(grid_times(12, 4.0)) - X).max() < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sample_to_coeffs(np.zeros((8, 1)), 1.0)  # even count

    def test_conjugate_symmetry_enforced(self):
        rng = np.random.default_rng(9)
        raw = rng.standard_normal((11, 2)) + 1j * rng.standard_normal((11, 2))
        series = FourierSeries(3.0, raw)
        np.testing.assert_allclose(
            series.coeffs, np.conj(series.coeffs[::-1]), atol=1e-15
        )
        assert np.abs(np.imag(np.sum(series.coeffs * 1.0))) >= 0  # real signal below
        t = np.linspace(0, 3.0, 7)
        phase = np.exp(1j * np.outer(t, series.frequencies))
        complex_val = phase @ series.coeffs
        assert np.abs(complex_val.imag).max() < 1e-13


class TestEvaluate:
    def test_cosine_values(self):
        series = sample_to_coeffs(np.cos(grid_times(20, 2 * np.pi)), 2 * np.pi)
        assert abs(series.evaluate(0.0)[0] - 1.0) < 1e-12
        assert abs(series.evaluate(np.pi / 3)[0] - 0.5) < 1e-12

    def test_periodicity(self):
        series = random_series(9, 3.7, 2, seed=11)
        t = np.linspace(-2.0, 2.0, 17)
        np.testing.assert_allclose(
            series.evaluate(t), series.evaluate(t + 3.7), atol=1e-12
        )

    @pytest.mark.parametrize("M", [0, 1, 20, 40])
    @pytest.mark.parametrize("m", [1, 2])
    def test_horner_matches_phase_matrix(self, M, m):
        # reference: the explicit (points x 2M+1) phase-matrix sum
        series = random_series(M, 3.7, m, seed=M + 10 * m)
        bound = 1e-14 * np.abs(series.coeffs).sum()
        rng = np.random.default_rng(M)
        for t in (1.3, rng.uniform(0.0, 3.7, 257), rng.uniform(-1.85, 1.85, (7, 5))):
            phase = np.exp(1j * np.multiply.outer(np.asarray(t), series.frequencies))
            ref = np.real(phase @ series.coeffs)
            got = series.evaluate(t)
            assert got.shape == np.shape(t) + (m,)
            assert np.abs(got - ref).max() <= bound
