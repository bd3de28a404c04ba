import re
import warnings

import numpy as np
import pytest

import ddehb as d
from ddehb import cli, cycle, pipeline
from ddehb.config import load_config
from ddehb.cycle import SolveOptions, _anchor_at_max, residual
from ddehb.errors import (ConfigError, DivergedToEquilibrium, MaxIterations, NonFiniteState,
                          SingularJacobian)

from conftest import CONFIG_DIR


def cos_samples(M, T=2 * np.pi):
    t = np.arange(-M, M + 1) * (T / (2 * M + 1))
    return np.cos(t)[:, None], t


class TestResidual:
    def test_exact_cycle_residual_vanishes(self, kotani_model):
        X, _ = cos_samples(20)
        r = residual(kotani_model, X, 2 * np.pi, 0)
        assert np.abs(r).max() < 1e-10

    def test_phase_entry_is_cos_derivative_at_zero(self, kotani_model):
        X, _ = cos_samples(20)
        r = residual(kotani_model, X, 2 * np.pi, 0)
        assert abs(r[-1]) < 1e-10

    def test_scaled_profile_has_large_residual(self, kotani_model):
        # evaluating the collocation formula directly at the perturbed point
        X, _ = cos_samples(20)
        r = residual(kotani_model, 1.1 * X, 2 * np.pi, 0)
        assert np.abs(r).max() > 1e-3


class TestSolveCycle:
    def test_kotani_from_single_harmonic(self, kotani_model):
        seed = d.seed_from_ansatz(1, 0.8, 6.0, 20)
        orbit = d.solve_cycle(kotani_model, seed, SolveOptions(M=20))
        assert abs(orbit.T - 2 * np.pi) < 1e-8
        a1 = orbit.series.coeffs[orbit.M + 1, 0]
        assert abs(a1 - 0.5) < 1e-8

    def test_cortico_from_oracle_seed(self, cortico_model, cortico_settle, cortico_orbit):
        assert cortico_orbit.residual_norm <= 1e-8
        assert abs(cortico_settle.seed.T - cortico_orbit.T) / cortico_orbit.T < 1e-3

    def test_cortico_period_independent_of_seed(self, cortico_model, cortico_orbit):
        # the solve stops on its own Newton step, so the settle seed and the
        # ansatz reach one T, not two points within the residual tolerance
        seed = d.seed_from_ansatz(2, [0.05, 0.01], 31.4, 20)
        orbit = d.solve_cycle(cortico_model, seed, SolveOptions(M=20))
        assert abs(orbit.T - cortico_orbit.T) <= 1e-12

    def test_zero_seed_collapses_to_equilibrium(self, kotani_model):
        seed = d.seed_from_ansatz(1, 0.0, 6.0, 20)
        with pytest.raises(DivergedToEquilibrium):
            d.solve_cycle(kotani_model, seed, SolveOptions(M=20))

    @pytest.mark.parametrize("shift", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.5, 5.5])
    def test_time_shifted_seed_converges(self, kotani_model, shift):
        # the seed is anchored at its maximum before the solve, so a seed
        # with another time origin reaches the same cycle, not an
        # equilibrium or -cos t
        base = d.seed_from_ansatz(1, 0.8, 6.0, 20)
        orbit = d.solve_cycle(kotani_model, base.shifted(shift), SolveOptions(M=20))
        assert abs(orbit.T - 2 * np.pi) < 1e-8
        assert np.abs(orbit.X[:, 0] - np.cos(orbit.grid.sample_times)).max() < 1e-8

    def test_anchored_ansatz_seed_is_unshifted(self):
        seed = d.seed_from_ansatz(1, 0.8, 6.0, 20)
        anchored = _anchor_at_max(seed, 0)
        assert np.array_equal(anchored.coeffs, seed.coeffs)

    def test_iteration_budget_enforced(self, kotani_model):
        seed = d.seed_from_ansatz(1, 2.5, 9.0, 20)
        with pytest.raises(MaxIterations):
            d.solve_cycle(kotani_model, seed, SolveOptions(M=20, max_iterations=2))

    def test_singular_newton_matrix(self, kotani_model, monkeypatch):
        # a Newton matrix with a zero T column is exactly singular: its LU
        # factorization meets a zero pivot, and the command line exits 3
        jacobian = cycle._jacobian

        def singular(*args):
            J = jacobian(*args)
            J[:, -1] = 0.0
            return J

        monkeypatch.setattr(cycle, "_jacobian", singular)
        seed = d.seed_from_ansatz(1, 0.8, 6.0, 20)
        with pytest.raises(SingularJacobian, match="the Newton matrix is singular") as exc:
            d.solve_cycle(kotani_model, seed, SolveOptions(M=20))
        assert cli._classify_error(exc.value) == cli.EXIT_CONVERGENCE == 3

    def test_tolerance_below_roundoff_fails_line_search(self, kotani_model):
        # no step can take the residual under 1e-20, so the halving runs out
        # instead of the solve spending its budget at the roundoff floor
        seed = d.seed_from_ansatz(1, 0.8, 6.0, 20)
        with pytest.raises(MaxIterations, match="line search failed"):
            d.solve_cycle(kotani_model, seed, SolveOptions(M=20, tolerance=1e-20))

    @pytest.mark.parametrize("seed_from, amplitude, error, message", [
        ("ansatz", 1e308, NonFiniteState, "non-finite residual at the seed"),
        ("ansatz", 1e100, NonFiniteState, "residual 2-norm overflows at the seed"),
        ("oracle", 1e200, NonFiniteState, "integration blew up at t=0"),
    ], ids=["ansatz-1e308", "ansatz-1e100", "oracle-1e200"])
    def test_overflowing_seed_raises_without_warnings(self, seed_from, amplitude, error,
                                                      message):
        # the overflow is caught by a finiteness check, not reported by numpy
        cfg = load_config(str(CONFIG_DIR / "kotani_fig1.yaml"),
                          [f"seed.amplitude=[{amplitude:g}]"], seed_from=seed_from)
        model = pipeline.build_model(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                seed, _ = pipeline.build_seed(cfg, model)
                d.solve_cycle(model, seed, cfg.solver)

    @pytest.mark.parametrize("field, value, message", [
        ("anchor_component", -1, "anchor_component must name one of the 1 components"),
        ("anchor_component", 1, "anchor_component must name one of the 1 components"),
        ("tolerance", 0.0, "tolerance must be positive"),
        # ended as a MaxIterations convergence failure
        ("max_iterations", 0, "max_iterations must be >= 1, got 0"),
    ])
    def test_options_set_after_construction_are_checked(self, kotani_model, field, value,
                                                         message):
        # the config sets its values on the options after construction, so
        # the solve runs the config's solver rules, where the model's
        # component count is known, with the config's text
        opts = SolveOptions(M=20)
        setattr(opts, field, value)
        with pytest.raises(ConfigError, match=f"^solver.{message}"):
            d.solve_cycle(kotani_model, d.seed_from_ansatz(1, 0.8, 6.0, 20), opts)

    def test_nonpositive_seed_period_rejected(self, kotani_model):
        seed = d.seed_from_ansatz(1, 0.8, 6.0, 20)
        seed.T = -6.0
        with pytest.raises(ValueError, match="period T must be positive"):
            d.solve_cycle(kotani_model, seed, SolveOptions(M=20))

    def test_orbit_samples_match_series(self, kotani_orbit):
        resampled = kotani_orbit.series.evaluate(kotani_orbit.grid.sample_times)
        assert np.abs(resampled - kotani_orbit.X).max() < 1e-12

    def test_fresh_residual_matches_recorded(self, cortico_model, cortico_orbit):
        r = residual(
            cortico_model, cortico_orbit.X, cortico_orbit.T,
            cortico_orbit.anchor_component,
        )
        assert np.abs(r).max() <= 10.0 * max(cortico_orbit.residual_norm, 1e-14)

    def test_anchor_invariance_up_to_time_shift(self, cortico_model, cortico_settle,
                                                cortico_orbit):
        # re-anchor on the second component; seed shifted so that component
        # peaks at t=0, then align the two orbits at the correlation peak
        seed = cortico_settle.seed
        tt = np.linspace(0.0, seed.T, 4096, endpoint=False)
        y = seed.evaluate(tt)[:, 1]
        shifted = seed.shifted(tt[np.argmax(y)])
        orbit_b = d.solve_cycle(
            cortico_model, shifted, SolveOptions(M=20, anchor_component=1)
        )
        assert abs(orbit_b.T - cortico_orbit.T) < 1e-8

        A = cortico_orbit.series.coeffs
        B = orbit_b.series.coeffs
        w = cortico_orbit.series.frequencies
        inner = np.sum(np.conj(A) * B, axis=1)
        ss = np.linspace(0.0, cortico_orbit.T, 8192, endpoint=False)
        corr = np.real(np.exp(1j * np.outer(ss, w)) @ inner)
        s = ss[np.argmax(corr)]
        for _ in range(8):  # polish the correlation peak
            d1 = np.real(np.exp(1j * w * s) @ ((1j * w) * inner))
            d2 = np.real(np.exp(1j * w * s) @ (((1j * w) ** 2) * inner))
            s -= d1 / d2
        tg = cortico_orbit.grid.sample_times
        aligned = orbit_b.series.evaluate(tg + s)
        assert np.abs(aligned - cortico_orbit.X).max() < 1e-8

    def test_period_invariant_under_M_doubling(self, kotani_model):
        # single-harmonic cycle: tail is below 1e-10 at every truncation
        seed = d.seed_from_ansatz(1, 0.8, 6.0, 20)
        T = [
            d.solve_cycle(kotani_model, seed, SolveOptions(M=M)).T for M in (5, 10, 20)
        ]
        for a, b in zip(T, T[1:]):
            assert abs(a - b) / b < 1e-8


class TestSeedFromAnsatz:
    def test_unit_amplitude_samples_to_cosine(self):
        seed = d.seed_from_ansatz(1, 1.0, 2 * np.pi, 20)
        t = np.linspace(0, 2 * np.pi, 50)
        np.testing.assert_allclose(seed.evaluate(t)[:, 0], np.cos(t), atol=1e-14)

    def test_zero_amplitude_gives_zero_seed(self):
        seed = d.seed_from_ansatz(1, 0.0, 5.0, 8)
        assert np.abs(seed.coeffs).max() == 0.0

    def test_two_component_block_seed(self):
        seed = d.seed_from_ansatz(2, [0.1, 0.05], 10.0, 6)
        c = seed.coeffs
        np.testing.assert_allclose(c[7], [0.05, 0.025], atol=1e-15)
        np.testing.assert_allclose(c[5], [0.05, 0.025], atol=1e-15)
        assert np.abs(np.delete(c, [5, 7], axis=0)).max() == 0.0

    def test_rejects_nonpositive_period(self):
        with pytest.raises(ValueError):
            d.seed_from_ansatz(1, 1.0, -1.0, 8)


class TestConvergenceSweep:
    def test_kotani_period_exact_at_every_M(self, kotani_model):
        seed = d.seed_from_ansatz(1, 0.8, 6.0, 20)
        for M in (5, 10, 20):
            orbit = d.solve_cycle(kotani_model, seed, SolveOptions(M=M))
            assert abs(orbit.T - 2 * np.pi) < 1e-8
            assert orbit.series.tail_energy(M // 2) < 1e-20
