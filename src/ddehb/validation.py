"""Oracle-backed validation checks behind `ddehb validate`.

Each check compares a harmonic-balance quantity against the independent
time-evolution oracle (or against an exact property of the benchmark) at
a pinned tolerance and reports one table row.  The acceptance test
module (`tests/test_acceptance.py`) maps each criterion to its rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import adjoint, floquet, oracle, pipeline
from .config import RunConfig
from .cycle import convergence_sweep, solve_cycle
from .errors import NoExponentInRange


@dataclass
class CheckResult:
    name: str
    measured: float
    tolerance: float
    passed: bool
    seconds: float
    detail: str = ""

    def row(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}  {self.name:<38} measured={self.measured:.3e}  "
            f"tol={self.tolerance:.1e}  ({self.seconds:.1f}s)"
        )


def _check(name, measured, tol, t0, detail="", share=1.0):
    """One table row; share is the fraction of the time since t0 credited to
    this check, so a computation serving several checks is split among them."""
    return CheckResult(
        name=name,
        measured=float(measured),
        tolerance=float(tol),
        passed=bool(measured <= tol),
        seconds=share * (time.perf_counter() - t0),
        detail=detail,
    )


def _pairing_spread(orbit, curve, partner, mu, nodes):
    t0s = np.arange(8) * orbit.T / 8.0
    vals = [
        adjoint.pairing_functional(orbit, curve, partner, mu, t0, quad_nodes=nodes)
        for t0 in t0s
    ]
    return max(vals) - min(vals)


def _spectral_checks(results):
    from .spectral import build_operators, sample_to_coeffs

    t0 = time.perf_counter()
    M, T, tau = 24, 2.0 * np.pi, 1.3
    ops = build_operators(M, T, tau)
    K = 2 * M + 1
    results.append(
        _check(
            "spectral.unitary", np.abs(ops.S @ ops.S_inv - np.eye(K)).max(), 1e-12, t0
        )
    )
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal((K, 1)) + 1j * rng.standard_normal((K, 1))
    from .spectral import FourierSeries

    series = FourierSeries(T, coeffs)
    tg = ops.grid.sample_times
    f = series.evaluate(tg)
    df_exact = series.derivative().evaluate(tg)
    fd_exact = series.evaluate(tg - tau)
    scale = max(np.abs(df_exact).max(), np.abs(fd_exact).max())
    err = max(
        np.abs(ops.D0 @ f - df_exact).max(), np.abs(ops.Delta @ f - fd_exact).max()
    )
    results.append(_check("spectral.exact_operators", err / scale, 1e-10, t0))
    t0 = time.perf_counter()
    X = rng.standard_normal((K, 2))
    rt = sample_to_coeffs(X, T)
    err = np.abs(rt.evaluate(tg) - X).max()
    results.append(_check("spectral.roundtrip", err, 1e-12, t0))


def _integrator_order_check(results, model):
    t0 = time.perf_counter()
    T = 2.0 * np.pi

    def history(s):
        return np.cos(np.asarray(s, dtype=float))[..., None]

    errs = []
    denoms = (16, 32, 64)
    for f in denoms:
        traj = oracle.integrate_dde(model, history, 4 * T, model.tau / f)
        sel = traj.times >= 0
        errs.append(
            np.abs(traj.states[sel][:, 0] - np.cos(traj.times[sel])).max()
        )
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    order = float(np.mean(orders))
    results.append(
        _check("oracle.integrator_order", abs(order - 4.0), 0.5, t0,
               detail=f"order={order:.2f}")
    )


def _identity_checks(results, prefix, orbit, z, q, mode, nodes):
    t0 = time.perf_counter()
    results.append(
        _check(f"{prefix}.normalization_phase", z.normalization_residual, 1e-8, t0)
    )
    if q is not None:
        t0 = time.perf_counter()
        results.append(
            _check(
                f"{prefix}.normalization_amplitude", q.normalization_residual, 1e-8, t0
            )
        )
    t0 = time.perf_counter()
    spread = _pairing_spread(orbit, z, orbit.series.derivative(), 0.0, nodes)
    results.append(_check(f"{prefix}.pairing_phase", spread, 1e-6, t0))
    if q is not None and mode is not None:
        t0 = time.perf_counter()
        spread = _pairing_spread(orbit, q, mode, q.mu, nodes)
        results.append(_check(f"{prefix}.pairing_amplitude", spread, 1e-6, t0))


def _trivial_mode_checks(results, prefix, orbit):
    # one SVD of M(0) yields both the singular-value ratio and the mode
    t0 = time.perf_counter()
    mode0 = floquet.eigenfunction(orbit, 0.0)
    xdot = floquet._fix_mode_gauge(orbit.xdot_samples.copy())
    results.append(_check(f"{prefix}.trivial_sigma", mode0.sigma_min / mode0.sigma_max,
                          1e-8, t0, share=0.5))
    results.append(_check(f"{prefix}.trivial_mode", np.abs(mode0.R - xdot).max(), 1e-6,
                          t0, share=0.5))


def _leading_exponent(orbit, scan) -> float:
    roots = floquet.find_exponents(
        orbit, (scan.mu_min, scan.mu_max), scan.points, scan.exclude_zero_radius
    )
    if not roots:
        raise NoExponentInRange(
            f"no nontrivial Floquet exponent in the scan range "
            f"[{scan.mu_min:g}, {scan.mu_max:g}] at M = {orbit.M}"
        )
    return roots[0]


def validate_kotani(cfg: RunConfig) -> list[CheckResult]:
    results: list[CheckResult] = []
    model = pipeline.build_model(cfg)
    nodes = cfg.response.quadrature_nodes

    t_cycle = time.perf_counter()
    seed, _ = pipeline.build_seed(cfg, model)
    opts = pipeline.solve_options(cfg)
    orbit = solve_cycle(model, seed, opts)
    cycle_seconds = time.perf_counter() - t_cycle
    t0 = time.perf_counter()
    results.append(
        _check("kotani.period", abs(orbit.T - 2.0 * np.pi), 1e-8, t_cycle)
    )
    tg = orbit.grid.sample_times
    results.append(
        _check("kotani.cycle_profile", np.abs(orbit.X[:, 0] - np.cos(tg)).max(), 1e-8, t0)
    )
    results.append(
        CheckResult("kotani.cycle_runtime", cycle_seconds, 10.0,
                    cycle_seconds <= 10.0, cycle_seconds)
    )

    _trivial_mode_checks(results, "kotani", orbit)

    t0 = time.perf_counter()
    mu = _leading_exponent(orbit, cfg.scan)
    mode = floquet.eigenfunction(orbit, mu)
    orbit2 = solve_cycle(model, seed, replace(opts, M=2 * opts.M))
    mu2 = _leading_exponent(orbit2, cfg.scan)
    results.append(_check("kotani.exponent_M_doubling", abs(mu - mu2), 1e-6, t0,
                          detail=f"mu={mu:.6f}"))

    z = adjoint.solve_response(orbit, 0.0, "phase", quad_nodes=nodes)
    q = adjoint.solve_response(orbit, mu, "amplitude", floquet_mode=mode,
                               quad_nodes=nodes)
    _identity_checks(results, "kotani", orbit, z, q, mode, nodes)

    # oracle block (criterion: Fig. 1 reproduction within 1e-3, <= 5 min);
    # one oracle_floquet call serves the two spectrum rows: split its time
    t_oracle = time.perf_counter()
    ofl = oracle.oracle_floquet(model, orbit, N=cfg.oracle.N, k=cfg.oracle.exponents,
                                levels=cfg.oracle.levels, seed=cfg.rng_seed)
    mu_oracle = ofl.leading_nontrivial()
    results.append(
        _check("kotani.oracle_unit_multiplier", ofl.unit_multiplier_error, 1e-4,
               t_oracle, share=0.5)
    )
    results.append(
        _check("kotani.oracle_exponent", abs(mu_oracle - mu) / abs(mu), 1e-2, t_oracle,
               detail=f"oracle={mu_oracle:.6f} hb={mu:.6f}", share=0.5)
    )
    t0 = time.perf_counter()
    rho_o = oracle.oracle_eigenfunction(orbit, ofl)
    rho_vals = rho_o(tg)
    rho_vals = floquet._sign_against(rho_vals, mode.R) * rho_vals
    results.append(
        _check("kotani.oracle_eigenfunction", np.abs(rho_vals - mode.R).max(), 1e-3, t0)
    )
    # one backward iteration per chain level yields both z and q: split its time
    t0 = time.perf_counter()
    z_o, q_o = oracle.oracle_responses(orbit, ofl, rho=rho_o, quad_nodes=nodes)
    z_gap = np.abs(z_o.value(tg) - z.Q).max()
    q_vals = q_o.value(tg)
    q_gap = np.abs(floquet._sign_against(q_vals, q.Q) * q_vals - q.Q).max()
    results.append(_check("kotani.oracle_z", z_gap, 1e-3, t0, share=0.5))
    results.append(_check("kotani.oracle_q", q_gap, 1e-3, t0, share=0.5))
    oracle_seconds = time.perf_counter() - t_oracle
    results.append(
        CheckResult("kotani.oracle_runtime", oracle_seconds, 300.0,
                    oracle_seconds <= 300.0, oracle_seconds)
    )

    # direct perturbation (criterion 5); one integration serves both checks
    t0 = time.perf_counter()
    phases = np.arange(cfg.oracle.prc_phases) * 2.0 * np.pi / cfg.oracle.prc_phases
    prc, prc_half = oracle.direct_prc(model, orbit, phases, scales=(1.0, 0.5),
                                      periods=cfg.oracle.prc_periods, dt=cfg.oracle.dt)
    z_at = z.value(phases / orbit.omega)[:, 0]
    rel = np.abs(prc.measured - z_at).max() / np.abs(z_at).max()
    ratio = np.linalg.norm(prc.raw_shifts) / np.linalg.norm(prc_half.raw_shifts)
    results.append(_check("kotani.direct_prc", rel, 0.05, t0, share=0.5))
    results.append(_check("kotani.prc_linearity", abs(ratio - 2.0) / 2.0, 0.02, t0,
                          detail=f"ratio={ratio:.4f}", share=0.5))

    _spectral_checks(results)
    _integrator_order_check(results, model)
    return results


def validate_cortico(cfg: RunConfig) -> list[CheckResult]:
    results: list[CheckResult] = []
    model = pipeline.build_model(cfg)
    nodes = cfg.response.quadrature_nodes

    t_pipe = time.perf_counter()
    seed, settled = pipeline.build_seed(cfg, model)
    opts = pipeline.solve_options(cfg)
    orbit = solve_cycle(model, seed, opts)
    if settled is not None:
        results.append(
            _check("cortico.period_consistency",
                   abs(settled.period - orbit.T) / orbit.T, 1e-3, t_pipe,
                   detail=f"settle={settled.period:.6f} hb={orbit.T:.6f}")
        )
    t0 = time.perf_counter()
    mu = _leading_exponent(orbit, cfg.scan)
    pipe_seconds = time.perf_counter() - t_pipe
    results.append(
        _check("cortico.exponent", abs(mu - (-0.00296)), 5e-5, t0,
               detail=f"mu={mu:.6f}")
    )
    results.append(
        CheckResult("cortico.floquet_runtime", pipe_seconds, 120.0,
                    pipe_seconds <= 120.0, pipe_seconds)
    )

    _trivial_mode_checks(results, "cortico", orbit)

    t0 = time.perf_counter()
    orbit2 = solve_cycle(model, seed, replace(opts, M=2 * opts.M))
    mu2 = _leading_exponent(orbit2, cfg.scan)
    results.append(_check("cortico.exponent_M_doubling", abs(mu - mu2), 1e-6, t0))

    t0 = time.perf_counter()
    rows = convergence_sweep(model, seed, opts, [10, 20, 40])
    tails = [r.tail_energy for r in rows]
    monotone = all(b < a for a, b in zip(tails, tails[1:]))
    results.append(
        CheckResult("cortico.tail_monotone", 0.0 if monotone else 1.0, 0.5,
                    monotone, time.perf_counter() - t0,
                    detail="tails=" + ",".join(f"{x:.2e}" for x in tails))
    )

    mode = floquet.eigenfunction(orbit, mu)
    z = adjoint.solve_response(orbit, 0.0, "phase", quad_nodes=nodes)
    q = adjoint.solve_response(orbit, mu, "amplitude", floquet_mode=mode,
                               quad_nodes=nodes)
    _identity_checks(results, "cortico", orbit, z, q, mode, nodes)

    # oracle agreement: z components within 2% relative sup-norm, exponent 10%
    t0 = time.perf_counter()
    z_o = oracle.oracle_phase_response(model, orbit, N=cfg.oracle.N,
                                       levels=cfg.oracle.levels, quad_nodes=nodes)
    tg = orbit.grid.sample_times
    gaps = np.abs(z_o.value(tg) - z.Q).max(axis=0)
    scales = np.abs(z.Q).max(axis=0)
    results.append(_check("cortico.oracle_z", float((gaps / scales).max()), 0.02, t0))
    # one oracle_floquet call serves the two spectrum rows: split its time
    t0 = time.perf_counter()
    ofl = oracle.oracle_floquet(model, orbit, N=cfg.oracle.N, k=cfg.oracle.exponents,
                                levels=cfg.oracle.levels, seed=cfg.rng_seed)
    mu_oracle = ofl.leading_nontrivial()
    results.append(
        _check("cortico.oracle_exponent", abs(mu_oracle - mu) / abs(mu), 0.1, t0,
               detail=f"oracle={mu_oracle:.6f}", share=0.5)
    )
    results.append(
        _check("cortico.oracle_unit_multiplier", ofl.unit_multiplier_error, 1e-4, t0,
               share=0.5)
    )
    return results


def run_validation(cfg: RunConfig) -> list[CheckResult]:
    if cfg.model.name == "kotani":
        return validate_kotani(cfg)
    if cfg.model.name == "cortico":
        return validate_cortico(cfg)
    raise ValueError(f"no validation suite for model {cfg.model.name!r}")
