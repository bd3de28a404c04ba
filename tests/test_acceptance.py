"""Acceptance gate: every criterion at its stated tolerance.

Each test evaluates one criterion end to end and prints a single
PASS/FAIL line (visible with `pytest -s` or in the captured output).
Heavy artifacts (benchmark orbits, oracle runs) come from the shared
session fixtures, whose wall times feed the runtime budgets.
"""

import numpy as np

import ddehb as d
from ddehb import adjoint, floquet, oracle
from ddehb.spectral import FourierSeries, SpectralGrid, build_operators, sample_to_coeffs

from conftest import CORTICO_SCAN


def _report(number, label, conditions):
    ok = all(v for v, _ in conditions)
    detail = "; ".join(text for _, text in conditions)
    print(f"ACCEPTANCE {number} [{label}]: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {number} ({label}): {detail}"


def test_criterion_1_exact_benchmark_cycle(kotani_orbit, timings):
    T_err = abs(kotani_orbit.T - 2 * np.pi)
    tg = kotani_orbit.grid.sample_times
    profile_err = np.abs(kotani_orbit.X[:, 0] - np.cos(tg)).max()
    runtime = timings["kotani_cycle"]
    _report(
        1,
        "exact benchmark cycle",
        [
            (T_err < 1e-8, f"|T-2pi|={T_err:.2e} (tol 1e-8)"),
            (profile_err < 1e-8, f"sup|x-cos|={profile_err:.2e} (tol 1e-8)"),
            (runtime <= 10.0, f"runtime={runtime:.2f}s (cap 10s)"),
        ],
    )


def test_criterion_2_paper_floquet_exponent(cortico_mu, timings):
    err = abs(cortico_mu - (-0.00296))
    runtime = (
        timings["cortico_settle"] + timings["cortico_cycle"] + timings["cortico_floquet"]
    )
    _report(
        2,
        "paper Floquet exponent",
        [
            (err < 5e-5, f"|mu-(-0.00296)|={err:.2e} (tol 5e-5), mu={cortico_mu:.6f}"),
            (runtime <= 120.0, f"runtime={runtime:.1f}s (cap 120s)"),
        ],
    )


def test_criterion_3_trivial_mode_identity(kotani_orbit, cortico_orbit):
    conditions = []
    for name, orbit in (("kotani", kotani_orbit), ("cortico", cortico_orbit)):
        mat = floquet.build_stability_matrix(orbit, 0.0).matrix
        svals = np.linalg.svd(mat, compute_uv=False)
        ratio = svals[-1] / svals[0]
        mode = floquet.eigenfunction(orbit, 0.0)
        xdot = floquet._fix_mode_gauge(orbit.xdot_samples.copy())
        gap = np.abs(mode.R - xdot).max()
        conditions.append((ratio <= 1e-8, f"{name} sigma ratio={ratio:.1e} (tol 1e-8)"))
        conditions.append((gap <= 1e-6, f"{name} mode-vs-tangent={gap:.1e} (tol 1e-6)"))
    _report(3, "trivial-mode identity", conditions)


def test_criterion_4_fig1_oracle_equivalence(
    kotani_orbit,
    kotani_mode,
    kotani_z,
    kotani_q,
    kotani_rho_oracle,
    kotani_z_oracle,
    kotani_q_oracle,
    timings,
):
    tg = kotani_orbit.grid.sample_times
    z_gap = np.abs(kotani_z_oracle.value(tg) - kotani_z.Q).max()
    q = kotani_q_oracle.value(tg)
    if np.sum(q * kotani_q.Q) < 0:
        q = -q
    q_gap = np.abs(q - kotani_q.Q).max()
    rho = kotani_rho_oracle(tg)
    if np.sum(rho * kotani_mode.R) < 0:
        rho = -rho
    rho_gap = np.abs(rho - kotani_mode.R).max()
    runtime = sum(
        timings[k]
        for k in (
            "kotani_oracle_floquet",
            "kotani_oracle_rho",
            "kotani_oracle_responses",
        )
    )
    _report(
        4,
        "oracle equivalence (Fig. 1)",
        [
            (z_gap <= 1e-3, f"z gap={z_gap:.2e} (tol 1e-3)"),
            (q_gap <= 1e-3, f"q gap={q_gap:.2e} (tol 1e-3)"),
            (rho_gap <= 1e-3, f"eigenfunction gap={rho_gap:.2e} (tol 1e-3)"),
            (runtime <= 300.0, f"oracle runtime={runtime:.1f}s (cap 300s)"),
        ],
    )


def test_criterion_5_direct_perturbation(kotani_model, kotani_orbit, kotani_z):
    phases = np.arange(16) * 2 * np.pi / 16
    prc, prc_half = oracle.direct_prc(
        kotani_model, kotani_orbit, phases, scales=(1.0, 0.5), periods=20
    )
    z_at = kotani_z.value(phases / kotani_orbit.omega)[:, 0]
    rel = np.abs(prc.measured - z_at).max() / np.abs(z_at).max()
    ratio = np.linalg.norm(prc.raw_shifts) / np.linalg.norm(prc_half.raw_shifts)
    _report(
        5,
        "direct-perturbation consistency",
        [
            (rel <= 0.05, f"PRC mismatch={rel:.1%} (tol 5%)"),
            (abs(ratio - 2.0) <= 0.04, f"halving ratio={ratio:.4f} (tol 2%)"),
        ],
    )


def test_criterion_6_normalization_identities(
    kotani_orbit, kotani_mu, kotani_mode, kotani_z, kotani_q,
    cortico_orbit, cortico_mu, cortico_mode, cortico_z, cortico_q,
):
    conditions = []
    cases = (
        ("kotani", kotani_orbit, kotani_mu, kotani_mode, kotani_z, kotani_q),
        ("cortico", cortico_orbit, cortico_mu, cortico_mode, cortico_z, cortico_q),
    )
    for name, orbit, mu, mode, z, q in cases:
        conditions.append(
            (
                z.normalization_residual <= 1e-8,
                f"{name} phase identity={z.normalization_residual:.1e}",
            )
        )
        conditions.append(
            (
                q.normalization_residual <= 1e-8,
                f"{name} amplitude identity={q.normalization_residual:.1e}",
            )
        )
        t0s = np.arange(8) * orbit.T / 8
        tangent = orbit.series.derivative()
        zp = [adjoint.pairing_functional(orbit, z, tangent, 0.0, t0) for t0 in t0s]
        qp = [adjoint.pairing_functional(orbit, q, mode, mu, t0) for t0 in t0s]
        z_spread = max(zp) - min(zp)
        q_spread = max(qp) - min(qp)
        conditions.append((z_spread <= 1e-6, f"{name} phase spread={z_spread:.1e}"))
        conditions.append((q_spread <= 1e-6, f"{name} amplitude spread={q_spread:.1e}"))
    _report(6, "normalization identities", conditions)


def test_criterion_7_spectral_exactness():
    M, T, tau = 20, 2 * np.pi, np.pi / 2
    ops = build_operators(M, T, tau)
    K = 2 * M + 1
    unitary_err = np.abs(ops.S @ ops.S_inv - np.eye(K)).max()

    rng = np.random.default_rng(7)
    series = FourierSeries(
        T, rng.standard_normal((K, 2)) + 1j * rng.standard_normal((K, 2))
    )
    tg = SpectralGrid(M, T).sample_times
    f = series.evaluate(tg)
    d_err = np.abs(ops.D0 @ f - series.derivative().evaluate(tg)).max() / np.abs(
        series.derivative().evaluate(tg)
    ).max()
    s_err = np.abs(ops.Delta @ f - series.evaluate(tg - tau)).max() / np.abs(
        series.evaluate(tg - tau)
    ).max()

    X = rng.standard_normal((K, 2))
    rt_err = np.abs(sample_to_coeffs(X, T).evaluate(tg) - X).max()
    _report(
        7,
        "spectral exactness",
        [
            (d_err <= 1e-10, f"differentiation={d_err:.1e} (tol 1e-10)"),
            (s_err <= 1e-10, f"delay shift={s_err:.1e} (tol 1e-10)"),
            (unitary_err <= 1e-12, f"inverse pair={unitary_err:.1e} (tol 1e-12)"),
            (rt_err <= 1e-12, f"round trip={rt_err:.1e} (tol 1e-12)"),
        ],
    )


def test_criterion_8_convergence_properties(
    kotani_model, kotani_mu, kotani_mu_doubled, cortico_model, cortico_settle,
    cortico_mu, cortico_mu_doubled,
):
    k_gap = abs(kotani_mu_doubled - kotani_mu)
    c_gap = abs(cortico_mu_doubled - cortico_mu)

    def history(s):
        return np.cos(np.asarray(s, dtype=float))[..., None]

    errs = []
    for denom in (16, 32, 64):
        traj = oracle.integrate_dde(
            kotani_model, history, 8 * np.pi, kotani_model.tau / denom
        )
        sel = traj.times >= 0
        errs.append(np.abs(traj.states[sel][:, 0] - np.cos(traj.times[sel])).max())
    order = float(np.mean([np.log2(a / b) for a, b in zip(errs, errs[1:])]))

    rows = d.convergence_sweep(
        cortico_model, cortico_settle.seed, d.SolveOptions(), [10, 20, 40]
    )
    tails = [r.tail_energy for r in rows]
    monotone = all(b < a for a, b in zip(tails, tails[1:]))
    _report(
        8,
        "convergence properties",
        [
            (k_gap <= 1e-6, f"kotani M-doubling={k_gap:.1e} (tol 1e-6)"),
            (c_gap <= 1e-6, f"cortico M-doubling={c_gap:.1e} (tol 1e-6)"),
            (3.5 <= order <= 4.5, f"integrator order={order:.2f}"),
            (monotone, "cortico tail " + " > ".join(f"{x:.1e}" for x in tails)),
        ],
    )


def test_criterion_fig2_analytic_standin(cortico_orbit, cortico_z, cortico_z_oracle):
    # the analytic center-manifold curve is not reprinted; the pinned
    # stand-in is 2% sup-norm relative agreement with the oracle on both
    # phase-response components
    tg = cortico_orbit.grid.sample_times
    gap = np.abs(cortico_z_oracle.value(tg) - cortico_z.Q).max(axis=0)
    scale = np.abs(cortico_z.Q).max(axis=0)
    rel = (gap / scale).max()
    _report(
        9,
        "Fig. 2(B) oracle stand-in",
        [(rel <= 0.02, f"z relative gap={rel:.2%} (tol 2%)")],
    )
