"""Oracle-backed validation checks behind `ddehb validate`.

Each check compares a harmonic-balance quantity against the independent
time-evolution oracle (or against an exact property of the benchmark) at
a pinned tolerance and reports one table row.  One suite serves every
model (`run_validation`), and one table (`SUITES`) holds what differs by
model.  The acceptance test module (`tests/test_acceptance.py`) maps each
criterion to its rows.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, replace

import numpy as np

from . import adjoint, cycle, floquet, oracle, pipeline, spectral
from .config import RunConfig

# This module loads on demand, so a wrapper installed on cycle.solve_cycle
# or spectral.build_operators when it loads would stay bound here after
# being removed from its module: the solves call cycle.solve_cycle and the
# spectral checks spectral.build_operators.  solve_cycle stays importable
# from here for code that reads it (bench/test_bench.py).
from .cycle import PeriodicOrbit, solve_cycle  # noqa: F401
from .errors import ConfigError, NoExponentInRange
from .spectral import FourierSeries, sample_to_coeffs


@dataclass
class CheckResult:
    """One row of the validation table."""

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


def _check(name, measured, tol, seconds, detail=""):
    """The one constructor of a table row.  Plain float and bool fields keep
    every report serializable whatever type the measurement has."""
    return CheckResult(name, float(measured), float(tol), bool(measured <= tol),
                       seconds, detail)


def _since(t0, share=1.0):
    """Seconds since t0 credited to one row; share splits a computation that
    serves several rows among them."""
    return share * (time.perf_counter() - t0)


def _pairing_spread(orbit, curve, partner, mu):
    vals = adjoint.pairing_functional(orbit, curve, partner, mu, np.arange(8) * orbit.T / 8.0)
    return vals.max() - vals.min()


def _spectral_checks(results):
    t0 = time.perf_counter()
    M, T, tau = 24, 2.0 * np.pi, 1.3
    ops = spectral.build_operators(M, T, tau)
    K = 2 * M + 1
    results.append(
        _check(
            "spectral.unitary", np.abs(ops.S @ ops.S_inv - np.eye(K)).max(), 1e-12,
            _since(t0),
        )
    )
    t0 = time.perf_counter()
    # standard normal test arrays from the stdlib random.Random, so that
    # validate does not load numpy.random
    rng = random.Random(5)

    def normal(*shape):
        return np.reshape([rng.gauss(0.0, 1.0) for _ in range(math.prod(shape))], shape)

    coeffs = normal(K, 1) + 1j * normal(K, 1)
    series = FourierSeries(T, coeffs)
    tg = ops.grid.sample_times
    f = series.evaluate(tg)
    df_exact = series.derivative().evaluate(tg)
    fd_exact = series.evaluate(tg - tau)
    scale = max(np.abs(df_exact).max(), np.abs(fd_exact).max())
    err = max(
        np.abs(ops.D0 @ f - df_exact).max(), np.abs(ops.Delta @ f - fd_exact).max()
    )
    results.append(_check("spectral.exact_operators", err / scale, 1e-10, _since(t0)))
    t0 = time.perf_counter()
    X = normal(K, 2)
    rt = sample_to_coeffs(X, T)
    err = np.abs(rt.evaluate(tg) - X).max()
    results.append(_check("spectral.roundtrip", err, 1e-12, _since(t0)))


def _integrator_order_check(results, model):
    t0 = time.perf_counter()
    T = 2.0 * np.pi

    def history(s):
        return np.cos(np.asarray(s, dtype=float))[..., None]

    errs = []
    denoms = (16, 32, 64)
    for f in denoms:  # one period: the order reads the same as over more
        traj = oracle.integrate_dde(model, history, T, model.tau / f)
        sel = traj.times >= 0
        errs.append(
            np.abs(traj.states[sel][:, 0] - np.cos(traj.times[sel])).max()
        )
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    order = float(np.mean(orders))
    results.append(
        _check("oracle.integrator_order", abs(order - 4.0), 0.5, _since(t0),
               detail=f"order={order:.2f}")
    )


def _leading_exponent(orbit, scan: floquet.ScanOptions) -> floquet.LeadingExponent:
    lead = floquet.leading_exponent(orbit, scan)
    if lead.mu is None:
        raise NoExponentInRange(
            f"no nontrivial Floquet exponent in the scan range "
            f"[{scan.mu_min:g}, {scan.mu_max:g}] at M = {orbit.M}"
        )
    return lead


@dataclass
class _Stage:
    """The spectral pipeline the suite checks at M and 2M, with the seconds of its parts."""

    seed: FourierSeries
    settled: oracle.SettleResult | None  # the settle behind an oracle seed
    orbit: PeriodicOrbit
    mu: float  # leading nontrivial exponent
    series2: FourierSeries  # the seed solved at 2M; the orbit would keep its (A0, B)
    mu2: float  # leading nontrivial exponent at 2M
    search: str  # grid points each search evaluated, of the scan's: "70/200,70/200"
    solve_seconds: float  # seed (settle included) and cycle solve
    exponent_seconds: float  # leading-exponent search
    doubling_seconds: float  # solve and exponent search at 2M


def _solve_stage(cfg: RunConfig) -> _Stage:
    model = pipeline.build_model(cfg)
    t0 = time.perf_counter()
    seed, settled = pipeline.build_seed(cfg, model)
    orbit = cycle.solve_cycle(model, seed, cfg.solver)
    t1 = time.perf_counter()
    lead = _leading_exponent(orbit, cfg.scan)
    t2 = time.perf_counter()
    orbit2 = cycle.solve_cycle(model, seed, replace(cfg.solver, M=2 * cfg.solver.M))
    lead2 = _leading_exponent(orbit2, cfg.scan)
    search = ",".join(f"{x.points}/{cfg.scan.points}" for x in (lead, lead2))
    return _Stage(seed, settled, orbit, lead.mu, orbit2.series, lead2.mu, search,
                  t1 - t0, t2 - t1, time.perf_counter() - t2)


def _spectral_rows(results, prefix, st: _Stage):
    """Trivial-mode, M-doubling and normalization-identity rows of a suite;
    returns the leading mode and the responses z and q."""
    # one SVD of M(0) yields the singular-value ratio, the mode and z
    t0 = time.perf_counter()
    mode0 = floquet.eigenfunction(st.orbit, 0.0)
    xdot = st.orbit.xdot_samples
    xdot *= floquet.mode_gauge(xdot, xdot)
    half = _since(t0, 0.5)
    results.append(_check(f"{prefix}.trivial_sigma", mode0.sigma_min / mode0.sigma_max,
                          1e-8, half))
    results.append(_check(f"{prefix}.trivial_mode", np.abs(mode0.R - xdot).max(), 1e-6,
                          half))

    results.append(_check(f"{prefix}.exponent_M_doubling", abs(st.mu - st.mu2), 1e-6,
                          st.doubling_seconds,
                          detail=f"mu={st.mu:.6f} points={st.search}"))

    mode = floquet.eigenfunction(st.orbit, st.mu)
    z, q = (adjoint.solve_response(st.orbit, m) for m in (mode0, mode))
    for kind, curve in (("phase", z), ("amplitude", q)):
        results.append(_check(f"{prefix}.normalization_{kind}",
                              curve.normalization_residual, 1e-8, 0.0))
    for kind, curve, partner in (("phase", z, st.orbit.series.derivative()),
                                 ("amplitude", q, mode.series)):
        t0 = time.perf_counter()
        spread = _pairing_spread(st.orbit, curve.series, partner, curve.mu)
        results.append(_check(f"{prefix}.pairing_{kind}", spread, 1e-6, _since(t0)))
    return mode, z, q


def _oracle_rows(results, prefix, st: _Stage, refs, tols, relative) -> float:
    """The oracle rows at tols, and the seconds of its two calls.  A curve's
    gap to its spectral samples refs = (rho, z, q) is the largest on the
    collocation grid, relative to each component's peak if relative.  Both
    sides gauge rho by floquet.mode_gauge and scale z and q by their pairings,
    so no curve is sign-aligned: a sign disagreement fails its row."""
    unit_tol, exponent_tol, *curve_tols = tols
    tg = st.orbit.grid.sample_times
    t_oracle = time.perf_counter()
    ofl = oracle.oracle_floquet(st.orbit)
    mu_oracle = ofl.leading_nontrivial()
    half = _since(t_oracle, 0.5)
    results.append(_check(f"{prefix}.oracle_unit_multiplier", ofl.unit_multiplier_error,
                          unit_tol, half))
    results.append(_check(f"{prefix}.oracle_exponent", abs(mu_oracle - st.mu) / abs(st.mu),
                          exponent_tol, half, detail=f"oracle={mu_oracle:.6f} hb={st.mu:.6f}"))
    # one oracle_curves call yields rho, z and q: split its time
    t0 = time.perf_counter()
    curves = oracle.oracle_curves(ofl)
    third = _since(t0, 1.0 / 3.0)
    for kind, curve, ref, tol in zip(("eigenfunction", "z", "q"), curves, refs, curve_tols):
        gaps = np.abs(curve(tg) - ref).max(axis=0)
        gap = (gaps / np.abs(ref).max(axis=0) if relative else gaps).max()
        results.append(_check(f"{prefix}.oracle_{kind}", gap, tol, third))
    return _since(t_oracle)


def _kotani_stage_rows(cfg: RunConfig, st: _Stage) -> list[CheckResult]:
    """The exact cycle x(t) = cos t, T = 2 pi, and the solve's time."""
    orbit = st.orbit
    profile = np.abs(orbit.X[:, 0] - np.cos(orbit.grid.sample_times)).max()
    return [
        _check("kotani.period", abs(orbit.T - 2.0 * np.pi), 1e-8, st.solve_seconds),
        _check("kotani.cycle_profile", profile, 1e-8, 0.0),
        _check("kotani.cycle_runtime", st.solve_seconds, 10.0, st.solve_seconds),
    ]


def _kotani_response_rows(st: _Stage, z, oracle_seconds: float) -> list[CheckResult]:
    """The oracle's time (Fig. 1 in <= 5 min), the direct PRC against z
    (criterion 5), the spectral operators and the integrator's order."""
    orbit = st.orbit
    results = [_check("kotani.oracle_runtime", oracle_seconds, 300.0, oracle_seconds)]
    # one integration serves both direct-perturbation rows.  The PRC gap, 5.5e-4
    # on the shipped config, is the O(eps) term of the pulse (5.3e-4 at a step
    # of tau/64), so its tolerance is twice it; the linearity, 6.6e-8, gets 1e-6
    t0 = time.perf_counter()
    phases = np.arange(oracle.PRC_PHASES) * 2.0 * np.pi / oracle.PRC_PHASES
    prc, prc_half = oracle.direct_prc(orbit, phases, scales=(1.0, 0.5))
    z_at = z.value(phases / orbit.omega)[:, 0]
    rel = np.abs(prc.measured - z_at).max() / np.abs(z_at).max()
    ratio = np.linalg.norm(prc.raw_shifts) / np.linalg.norm(prc_half.raw_shifts)
    # mu_flow: the decay rate of the kicked copies, from the flow alone
    results.append(_check("kotani.direct_prc", rel, 1.1e-3, _since(t0, 0.5),
                          detail=f"mu_flow={prc.mu_flow:.6f}"))
    results.append(_check("kotani.prc_linearity", abs(ratio - 2.0) / 2.0, 1e-6,
                          _since(t0, 0.5), detail=f"ratio={ratio:.4f}"))
    _spectral_checks(results)
    _integrator_order_check(results, orbit.model)
    return results


def _cortico_stage_rows(cfg: RunConfig, st: _Stage) -> list[CheckResult]:
    """The settle's period, the paper's exponent, the pipeline's time and the
    Fourier tails at M/2, M and 2M.  ConfigError where M/2 has no harmonic."""
    if cfg.solver.M < 2:
        raise ConfigError(f"cortico.tail_monotone solves the cycle at solver.M // 2, "
                          f"so solver.M must be at least 2 (got {cfg.solver.M})")
    orbit, mu = st.orbit, st.mu
    settled, settle_seconds = st.settled, st.solve_seconds
    if settled is None:  # the seed is no settle: settle from the config's seed settings
        t0 = time.perf_counter()
        _, settled = pipeline.build_seed(replace(cfg, seed=replace(cfg.seed, kind="oracle")),
                                         orbit.model)
        settle_seconds = _since(t0)
    pipe_seconds = st.solve_seconds + st.exponent_seconds
    results = [
        _check("cortico.period_consistency", abs(settled.seed.T - orbit.T) / orbit.T, 1e-3,
               settle_seconds, detail=f"settle={settled.seed.T:.6f} hb={orbit.T:.6f}"),
        _check("cortico.exponent", abs(mu - (-0.00296)), 5e-5, st.exponent_seconds,
               detail=f"mu={mu:.6f}"),
        _check("cortico.floquet_runtime", pipe_seconds, 120.0, pipe_seconds),
    ]
    t0 = time.perf_counter()
    half = cycle.solve_cycle(orbit.model, st.seed, replace(cfg.solver, M=cfg.solver.M // 2))
    tails = [s.tail_energy(s.M // 2) for s in (half.series, orbit.series, st.series2)]
    monotone = all(b < a for a, b in zip(tails, tails[1:]))
    results.append(_check("cortico.tail_monotone", 0.0 if monotone else 1.0, 0.5,
                          _since(t0), detail="tails=" + ",".join(f"{x:.2e}" for x in tails)))
    return results


# What differs by model: the oracle tolerances (unit multiplier, exponent, rho,
# z, q), each at least 100 times the gap measured on the shipped config (cortico:
# from its settle seed and from the ansatz seed), whether the curve gaps are
# relative, and the model's own rows before and after the shared ones.
SUITES = {
    "kotani": ((1e-11, 1e-11, 1e-11, 1e-9, 2e-9), False, _kotani_stage_rows,
               _kotani_response_rows),
    "cortico": ((1e-7, 2e-10, 1e-10, 1e-6, 5e-10), True, _cortico_stage_rows,
                lambda st, z, oracle_seconds: []),
}


def run_validation(cfg: RunConfig) -> list[CheckResult]:
    """The validation table of cfg's model: after the stage, the model's own
    rows that read only the stage, the shared spectral rows, the shared
    oracle rows, then the model's own rows that read z or the oracle time.
    ValueError for a model with no entry in SUITES."""
    if cfg.model.name not in SUITES:
        raise ValueError(f"no validation suite for model {cfg.model.name!r}")
    tols, relative, stage_rows, response_rows = SUITES[cfg.model.name]
    st = _solve_stage(cfg)
    results = stage_rows(cfg, st)
    mode, z, q = _spectral_rows(results, cfg.model.name, st)
    oracle_seconds = _oracle_rows(results, cfg.model.name, st, (mode.R, z.Q, q.Q), tols,
                                  relative)
    return results + response_rows(st, z, oracle_seconds)
