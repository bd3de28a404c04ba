import math
import re
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

import ddehb as d
from ddehb import cli, floquet, pipeline
from ddehb.config import load_config
from ddehb.errors import (ConfigError, DegenerateNullspace, GaugeAmbiguous, NonFiniteState,
                          NoRootInBracket, NotSingular)

from conftest import CONFIG_DIR, CORTICO_SCAN, KOTANI_SCAN


class TestStabilityMatrix:
    def test_tangent_annihilated_at_mu_zero(self, kotani_orbit):
        mat = floquet.build_stability_matrix(kotani_orbit, 0.0)
        xdot = kotani_orbit.xdot_samples.ravel()
        assert np.linalg.norm(mat @ xdot) <= 1e-8 * np.linalg.norm(xdot)


def sign_changes(scan):
    """The sign-change brackets (mu_lo, mu_hi) of a scan, in grid order."""
    brackets = floquet._brackets(scan.mu, scan.sign, scan.log_abs_det)
    return [brackets[key] for key in sorted(brackets) if key[0] == 0]


class TestDetScan:
    def test_kotani_roots_at_zero_and_negative(self, kotani_orbit, kotani_mu,
                                               kotani_oracle_floquet):
        scan = floquet.det_scan(kotani_orbit, KOTANI_SCAN)
        brackets = sign_changes(scan)
        assert any(lo <= 0.0 <= hi for lo, hi in brackets)
        assert any(hi < -0.005 for lo, hi in brackets)
        # nontrivial root agrees with the monodromy oracle within 1%
        mu_oracle = kotani_oracle_floquet.leading_nontrivial()
        assert abs(kotani_mu - mu_oracle) / abs(mu_oracle) < 0.01

    def test_cortico_dip_at_paper_value(self, cortico_orbit):
        scan = floquet.det_scan(cortico_orbit, CORTICO_SCAN)
        mus, sigmin = scan.mu, floquet.scan_sigma_min(scan)
        negative = (mus < -1e-3) & (mus > -0.01)
        dip_mu = mus[negative][np.argmin(sigmin[negative])]
        assert abs(dip_mu - (-0.00296)) < 3e-4  # grid-resolution locate

    def test_rootfree_range_bounded_away(self, kotani_orbit):
        scan = floquet.det_scan(kotani_orbit, floquet.ScanOptions(-0.008, -0.001, 40))
        assert sign_changes(scan) == []
        sigmin = floquet.scan_sigma_min(scan)
        assert sigmin.min() > 1e-4
        assert np.all(np.diff(sigmin) < 0)  # single root ahead: monotone approach

    def test_zero_sign_brackets_nothing(self):
        # signs 1, 0, -1, -1, 1: the zero neither closes nor opens a bracket
        scan = floquet.DetScanResult(
            mu=np.arange(5.0), log_abs_det=np.zeros(5),
            sign=np.array([1.0, 0.0, -1.0, -1.0, 1.0]), lin=None,
        )
        assert sign_changes(scan) == [(3.0, 4.0)]

    def test_grid_validation(self, kotani_orbit):
        with pytest.raises(ConfigError, match="^scan.points must lie in 2..100000, got 1$"):
            floquet.det_scan(kotani_orbit, floquet.ScanOptions(-0.1, 0.0, 1))


def test_only_the_scan_file_computes_singular_values(kotani_orbit, monkeypatch):
    # the root search reads the scan's sign and log|det| alone: its SVDs are
    # single matrices of the refinement; only floquet_scan.csv's sigma_min
    # column takes stacked ones, one per SCAN_CHUNK points, in one pass
    calls = Counter()
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls["stacked" if np.ndim(a) == 3 else "single"] += 1
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    single = {}
    for name, call in (
        ("det_scan", lambda: floquet.det_scan(kotani_orbit, KOTANI_SCAN)),
        ("find_exponents", lambda: floquet.find_exponents(kotani_orbit, KOTANI_SCAN)),
        ("leading_exponent", lambda: floquet.leading_exponent(kotani_orbit, KOTANI_SCAN)),
    ):
        calls.clear()
        call()
        assert calls["stacked"] == 0, name
        single[name] = calls["single"]
    assert single["det_scan"] == 0
    cfg = load_config(str(CONFIG_DIR / "kotani_fig1.yaml"))
    calls.clear()
    run = pipeline.run_floquet(cfg, kotani_orbit)
    assert calls["stacked"] == math.ceil(cfg.scan.points / floquet.SCAN_CHUNK) == 20
    # the root search's refinement, and one full SVD per mode, the trivial one included
    assert calls["single"] == single["find_exponents"] + len(run.modes) + 1


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

    def test_search_stops_inside_trivial_zone(self, kotani_orbit, monkeypatch):
        # the bracket of test_trivial_root_recovered: the searches' core
        # gives up once its interval lies within 1e-4 of zero, after a few
        # bisection steps and before the final SVD
        lin = kotani_orbit.linearization
        calls = []
        slogdet = np.linalg.slogdet
        monkeypatch.setattr(np.linalg, "slogdet", lambda a: calls.append(1) or slogdet(a))
        monkeypatch.setattr(np.linalg, "svd", None)  # any SVD call fails
        assert floquet._refine(lin, -0.004, 0.003, 1e-4) is None
        assert len(calls) <= 2 + 7  # the endpoints, then 0.007 / 2^7 < 1e-4

    @pytest.mark.parametrize("bracket, bisected", [((-0.04, 0.01), (-0.06, -0.01)),
                                                   ((-0.035, 0.02), (-0.004, 0.003))])
    def test_golden_section_finds_root(self, kotani_orbit, bracket, bisected):
        # each bracket holds two roots, so det M has one sign at both ends and
        # the refinement descends on sigma_min; it lands on the root that
        # bisection finds in a bracket around that root alone
        lin = kotani_orbit.linearization
        assert floquet._det_sign(lin, bracket[0]) == floquet._det_sign(lin, bracket[1])
        assert floquet._det_sign(lin, bisected[0]) != floquet._det_sign(lin, bisected[1])
        mu = floquet.refine_exponent(kotani_orbit, bracket)
        assert abs(mu - floquet.refine_exponent(kotani_orbit, bisected)) <= 1e-12
        s_min, s_max = floquet._sigma_extremes(lin, mu)
        assert s_min <= 1e-8 * s_max


def rms(R):
    """Root mean square of the per-sample Euclidean norms of samples R."""
    return np.sqrt(np.mean(np.sum(R**2, axis=1)))


class TestEigenfunction:
    def test_cortico_mode_quality(self, cortico_mode):
        assert cortico_mode.residual < 1e-6
        assert abs(rms(cortico_mode.R) - 1.0) < 1e-12

    def test_gauge_convention(self, request):
        # unit RMS, and a positive product with x - mean(x), or with the
        # tangent for the trivial mode, which is the tangent at unit RMS
        for name in ("kotani", "cortico"):
            orbit = request.getfixturevalue(f"{name}_orbit")
            mode = request.getfixturevalue(f"{name}_mode")
            assert np.sum(mode.R * (orbit.X - orbit.X.mean(axis=0))) > 0
            mode0, xdot = floquet.eigenfunction(orbit, 0.0), orbit.xdot_samples
            assert np.sum(mode0.R * xdot) > 0
            assert np.abs(mode0.R - xdot / rms(xdot)).max() <= 1e-9
            assert abs(rms(mode.R) - 1.0) <= 1e-12 and abs(rms(mode0.R) - 1.0) <= 1e-12

    def test_rejects_nonsingular_mu(self, kotani_orbit):
        with pytest.raises(NotSingular, match="not singular"):
            floquet.eigenfunction(kotani_orbit, -0.015)

    def test_gauge_ignores_round_off_and_scale(self):
        # -sin t on the symmetric 41-point grid, whose entries n = -10 and
        # n = 10 tie in magnitude with opposite signs, against a reference at
        # cosine -sin 1 with it: the gauge reads no single entry, so neither
        # a scale nor a nudge of a tied entry moves the gauged samples
        t = 2.0 * np.pi * np.arange(-20, 21) / 41
        R, ref = -np.sin(t)[:, None], np.cos(t - 1.0)[:, None]
        expected = R * floquet.mode_gauge(R, ref)
        assert np.abs(expected - np.sqrt(2.0) * np.sin(t)[:, None]).max() <= 1e-13
        for s in (-1e3, -1.0, -1e-3, 1e-3, 1.0, 1e3):
            assert np.abs(s * R * floquet.mode_gauge(s * R, ref) - expected).max() <= 1e-13
        for i in (10, 30):
            for eps in (-1e-14, 1e-14):
                Rp = R.copy()
                Rp[i, 0] += eps
                assert np.abs(Rp * floquet.mode_gauge(Rp, ref) - expected).max() <= 1e-13

    def test_gauge_rejects_orthogonal_reference(self):
        # sin t against cos t on the 41-point grid: no sign can be read, and
        # the command line exits 3
        t = 2.0 * np.pi * np.arange(-20, 21) / 41
        with pytest.raises(GaugeAmbiguous, match="gauge reference") as exc:
            floquet.mode_gauge(np.sin(t)[:, None], np.cos(t)[:, None])
        assert cli._classify_error(exc.value) == cli.EXIT_CONVERGENCE == 3

    def test_two_dimensional_null_space_is_degenerate(self):
        # diag(0, 0, 1, 2) has two zero singular values: no single
        # eigenfunction spans its null space, and the command line exits 3
        with pytest.raises(DegenerateNullspace, match="two smallest singular values") as exc:
            floquet.simple_null_svd(np.diag([0.0, 0.0, 1.0, 2.0]), -0.01)
        assert cli._classify_error(exc.value) == cli.EXIT_CONVERGENCE == 3


class TestFindExponents:
    def test_kotani_single_nontrivial(self, kotani_orbit, kotani_mu):
        roots = floquet.find_exponents(kotani_orbit, KOTANI_SCAN)
        assert len(roots) == 1
        assert roots[0] == kotani_mu
        assert all(mu < 0 for mu in roots)

    def test_cortico_stable(self, cortico_orbit):
        roots = floquet.find_exponents(cortico_orbit, CORTICO_SCAN)
        assert all(mu < 0 for mu in roots)


class TestLeadingExponent:
    @pytest.mark.parametrize("name, scan", [("kotani", KOTANI_SCAN), ("cortico", CORTICO_SCAN)])
    @pytest.mark.parametrize("M", [20, 40])
    def test_shipped_configs_at_M_and_2M(self, request, name, scan, M):
        orbit = request.getfixturevalue(f"{name}_orbit")
        if M != orbit.M:  # validate's M-doubling solve, from the same seed
            seed = (d.seed_from_ansatz(1, 0.8, 6.0, 20) if name == "kotani"
                    else request.getfixturevalue("cortico_settle").seed)
            orbit = d.solve_cycle(orbit.model, seed, d.SolveOptions(M=M))
        roots = floquet.find_exponents(orbit, scan)
        lead = floquet.leading_exponent(orbit, scan)
        assert lead.mu == roots[0]
        assert lead.points < 200  # the search stopped above the bottom of the scan

    @pytest.mark.parametrize("M", [20, 40])
    def test_one_svd_per_search(self, kotani_orbit, kotani_mu, monkeypatch, M):
        # the search decides its brackets from the LU alone and gives up on
        # the trivial root's bracket inside the exclusion zone, so its one
        # SVD is the singularity check of the root -0.029044
        orbit = (kotani_orbit if M == kotani_orbit.M else
                 d.solve_cycle(kotani_orbit.model, d.seed_from_ansatz(1, 0.8, 6.0, 20),
                               d.SolveOptions(M=M)))
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda *args, **kwargs: calls.append(1) or svd(*args, **kwargs))
        lead = floquet.leading_exponent(orbit, KOTANI_SCAN)
        assert abs(lead.mu - kotani_mu) < 1e-9
        assert len(calls) == 1

    def test_brackets_decided_by_slices(self):
        # the zero sign at 2 brackets nothing; the changes at (6, 7) and
        # (9, 10) hold the dips at 6 and 10, and the dips at 1, 4 and 8 stand
        mu = np.arange(12.0)
        sign = np.array([1, 1, 0, -1, -1, -1, -1, 1, 1, 1, -1, -1], dtype=float)
        logdet = np.array([5, 4, 6, 5, 3, 4, 1, 2, 0.5, 1, 0.2, 0.3])
        full = floquet._brackets(mu, sign, logdet)
        assert full == {(0, 6): (6.0, 7.0), (0, 9): (9.0, 10.0), (1, 1): (0.0, 2.0),
                        (1, 4): (3.0, 5.0), (1, 8): (7.0, 9.0)}
        # a chunk [b, 12) and the points [0, b + 2) below it decide them all,
        # as in leading_exponent, wherever the boundary b falls (b = 4 puts it
        # on the dip at 4, b = 7 inside a sign change)
        for b in range(1, 12):
            upper = floquet._brackets(mu[b:], sign[b:], logdet[b:], b)
            lower = floquet._brackets(mu[: b + 2], sign[: b + 2], logdet[: b + 2])
            assert {**lower, **upper} == full
            assert all(lower[k] == upper[k] for k in lower.keys() & upper.keys())

    def test_stops_only_past_a_gap(self, monkeypatch):
        # on a grid of step 0.5 with exclude_zero_radius 1, the sign changes
        # at (9, 10), (11, 12) and (13, 14) hold the roots 4.9, 5.8 and 6.7:
        # find_exponents keeps 4.9, drops 5.8 as its near-duplicate and keeps
        # 6.7.  After the top chunk [10, 20) the bracket of 4.9 is undecided,
        # and stopping there would keep 5.8 and drop 6.7, so the search must
        # go on although 6.7 lies more than the radius above that bracket
        i = np.arange(20)
        sign = np.where((i <= 9) | ((i >= 12) & (i <= 13)), 1.0, -1.0)
        roots = {(4.5, 5.0): 4.9, (5.5, 6.0): 5.8, (6.5, 7.0): 6.7}

        def fill(scan, chunk):  # no dips: log|det| rises with mu
            scan.sign[chunk], scan.log_abs_det[chunk] = sign[chunk], scan.mu[chunk]

        monkeypatch.setattr(floquet, "SCAN_CHUNK", 10)
        monkeypatch.setattr(floquet, "_scan_matrices", lambda lin, mu, chunk: None)
        monkeypatch.setattr(floquet, "_scan_chunk", fill)
        monkeypatch.setattr(floquet, "_refine", lambda lin, lo, hi, radius: roots[(lo, hi)])
        args = (SimpleNamespace(linearization=None), floquet.ScanOptions(0.0, 9.5, 20, 1.0))
        assert floquet.find_exponents(*args) == [6.7, 4.9]
        assert floquet.leading_exponent(*args) == (6.7, 20)

    def test_overflow_raises_det_scan_message(self, kotani_orbit):
        # e^{-mu tau} overflows at mu = -500; on this grid of step 0.025 the
        # search would find the root in its top chunk, far above: it raises
        # as the full scan does, before any LAPACK call, and so do the
        # singular values of a scan on that grid
        scan = floquet.ScanOptions(-500.0, 0.05, 20003)
        with pytest.raises(NonFiniteState) as full:
            floquet.det_scan(kotani_orbit, scan)
        with pytest.raises(NonFiniteState, match="increase scan.mu_min") as lead:
            floquet.leading_exponent(kotani_orbit, scan)
        with pytest.raises(NonFiniteState) as sigma:
            floquet.scan_sigma_min(floquet._empty_scan(kotani_orbit, scan))
        assert str(lead.value) == str(full.value) == str(sigma.value)

    def test_grid_validation(self, kotani_orbit):
        with pytest.raises(ConfigError, match="^scan.points must lie in 2..100000, got 1$"):
            floquet.leading_exponent(kotani_orbit, floquet.ScanOptions(-0.1, 0.0, 1))

    @pytest.mark.parametrize("search", [floquet.find_exponents, floquet.leading_exponent])
    @pytest.mark.parametrize("scan, message", [
        # returned no root at all
        (floquet.ScanOptions(0.05, -0.2), "scan.mu_max must exceed scan.mu_min"),
        # returned the trivial root, 9.1e-16, as the leading exponent
        (floquet.ScanOptions(exclude_zero_radius=0.0), "scan.exclude_zero_radius must be "
         "positive: it sets the trivial root apart from the nontrivial ones, got 0.0"),
    ], ids=["reversed", "zero-radius"])
    def test_search_checks_its_scan(self, kotani_orbit, search, scan, message):
        # the library runs the config's scan rules, with the config's text
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            search(kotani_orbit, scan)
