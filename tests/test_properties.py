"""Invariance properties of the harmonic-balance path, drawn by Hypothesis."""

import dataclasses
from unittest import mock

import numpy as np
import pytest

import ddehb as d
from ddehb import adjoint, floquet
from ddehb.errors import NoRootInBracket
from ddehb.model import ModelSpec

from conftest import CORTICO_SCAN, KOTANI_SCAN, quadrature_normalized

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

# deterministic draws: the suite must give the same verdict on every run
PROPERTY = settings(deadline=None, derandomize=True, database=None)


def rescaled(model: ModelSpec, alpha: float) -> ModelSpec:
    """The model in the time s = alpha t: y(s) = x(s / alpha) solves
    y' = F(y, y(s - alpha tau)) / alpha."""
    return ModelSpec(
        f"{model.name}_x{alpha:g}",
        model.m,
        alpha * model.tau,
        lambda z0, z1: model.F(z0, z1) / alpha,
    )


@settings(PROPERTY, max_examples=12)
@given(delta=st.floats(0.01, 0.5))
def test_kotani_cycle_is_cosine(delta):
    _assert_kotani_closed_form(delta)


@pytest.mark.parametrize("delta", [0.05, 0.2])
def test_kotani_phase_response_is_closed_form(delta):
    # the two deltas the closed form was first checked at, kept fixed
    _assert_kotani_closed_form(delta)


def _assert_kotani_closed_form(delta):
    # the cycle is cos t of period 2 pi, and z(t) = -8 sin t / (4 + pi delta)
    # on it: the one exact check of F -> Jacobians -> adjoint -> normalization
    orbit = d.solve_cycle(
        d.kotani_scalar(delta), d.seed_from_ansatz(1, 0.8, 6.0, 20), d.SolveOptions(M=20)
    )
    t = orbit.grid.sample_times
    assert abs(orbit.T - 2.0 * np.pi) <= 1e-12
    assert np.abs(orbit.X[:, 0] - np.cos(t)).max() <= 1e-12
    z = adjoint.solve_response(orbit, floquet.eigenfunction(orbit, 0.0))
    assert np.abs(z.Q[:, 0] + 8.0 * np.sin(t) / (4.0 + np.pi * delta)).max() <= 1e-11


def relative_gap(samples, ref):
    return np.abs(samples - ref).max() / np.abs(ref).max()


@settings(PROPERTY, max_examples=8)
@given(alpha=st.floats(0.5, 2.0))
def test_time_rescaling(kotani_model, kotani_orbit, kotani_mu, kotani_mode, kotani_z,
                        kotani_q, alpha):
    model = rescaled(kotani_model, alpha)
    orbit = d.solve_cycle(
        model, d.seed_from_ansatz(1, 0.8, 6.0 * alpha, 20), d.SolveOptions(M=20)
    )
    assert abs(orbit.T - alpha * kotani_orbit.T) <= 1e-8 * alpha * kotani_orbit.T
    scan = floquet.ScanOptions(KOTANI_SCAN.mu_min / alpha, KOTANI_SCAN.mu_max / alpha)
    mu = floquet.find_exponents(orbit, scan)[0]
    assert abs(mu - kotani_mu / alpha) <= 1e-8 * abs(kotani_mu / alpha)
    # the grid samples the same phases of the cycle, and the pairings scale
    # with omega = 1/alpha and e^{-mu tau} stays, so rho, z and q are unchanged
    # (at most 6.4e-14, 7.7e-14 and 1.1e-13 relative over seven alpha in [0.5, 2])
    mode = floquet.eigenfunction(orbit, mu)
    assert relative_gap(mode.R, kotani_mode.R) <= 1e-10
    z = adjoint.solve_response(orbit, floquet.eigenfunction(orbit, 0.0))
    assert relative_gap(z.Q, kotani_z.Q) <= 1e-10
    assert relative_gap(adjoint.solve_response(orbit, mode).Q, kotani_q.Q) <= 1e-10


def _assert_anchor_shift(request, name, scan, fraction):
    # the cycle shifted by s in [0, T) is the same cycle with another time
    # origin, so its exponents cannot move and its rho, z and q are theirs
    # shifted by s; the orbit is shifted, not the seed, because the solver
    # anchors every seed at its maximum
    orbit, mu0, mode, z, q = (request.getfixturevalue(f"{name}_{x}")
                              for x in ("orbit", "mu", "mode", "z", "q"))
    s = fraction * orbit.T
    shifted = dataclasses.replace(orbit, series=orbit.series.shifted(s))
    mu = floquet.find_exponents(shifted, scan)[0]
    assert abs(mu - mu0) <= 1e-8 * abs(mu0)
    mode0_s, mode_s = (floquet.eigenfunction(shifted, m) for m in (0.0, mu))
    for got, curve in ((mode_s.R, mode), (adjoint.solve_response(shifted, mode0_s).Q, z),
                       (adjoint.solve_response(shifted, mode_s).Q, q)):
        expected = curve.series.shifted(s).evaluate(shifted.grid.sample_times)
        assert relative_gap(got, expected) <= 1e-10


# at 0.1, 0.37 and 0.8 T the gaps are at most 1.6e-13 (kotani) and 1.2e-13
# (cortico)
@settings(PROPERTY, max_examples=20)
@given(fraction=st.floats(0.0, 1.0, exclude_max=True))
@example(fraction=0.1)
@example(fraction=0.37)
@example(fraction=0.8)
def test_anchor_shift(request, fraction):
    _assert_anchor_shift(request, "kotani", KOTANI_SCAN, fraction)


@pytest.mark.parametrize("fraction", [0.1, 0.37, 0.8])
def test_cortico_anchor_shift(request, fraction):
    _assert_anchor_shift(request, "cortico", CORTICO_SCAN, fraction)


@pytest.mark.parametrize("name, scan", [("kotani", KOTANI_SCAN), ("cortico", CORTICO_SCAN)])
def test_mode_and_q_independent_of_M(request, name, scan):
    # rho and q at M = 20 and at 2M, from the same seed, agree as curves: at
    # most 8.8e-14 of their peak
    orbit, mode, q = (request.getfixturevalue(f"{name}_{x}") for x in ("orbit", "mode", "q"))
    seed = (d.seed_from_ansatz(1, 0.8, 6.0, 20) if name == "kotani"
            else request.getfixturevalue("cortico_settle").seed)
    orbit2 = d.solve_cycle(orbit.model, seed, d.SolveOptions(M=2 * orbit.M))
    mode2 = floquet.eigenfunction(orbit2, floquet.find_exponents(orbit2, scan)[0])
    t = np.linspace(0.0, orbit.T, 997)
    for curve, curve2 in ((mode, mode2), (q, adjoint.solve_response(orbit2, mode2))):
        assert relative_gap(curve2.series.evaluate(t), curve.series.evaluate(t)) <= 1e-12


def _root_at(position, step=0.005, root=-0.029044149217942475):
    """The mu_min of a scan of the given step that puts the kotani root at
    the fractional grid position."""
    return root - position * step


@settings(PROPERTY, max_examples=40)
@given(lo=st.floats(-0.3, 0.05), width=st.floats(0.005, 0.35),
       points=st.integers(2, 80), chunk=st.sampled_from([1, 2, 7, 10, 25]))
@example(lo=-0.02, width=0.015, points=30, chunk=25)  # no root at all
@example(lo=-0.01, width=0.06, points=40, chunk=25)  # only the trivial root
@example(lo=-0.22, width=0.28, points=4, chunk=25)  # a dip-only bracket holds it
@example(lo=-0.25, width=0.29, points=4, chunk=2)  # a dip-only bracket, trivial root
@example(lo=-0.22, width=0.28, points=4, chunk=2)  # that dip at a chunk's first point
# the root beside the chunk boundaries at grid points 35 and 10 of 60
@example(lo=_root_at(34.5), width=0.295, points=60, chunk=25)
@example(lo=_root_at(35.0), width=0.295, points=60, chunk=25)
@example(lo=_root_at(35.5), width=0.295, points=60, chunk=25)
@example(lo=_root_at(9.5), width=0.295, points=60, chunk=25)
# and beside the 10-point chunks' boundary at grid point 40 of 60
@example(lo=_root_at(39.5), width=0.295, points=60, chunk=10)
@example(lo=_root_at(40.0), width=0.295, points=60, chunk=10)
@example(lo=_root_at(40.5), width=0.295, points=60, chunk=10)
def test_leading_exponent_is_the_first_root(kotani_orbit, lo, width, points, chunk):
    # the top-down search returns find_exponents' first root to the bit,
    # whatever size its chunks have; None where find_exponents finds none
    args = (kotani_orbit, floquet.ScanOptions(lo, lo + width, points))
    roots = floquet.find_exponents(*args)
    with mock.patch.object(floquet, "SCAN_CHUNK", chunk):
        lead = floquet.leading_exponent(*args)
    assert lead.mu == (roots[0] if roots else None)
    assert 2 <= lead.points <= points
    # refining every bracket to the end, with no stop in the trivial root's
    # exclusion zone, keeps the same roots
    scan = floquet.det_scan(*args)
    brackets = floquet._brackets(scan.mu, scan.sign, scan.log_abs_det)

    def refined(bracket):
        try:
            return floquet.refine_exponent(kotani_orbit, bracket)
        except NoRootInBracket:
            return None

    full = [refined(brackets[key]) for key in sorted(brackets)]
    assert floquet._distinct_roots(full, 1e-4) == roots


def raw_null_vector(orbit, mu):
    """The left null vector of M(mu) as solve_response takes it, before
    normalization: the left singular vector the mode at mu carries."""
    return floquet.eigenfunction(orbit, mu).left.reshape(-1, orbit.model.m)


# a factor s in +-[0.1, 10] on the raw null vector
SCALES = st.builds(
    lambda s, sign: s * sign, st.floats(0.1, 10.0), st.sampled_from([-1, 1])
)


def assert_same_curve(Q, ref):
    assert np.abs(Q - ref).max() <= 1e-12 * np.abs(ref).max()


def rescaled_response(orbit, mode, scale):
    """solve_response on the mode with its left null vector scaled."""
    return adjoint.solve_response(orbit, dataclasses.replace(mode, left=scale * mode.left)).Q


@settings(PROPERTY, max_examples=20)
@given(scale=SCALES)
def test_phase_normalization_ignores_scale_and_sign(kotani_orbit, kotani_z, scale):
    mode0 = floquet.eigenfunction(kotani_orbit, 0.0)
    assert_same_curve(rescaled_response(kotani_orbit, mode0, scale), kotani_z.Q)
    raw = raw_null_vector(kotani_orbit, 0.0)
    tangent = kotani_orbit.series.derivative()
    z = quadrature_normalized(scale * raw, kotani_orbit, tangent, 0.0, kotani_orbit.omega)
    assert_same_curve(z, kotani_z.Q)


@settings(PROPERTY, max_examples=20)
@given(scale=SCALES)
def test_amplitude_normalization_ignores_scale_and_sign(
    kotani_orbit, kotani_mu, kotani_mode, kotani_q, scale
):
    assert_same_curve(rescaled_response(kotani_orbit, kotani_mode, scale), kotani_q.Q)
    raw = raw_null_vector(kotani_orbit, kotani_mu)
    q = quadrature_normalized(scale * raw, kotani_orbit, kotani_mode.series, kotani_mu, 1.0)
    assert_same_curve(q, kotani_q.Q)
