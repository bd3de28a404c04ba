"""Shared fixtures: solved benchmark orbits and the expensive oracle runs,
all session-scoped.
"""

from pathlib import Path

import numpy as np
import pytest

import ddehb as d
from ddehb import adjoint, floquet, oracle, pipeline
from ddehb.config import load_config
from ddehb.model import ModelSpec
from ddehb.spectral import sample_to_coeffs

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
KOTANI_SCAN = floquet.ScanOptions(-0.2, 0.05)
CORTICO_SCAN = floquet.ScanOptions(-0.02, 0.01)


def quadrature_normalized(Q, orbit, partner, mu, target):
    """Grid samples Q rescaled so that their quadrature pairing
    (adjoint.pairing_functional) with the series partner is target: the
    reference that cross-checks the grid pairing solve_response scales by."""
    c = adjoint.pairing_functional(orbit, sample_to_coeffs(Q, orbit.T), partner, mu)
    return Q * adjoint.normalization(c, target)


@pytest.fixture(scope="session")
def kotani_model():
    return d.kotani_scalar(0.05)


@pytest.fixture(scope="session")
def kotani_orbit(kotani_model):
    return d.solve_cycle(
        kotani_model, d.seed_from_ansatz(1, 0.8, 6.0, 20), d.SolveOptions(M=20)
    )


@pytest.fixture(scope="session")
def kotani_mu(kotani_orbit):
    return floquet.find_exponents(kotani_orbit, KOTANI_SCAN)[0]


@pytest.fixture(scope="session")
def kotani_mode(kotani_orbit, kotani_mu):
    return floquet.eigenfunction(kotani_orbit, kotani_mu)


@pytest.fixture(scope="session")
def kotani_z(kotani_orbit):
    return adjoint.solve_response(kotani_orbit, floquet.eigenfunction(kotani_orbit, 0.0))


@pytest.fixture(scope="session")
def kotani_q(kotani_orbit, kotani_mode):
    return adjoint.solve_response(kotani_orbit, kotani_mode)


@pytest.fixture(scope="session")
def kotani_oracle_floquet(kotani_orbit):
    return oracle.oracle_floquet(kotani_orbit)


@pytest.fixture(scope="session")
def kotani_oracle_curves(kotani_oracle_floquet):
    """The oracle's eigenfunction, z and q on the kotani orbit."""
    return oracle.oracle_curves(kotani_oracle_floquet)


@pytest.fixture(scope="session")
def cortico_model():
    return d.cortico_thalamic()


@pytest.fixture(scope="session")
def cortico_settle(cortico_model):
    """The settle of the shipped cortico config's oracle seed, made once per
    session; the acceptance reports reuse it."""
    _, settled = pipeline.build_seed(load_config(str(CONFIG_DIR / "cortico_fig2.yaml")),
                                     cortico_model)
    return settled


@pytest.fixture(scope="session")
def cortico_orbit(cortico_model, cortico_settle):
    return d.solve_cycle(cortico_model, cortico_settle.seed, d.SolveOptions(M=20))


@pytest.fixture(scope="session")
def cortico_mu(cortico_orbit):
    return floquet.find_exponents(cortico_orbit, CORTICO_SCAN)[0]


@pytest.fixture(scope="session")
def cortico_mode(cortico_orbit, cortico_mu):
    return floquet.eigenfunction(cortico_orbit, cortico_mu)


@pytest.fixture(scope="session")
def cortico_z(cortico_orbit):
    return adjoint.solve_response(cortico_orbit, floquet.eigenfunction(cortico_orbit, 0.0))


@pytest.fixture(scope="session")
def cortico_q(cortico_orbit, cortico_mode):
    return adjoint.solve_response(cortico_orbit, cortico_mode)


@pytest.fixture(scope="session")
def cortico_oracle_floquet(cortico_orbit):
    return oracle.oracle_floquet(cortico_orbit)


def stuart_landau(tau: float) -> ModelSpec:
    """Planar oscillator with unit cycle and no delayed coupling; the
    delay slot exists but F does not read it."""

    def F(z0, z1):
        x, y = z0[..., 0], z0[..., 1]
        r2 = x**2 + y**2
        return np.stack([x - y - x * r2, x + y - y * r2], axis=-1)

    return ModelSpec("stuart_landau", 2, tau, F)


def mackey_glass(tau: float = 5.0) -> ModelSpec:
    """x' = 0.2 x(t - tau) / (1 + x(t - tau)^10) - 0.1 x, whose DF1 varies
    along the cycle, unlike cortico's."""

    def F(z0, z1):
        return 0.2 * z1 / (1.0 + z1**10) - 0.1 * z0

    return ModelSpec("mackey_glass", 1, tau, F)


def mackey_glass_orbit_at(tau: float):
    """The Mackey-Glass cycle at delay tau, settled from x = 1.2 at the step
    tau / 16 and solved at M = 20."""
    model = mackey_glass(tau)
    settled = oracle.settle_to_cycle(model, lambda s: np.array([1.2]), 600.0,
                                     dt=model.tau / 16, observe_time=300.0)
    return d.solve_cycle(model, settled.seed, d.SolveOptions(M=20))


def abs_kotani(delta: float = 0.05) -> ModelSpec:
    """Kotani with |x|^2 for x^2: the same F on real input, but not
    analytic, so its complex-step Jacobians are wrong."""

    def F(z0, z1):
        return -z1 + delta * z0 * (1.0 - np.abs(z0) ** 2 - z1**2)

    return ModelSpec("kotani_abs", 1, np.pi / 2.0, F, {"delta": delta})


@pytest.fixture(scope="session")
def sl_model():
    return stuart_landau(tau=1.0)


@pytest.fixture(scope="session")
def sl_orbit(sl_model):
    # seed with the exact unit cycle (x, y) = (cos, sin)
    t = np.arange(-20, 21) * (2.0 * np.pi / 41)
    samples = np.stack([np.cos(t), np.sin(t)], axis=-1)
    return d.solve_cycle(sl_model, d.sample_to_coeffs(samples, 2.0 * np.pi),
                         d.SolveOptions(M=20))
