import math

import numpy as np
import pytest

from ddehb.errors import ConfigError, NonFiniteState
from ddehb.model import (
    ModelSpec,
    cortico_thalamic,
    kotani_scalar,
    make_model,
    verify_jacobians,
)

from conftest import abs_kotani, stuart_landau


# The hand-written Jacobians the models carried before they were derived
# from F by the complex step; kept as references.
def kotani_reference(delta):
    def DF0(z0, z1):
        x, xd = z0[..., 0], z1[..., 0]
        return (delta * (1.0 - 3.0 * x**2 - xd**2))[..., None, None]

    def DF1(z0, z1):
        x, xd = z0[..., 0], z1[..., 0]
        return (-1.0 - 2.0 * delta * x * xd)[..., None, None]

    return DF0, DF1


def cortico_reference(alpha=-0.039, beta=-0.4, gamma=-2.0, delta=-10.0):
    def DF0(z0, z1):
        out = np.zeros(z0.shape[:-1] + (2, 2))
        out[..., 0, 1] = 1.0
        out[..., 1, 0] = alpha + 3.0 * delta * z0[..., 0] ** 2
        out[..., 1, 1] = gamma
        return out

    def DF1(z0, z1):
        out = np.zeros(z0.shape[:-1] + (2, 2))
        out[..., 1, 0] = beta
        return out

    return DF0, DF1


def stuart_landau_reference():
    def DF0(z0, z1):
        x, y = z0[..., 0], z0[..., 1]
        out = np.zeros(z0.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0 - 3.0 * x**2 - y**2
        out[..., 0, 1] = -1.0 - 2.0 * x * y
        out[..., 1, 0] = 1.0 - 2.0 * x * y
        out[..., 1, 1] = 1.0 - x**2 - 3.0 * y**2
        return out

    def DF1(z0, z1):
        return np.zeros(z0.shape[:-1] + (2, 2))

    return DF0, DF1


REFERENCE_IDS = ["kotani", "kotani_0.3", "cortico", "cortico_varied", "stuart_landau"]
REFERENCES = [
    (kotani_scalar(0.05), kotani_reference(0.05)),
    (kotani_scalar(0.3), kotani_reference(0.3)),
    (cortico_thalamic(), cortico_reference()),
    (
        cortico_thalamic(alpha=0.2, beta=1.5, gamma=-0.7, delta=3.0),
        cortico_reference(alpha=0.2, beta=1.5, gamma=-0.7, delta=3.0),
    ),
    (stuart_landau(1.0), stuart_landau_reference()),
]


def float_cast_cortico():
    """Cortico that casts its input to float, dropping the complex step."""
    base = cortico_thalamic()

    def F(z0, z1):
        return base.F(np.asarray(z0, dtype=float), np.asarray(z1, dtype=float))

    return ModelSpec("cortico_cast", 2, base.tau, F, base.params)


class TestKotani:
    def test_rhs_on_cycle_points(self):
        m = kotani_scalar(0.05)
        # x = cos, delayed = sin: at t=0 the derivative vanishes
        assert abs(m.F(np.array([1.0]), np.array([0.0]))[0]) < 1e-15

    def test_rhs_quarter_period(self):
        for delta in (0.01, 0.05, 0.3):
            m = kotani_scalar(delta)
            assert abs(m.F(np.array([0.0]), np.array([1.0]))[0] + 1.0) < 1e-15

    def test_delayed_jacobian_value(self):
        m = kotani_scalar(0.05)
        DF1 = m.jacobians(np.array([0.0]), np.array([1.0]))[1]
        assert abs(DF1[0, 0] + 1.0) < 1e-15

    def test_default_parameters(self):
        assert kotani_scalar().params == {"delta": 0.05}
        assert abs(kotani_scalar().tau - np.pi / 2) < 1e-15


class TestCortico:
    def test_origin_is_equilibrium(self):
        m = cortico_thalamic()
        np.testing.assert_allclose(m.F(np.zeros(2), np.zeros(2)), 0.0)

    def test_constant_delayed_jacobian(self):
        m = cortico_thalamic(beta=-0.4)
        rng = np.random.default_rng(0)
        for _ in range(5):
            z0, z1 = rng.standard_normal(2), rng.standard_normal(2)
            np.testing.assert_allclose(
                m.jacobians(z0, z1)[1], [[0.0, 0.0], [-0.4, 0.0]], atol=1e-15
            )

    def test_instantaneous_jacobian_at_origin(self):
        m = cortico_thalamic(alpha=-0.039, gamma=-2.0)
        J = m.jacobians(np.zeros(2), np.zeros(2))[0]
        np.testing.assert_allclose(J, [[0.0, 1.0], [-0.039, -2.0]], atol=1e-15)

    def test_default_parameters(self):
        p = cortico_thalamic().params
        assert p == {
            "alpha": -0.039,
            "beta": -0.4,
            "gamma": -2.0,
            "delta": -10.0,
            "tau": 8.0,
        }
        assert cortico_thalamic().tau == 8.0

    def test_broadcasting(self):
        m = cortico_thalamic()
        z0 = np.random.default_rng(1).standard_normal((5, 3, 2))
        z1 = np.random.default_rng(2).standard_normal((5, 3, 2))
        assert m.F(z0, z1).shape == (5, 3, 2)
        assert [J.shape for J in m.jacobians(z0, z1)] == [(5, 3, 2, 2)] * 2

    def test_rhs_matches_stacked_form(self):
        # F fills a preallocated buffer; it must equal the stacked formula bit for bit
        a, b, g, d = -0.039, -0.4, -2.0, -10.0
        z0, z1 = np.random.default_rng(3).uniform(-2.0, 2.0, (2, 1000, 2))
        x, y = z0[..., 0], z0[..., 1]
        ref = np.stack([y, g * y + a * x + b * z1[..., 0] + d * x**3], axis=-1)
        np.testing.assert_array_equal(cortico_thalamic().F(z0, z1), ref)


class TestDelayPositive:
    """tau > 0 holds for every model: ModelSpec checks it once."""

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.nan])
    def test_model_spec_rejects(self, tau):
        with pytest.raises(ValueError, match="tau"):
            ModelSpec("lag", 1, tau, lambda z0, z1: -z1)

    def test_cortico_rejects_zero(self):
        with pytest.raises(ValueError, match="tau"):
            cortico_thalamic(tau=0.0)


class TestJacobians:
    @pytest.mark.parametrize("model, reference", REFERENCES, ids=REFERENCE_IDS)
    def test_match_hand_jacobians(self, model, reference):
        rng = np.random.default_rng(4)
        z0 = rng.uniform(-2.0, 2.0, (5, 3, model.m))
        z1 = rng.uniform(-2.0, 2.0, (5, 3, model.m))
        for J, J_ref in zip(model.jacobians(z0, z1), reference):
            ref = J_ref(z0, z1)
            assert J.shape == ref.shape == (5, 3, model.m, model.m)
            assert J.dtype == np.float64
            assert np.abs(J - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_one_call_of_F(self):
        base = cortico_thalamic()
        shapes = []

        def F(z0, z1):
            shapes.append((z0.shape, z1.shape))
            return base.F(z0, z1)

        ModelSpec("counted", 2, base.tau, F).jacobians(np.zeros((7, 2)), np.zeros((7, 2)))
        assert shapes == [((7, 4, 2), (7, 4, 2))]  # 2m perturbed copies per point


class TestVerifyJacobians:
    def test_kotani_passes(self):
        assert verify_jacobians(kotani_scalar(0.05), trials=100, tol=1e-6) < 1e-6

    def test_cortico_passes(self):
        assert verify_jacobians(cortico_thalamic(), trials=100, tol=1e-6) < 1e-6

    def test_abs_located(self):
        with pytest.raises(ConfigError, match=r"'kotani_abs': DF0\[0, 0\] at z0=") as exc:
            verify_jacobians(abs_kotani(), trials=25, tol=1e-6)
        assert "real-analytic" in str(exc.value)

    def test_float_cast_located(self):
        with pytest.warns(Warning, match="imaginary part"):
            with pytest.raises(ConfigError, match=r"'cortico_cast': DF0\[1, 0\] at z0="):
                verify_jacobians(float_cast_cortico(), trials=25, tol=1e-6)

    def test_overflowing_F_located(self):
        # F overflows at delta = 1e308: its NaN differences compared false
        # against tol, so the check passed with numpy warnings
        with pytest.raises(NonFiniteState, match=r"'kotani': F or its DF0 is not finite at z0="):
            verify_jacobians(kotani_scalar(1e308), trials=25, tol=1e-6)

    def test_complex_input_rejected(self):
        def F(z0, z1):  # math.sin takes no complex argument
            return np.reshape([math.sin(v) for v in z0.ravel().tolist()], z0.shape)

        with pytest.raises(ConfigError, match="rejects complex input"):
            verify_jacobians(ModelSpec("loop", 1, 1.0, F), trials=3)

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            verify_jacobians(kotani_scalar(), trials=0)


class TestRegistry:
    def test_builtin_lookup(self):
        assert make_model("kotani", delta=0.1).params["delta"] == 0.1
        assert make_model("cortico").m == 2

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown model"):
            make_model("lorenz")
