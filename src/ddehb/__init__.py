"""Limit cycles, Floquet exponents and response curves for DDE oscillators.

The toolkit determines the periodic orbit of a delay-differential
oscillator by harmonic balance, extracts real Floquet exponents and
eigenfunctions from the resulting spectral stability matrix M(mu), and
computes normalized phase and amplitude response curves as the left null
vectors of that same matrix.
An independent time-evolution oracle (method of steps, a pseudospectral
discretization of the delay with its monodromy matrix and forward and
backward eigenvector sweeps, direct perturbation) validates every
quantity.

Importing the package loads no layer.  Each public name is looked up in
its home module on each access (module `__getattr__` over `_HOME`), so a
command pays only for the layers it runs: `ddehb cycle`, `floquet`,
`response` and `export` never load `oracle`, `validation`,
`numpy.random` or `numpy.polynomial` (`ddehb cycle` with an oracle seed
loads `oracle`).  `ddehb validate` loads every layer, but neither
`numpy.random`, since its random test arrays come from the standard
library, nor `numpy.polynomial`, since its Gauss-Legendre rule is a constant
table in `adjoint` and the oracle evaluates its stability polynomial by
`np.polyval`.
The object is returned, not cached, so `vars(ddehb)` holds no layer
object and a function rebound in its home module (by a tracer or a
test) is what the package name gives.
"""

import importlib

__version__ = "0.1.0"

_HOME = {  # home module -> the public names it defines
    "adjoint": ["ResponseCurve", "build_adjoint_matrix", "solve_response"],
    "cycle": ["PeriodicOrbit", "SolveOptions", "residual", "seed_from_ansatz",
              "solve_cycle"],
    "floquet": ["FloquetMode", "ScanOptions", "build_stability_matrix", "det_scan",
                "eigenfunction", "find_exponents", "leading_exponent", "refine_exponent",
                "scan_sigma_min"],
    "model": ["ModelSpec", "cortico_thalamic", "kotani_scalar", "make_model",
              "verify_jacobians"],
    "oracle": ["Trajectory", "direct_prc", "integrate_dde", "oracle_curves",
               "oracle_floquet", "settle_to_cycle"],
    "spectral": ["FourierSeries", "SpectralGrid", "SpectralOperators", "build_operators",
                 "coeffs_to_samples", "sample_to_coeffs"],
}
_MODULE_OF = {name: module for module, names in _HOME.items() for name in names}

__all__ = ["__version__", *sorted(_MODULE_OF)]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
