"""Limit cycles, Floquet exponents and response curves for DDE oscillators.

The toolkit determines the periodic orbit of a delay-differential
oscillator by harmonic balance, extracts real Floquet exponents and
eigenfunctions from the resulting spectral stability system, and computes
normalized phase and amplitude response curves from the adjoint system.
An independent time-evolution oracle (method of steps, finite-segment
discretization, monodromy and backward-adjoint integration, direct
perturbation) validates every quantity.
"""

__version__ = "0.1.0"

from .adjoint import (
    ResponseCurve,
    build_adjoint_matrix,
    solve_response,
)
from .cycle import (
    CycleSeed,
    PeriodicOrbit,
    SolveOptions,
    convergence_sweep,
    residual,
    seed_from_ansatz,
    solve_cycle,
)
from .floquet import (
    FloquetMode,
    build_stability_matrix,
    det_scan,
    eigenfunction,
    find_exponents,
    refine_exponent,
)
from .model import (
    ModelSpec,
    cortico_thalamic,
    kotani_scalar,
    make_model,
    verify_jacobians,
)
from .oracle import (
    DiscretizedSystem,
    Trajectory,
    direct_prc,
    discretized_adjoint,
    integrate_dde,
    monodromy_exponents,
    oracle_eigenfunction,
    oracle_floquet,
    oracle_responses,
    settle_to_cycle,
)
from .spectral import (
    FourierSeries,
    SpectralGrid,
    SpectralOperators,
    build_operators,
    coeffs_to_samples,
    sample_to_coeffs,
)

__all__ = [
    "__version__",
    "CycleSeed",
    "DiscretizedSystem",
    "FloquetMode",
    "FourierSeries",
    "ModelSpec",
    "PeriodicOrbit",
    "ResponseCurve",
    "SolveOptions",
    "SpectralGrid",
    "SpectralOperators",
    "Trajectory",
    "build_adjoint_matrix",
    "build_operators",
    "build_stability_matrix",
    "coeffs_to_samples",
    "convergence_sweep",
    "cortico_thalamic",
    "det_scan",
    "direct_prc",
    "discretized_adjoint",
    "eigenfunction",
    "find_exponents",
    "integrate_dde",
    "kotani_scalar",
    "make_model",
    "monodromy_exponents",
    "oracle_eigenfunction",
    "oracle_floquet",
    "oracle_responses",
    "refine_exponent",
    "residual",
    "sample_to_coeffs",
    "seed_from_ansatz",
    "settle_to_cycle",
    "solve_cycle",
    "solve_response",
    "verify_jacobians",
]
