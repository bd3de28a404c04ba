"""Exception types raised by the solvers and the oracle."""


class DdehbError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(DdehbError, ValueError):
    """Invalid or inconsistent run configuration, or options that break its rules."""


class MalformedInput(DdehbError):
    """An input file lacks a field or holds one of the wrong form."""


class StaleInput(DdehbError):
    """An input file's manifest hash does not match the configuration."""


class MaxIterations(DdehbError):
    """Nonlinear solve did not converge within the iteration budget."""


class SingularJacobian(DdehbError):
    """The Newton matrix of the cycle solve is singular."""


class DivergedToEquilibrium(DdehbError):
    """The cycle solve started from or reached a constant (equilibrium) solution."""


class NoRootInBracket(DdehbError):
    """Exponent refinement stagnated without locating a singular point."""


class NoExponentInRange(DdehbError):
    """The exponent scan found no nontrivial root in its range."""


class NotSingular(DdehbError, ValueError):
    """A matrix that must be singular at mu (M(mu), P - e^{mu T} I) is regular."""


class PeriodTooShort(DdehbError, ValueError):
    """The period is too short against the delay at the truncation M: the
    phases omega_p tau of the delay symbol are too large to realify the
    spectral operators exactly."""


class DegenerateNullspace(DdehbError):
    """Two near-equal smallest singular values: multiple eigenfunction."""


class GaugeAmbiguous(DdehbError):
    """A Floquet mode is too near orthogonal to its gauge reference for its
    sign to be fixed."""


class NormalizationSingular(DdehbError):
    """Normalization functional vanished before rescaling."""


class NonFiniteState(DdehbError):
    """Time integration produced a non-finite state."""

    def __init__(self, message, t_last=None):
        super().__init__(message)
        self.t_last = t_last


class NoOscillationDetected(DdehbError):
    """Too few zero crossings to estimate a period."""


class PeriodDrift(DdehbError):
    """Crossing intervals spread too widely for a single period estimate."""


class MonodromyIllConditioned(DdehbError):
    """Unit Floquet multiplier missing from the monodromy spectrum."""


class SlowPhaseDecay(DdehbError):
    """Kicked copies decay onto the cycle too slowly, or not geometrically,
    to extrapolate their phase shift."""
