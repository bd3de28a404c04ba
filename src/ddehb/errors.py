"""Exception types raised by the solvers and the oracle."""


class DdehbError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(DdehbError):
    """Invalid or inconsistent run configuration."""


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
    """M(mu) or its adjoint is regular at mu: mu is not a Floquet exponent."""


class DegenerateNullspace(DdehbError):
    """Two near-equal smallest singular values: multiple eigenfunction."""


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
