"""Fourier collocation machinery on the symmetric grid t_n = nT/(2M+1).

All operators act on real sample vectors laid out grid-major: an array of
shape (2M+1, m) flattens (C order) to the stacked vector on which the
stability matrix M(mu) acts, from the right for the Floquet modes and
from the left for the response curves.  Complex quantities (the DFT
matrix, the diagonal derivative/delay symbols) stay internal; the public
matrices are the real parts left after symmetrization, with the discarded
imaginary residue bounded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PeriodTooShort

# Largest tolerated imaginary residue, per unit of 2M+1, when realifying
# S L S^-1 and S Gamma S^-1.
IMAG_RESIDUE_BOUND = 1e-12


def grid_times(M: int, T: float) -> np.ndarray:
    """The collocation times t_n = nT/(2M+1) for n = -M..M."""
    return np.arange(-M, M + 1) * (T / (2 * M + 1))


def _frequencies(M: int, T: float) -> np.ndarray:
    """Angular frequencies omega_p = 2 pi p / T for p = -M..M."""
    return np.arange(-M, M + 1) * (2.0 * np.pi / T)


@dataclass(eq=False)
class FourierSeries:
    """Truncated Fourier series sum_p a_p e^{i omega_p t} with a_{-p} = a_p*.

    coeffs has shape (2M+1, m); row index 0 corresponds to p = -M.
    Conjugate symmetry is enforced on construction so the time-domain
    signal is real.
    """

    T: float
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim == 1:
            c = c[:, None]
        if c.shape[0] % 2 != 1:
            raise ValueError("coefficient count must be odd (2M+1)")
        # symmetrize: average a_p with conj(a_{-p})
        self.coeffs = 0.5 * (c + np.conj(c[::-1]))

    @property
    def M(self) -> int:
        return (self.coeffs.shape[0] - 1) // 2

    @property
    def m(self) -> int:
        return self.coeffs.shape[1]

    @property
    def frequencies(self) -> np.ndarray:
        return _frequencies(self.M, self.T)

    def evaluate(self, t) -> np.ndarray:
        """Values at times t, shape t.shape + (m,), by Horner's rule in
        z = e^{i omega t}: x = Re a_0 + 2 Re sum_{p >= 1} a_p z^p.  A value
        read among several times can differ in the last bit from one read
        alone, so adjoint.pairing_functional reads each head alone."""
        t = np.asarray(t, dtype=float)
        M, a = self.M, self.coeffs
        z = np.exp((2j * np.pi / self.T) * t)[..., None]
        acc = np.zeros(t.shape + (self.m,), dtype=complex)
        for p in range(M, 0, -1):
            acc += a[M + p]
            acc *= z
        return a[M].real + 2.0 * acc.real

    def derivative(self) -> "FourierSeries":
        return FourierSeries(self.T, (1j * self.frequencies)[:, None] * self.coeffs)

    def shifted(self, dt: float) -> "FourierSeries":
        """Series of t -> x(t + dt)."""
        return FourierSeries(
            self.T, np.exp(1j * self.frequencies * dt)[:, None] * self.coeffs
        )

    def tail_energy(self, cutoff: int) -> float:
        """Sum of |a_p|^2 over |p| > cutoff, all components."""
        p = np.arange(-self.M, self.M + 1)
        mask = np.abs(p) > cutoff
        return float(np.sum(np.abs(self.coeffs[mask]) ** 2))


@dataclass(eq=False)
class SpectralOperators:
    """DFT matrix and the derived real operators at (M, T) for a delay tau.

    D0 is the real differentiation matrix Re(S L S^-1), L = diag(i omega_p),
    and Delta the real delay matrix Re(S Gamma S^-1).  Delta.T is the exact
    advance (shift by +tau) operator on the same grid.  The mu shift of
    M(mu) lives in cycle.Linearization.
    """

    M: int
    T: float
    S: np.ndarray
    S_inv: np.ndarray
    D0: np.ndarray
    Delta: np.ndarray


def build_operators(M: int, T: float, tau: float) -> SpectralOperators:
    """Assemble the spectral operators for a given (M, T, tau).

    S has entries e^{2 pi i n p/(2M+1)} for n, p = -M..M, L the diagonal
    entries i omega_p and Gamma the delay symbol e^{-i omega_p tau}.  The
    derived matrices D0 and Delta are realified; the discarded imaginary
    magnitude must stay below IMAG_RESIDUE_BOUND * (2M+1), or PeriodTooShort
    is raised.  ValueError unless M is a positive integer, T > 0 and tau >= 0.
    """
    if int(M) != M or M < 1:
        raise ValueError(f"truncation order M must be a positive integer, got {M}")
    if not T > 0:
        raise ValueError(f"period T must be positive, got {T}")
    if tau < 0:
        raise ValueError(f"delay tau must be nonnegative, got {tau}")
    K = 2 * M + 1
    S, S_inv = _dft_pair(M)
    omega_p = _frequencies(M, T)
    Gamma = np.diag(np.exp(-1j * omega_p * tau))

    D_c = (S * (1j * omega_p)) @ S_inv  # S L, bit for bit, by column scaling
    Delta_c = S @ Gamma @ S_inv
    residue = max(np.abs(D_c.imag).max(), np.abs(Delta_c.imag).max())
    if residue > IMAG_RESIDUE_BOUND * K:
        raise PeriodTooShort(
            f"period T={T:.6g} too short for delay tau={tau:.6g} at M={M}: "
            f"imaginary residue {residue:.3e} above bound {IMAG_RESIDUE_BOUND * K:.3e}"
        )
    return SpectralOperators(M=M, T=T, S=S, S_inv=S_inv, D0=D_c.real.copy(),
                             Delta=Delta_c.real.copy())


def _dft_pair(M: int) -> tuple[np.ndarray, np.ndarray]:
    """S = e^{2 pi i n p/(2M+1)} for n, p = -M..M, and S^-1 = conj(S)/(2M+1)."""
    n = np.arange(-M, M + 1)
    S = np.exp(2j * np.pi * np.outer(n, n) / (2 * M + 1))
    return S, np.conj(S) / (2 * M + 1)


def sample_to_coeffs(samples: np.ndarray, T: float) -> FourierSeries:
    """Invert X = S A for samples laid out (2M+1, m) on the grid."""
    X = np.asarray(samples, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.shape[0] % 2 != 1:
        raise ValueError(f"sample count {X.shape[0]} does not match a 2M+1 grid")
    return FourierSeries(T, _dft_pair((X.shape[0] - 1) // 2)[1] @ X)

