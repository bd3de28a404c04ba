"""Orchestration shared by the command-line front end and the validators."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import adjoint, floquet
from .config import RunConfig, _finite_real
from .cycle import CycleSeed, PeriodicOrbit, seed_from_ansatz
from .errors import ConfigError, MalformedInput
from .model import ModelSpec, make_model
from .spectral import FourierSeries


def build_model(cfg: RunConfig) -> ModelSpec:
    return make_model(cfg.model.name, **cfg.model.params)


def sinusoid_history(model: ModelSpec, amplitude, period: float):
    amp = np.broadcast_to(np.atleast_1d(np.asarray(amplitude, float)), (model.m,))
    w = 2.0 * np.pi / period

    def history(s):
        s = np.asarray(s, dtype=float)
        return amp * np.cos(w * s)[..., None]

    return history


def check_numbers(path, field: str, values):
    """MalformedInput naming the file and the field unless every value is a
    finite real number; a bool is not one."""
    bad = [v for v in values if not _finite_real(v)]
    if bad:
        raise MalformedInput(f"{path}: {field}: not a finite real number: {bad[0]!r}")


def read_orbit_file(path):
    """The payload of an orbit_coeffs.json file and its Fourier series.

    "coeffs" holds one [re, im] pair per harmonic p = -M..M, grouped per
    component, as `ddehb cycle` writes it; MalformedInput if "T" or
    "coeffs" is missing or not of that form, if T or a coefficient is not
    a finite real number, if T is not positive, or if M < 1.
    """
    with open(path) as fh:
        data = json.load(fh)
    try:
        T, comps = data["T"], data["coeffs"]
        check_numbers(path, "T", [T])
        check_numbers(path, "coeffs", [x for comp in comps for pair in comp for x in pair])
        coeffs = np.array([[complex(re, im) for re, im in comp] for comp in comps]).T
        series = FourierSeries(float(T), coeffs)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(
            f"orbit file {path}: {type(exc).__name__}: {exc}"
        ) from None
    if not series.T > 0 or series.M < 1:
        raise MalformedInput(f"orbit file {path}: need a positive period T "
                             f"and M >= 1, got T={series.T!r}, M={series.M}")
    return data, series


def build_seed(cfg: RunConfig, model: ModelSpec):
    """Seed per config: single-harmonic ansatz, oracle settle, or file."""
    sc = cfg.seed
    if sc.kind == "ansatz":
        return seed_from_ansatz(model.m, sc.amplitude, sc.period_guess, cfg.solver.M), None
    if sc.kind == "oracle":
        from . import oracle  # loaded only for an oracle seed

        settled = oracle.settle_to_cycle(
            model, sinusoid_history(model, sc.amplitude, sc.period_guess), sc.transient,
            dt=sc.dt if sc.dt is not None else model.tau / 64.0, M=cfg.solver.M,
            component=cfg.solver.anchor_component, observe_time=sc.observe_time)
        return settled.seed, settled
    if sc.kind == "file":
        _, series = read_orbit_file(sc.path)
        return CycleSeed(series=series, period=series.T), None
    raise ConfigError(f"unknown seed kind {sc.kind!r}")


@dataclass
class FloquetRun:
    scan: floquet.DetScanResult
    modes: list[floquet.FloquetMode]  # nontrivial, exponents descending
    trivial_mode: floquet.FloquetMode


def run_floquet(cfg: RunConfig, orbit: PeriodicOrbit) -> FloquetRun:
    mu_range = (cfg.scan.mu_min, cfg.scan.mu_max)
    scan = floquet.det_scan(orbit, mu_range, cfg.scan.points)
    exponents = floquet.find_exponents(orbit, mu_range, cfg.scan.points,
                                       cfg.scan.exclude_zero_radius)
    modes = [floquet.eigenfunction(orbit, mu) for mu in exponents]
    trivial = floquet.eigenfunction(orbit, 0.0)
    return FloquetRun(scan=scan, modes=modes, trivial_mode=trivial)


@dataclass
class ResponseRun:
    z: adjoint.ResponseCurve
    q: adjoint.ResponseCurve | None


def run_responses(orbit: PeriodicOrbit, mode: floquet.FloquetMode | None,
                  kinds: str = "both") -> ResponseRun:
    """The phase response and the amplitude response that pairs with mode,
    or only the one kinds names ("phase" or "amplitude").  ConfigError if
    an amplitude response is asked for without a mode."""
    z = q = None
    if kinds in ("both", "phase"):
        z = adjoint.solve_response(orbit)
    if kinds in ("both", "amplitude"):
        if mode is None:
            raise ConfigError("amplitude response requires a refined nontrivial exponent")
        q = adjoint.solve_response(orbit, mode)
    return ResponseRun(z=z, q=q)
