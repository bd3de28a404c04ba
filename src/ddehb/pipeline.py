"""Orchestration shared by the command-line front end and the validators."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import adjoint, floquet
from .config import RunConfig
from .cycle import CycleSeed, PeriodicOrbit, SolveOptions, seed_from_ansatz
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


def read_orbit_file(path):
    """The payload of an orbit_coeffs.json file and its Fourier series.

    "coeffs" holds one [re, im] pair per harmonic p = -M..M, grouped per
    component, as `ddehb cycle` writes it; MalformedInput if "T" or
    "coeffs" is missing or not of that form.
    """
    with open(path) as fh:
        data = json.load(fh)
    try:
        coeffs = np.array(
            [[complex(re, im) for re, im in comp] for comp in data["coeffs"]]
        ).T
        return data, FourierSeries(float(data["T"]), coeffs)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(
            f"orbit file {path}: {type(exc).__name__}: {exc}"
        ) from None


def build_seed(cfg: RunConfig, model: ModelSpec):
    """Seed per config: single-harmonic ansatz, oracle settle, or file."""
    sc = cfg.seed
    if sc.kind == "ansatz":
        return seed_from_ansatz(model.m, sc.amplitude, sc.period_guess, cfg.solver.M), None
    if sc.kind == "oracle":
        from . import oracle  # loaded only for an oracle seed

        dt = sc.dt if sc.dt is not None else model.tau / 64.0
        opts = oracle.SettleOptions(
            dt=dt,
            M=cfg.solver.M,
            component=cfg.solver.anchor_component,
            observe_time=sc.observe_time,
        )
        history = sinusoid_history(model, sc.amplitude, sc.period_guess)
        settled = oracle.settle_to_cycle(model, history, sc.transient, opts)
        return settled.seed, settled
    if sc.kind == "file":
        _, series = read_orbit_file(sc.path)
        return CycleSeed(series=series, period=series.T), None
    raise ConfigError(f"unknown seed kind {sc.kind!r}")


def solve_options(cfg: RunConfig) -> SolveOptions:
    return SolveOptions(
        M=cfg.solver.M,
        anchor_component=cfg.solver.anchor_component,
        tolerance=cfg.solver.tolerance,
        max_iterations=cfg.solver.max_iterations,
    )


@dataclass
class FloquetRun:
    scan: floquet.DetScanResult
    exponents: list[float]  # nontrivial, descending
    modes: list[floquet.FloquetMode]
    trivial_mode: floquet.FloquetMode


def run_floquet(cfg: RunConfig, orbit: PeriodicOrbit) -> FloquetRun:
    scan = floquet.det_scan(orbit, (cfg.scan.mu_min, cfg.scan.mu_max), cfg.scan.points)
    exponents = floquet.find_exponents(
        orbit,
        (cfg.scan.mu_min, cfg.scan.mu_max),
        cfg.scan.points,
        cfg.scan.exclude_zero_radius,
    )
    modes = [floquet.eigenfunction(orbit, mu) for mu in exponents]
    trivial = floquet.eigenfunction(orbit, 0.0)
    return FloquetRun(scan=scan, exponents=exponents, modes=modes, trivial_mode=trivial)


@dataclass
class ResponseRun:
    z: adjoint.ResponseCurve
    q: adjoint.ResponseCurve | None


def run_responses(
    orbit: PeriodicOrbit,
    mu: float | None,
    mode: floquet.FloquetMode | None,
    kinds: str = "both",
) -> ResponseRun:
    z = None
    q = None
    if kinds in ("both", "phase"):
        z = adjoint.solve_response(orbit, 0.0, "phase")
    if kinds in ("both", "amplitude"):
        if mu is None or mode is None:
            raise ConfigError("amplitude response requires a refined nontrivial exponent")
        q = adjoint.solve_response(orbit, mu, "amplitude", floquet_mode=mode)
    return ResponseRun(z=z, q=q)
