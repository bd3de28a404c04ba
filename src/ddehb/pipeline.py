"""Orchestration shared by the command-line front end and the validators."""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import adjoint, floquet
from .config import RunConfig, _finite_real
from .cycle import PeriodicOrbit, seed_from_ansatz
from .errors import ConfigError, MalformedInput, StaleInput
from .model import ModelSpec, make_model
from .spectral import FourierSeries

ORBIT_FILE = "orbit_coeffs.json"  # written by `ddehb cycle`, in orbit_payload form


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


def series_payload(series: FourierSeries) -> dict:
    """The harmonics and coefficients of series as every JSON output holds
    them: one [re, im] pair per harmonic p = -M..M, grouped per component."""
    return {"harmonics": list(range(-series.M, series.M + 1)),
            "coeffs": [[[c.real, c.imag] for c in comp] for comp in series.coeffs.T]}


def orbit_payload(orbit: PeriodicOrbit, cfg: RunConfig) -> dict:
    """The content of the orbit file, ORBIT_FILE, that `ddehb cycle` writes."""
    return {
        "config_hash": cfg.config_hash(),
        "model": cfg.model.name,
        "T": orbit.T,
        "M": orbit.M,
        "anchor_component": orbit.anchor_component,
        "residual_norm": orbit.residual_norm,
        "iterations": orbit.iterations,
        **series_payload(orbit.series),
    }


def read_stage_file(path, cfg: RunConfig | None, producer: str) -> dict:
    """The JSON object that `ddehb <producer>` wrote to path under cfg.

    FileNotFoundError naming the producer if path does not exist,
    MalformedInput unless the file holds a JSON object, StaleInput if its
    config_hash is not that of cfg.  cfg None (a seed file) skips the hash.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise FileNotFoundError(f"missing file {path}; run `ddehb {producer}` first") from None
    except ValueError as exc:  # not JSON, or not UTF-8 text
        raise MalformedInput(f"{path}: not a JSON file: {exc}") from None
    if not isinstance(data, dict):
        raise MalformedInput(f"{path} does not hold a JSON object")
    if cfg is not None and data.get("config_hash") != cfg.config_hash():
        raise StaleInput(f"{path} was produced under a different configuration "
                         f"({data.get('config_hash')} != {cfg.config_hash()})")
    return data


def read_orbit_file(path, model: ModelSpec, cfg: RunConfig | None = None):
    """The payload of an orbit file and its Fourier series (cfg None for a
    seed file, see read_stage_file).  MalformedInput if "T" or "coeffs" is
    missing or not of the series_payload form, if T or a coefficient is not
    a finite real number, if T <= 0, M < 1 or coeffs has not model.m
    components, and if "M" or "harmonics", where present, is not what
    coeffs holds (a seed file may leave them out)."""
    data = read_stage_file(path, cfg, "cycle")
    try:
        T, comps = data["T"], data["coeffs"]
        check_numbers(path, "T", [T])
        check_numbers(path, "coeffs", [x for comp in comps for pair in comp for x in pair])
        if len(comps) != model.m:
            raise MalformedInput(f"{path}: coeffs: expected {model.m} components for "
                                 f"model '{model.name}', got {len(comps)}")
        coeffs = np.array([[complex(re, im) for re, im in comp] for comp in comps]).T
        series = FourierSeries(float(T), coeffs)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"orbit file {path}: {type(exc).__name__}: {exc}") from None
    if not series.T > 0 or series.M < 1:
        raise MalformedInput(f"orbit file {path}: need a positive period T "
                             f"and M >= 1, got T={series.T!r}, M={series.M}")
    M = series.M
    for name, want, text in (("M", M, str(M)),
                             ("harmonics", list(range(-M, M + 1)), f"[{-M}, ..., {M}]")):
        if name in data and (data[name] != want or type(data[name]) is not type(want)):
            raise MalformedInput(f"{path}: {name}: expected {text} for {2 * M + 1} "
                                 f"coefficients, got {reprlib.repr(data[name])}")
    return data, series


def load_orbit(out_dir, cfg: RunConfig) -> PeriodicOrbit:
    """The orbit that `ddehb cycle` wrote to out_dir under cfg.

    MalformedInput, besides the read_orbit_file cases, unless
    residual_norm is a finite real >= 0, iterations an integer and
    anchor_component a component of the model (a bool is no integer).
    """
    path = Path(out_dir) / ORBIT_FILE
    model = build_model(cfg)
    data, series = read_orbit_file(path, model, cfg)
    try:
        anchor, residual, iterations = (
            data[k] for k in ("anchor_component", "residual_norm", "iterations")
        )
    except KeyError as exc:
        raise MalformedInput(f"orbit file {path} lacks the field {exc}") from None
    check_numbers(path, "residual_norm", [residual])
    for name, ok, want in (
        ("residual_norm", residual >= 0, "a number >= 0"),
        ("iterations", type(iterations) is int, "an integer"),
        ("anchor_component", type(anchor) is int and 0 <= anchor < model.m,
         f"a component of the model, 0..{model.m - 1}"),
    ):
        if not ok:
            raise MalformedInput(f"{path}: {name}: expected {want}, got {data[name]!r}")
    return PeriodicOrbit(model, series, anchor, residual, iterations)


def build_seed(cfg: RunConfig, model: ModelSpec):
    """Seed series per config (its T the period guess): single-harmonic
    ansatz, oracle settle, or file; and the settle behind an oracle seed,
    else None."""
    sc = cfg.seed
    if sc.kind == "ansatz":
        return seed_from_ansatz(model.m, sc.amplitude, sc.period_guess, cfg.solver.M), None
    if sc.kind == "oracle":
        from . import oracle  # loaded only for an oracle seed

        settled = oracle.settle_to_cycle(
            model, sinusoid_history(model, sc.amplitude, sc.period_guess), sc.transient,
            dt=sc.dt, M=cfg.solver.M, component=cfg.solver.anchor_component,
            observe_time=sc.observe_time)
        return settled.seed, settled
    if sc.kind == "file":
        return read_orbit_file(sc.path, model)[1], None
    raise ConfigError(f"unknown seed kind {sc.kind!r}")


@dataclass(eq=False)
class FloquetRun:
    """The scan and the Floquet modes of one orbit, as `ddehb floquet` writes them."""

    scan: floquet.DetScanResult
    sigma_min: np.ndarray  # of M(mu) at each scan.mu
    modes: list[floquet.FloquetMode]  # nontrivial, exponents descending
    trivial_mode: floquet.FloquetMode


def run_floquet(cfg: RunConfig, orbit: PeriodicOrbit) -> FloquetRun:
    scan = floquet.det_scan(orbit, cfg.scan)
    sigma_min = floquet.scan_sigma_min(scan)
    exponents = floquet.find_exponents(orbit, cfg.scan)
    modes = [floquet.eigenfunction(orbit, mu) for mu in exponents]
    trivial = floquet.eigenfunction(orbit, 0.0)
    return FloquetRun(scan=scan, sigma_min=sigma_min, modes=modes, trivial_mode=trivial)


def run_responses(orbit: PeriodicOrbit, trivial: floquet.FloquetMode | None,
                  mode: floquet.FloquetMode | None) -> tuple:
    """The pair (z, q): the phase response that scales the trivial mode and
    the amplitude response that scales mode, a nontrivial one, each None
    where its mode is None (adjoint.solve_response)."""
    return tuple(None if m is None else adjoint.solve_response(orbit, m)
                 for m in (trivial, mode))
