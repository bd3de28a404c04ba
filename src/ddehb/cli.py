"""Command-line front end: cycle -> floquet -> response -> validate/export.

Exit codes: 0 success, 2 configuration error, 3 convergence failure,
4 validation failure, 5 I/O failure (including stale inputs whose
manifest hash no longer matches the active configuration, and malformed
input files).

Output files are plot-ready CSV (time column first, then components,
full 17-significant-digit precision) plus JSON metadata; every file
carries the configuration hash so downstream commands refuse mismatched
inputs instead of silently recomputing.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, floquet, pipeline
from .config import RunConfig, load_config
from .cycle import PeriodicOrbit, solve_cycle
from .errors import ConfigError, DdehbError, MalformedInput, NoExponentInRange
from .model import verify_jacobians
from .spectral import coeffs_to_samples

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_VALIDATION = 4
EXIT_IO = 5

_FMT = "%.17g"


class StaleInput(DdehbError):
    """An input file's manifest hash does not match the configuration."""


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray], cfg_hash: str):
    rows = np.column_stack(columns)
    with open(path, "w") as fh:
        fh.write(f"# manifest: {cfg_hash}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_FMT % v for v in row) + "\n")


def _write_curve(path: Path, prefix: str, t: np.ndarray, values: np.ndarray,
                 cfg_hash: str):
    """A sampled curve: the time column t, then columns <prefix>0, <prefix>1, ..."""
    m = values.shape[1]
    _write_csv(path, ["t"] + [f"{prefix}{j}" for j in range(m)],
               [t] + [values[:, j] for j in range(m)], cfg_hash)


def _series_payload(series) -> dict:
    coeffs = series.coeffs
    return {
        "harmonics": list(range(-series.M, series.M + 1)),
        # one [re, im] pair per harmonic p = -M..M, grouped per component
        "coeffs": [
            [[c.real, c.imag] for c in coeffs[:, j]] for j in range(coeffs.shape[1])
        ],
    }


def _orbit_payload(orbit: PeriodicOrbit, cfg: RunConfig) -> dict:
    payload = {
        "config_hash": cfg.config_hash(),
        "model": cfg.model.name,
        "T": orbit.T,
        "M": orbit.M,
        "anchor_component": orbit.anchor_component,
        "residual_norm": orbit.residual_norm,
        "iterations": orbit.iterations,
    }
    payload.update(_series_payload(orbit.series))
    return payload


def _load_orbit(out_dir: Path, cfg: RunConfig) -> PeriodicOrbit:
    path = out_dir / "orbit_coeffs.json"
    if not path.exists():
        raise FileNotFoundError(f"missing orbit file {path}; run `ddehb cycle` first")
    data, series = pipeline.read_orbit_file(path)
    if data.get("config_hash") != cfg.config_hash():
        raise StaleInput(
            f"orbit file {path} was produced under a different configuration "
            f"({data.get('config_hash')} != {cfg.config_hash()})"
        )
    try:
        anchor, residual, iterations = (
            data[k] for k in ("anchor_component", "residual_norm", "iterations")
        )
    except KeyError as exc:
        raise MalformedInput(f"orbit file {path} lacks the field {exc}") from None
    return PeriodicOrbit(
        model=pipeline.build_model(cfg),
        T=series.T,
        M=series.M,
        anchor_component=anchor,
        X=coeffs_to_samples(series),
        series=series,
        residual_norm=residual,
        iterations=iterations,
    )


def _write_manifest(out_dir: Path, cfg: RunConfig, command: str, outputs: list[str],
                    runtime: float, extra: dict | None = None):
    payload = {
        "command": command,
        "config": cfg.resolved(),
        "config_hash": cfg.config_hash(),
        "version": __version__,
        "outputs": outputs,
        "runtime_seconds": runtime,
    }
    if extra:
        payload.update(extra)
    with open(out_dir / f"manifest_{command}.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_cycle(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    out_dir = Path(cfg.output.directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    model = pipeline.build_model(cfg)
    verify_jacobians(model, trials=25, tol=1e-6, seed=cfg.rng_seed)
    seed, settled = pipeline.build_seed(cfg, model)
    orbit = solve_cycle(model, seed, pipeline.solve_options(cfg))

    h = cfg.config_hash()
    _write_curve(out_dir / "orbit.csv", "x", orbit.grid.sample_times, orbit.X, h)
    with open(out_dir / "orbit_coeffs.json", "w") as fh:
        json.dump(_orbit_payload(orbit, cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")
    extra = {"T": orbit.T, "residual_norm": orbit.residual_norm}
    if settled is not None:
        extra["settle_period"] = settled.period
        extra["settle_spread"] = settled.spread
    _write_manifest(out_dir, cfg, "cycle", ["orbit.csv", "orbit_coeffs.json"],
                    time.perf_counter() - t0, extra)
    print(f"cycle: T={orbit.T:.12g} residual={orbit.residual_norm:.3e} "
          f"iterations={orbit.iterations}")
    return EXIT_OK


def cmd_floquet(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    out_dir = Path(cfg.output.directory)
    orbit = _load_orbit(out_dir, cfg)
    run = pipeline.run_floquet(cfg, orbit)

    h = cfg.config_hash()
    pts = run.scan.points
    _write_csv(
        out_dir / "floquet_scan.csv",
        ["mu", "log_abs_det", "sign", "sigma_min"],
        [
            np.array([p.mu for p in pts]),
            np.array([p.log_abs_det for p in pts]),
            np.array([p.sign for p in pts]),
            np.array([p.sigma_min for p in pts]),
        ],
        h,
    )
    tg = orbit.grid.sample_times
    outputs = ["floquet_scan.csv", "exponents.json"]
    entries = []
    named = [("mode_trivial.csv", run.trivial_mode, True)]
    named += [(f"mode_{i}.csv", mode, False) for i, mode in enumerate(run.modes)]
    for name, mode, trivial in named:
        entries.append(
            {
                "mu": mode.mu,
                "trivial": trivial,
                "sigma_min": mode.sigma_min,
                "sigma_max": mode.sigma_max,
                "residual": mode.residual,
                "mode_file": name,
            }
        )
        _write_curve(out_dir / name, "rho", tg, mode.R, h)
        outputs.append(name)
    with open(out_dir / "exponents.json", "w") as fh:
        json.dump({"config_hash": h, "exponents": entries}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    _write_manifest(out_dir, cfg, "floquet", outputs, time.perf_counter() - t0)
    nontrivial = ", ".join(f"{mu:.8g}" for mu in run.exponents) or "none found"
    print(f"floquet: trivial root confirmed; nontrivial exponents: {nontrivial}")
    return EXIT_OK


def _load_leading_exponent(out_dir: Path, cfg: RunConfig):
    path = out_dir / "exponents.json"
    if not path.exists():
        raise FileNotFoundError(
            f"missing exponent file {path}; run `ddehb floquet` first"
        )
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise MalformedInput(f"exponent file {path} does not hold a JSON object")
    if data.get("config_hash") != cfg.config_hash():
        raise StaleInput(f"exponent file {path} is stale for this configuration")
    try:
        nontrivial = [float(e["mu"]) for e in data["exponents"] if not e["trivial"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(
            f"exponent file {path}: each entry needs a numeric 'mu' and 'trivial' "
            f"({type(exc).__name__}: {exc})"
        ) from None
    if not nontrivial:
        raise NoExponentInRange(
            f"no nontrivial Floquet exponent recorded in {path} for the scan range "
            f"[{cfg.scan.mu_min:g}, {cfg.scan.mu_max:g}]; amplitude response unavailable"
        )
    return max(nontrivial)


def cmd_response(cfg: RunConfig, kinds: str = "both") -> int:
    t0 = time.perf_counter()
    out_dir = Path(cfg.output.directory)
    orbit = _load_orbit(out_dir, cfg)
    mu = None
    mode = None
    if kinds in ("both", "amplitude"):
        mu = _load_leading_exponent(out_dir, cfg)
        mode = floquet.eigenfunction(orbit, mu)
    run = pipeline.run_responses(orbit, mu, mode, kinds)

    h = cfg.config_hash()
    tg = orbit.grid.sample_times
    outputs = []
    meta = {"config_hash": h}
    if run.z is not None:
        _write_curve(out_dir / "z.csv", "z", tg, run.z.Q, h)
        outputs.append("z.csv")
        meta["phase"] = {
            "normalization_residual": run.z.normalization_residual,
            "nullvector_residual": run.z.residual,
            **_series_payload(run.z.series),
        }
    if run.q is not None:
        _write_curve(out_dir / "q.csv", "q", tg, run.q.Q, h)
        outputs.append("q.csv")
        meta["amplitude"] = {
            "mu": run.q.mu,
            "normalization_residual": run.q.normalization_residual,
            "nullvector_residual": run.q.residual,
            **_series_payload(run.q.series),
        }
    with open(out_dir / "response_meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(out_dir, cfg, "response", outputs + ["response_meta.json"],
                    time.perf_counter() - t0)
    print(f"response: wrote {', '.join(outputs)}")
    return EXIT_OK


def cmd_validate(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    out_dir = Path(cfg.output.directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    from . import validation  # the one command that loads the oracle

    results = validation.run_validation(cfg)
    for r in results:
        print(r.row())
    n_fail = sum(not r.passed for r in results)
    payload = {
        "config_hash": cfg.config_hash(),
        "passed": n_fail == 0,
        "checks": [
            {
                "name": r.name,
                "passed": r.passed,
                "measured": r.measured,
                "tolerance": r.tolerance,
                "seconds": r.seconds,
                "detail": r.detail,
            }
            for r in results
        ],
        "runtime_seconds": time.perf_counter() - t0,
    }
    with open(out_dir / "validation_report.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"validate: {len(results) - n_fail}/{len(results)} checks passed "
          f"in {payload['runtime_seconds']:.1f}s")
    return EXIT_OK if n_fail == 0 else EXIT_VALIDATION


def cmd_export(cfg: RunConfig) -> int:
    """Full pipeline in one command: cycle, floquet, then both responses."""
    for step in (cmd_cycle, cmd_floquet, cmd_response):
        code = step(cfg)
        if code != EXIT_OK:
            return code
    return EXIT_OK


def _classify_error(exc: Exception) -> int:
    if isinstance(exc, ConfigError):
        return EXIT_CONFIG
    if isinstance(exc, (StaleInput, MalformedInput, FileNotFoundError, OSError,
                        json.JSONDecodeError)):
        return EXIT_IO
    if isinstance(exc, DdehbError):  # every other solver or oracle failure
        return EXIT_CONVERGENCE
    raise exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ddehb",
        description="Limit cycles, Floquet exponents and response curves for "
        "delay-differential oscillators via harmonic balance.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("cycle", "solve the periodic orbit and write orbit files"),
        ("floquet", "scan/refine Floquet exponents from orbit files"),
        ("response", "compute normalized response curves"),
        ("validate", "run the oracle-backed validation table"),
        ("export", "run cycle, floquet and response in sequence"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to YAML run config")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument(
            "--override",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="dotted config override, e.g. model.params.delta=0.1",
        )
        p.add_argument(
            "--seed-from",
            choices=["ansatz", "oracle", "file"],
            default=None,
            help="override the seeding strategy",
        )
        if name == "response":
            p.add_argument(
                "--kind",
                choices=["phase", "amplitude", "both"],
                default="both",
            )
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, args.override, args.out, args.seed_from)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "cycle":
            return cmd_cycle(cfg)
        if args.command == "floquet":
            return cmd_floquet(cfg)
        if args.command == "response":
            return cmd_response(cfg, args.kind)
        if args.command == "validate":
            return cmd_validate(cfg)
        if args.command == "export":
            return cmd_export(cfg)
    except Exception as exc:  # classify into the documented exit codes
        code = _classify_error(exc)
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return code
    return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
