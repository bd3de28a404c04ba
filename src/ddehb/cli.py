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
import dataclasses
import gc
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, floquet, pipeline
from .config import RunConfig, load_config
from .cycle import PeriodicOrbit, solve_cycle
from .errors import ConfigError, DdehbError, MalformedInput, NoExponentInRange, StaleInput
from .model import verify_jacobians

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_VALIDATION = 4
EXIT_IO = 5

_FMT = "%.17g"


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray], cfg_hash: str):
    rows = np.column_stack(columns).tolist()  # Python floats format faster
    with open(path, "w") as fh:
        fh.write(f"# manifest: {cfg_hash}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_FMT % v for v in row) + "\n")


def _write_json(path: Path, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_curve(path: Path, prefix: str, t: np.ndarray, values: np.ndarray,
                 cfg_hash: str):
    """A sampled curve: the time column t, then columns <prefix>0, <prefix>1, ..."""
    m = values.shape[1]
    _write_csv(path, ["t"] + [f"{prefix}{j}" for j in range(m)],
               [t] + [values[:, j] for j in range(m)], cfg_hash)


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
    _write_json(out_dir / f"manifest_{command}.json", payload)


def cmd_cycle(cfg: RunConfig) -> int:
    _cycle(cfg, time.perf_counter())
    return EXIT_OK


def _cycle(cfg: RunConfig, t0: float) -> PeriodicOrbit:
    """Solve the orbit, write the files of `ddehb cycle` and return the
    orbit; the manifest's runtime counts from t0."""
    model = pipeline.build_model(cfg)
    verify_jacobians(model, trials=25, tol=1e-6, seed=cfg.rng_seed)
    seed, settled = pipeline.build_seed(cfg, model)
    orbit = solve_cycle(model, seed, cfg.solver)

    h = cfg.config_hash()
    out_dir = Path(cfg.output.directory)
    out_dir.mkdir(parents=True, exist_ok=True)  # not before: a failed run writes nothing
    _write_curve(out_dir / "orbit.csv", "x", orbit.sample_times, orbit.X, h)
    _write_json(out_dir / pipeline.ORBIT_FILE, pipeline.orbit_payload(orbit, cfg))
    extra = {"T": orbit.T, "residual_norm": orbit.residual_norm}
    if settled is not None:
        extra["settle_period"] = settled.seed.T
        extra["settle_spread"] = settled.spread
    _write_manifest(out_dir, cfg, "cycle", ["orbit.csv", pipeline.ORBIT_FILE],
                    time.perf_counter() - t0, extra)
    print(f"cycle: T={orbit.T:.12g} residual={orbit.residual_norm:.3e} "
          f"iterations={orbit.iterations}")
    return orbit


def cmd_floquet(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    _floquet(cfg, pipeline.load_orbit(Path(cfg.output.directory), cfg), t0)
    return EXIT_OK


def _floquet(cfg: RunConfig, orbit: PeriodicOrbit, t0: float) -> pipeline.FloquetRun:
    """Scan and refine the exponents of orbit, write the files of `ddehb
    floquet` and return the run; the manifest's runtime counts from t0."""
    run = pipeline.run_floquet(cfg, orbit)

    h = cfg.config_hash()
    out_dir = Path(cfg.output.directory)
    scan = run.scan
    _write_csv(out_dir / "floquet_scan.csv", ["mu", "log_abs_det", "sign", "sigma_min"],
               [scan.mu, scan.log_abs_det, scan.sign, run.sigma_min], h)
    tg = orbit.sample_times
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
    _write_json(out_dir / "exponents.json", {"config_hash": h, "exponents": entries})
    _write_manifest(out_dir, cfg, "floquet", outputs, time.perf_counter() - t0)
    nontrivial = ", ".join(f"{m.mu:.8g}" for m in run.modes) or "none found"
    print(f"floquet: trivial root confirmed; nontrivial exponents: {nontrivial}")
    return run


def _no_exponent(path: Path, cfg: RunConfig) -> NoExponentInRange:
    """The error of an exponent file at path that lists no nontrivial exponent."""
    return NoExponentInRange(
        f"no nontrivial Floquet exponent recorded in {path} for the scan range "
        f"[{cfg.scan.mu_min:g}, {cfg.scan.mu_max:g}]; amplitude response unavailable"
    )


def _load_leading_exponent(out_dir: Path, cfg: RunConfig):
    """The largest nontrivial exponent in the exponent file of out_dir.
    MalformedInput also for a nontrivial mu within scan.exclude_zero_radius
    of 0, the floquet stage's trivial root, which would pair as z."""
    path = out_dir / "exponents.json"
    data = pipeline.read_stage_file(path, cfg, "floquet")
    try:
        entries = [(e["mu"], e["trivial"]) for e in data["exponents"]]
    except (KeyError, TypeError) as exc:
        raise MalformedInput(
            f"exponent file {path}: each entry needs a numeric 'mu' and 'trivial' "
            f"({type(exc).__name__}: {exc})"
        ) from None
    pipeline.check_numbers(path, "mu", [mu for mu, _ in entries])
    for _, trivial in entries:
        if type(trivial) is not bool:
            raise MalformedInput(f"{path}: trivial: expected true or false, got {trivial!r}")
    nontrivial = [float(mu) for mu, trivial in entries if not trivial]
    radius = cfg.scan.exclude_zero_radius
    near_zero = [mu for mu in nontrivial if abs(mu) < radius]
    if near_zero:
        raise MalformedInput(f"{path}: mu: a nontrivial exponent {near_zero[0]!r} lies "
                             f"within scan.exclude_zero_radius = {radius:g} of 0")
    if not nontrivial:
        raise _no_exponent(path, cfg)
    return max(nontrivial)


def cmd_response(cfg: RunConfig, kind: str = "both") -> int:
    """Scale the responses that kind names: the phase response of the trivial
    mode unless kind is "amplitude", the amplitude response of the leading
    mode unless it is "phase".  The exponent file is read before any SVD."""
    t0 = time.perf_counter()
    out_dir = Path(cfg.output.directory)
    orbit = pipeline.load_orbit(out_dir, cfg)
    mu = None if kind == "phase" else _load_leading_exponent(out_dir, cfg)
    trivial = None if kind == "amplitude" else floquet.eigenfunction(orbit, 0.0)
    mode = None if mu is None else floquet.eigenfunction(orbit, mu)
    _response(cfg, orbit, trivial, mode, t0)
    return EXIT_OK


def _response(cfg: RunConfig, orbit: PeriodicOrbit, trivial: floquet.FloquetMode | None,
              mode: floquet.FloquetMode | None, t0: float):
    """Scale the trivial mode to z and mode to q where given, and write the
    files of `ddehb response`; the manifest's runtime counts from t0."""
    z, q = pipeline.run_responses(orbit, trivial, mode)

    h = cfg.config_hash()
    out_dir = Path(cfg.output.directory)
    tg = orbit.sample_times
    outputs = []
    meta = {"config_hash": h}
    for name, kind, curve in (("z", "phase", z), ("q", "amplitude", q)):
        if curve is None:
            continue
        _write_curve(out_dir / f"{name}.csv", name, tg, curve.Q, h)
        outputs.append(f"{name}.csv")
        meta[kind] = {"normalization_residual": curve.normalization_residual,
                      "nullvector_residual": curve.residual,
                      **pipeline.series_payload(curve.series)}
        if kind == "amplitude":
            meta[kind]["mu"] = curve.mu
    _write_json(out_dir / "response_meta.json", meta)
    _write_manifest(out_dir, cfg, "response", outputs + ["response_meta.json"],
                    time.perf_counter() - t0)
    print(f"response: wrote {', '.join(outputs)}")


def cmd_validate(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    from . import validation  # the one command that loads the oracle

    results = validation.run_validation(cfg)
    for r in results:
        print(r.row())
    n_fail = sum(not r.passed for r in results)
    payload = {
        "config_hash": cfg.config_hash(),
        "passed": n_fail == 0,
        "checks": [dataclasses.asdict(r) for r in results],
        "runtime_seconds": time.perf_counter() - t0,
    }
    out_dir = Path(cfg.output.directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "validation_report.json", payload)
    print(f"validate: {len(results) - n_fail}/{len(results)} checks passed "
          f"in {payload['runtime_seconds']:.1f}s")
    return EXIT_OK if n_fail == 0 else EXIT_VALIDATION


def cmd_export(cfg: RunConfig) -> int:
    """Full pipeline in one command: cycle, floquet, then both responses.

    It writes the files of the three stage commands, byte for byte, but
    each stage takes the orbit and the modes of the one before from
    memory: the orbit that solve_cycle returned (load_orbit reads back the
    same to the bit), the trivial mode for z and the leading nontrivial
    mode, modes[0], for q.  With no nontrivial exponent it stops after the
    floquet files, as `ddehb response` would on them.
    """
    orbit = _cycle(cfg, time.perf_counter())
    run = _floquet(cfg, orbit, time.perf_counter())
    if not run.modes:
        raise _no_exponent(Path(cfg.output.directory) / "exponents.json", cfg)
    _response(cfg, orbit, run.trivial_mode, run.modes[0], time.perf_counter())
    return EXIT_OK


def _classify_error(exc: Exception) -> int:
    if isinstance(exc, ConfigError):
        return EXIT_CONFIG
    if isinstance(exc, (StaleInput, MalformedInput, OSError)):
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


def run() -> int:
    """The process entry of `python -m ddehb.cli` and the `ddehb` script.

    main(), then gc.freeze(): the interpreter's shutdown collection, most
    of a command's exit time, skips the frozen heap (numpy's and ddehb's
    module graph); atexit handlers, stream flushing and module teardown
    still run.  main() leaves the collector alone, since tests call it many
    times in one process.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(run())
