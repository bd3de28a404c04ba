"""Run configuration: a single nested key/value file (YAML) per run.

Every referenced field is validated before any computation starts and
unknown keys are rejected, so a typo cannot silently fall back to a
default.  The resolved configuration (defaults filled in) is what gets
hashed into the run manifest; output files carry that hash and downstream
commands refuse stale inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import asdict, dataclass, field

import yaml

from .errors import ConfigError

# Limits of the oracle's settings, defined here so that checking a config
# loads no oracle code; the oracle imports them.
MIN_DELAY_STEPS = 10  # integrate_dde takes at least this many steps per delay
PRC_WINDOW_PERIODS = 5  # trailing periods the phase shift is read over


def _snap_step(tau: float, dt: float) -> tuple[float, int]:
    n_tau = math.ceil(tau / dt)
    return tau / n_tau, n_tau


class _Loader(yaml.SafeLoader):
    """Safe loader that also reads 1e-12, 5e-2 and 1.0e10 as floats: the
    YAML 1.1 rules need both a dot and an exponent sign, so they read
    these as strings."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)


@dataclass
class ModelConfig:
    name: str = "kotani"
    params: dict = field(default_factory=dict)


@dataclass
class SolverConfig:
    M: int = 20
    anchor_component: int = 0
    tolerance: float = 1e-10
    max_iterations: int = 100


@dataclass
class SeedConfig:
    kind: str = "ansatz"  # ansatz | oracle | file
    amplitude: list = field(default_factory=lambda: [1.0])
    period_guess: float = 6.0
    transient: float = 200.0
    observe_time: float | None = None
    dt: float | None = None  # settle integrator step; default tau/64
    path: str | None = None  # orbit coefficients JSON for kind=file


@dataclass
class ScanConfig:
    mu_min: float = -0.2
    mu_max: float = 0.05
    points: int = 200
    exclude_zero_radius: float = 1e-4


@dataclass
class OracleConfig:
    N: int = 2000
    levels: int = 3
    exponents: int = 5
    dt: float | None = None  # DDE integrator step; default tau/64
    prc_phases: int = 16
    prc_periods: int = 20


@dataclass
class OutputConfig:
    directory: str = "out"


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    seed: SeedConfig = field(default_factory=SeedConfig)
    scan: ScanConfig = field(default_factory=ScanConfig)
    oracle: OracleConfig = field(default_factory=OracleConfig)
    output: OutputConfig = field(default_factory=OutputConfig)
    rng_seed: int = 0

    def resolved(self) -> dict:
        return asdict(self)

    def config_hash(self) -> str:
        """Hash of every section that affects computed results (the output
        location is excluded so moving files does not invalidate them)."""
        payload = self.resolved()
        payload.pop("output")
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


_SECTIONS = {
    "model": ModelConfig,
    "solver": SolverConfig,
    "seed": SeedConfig,
    "scan": ScanConfig,
    "oracle": OracleConfig,
    "output": OutputConfig,
}

_SCALAR_TYPES = {
    ("model", "name"): str,
    ("seed", "kind"): str,
    ("seed", "path"): (str, type(None)),
    ("seed", "observe_time"): (int, float, type(None)),
    ("seed", "dt"): (int, float, type(None)),
    ("oracle", "dt"): (int, float, type(None)),
}

# removed keys and why; a config that still sets one is rejected with the reason
_REMOVED = {
    ("response", "legacy_amplitude_normalization"): (
        "response.legacy_amplitude_normalization was removed: without the "
        "e^{-mu tau} factor on its delay integral the amplitude pairing is not "
        "constant in its base time, so the scale it set was not the paper's"
    ),
    ("response", "quadrature_nodes"): (
        "response.quadrature_nodes was removed: the pairing's delay integral "
        "always uses the 64-node Gauss-Legendre rule (adjoint.QUAD_NODES), and "
        "16 to 256 nodes give the same pairing to within 8e-15 on both shipped "
        "configs"
    ),
}


def _finite_real(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _check_field(section: str, key: str, value, default):
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{section}.{key}: expected a finite number, got {value!r}")
    expected = _SCALAR_TYPES.get((section, key))
    if expected is not None:
        if not isinstance(value, expected):
            raise ConfigError(f"{section}.{key}: expected {expected}, got {value!r}")
        return value
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{section}.{key}: expected bool, got {value!r}")
        return value
    if isinstance(default, int) and not isinstance(default, bool):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{section}.{key}: expected int, got {value!r}")
        if float(value) != int(value):
            raise ConfigError(f"{section}.{key}: expected int, got {value!r}")
        return int(value)
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{section}.{key}: expected number, got {value!r}")
        return float(value)
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"{section}.{key}: expected list, got {value!r}")
        return value
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{section}.{key}: expected mapping, got {value!r}")
        return value
    return value


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a mapping at top level")
    cfg = RunConfig()
    for section, value in data.items():
        if section == "rng_seed":
            cfg.rng_seed = _check_field("", "rng_seed", value, 0)
            continue
        for key in value if isinstance(value, dict) else ():
            if (section, key) in _REMOVED:
                raise ConfigError(_REMOVED[section, key])
        if section not in _SECTIONS:
            raise ConfigError(f"unknown configuration section {section!r}")
        if not isinstance(value, dict):
            raise ConfigError(f"section {section!r} must be a mapping")
        target = getattr(cfg, section)
        defaults = _SECTIONS[section]()
        for key, v in value.items():
            if not hasattr(defaults, key):
                raise ConfigError(f"unknown key {section}.{key}")
            setattr(target, key, _check_field(section, key, v, getattr(defaults, key)))
    _validate_semantics(cfg)
    return cfg


def _validate_semantics(cfg: RunConfig):
    from .model import BUILTIN_MODELS

    if cfg.model.name not in BUILTIN_MODELS:
        raise ConfigError(
            f"unknown model {cfg.model.name!r}; built-ins: {sorted(BUILTIN_MODELS)}"
        )
    for key, value in cfg.model.params.items():
        if not _finite_real(value):
            raise ConfigError(f"model.params.{key}: expected a real number, got {value!r}")
    if cfg.model.params.get("tau", 0.0) < 0:
        raise ConfigError(f"model.params.tau must be >= 0, got {cfg.model.params['tau']}")
    try:
        model = BUILTIN_MODELS[cfg.model.name](**cfg.model.params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for model {cfg.model.name!r}: {exc}") from None
    tau = model.tau
    for key, dt in (("seed.dt", cfg.seed.dt), ("oracle.dt", cfg.oracle.dt)):
        if dt is None:
            continue
        if not dt > 0:
            raise ConfigError(f"{key} must be positive, got {dt}")
        if tau > 0 and _snap_step(tau, dt)[1] < MIN_DELAY_STEPS:
            raise ConfigError(
                f"{key}={dt:g} too coarse: need at most tau/{MIN_DELAY_STEPS} "
                f"= {tau / MIN_DELAY_STEPS:g}"
            )
    if cfg.solver.M < 1:
        raise ConfigError(f"solver.M must be >= 1, got {cfg.solver.M}")
    if not 0 <= cfg.solver.anchor_component < model.m:
        raise ConfigError(
            f"solver.anchor_component must name one of the {model.m} components "
            f"(0..{model.m - 1}), got {cfg.solver.anchor_component}"
        )
    if cfg.solver.tolerance <= 0:
        raise ConfigError("solver.tolerance must be positive")
    if cfg.solver.max_iterations < 1:
        raise ConfigError(f"solver.max_iterations must be >= 1, got {cfg.solver.max_iterations}")
    if cfg.seed.kind not in ("ansatz", "oracle", "file"):
        raise ConfigError(f"seed.kind must be ansatz|oracle|file, got {cfg.seed.kind!r}")
    if cfg.seed.kind == "file" and not cfg.seed.path:
        raise ConfigError("seed.kind=file requires seed.path")
    amp = cfg.seed.amplitude
    if len(amp) not in (1, model.m) or not all(map(_finite_real, amp)):
        counts = "1" if model.m == 1 else f"1 or {model.m}"
        raise ConfigError(
            f"seed.amplitude must hold {counts} finite real numbers, got {amp!r}"
        )
    if cfg.seed.period_guess <= 0:
        raise ConfigError("seed.period_guess must be positive")
    if cfg.seed.observe_time is not None and not cfg.seed.observe_time > 0:
        raise ConfigError(f"seed.observe_time must be positive, got {cfg.seed.observe_time}")
    if cfg.scan.points < 2:
        raise ConfigError("scan.points must be >= 2")
    if not cfg.scan.mu_max > cfg.scan.mu_min:
        raise ConfigError("scan.mu_max must exceed scan.mu_min")
    if not cfg.scan.exclude_zero_radius > 0:
        raise ConfigError(
            "scan.exclude_zero_radius must be positive: it sets the trivial root "
            f"apart from the nontrivial ones, got {cfg.scan.exclude_zero_radius}"
        )
    if cfg.oracle.N < 4:
        raise ConfigError("oracle.N must be >= 4")
    if cfg.oracle.levels not in (1, 2, 3):
        raise ConfigError("oracle.levels must be 1, 2 or 3")
    if cfg.oracle.N % (1 << (cfg.oracle.levels - 1)) != 0:
        raise ConfigError(
            f"oracle.N={cfg.oracle.N} must be divisible by "
            f"{1 << (cfg.oracle.levels - 1)} for {cfg.oracle.levels} levels"
        )
    if cfg.oracle.N >> (cfg.oracle.levels - 1) < 2:
        raise ConfigError(
            f"oracle.N={cfg.oracle.N} leaves a coarsest chain of "
            f"{cfg.oracle.N >> (cfg.oracle.levels - 1)} segments for "
            f"{cfg.oracle.levels} levels; it needs >= 2"
        )
    if cfg.oracle.exponents < 2:
        raise ConfigError(
            "oracle.exponents must be >= 2: the unit multiplier and a nontrivial one"
        )
    if cfg.oracle.prc_phases < 1:
        raise ConfigError("oracle.prc_phases must be >= 1")
    if cfg.oracle.prc_periods <= PRC_WINDOW_PERIODS:
        raise ConfigError(
            f"oracle.prc_periods must exceed the {PRC_WINDOW_PERIODS} trailing "
            f"periods the phase shift is read over, got {cfg.oracle.prc_periods}"
        )


def load_config(path: str, overrides: list[str] = (), out_dir: str | None = None,
                seed_from: str | None = None) -> RunConfig:
    """Load a YAML config file and apply command-line overrides."""
    try:
        with open(path) as fh:
            data = yaml.load(fh, Loader=_Loader) or {}
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML in {path}: {exc}") from None
    for ov in overrides:
        if "=" not in ov:
            raise ConfigError(f"override must look like section.key=value: {ov!r}")
        dotted, _, raw = ov.partition("=")
        keys = dotted.strip().split(".")
        node = data
        for k in keys[:-1]:
            node = node.setdefault(k, {})
            if not isinstance(node, dict):
                raise ConfigError(f"cannot override through non-mapping at {k!r}")
        node[keys[-1]] = yaml.load(raw, Loader=_Loader)
    if seed_from is not None:
        data.setdefault("seed", {})["kind"] = seed_from
    if out_dir is not None:
        data.setdefault("output", {})["directory"] = out_dir
    return config_from_dict(data)
