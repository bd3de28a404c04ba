"""Run configuration: a single nested key/value file (YAML) per run.

Every referenced field is validated before any computation starts and
unknown keys are rejected, so a typo cannot silently fall back to a
default.  The resolved configuration (defaults filled in) is what gets
hashed into the run manifest; output files carry that hash and downstream
commands refuse stale inputs.
"""

from __future__ import annotations

import json
import math
import re
import typing
from dataclasses import asdict, dataclass, field, is_dataclass

import yaml

from .cycle import SolveOptions, seed_from_ansatz
from .errors import ConfigError, _finite_real
from .floquet import ScanOptions

# The interpreter's own SHA-256: importing hashlib loads OpenSSL's libcrypto,
# about 3.5 MB of resident memory in every command, for one digest.
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:  # an interpreter built without them
        from hashlib import sha256

# The integrator's step rules and the settle's, defined here so that
# checking the seed section loads no oracle code; the oracle imports them.
MIN_DELAY_STEPS = 10  # integrate_dde takes at least this many steps per delay
# A size cap on the value behind an RK4 run's array (README gives the reasons)
MAX_RK4_STEPS = 2_000_000  # rows of a trajectory; cortico's settle takes 60,200


def _snap_step(tau: float, dt: float, name: str = "dt", t_end: float = 0.0,
               span: str = "t_end") -> tuple[float, int]:
    """(tau / n_tau, n_tau): dt rounded down to divide tau, for an RK4 run
    over t_end after one delay of history.  ConfigError, a ValueError,
    naming the step as name (and t_end as span) unless dt is finite and
    positive, t_end is not negative, the run takes at most MAX_RK4_STEPS
    steps and n_tau is at least MIN_DELAY_STEPS: the one copy of the step
    rules.  A NaN t_end fails the step cap."""
    if not 0 < dt < math.inf:
        raise ConfigError(f"{name} must be positive and finite, got {dt}")
    if t_end < 0:
        raise ConfigError(f"{span} must be >= 0, got {t_end}")
    steps = (tau + t_end) / dt
    if not steps <= MAX_RK4_STEPS:
        raise ConfigError(f"{span} at {name}={dt:g}: the run would take {steps:.3g} "
                          f"steps, over {MAX_RK4_STEPS:,}")
    n_tau = math.ceil(tau / dt)
    if n_tau < MIN_DELAY_STEPS:
        raise ConfigError(f"{name}={dt:g} too coarse: need at most tau/{MIN_DELAY_STEPS} "
                          f"= {tau / MIN_DELAY_STEPS:g}")
    return tau / n_tau, n_tau


def settle_times(tau: float, transient: float, dt: float | None = None,
                 observe_time: float | None = None) -> tuple[float, float]:
    """The step and the observation time of the settle behind an oracle seed:
    dt and observe_time where given, else tau/64 and 100 max(tau, 1).
    ConfigError naming the broken rule: the one copy of the settle rules,
    which the config check and oracle.settle_to_cycle both run."""
    if not transient >= 0:
        raise ConfigError(f"seed.transient must be >= 0, got {transient}")
    if observe_time is not None and not observe_time > 0:
        raise ConfigError(f"seed.observe_time must be positive, got {observe_time}")
    dt = tau / 64.0 if dt is None else dt
    observe_time = 100.0 * max(tau, 1.0) if observe_time is None else observe_time
    _snap_step(tau, dt, "seed.dt", transient + observe_time,
               "seed.transient + seed.observe_time")
    return dt, observe_time


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
    """The `model` section: a built-in model's name and its parameters."""

    name: str = "kotani"
    params: dict = field(default_factory=dict)


@dataclass
class SeedConfig:
    """The `seed` section: where the cycle solve starts."""

    kind: str = "ansatz"  # ansatz | oracle | file
    amplitude: list = field(default_factory=lambda: [1.0])
    period_guess: float = 6.0
    transient: float = 200.0
    observe_time: float | None = None
    dt: float | None = None  # settle integrator step; default tau/64
    path: str | None = None  # orbit coefficients JSON for kind=file

    def check(self) -> None:
        """ConfigError unless kind names a seed builder and a file seed has a
        path: the one copy of the rules, which the config check and
        pipeline.build_seed both run."""
        if self.kind not in ("ansatz", "oracle", "file"):
            raise ConfigError(f"seed.kind must be ansatz|oracle|file, got {self.kind!r}")
        if self.kind == "file" and not self.path:
            raise ConfigError("seed.kind=file requires seed.path")


@dataclass
class OutputConfig:
    """The `output` section: the directory the commands write to."""

    directory: str = "out"


@dataclass
class RunConfig:
    """A whole run configuration, one field per section."""

    model: ModelConfig = field(default_factory=ModelConfig)
    solver: SolveOptions = field(default_factory=SolveOptions)
    seed: SeedConfig = field(default_factory=SeedConfig)
    scan: ScanOptions = field(default_factory=ScanOptions)
    output: OutputConfig = field(default_factory=OutputConfig)
    rng_seed: int = 0

    def resolved(self) -> dict:
        return asdict(self)

    def config_hash(self) -> str:
        """Hash of every section that affects computed results (the output
        location is excluded so moving files does not invalidate them): the
        first 16 hex digits of SHA-256 over the compact, key-sorted JSON."""
        payload = self.resolved()
        payload.pop("output")
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return sha256(blob.encode()).hexdigest()[:16]


def _check_field(name: str, value, kind):
    """value checked against the annotation kind of the field name: int,
    float, str, list, dict or X | None.  A number is finite and never a bool."""
    options = typing.get_args(kind)
    if options:  # X | None
        if value is None:
            return value
        (kind,) = (k for k in options if k is not type(None))
    if kind in (int, float):
        if not _finite_real(value) or (kind is int and value != int(value)):
            raise ConfigError(f"{name}: expected {kind.__name__}, got {value!r}")
        return kind(value)
    if not isinstance(value, kind):
        raise ConfigError(f"{name}: expected {kind.__name__}, got {value!r}")
    return value


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a mapping at top level")
    cfg = RunConfig()
    sections = typing.get_type_hints(RunConfig)
    for section, value in data.items():
        if section not in sections:
            keys = isinstance(value, dict) and ", ".join(f"{section}.{k}" for k in value)
            raise ConfigError(f"unknown section {section!r}: {keys or repr(value)}")
        if not is_dataclass(sections[section]):  # a top-level setting
            setattr(cfg, section, _check_field(section, value, sections[section]))
            continue
        if not isinstance(value, dict):
            raise ConfigError(f"section {section!r} must be a mapping")
        target = getattr(cfg, section)
        kinds = typing.get_type_hints(type(target))
        for key, v in value.items():
            if key not in kinds:
                raise ConfigError(f"unknown key {section}.{key}")
            setattr(target, key, _check_field(f"{section}.{key}", v, kinds[key]))
    _validate_semantics(cfg)
    return cfg


def _validate_semantics(cfg: RunConfig):
    from .model import make_model

    for key, value in cfg.model.params.items():
        if not _finite_real(value):
            raise ConfigError(f"model.params.{key}: expected a real number, got {value!r}")
    try:
        model = make_model(cfg.model.name, **cfg.model.params)
    except ConfigError:  # an unknown model.name
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad parameters for model {cfg.model.name!r}: {exc}") from None
    cfg.solver.check(model.m)
    cfg.seed.check()
    # runs the amplitude and period rules
    seed_from_ansatz(model.m, cfg.seed.amplitude, cfg.seed.period_guess, 1)
    settle_times(model.tau, cfg.seed.transient, cfg.seed.dt, cfg.seed.observe_time)
    cfg.scan.check()
    if cfg.rng_seed < 0:
        raise ConfigError(f"rng_seed must be >= 0, got {cfg.rng_seed}")


def _parse_yaml(text: str, source: str):
    try:
        return yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML in {source}: {exc}") from None


def _assign(data, dotted: str, value):
    """Set a dotted key; every level on its path, the top included, is a mapping."""
    keys = dotted.split(".")
    node = data
    for depth, key in enumerate(keys):
        if not isinstance(node, dict):
            where = ".".join(keys[:depth]) or "the top level"
            raise ConfigError(f"cannot set {dotted}: {where} is not a mapping")
        if depth < len(keys) - 1:
            node = node.setdefault(key, {})
    node[keys[-1]] = value


def load_config(path: str, overrides: list[str] = (), out_dir: str | None = None,
                seed_from: str | None = None) -> RunConfig:
    """Load a YAML config file and apply command-line overrides; the flags
    --seed-from and --out set seed.kind and output.directory as given."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = _parse_yaml(fh.read(), path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    if data is None:  # an empty or comment-only file: every default
        data = {}
    for ov in overrides:
        if "=" not in ov:
            raise ConfigError(f"override must look like section.key=value: {ov!r}")
        dotted, _, raw = ov.partition("=")
        dotted = dotted.strip()
        _assign(data, dotted, _parse_yaml(raw, f"the override of {dotted}"))
    if seed_from is not None:
        _assign(data, "seed.kind", seed_from)
    if out_dir is not None:
        _assign(data, "output.directory", out_dir)
    return config_from_dict(data)
