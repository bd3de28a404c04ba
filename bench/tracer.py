"""Per-layer timing of ddehb, recorded from outside the package.

`traced(tracer)` wraps the public functions of each layer and rebinds
every module attribute that refers to an original function, because
`cli`, `validation`, `floquet`, `adjoint` and `cycle` import some of them
by name.  Leaving the context restores every rebound attribute.

A wrapper records inclusive seconds and calls for its function, and the
self time (inclusive minus the wrapped calls made inside it) for the
`cli.cmd_*` commands.  Hooks turn the returned objects into counts:
Levenberg-Marquardt iterations, subspace iterations and adjoint periods
per chain level, and sweep work as steps x columns.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

# (module, function) pairs whose inclusive seconds and calls are recorded
TIMED = [
    ("config", "load_config"),
    ("model", "verify_jacobians"),
    ("pipeline", "build_seed"),
    ("pipeline", "run_floquet"),
    ("pipeline", "run_responses"),
    ("cycle", "solve_cycle"),
    ("spectral", "build_operators"),
    ("floquet", "det_scan"),
    ("floquet", "build_stability_matrix"),
    ("floquet", "refine_exponent"),
    ("floquet", "eigenfunction"),
    ("adjoint", "solve_response"),
    ("adjoint", "build_adjoint_matrix"),
    ("adjoint", "pairing_functional"),
    ("oracle", "integrate_dde"),
    ("oracle", "monodromy_exponents"),
    ("oracle", "monodromy_eigenfunction"),
    ("oracle", "discretized_adjoint"),
    ("oracle", "direct_prc"),
    ("validation", "run_validation"),
    ("cli", "main"),
]
# commands whose self time (file I/O, hashing) is recorded as well
SELF_TIMED = [
    ("cli", "cmd_cycle"),
    ("cli", "cmd_floquet"),
    ("cli", "cmd_response"),
    ("cli", "cmd_validate"),
    ("cli", "cmd_export"),
]
# private sweeps, wrapped only to count the work they are handed
SWEEPS = [("oracle", "_sweep_forward"), ("oracle", "_sweep_backward")]
# chain levels of the kotani config (oracle.N = 2000, levels = 3)
LEVELS = (500, 1000, 2000)

COUNT_METRICS = (
    ["cycle.lm_iterations"]
    + [f"oracle.monodromy.iterations.N{n}" for n in LEVELS]
    + [f"oracle.adjoint.periods.N{n}" for n in LEVELS]
    + ["oracle.sweep.column_steps"]
)
# wall time of the untraced and traced in-process command, and their difference
TRACE_METRICS = ["trace.untraced_s", "trace.traced_s", "trace.overhead_s"]


def _arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _count_lm(counts, fn, args, kwargs, out):
    counts["cycle.lm_iterations"] += out.iterations


def _count_monodromy(counts, fn, args, kwargs, out):
    n = _arg(fn, args, kwargs, "system").N
    counts[f"oracle.monodromy.iterations.N{n}"] += out.iterations


def _count_adjoint(counts, fn, args, kwargs, out):
    n = _arg(fn, args, kwargs, "system").N
    counts[f"oracle.adjoint.periods.N{n}"] += out.iterations


def _count_sweep(counts, fn, args, kwargs, out):
    # computed from the arguments: RK4 steps times propagated columns
    steps, V = _arg(fn, args, kwargs, "steps"), _arg(fn, args, kwargs, "V")
    counts["oracle.sweep.column_steps"] += steps * V.shape[-1]


HOOKS = {
    ("cycle", "solve_cycle"): _count_lm,
    ("oracle", "monodromy_exponents"): _count_monodromy,
    ("oracle", "discretized_adjoint"): _count_adjoint,
    ("oracle", "_sweep_forward"): _count_sweep,
    ("oracle", "_sweep_backward"): _count_sweep,
}


def is_time(name: str) -> bool:
    return name.endswith((".s", "_s"))


def metric_names() -> list[str]:
    """Every per-layer name a traced run reports, in a fixed order."""
    names = []
    for mod, fn in TIMED:
        names += [f"{mod}.{fn}.s", f"{mod}.{fn}.calls"]
    names += [f"{mod}.{fn}.self_s" for mod, fn in SELF_TIMED]
    return names + COUNT_METRICS


class Tracer:
    """Accumulates spans and counts while installed by `traced`."""

    def __init__(self):
        self.inclusive = Counter()
        self.self_time = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self._stack: list[list[float]] = []  # child seconds of each open span
        self._depth = Counter()

    def wrap(self, key: str, fn, hook=None, timed=True):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            if not timed:
                out = fn(*args, **kwargs)
                if hook is not None:
                    hook(self.counts, fn, args, kwargs, out)
                return out
            self._stack.append([0.0])
            self._depth[key] += 1
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                children = self._stack.pop()[0]
                self._depth[key] -= 1
                if self._stack:
                    self._stack[-1][0] += dt
                if self._depth[key] == 0:  # count recursion once
                    self.inclusive[key] += dt
                self.self_time[key] += dt - children
            if hook is not None:
                hook(self.counts, fn, args, kwargs, out)
            return out

        wrapper.__wrapped_by_bench__ = True
        return wrapper

    def metrics(self) -> dict[str, float]:
        out = {}
        for mod, fn in TIMED:
            key = f"{mod}.{fn}"
            out[f"{key}.s"] = self.inclusive[key]
            out[f"{key}.calls"] = self.calls[key]
        for mod, fn in SELF_TIMED:
            out[f"{mod}.{fn}.self_s"] = self.self_time[f"{mod}.{fn}"]
        for name in COUNT_METRICS:
            out[name] = self.counts[name]
        return out

    def unexpected_counts(self) -> dict[str, int]:
        """Counts under names outside COUNT_METRICS (another chain level)."""
        return {k: v for k, v in self.counts.items() if k not in COUNT_METRICS}


def _ddehb_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ddehb" or name.startswith("ddehb."))]


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    importlib.import_module("ddehb.cli")  # loads every layer module
    targets = [(t, True) for t in TIMED + SELF_TIMED] + [(t, False) for t in SWEEPS]
    rebound = []
    try:
        for (mod, fn), timed in targets:
            module = importlib.import_module(f"ddehb.{mod}")
            original = getattr(module, fn)
            wrapper = tracer.wrap(f"{mod}.{fn}", original, HOOKS.get((mod, fn)), timed)
            for m in _ddehb_modules():
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        rebound.append((m, attr, original))
        yield tracer
    finally:
        for m, attr, original in reversed(rebound):
            setattr(m, attr, original)
