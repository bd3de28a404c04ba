"""In-process half of the benchmark, run as a child of run.py.

    python3 bench/inproc.py env RESULT.json
    python3 bench/inproc.py trace RESULT.json OUT_ROOT SECONDS BUDGET -- CLI_ARGS...

`env` records the interpreter, numpy and BLAS versions and the BLAS
thread count actually in effect.  `trace` calls `ddehb.cli.main` with
CLI_ARGS (plus `--out`) in alternating traced and untraced runs until
SECONDS have passed (an untraced run starts only while time is left and
would end within BUDGET seconds), and writes the traced per-layer metrics, the wall
time of each run and the output directories to RESULT.json.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import io
import json
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402


def _blas_threads(numpy) -> int | None:
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
             "openblas_get_num_threads")
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                return int(fn())
    return None


def env_record() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _call_cli(cli_args: list[str], out: Path) -> tuple[int, float]:
    from ddehb import cli

    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        code = cli.main(cli_args + ["--out", str(out)])
    return code, time.perf_counter() - t0


def trace_runs(cli_args: list[str], out_root: Path, seconds: float, budget: float) -> dict:
    """Alternate traced and untraced calls of the command until `seconds`
    have passed.  An untraced call starts only while time is left, and
    never when it would overrun `budget`; if none ran, its metrics read 0."""
    traced, untraced, reps, dirs, codes = [], [], [], [], []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        i = len(reps)
        tr = tracer.Tracer()
        with tracer.traced(tr):
            code, wall = _call_cli(cli_args, out_root / f"traced{i}")
        traced.append(wall)
        reps.append(tr)
        dirs.append(str(out_root / f"traced{i}"))
        codes.append(code)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or elapsed + 1.5 * wall > budget:
            break
        code, wall = _call_cli(cli_args, out_root / f"untraced{i}")
        untraced.append(wall)
        dirs.append(str(out_root / f"untraced{i}"))
        codes.append(code)
    # the first pair also pays one-off warm-up; leave it out when there are more
    skip = 1 if len(untraced) > 1 else 0
    per_rep = [tr.metrics() for tr in reps]
    metrics = {}
    for name in per_rep[0]:
        values = [m[name] for m in per_rep]
        metrics[name] = statistics.median(values[skip:]) if tracer.is_time(name) else values[0]
    metrics["trace.traced_s"] = statistics.median(traced[skip:])
    metrics["trace.untraced_s"] = statistics.median(untraced[skip:]) if untraced else 0.0
    metrics["trace.overhead_s"] = (
        metrics["trace.traced_s"] - metrics["trace.untraced_s"] if untraced else 0.0
    )
    counts = [{k: v for k, v in m.items() if not tracer.is_time(k)} for m in per_rep]
    return {
        "metrics": metrics,
        "counts_repeat": all(c == counts[0] for c in counts),
        "unexpected_counts": reps[0].unexpected_counts(),
        "outputs": dirs,
        "codes": codes,
        "main_covers": [tr.inclusive["cli.main"] / w for tr, w in zip(reps, traced)],
    }


def main(argv: list[str]) -> int:
    if argv[0] == "env":
        result = env_record()
    elif argv[0] == "trace":
        out_root, seconds, budget = Path(argv[2]), float(argv[3]), float(argv[4])
        result = trace_runs(argv[argv.index("--") + 1:], out_root, seconds, budget)
    else:
        raise SystemExit(f"unknown mode {argv[0]!r}")
    Path(argv[1]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
