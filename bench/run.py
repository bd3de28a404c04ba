"""Benchmark of the ddehb command line on the shipped kotani config.

    python3 bench/run.py --workload export-kotani --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; the package is used from `src/`
as it stands, with no install step.  One client runs one command at a
time and waits for it (closed loop).  Every child runs on one CPU, with
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS set to 1.

--trace 0 times the user-visible commands in child processes:
  setup_s      spawn, import ddehb.cli and load the config; median of 5
  command_s    the workload's command (`ddehb export` or `ddehb validate`),
               repeated until --seconds have passed; median
  peak_rss_mb  median over those commands of each child's peak RSS
The speed of a shared machine drifts by tens of percent within a minute,
so the two times are given at reference speed: a fixed job
(REFERENCE_CODE) runs in the gaps before and after every timed child,
each wall time is divided by the median job time of its two gaps, and
the median ratio is multiplied by REFERENCE_S.  A change to the program
moves the times; a slower machine moves the job too and cancels.  Raw
wall times are printed above the result.
--trace 1 calls ddehb.cli.main in one child process, alternating traced
and untraced calls, and reports per-layer seconds, calls and counts (see
tracer.py), the tracing overhead and the accuracy of the outputs.

Every output is checked (checks.py); export CSVs of repeated commands
must be byte-identical.  The last line of stdout is the JSON result.
The seed goes to the program as `--override rng_seed=<seed>`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SPAWNS = 5
DEADLINE_S = 170.0  # a run must end within 180 s


@dataclass(frozen=True)
class Workload:
    command: str  # ddehb subcommand
    config: str
    refs: int  # reference jobs in each gap between timed children


WORKLOADS = {
    "export-kotani": Workload("export", "configs/kotani_fig1.yaml", 1),
    "validate-kotani": Workload("validate", "configs/kotani_fig1.yaml", 10),
}
END_TO_END_UNITS = {"setup_s": "s", "command_s": "s", "peak_rss_mb": "MB"}
SETUP_CODE = (
    "import sys\n"
    "import ddehb.cli\n"
    "from ddehb.config import load_config\n"
    "load_config(sys.argv[1], sys.argv[2:])\n"
)
# A fixed job in the style of the program (small LAPACK calls and small
# numpy updates driven from Python, interpreter start-up included).  It
# takes about REFERENCE_S seconds on the 2-vCPU Xeon box the benchmark was
# defined on; see the module docstring for how it scales the times.
REFERENCE_CODE = (
    "import numpy as np\n"
    "rng = np.random.default_rng(0)\n"
    "a = rng.standard_normal((41, 41))\n"
    "x = rng.standard_normal((64, 2))\n"
    "for i in range(300):\n"
    "    np.linalg.svd(a + 1e-3 * i, compute_uv=False)\n"
    "    for _ in range(8):\n"
    "        x = x + 0.01 * np.tanh(x[:, ::-1]) - 0.001 * x\n"
    "    sum(k * k for k in range(200))\n"
)
REFERENCE_S = 0.3


def per_layer_units() -> dict[str, str]:
    names = tracer.metric_names() + tracer.TRACE_METRICS + checks.ACCURACY_METRICS
    units = {}
    for name in names:
        if tracer.is_time(name):
            units[name] = "s"
        elif name in checks.ACCURACY_METRICS:
            units[name] = "1"
        else:
            units[name] = "count"
    return units


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Runner:
    """Starts children one at a time and stops them at the run deadline.
    Their stdout is discarded; their stderr goes to ours."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.env = child_env()
        self.start = time.perf_counter()

    def run(self, argv: list[str]) -> tuple[int, float, float]:
        """Return exit code, wall seconds and peak RSS (MB) of one child."""
        timeout = max(DEADLINE_S - self.elapsed(), 1.0)
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def elapsed(self) -> float:
        return time.perf_counter() - self.start


def cli_args(workload: str, seed: int) -> list[str]:
    wl = WORKLOADS[workload]
    return [wl.command, "--config", wl.config, "--override", f"rng_seed={seed}"]


def check_outputs(workload: str, out: Path, code: int, v: checks.Verdict):
    if WORKLOADS[workload].command == "export":
        checks.check_export(out, code, v)
    else:
        checks.check_validate(out, code, v)


def check_determinism(workload: str, dirs: list[Path], v: checks.Verdict):
    if WORKLOADS[workload].command != "export":
        return
    digests = [checks.csv_digest(d) for d in dirs]
    for digest in digests[1:]:
        v.check("export.csv_identical", digest == digests[0])


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(runner: Runner) -> dict:
    result = runner.tmp / "env.json"
    code, _, _ = runner.run([sys.executable, str(HERE / "inproc.py"), "env", str(result)])
    record = json.loads(result.read_text()) if code == 0 else {}
    record.update(nproc=os.cpu_count(), cpu=cpu_model(), commit=git_commit())
    return record


def _paired_ratios(gaps: list[list[float]], walls: list[float]) -> list[float]:
    """Each wall time over the median of the reference jobs on both sides."""
    return [w / statistics.median(before + after)
            for w, before, after in zip(walls, gaps, gaps[1:])]


def measure(workload: str, seed: int, seconds: float, runner: Runner):
    """Untraced run: set-up spawns, then the command in a closed loop, each
    timed child between two gaps of reference jobs."""
    wl = WORKLOADS[workload]
    v = checks.Verdict()

    def gap(n: int) -> list[float]:
        walls = []
        for _ in range(n):
            code, wall, _ = runner.run([sys.executable, "-c", REFERENCE_CODE])
            v.check("reference.exit_code", code == 0)
            walls.append(wall)
        return walls

    setup, setup_gaps = [], [gap(1)]
    for _ in range(SETUP_SPAWNS):
        code, wall, _ = runner.run(
            [sys.executable, "-c", SETUP_CODE, wl.config, f"rng_seed={seed}"])
        v.check("setup.exit_code", code == 0)
        setup.append(wall)
        setup_gaps.append(gap(1))
    walls, rss, dirs, gaps = [], [], [], [gap(wl.refs)]
    min_commands = 2 if wl.command == "export" else 1
    t0 = time.perf_counter()
    while len(walls) < min_commands or time.perf_counter() - t0 < seconds:
        if walls and runner.elapsed() + 1.5 * walls[-1] > DEADLINE_S:
            break
        out = runner.tmp / f"out{len(walls)}"
        code, wall, peak = runner.run(
            [sys.executable, "-m", "ddehb.cli", *cli_args(workload, seed), "--out", str(out)])
        check_outputs(workload, out, code, v)
        walls.append(wall)
        rss.append(peak)
        dirs.append(out)
        gaps.append(gap(wl.refs))
    check_determinism(workload, dirs, v)
    metrics = {
        "setup_s": REFERENCE_S * statistics.median(_paired_ratios(setup_gaps, setup)),
        "command_s": REFERENCE_S * statistics.median(_paired_ratios(gaps, walls)),
        "peak_rss_mb": statistics.median(rss),
    }
    refs = [r for g in setup_gaps + gaps for r in g]
    for name, xs in (("reference", refs), ("setup", setup), ("command", walls)):
        print(f"raw {name} wall s: n={len(xs)} median={statistics.median(xs):.4f} "
              f"min={min(xs):.4f} max={max(xs):.4f}")
    print(f"peak_rss_mb: n={len(rss)} min={min(rss):.2f} max={max(rss):.2f}")
    return {k: (val, END_TO_END_UNITS[k]) for k, val in metrics.items()}, v


def measure_traced(workload: str, seed: int, seconds: float, runner: Runner):
    """Traced run: per-layer metrics from one in-process child."""
    v = checks.Verdict()
    result = runner.tmp / "trace.json"
    budget = DEADLINE_S - runner.elapsed() - 5.0
    code, _, _ = runner.run([sys.executable, str(HERE / "inproc.py"), "trace", str(result),
                             str(runner.tmp), str(seconds), str(budget), "--",
                             *cli_args(workload, seed)])
    units = per_layer_units()
    if not v.check("trace.exit_code", code == 0):
        return {}, v
    traced = json.loads(result.read_text())
    dirs = [Path(d) for d in traced["outputs"]]
    for out, out_code in zip(dirs, traced["codes"]):
        check_outputs(workload, out, out_code, v)
    check_determinism(workload, dirs, v)
    v.check("trace.counts_repeat", traced["counts_repeat"])
    v.check("trace.known_levels", not traced["unexpected_counts"])
    values = dict(traced["metrics"])
    for name in checks.ACCURACY_METRICS:
        values[name] = v.accuracy.get(name, 0.0)
    print("traced cli.main share of wall: " +
          " ".join(f"{x:.4f}" for x in traced["main_covers"]))
    if traced["unexpected_counts"]:
        print(f"counts outside the declared chain levels: {traced['unexpected_counts']}")
    return {name: (values[name], units[name]) for name in units}, v


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in ("src/ddehb/cli.py", WORKLOADS[args.workload].config)
               if not (ROOT / p).is_file()]
    if missing:
        print(f"not a ddehb source checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    # every child runs on one CPU, so a command and the reference jobs
    # next to it see the same share of a shared machine
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work_root = ROOT / ".bench_tmp"
    work_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=work_root))
    try:
        runner = Runner(tmp)
        print("env: " + json.dumps(environment(runner), sort_keys=True))
        if args.trace:
            metrics, v = measure_traced(args.workload, args.seed, args.seconds, runner)
        else:
            metrics, v = measure(args.workload, args.seed, args.seconds, runner)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(work_root.iterdir()):
            work_root.rmdir()
    print(f"checks: {v.attempted} attempted, {len(v.failed)} failed {v.failed}; "
          f"known validation failures: {sorted(set(v.known_failures)) or 'none'}")
    print(json.dumps({
        "correct": not v.failed,
        "attempted": v.attempted,
        "failed": len(v.failed),
        "metrics": {k: {"value": val, "unit": unit} for k, (val, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
