"""Self-test of the benchmark: python3 -m pytest bench/test_bench.py -q"""

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inproc  # noqa: E402  (puts src/ on the path)
import run  # noqa: E402
import tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
KOTANI_EXPORT = ["export", "--config", str(HERE.parent / "configs/kotani_fig1.yaml")]


def _bindings():
    return {(name, attr): value for name, m in sorted(sys.modules.items())
            if name == "ddehb" or name.startswith("ddehb.")
            for attr, value in vars(m).items()}


def test_wrappers_restore_originals():
    from ddehb import cli, cycle, validation

    before = _bindings()
    original = cycle.solve_cycle
    with tracer.traced(tracer.Tracer()):
        # names imported into other modules are rebound too
        assert cli.solve_cycle is not original
        assert validation.solve_cycle is cli.solve_cycle
        assert cycle.solve_cycle is cli.solve_cycle
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not any(getattr(v, "__wrapped_by_bench__", False) for v in after.values())


def test_metric_names_and_benchmark_file():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = run.per_layer_units()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    names = list(units) + list(run.END_TO_END_UNITS) + list(run.WORKLOADS)
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(set(names)) == len(names)


def test_traced_call_covers_in_process_wall(tmp_path):
    # long enough for a traced call to be followed by an untraced one
    result = inproc.trace_runs(KOTANI_EXPORT, tmp_path, seconds=1.0, budget=60.0)
    assert all(0.98 <= share <= 1.0 for share in result["main_covers"])
    metrics = result["metrics"]
    assert set(metrics) == set(tracer.metric_names() + tracer.TRACE_METRICS)
    assert metrics["floquet.det_scan.calls"] == 2
    assert metrics["cli.main.calls"] == 1
    assert all(metrics[f"oracle.{fn}.s"] == 0.0 for mod, fn in tracer.TIMED if mod == "oracle")
    assert metrics["trace.untraced_s"] > 0.0
    assert len(result["codes"]) >= 2 and not any(result["codes"])
    digests = {checks.csv_digest(Path(d)) for d in result["outputs"]}
    assert len(digests) == 1  # tracing changes no output byte


def _report(tmp_path, measured, passed=False):
    (tmp_path / "validation_report.json").write_text(json.dumps({
        "passed": passed,
        "checks": [
            {"name": "kotani.period", "passed": True, "measured": 1e-13},
            {"name": "kotani.trivial_mode", "passed": passed, "measured": measured},
        ],
    }))


def test_known_validation_failure_needs_its_signature(tmp_path):
    _report(tmp_path, 2.0)
    v = checks.Verdict()
    checks.check_validate(tmp_path, 4, v)
    assert not v.failed and v.known_failures == ["kotani.trivial_mode"]
    assert v.accuracy["validation.fail_ratio"] == 0.5

    _report(tmp_path, 0.5)
    v = checks.Verdict()
    checks.check_validate(tmp_path, 4, v)
    assert v.failed == ["kotani.trivial_mode"]

    _report(tmp_path, 2.0)
    v = checks.Verdict()
    checks.check_validate(tmp_path, 0, v)  # exit code disagrees with the report
    assert v.failed == ["validate.exit_code"]
