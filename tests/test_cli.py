import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from ddehb.cli import (
    EXIT_CONFIG,
    EXIT_CONVERGENCE,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
)
import ddehb
from ddehb import cycle, pipeline, validation
from ddehb.config import load_config
from ddehb.cycle import solve_cycle
from ddehb.model import BUILTIN_MODELS

from conftest import abs_kotani

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
KOTANI_CFG = str(CONFIG_DIR / "kotani_fig1.yaml")
CORTICO_CFG = str(CONFIG_DIR / "cortico_fig2.yaml")


def run(*argv):
    return main(list(argv))


class TestCycleCommand:
    def test_kotani_fig1_writes_orbit(self, tmp_path):
        out = str(tmp_path / "run")
        assert run("cycle", "--config", KOTANI_CFG, "--out", out) == EXIT_OK
        data = json.loads((tmp_path / "run" / "orbit_coeffs.json").read_text())
        assert abs(data["T"] - 2 * np.pi) < 1e-8
        csv = (tmp_path / "run" / "orbit.csv").read_text().splitlines()
        assert csv[0].startswith("# manifest: ")
        assert csv[1] == "t,x0"
        assert len(csv) == 2 + 41

    def test_orbit_is_cosine(self, tmp_path):
        out = str(tmp_path / "run")
        run("cycle", "--config", KOTANI_CFG, "--out", out)
        rows = np.loadtxt(tmp_path / "run" / "orbit.csv", delimiter=",", skiprows=2)
        assert np.abs(rows[:, 1] - np.cos(rows[:, 0])).max() < 1e-8

    def test_M_zero_rejected_before_computation(self, tmp_path):
        out = tmp_path / "run"
        code = run(
            "cycle", "--config", KOTANI_CFG, "--out", str(out),
            "--override", "solver.M=0",
        )
        assert code == EXIT_CONFIG
        assert not (out / "orbit.csv").exists()

    def test_unknown_key_rejected(self, tmp_path):
        code = run(
            "cycle", "--config", KOTANI_CFG, "--out", str(tmp_path),
            "--override", "solver.order=3",
        )
        assert code == EXIT_CONFIG

    def test_zero_seed_is_convergence_failure(self, tmp_path):
        code = run(
            "cycle", "--config", KOTANI_CFG, "--out", str(tmp_path),
            "--override", "seed.amplitude=[0.0]",
        )
        assert code == EXIT_CONVERGENCE

    def test_deterministic_output(self, tmp_path):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        run("cycle", "--config", KOTANI_CFG, "--out", out_a)
        run("cycle", "--config", KOTANI_CFG, "--out", out_b)
        a = (tmp_path / "a" / "orbit.csv").read_bytes()
        b = (tmp_path / "b" / "orbit.csv").read_bytes()
        assert a == b

    def test_seed_from_orbit_file(self, tmp_path):
        first, again = tmp_path / "first", tmp_path / "again"
        assert run("cycle", "--config", KOTANI_CFG, "--out", str(first)) == EXIT_OK
        code = run(
            "cycle", "--config", KOTANI_CFG, "--out", str(again), "--seed-from", "file",
            "--override", f"seed.path={first / 'orbit_coeffs.json'}",
        )
        assert code == EXIT_OK
        data = json.loads((again / "orbit_coeffs.json").read_text())
        assert abs(data["T"] - 2 * np.pi) < 1e-8
        assert data["iterations"] == 0  # the seed is the converged orbit

    def test_non_analytic_model_rejected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(BUILTIN_MODELS, "kotani", abs_kotani)
        out = tmp_path / "run"
        assert run("cycle", "--config", KOTANI_CFG, "--out", str(out)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "ConfigError: model 'kotani_abs': DF0[0, 0] at z0=" in err
        assert "Traceback" not in err
        assert not list(out.iterdir())

    def test_override_recorded_in_manifest(self, tmp_path):
        out = tmp_path / "run"
        run(
            "cycle", "--config", KOTANI_CFG, "--out", str(out),
            "--override", "model.params.delta=0.07",
        )
        manifest = json.loads((out / "manifest_cycle.json").read_text())
        assert manifest["config"]["model"]["params"]["delta"] == 0.07


class TestFloquetCommand:
    def test_requires_orbit_files(self, tmp_path):
        code = run("floquet", "--config", KOTANI_CFG, "--out", str(tmp_path / "x"))
        assert code == EXIT_IO

    def test_stale_orbit_refused(self, tmp_path):
        out = tmp_path / "run"
        run("cycle", "--config", KOTANI_CFG, "--out", str(out))
        path = out / "orbit_coeffs.json"
        data = json.loads(path.read_text())
        data["config_hash"] = "0" * 16
        path.write_text(json.dumps(data))
        assert run("floquet", "--config", KOTANI_CFG, "--out", str(out)) == EXIT_IO

    def test_scan_and_exponents_written(self, tmp_path):
        out = tmp_path / "run"
        run("cycle", "--config", KOTANI_CFG, "--out", str(out))
        assert run("floquet", "--config", KOTANI_CFG, "--out", str(out)) == EXIT_OK
        scan = np.loadtxt(out / "floquet_scan.csv", delimiter=",", skiprows=2)
        assert scan.shape == (200, 4)
        data = json.loads((out / "exponents.json").read_text())
        nontrivial = [e for e in data["exponents"] if not e["trivial"]]
        assert len(nontrivial) == 1
        assert (out / "mode_trivial.csv").exists()
        assert (out / "mode_0.csv").exists()

    def test_rootfree_scan_range_gives_empty_list(self, tmp_path):
        out = tmp_path / "run"
        overrides = ["scan.mu_min=-0.008", "scan.mu_max=-0.001", "scan.points=40"]
        args = sum((["--override", ov] for ov in overrides), [])
        run("cycle", "--config", KOTANI_CFG, "--out", str(out), *args)
        assert run("floquet", "--config", KOTANI_CFG, "--out", str(out), *args) == EXIT_OK
        data = json.loads((out / "exponents.json").read_text())
        assert [e for e in data["exponents"] if not e["trivial"]] == []
        scan = np.loadtxt(out / "floquet_scan.csv", delimiter=",", skiprows=2)
        assert scan.shape == (40, 4)


class TestResponseCommand:
    def test_amplitude_without_floquet_run(self, tmp_path):
        out = tmp_path / "run"
        run("cycle", "--config", KOTANI_CFG, "--out", str(out))
        code = run(
            "response", "--config", KOTANI_CFG, "--out", str(out),
            "--kind", "amplitude",
        )
        assert code == EXIT_IO

    def test_regular_exponent_is_convergence_failure(self, tmp_path):
        # an exponent file naming a mu where M(mu) is regular
        out = tmp_path / "run"
        run("cycle", "--config", KOTANI_CFG, "--out", str(out))
        h = json.loads((out / "orbit_coeffs.json").read_text())["config_hash"]
        (out / "exponents.json").write_text(json.dumps(
            {"config_hash": h, "exponents": [{"mu": -0.015, "trivial": False}]}
        ))
        code = run(
            "response", "--config", KOTANI_CFG, "--out", str(out),
            "--kind", "amplitude",
        )
        assert code == EXIT_CONVERGENCE
        assert not (out / "q.csv").exists()

    def test_overflowing_recorded_exponent(self, tmp_path, capsys):
        # e^{-mu tau} overflows at mu = -500, so M(mu) is not finite there
        out = tmp_path / "run"
        run("cycle", "--config", KOTANI_CFG, "--out", str(out))
        h = json.loads((out / "orbit_coeffs.json").read_text())["config_hash"]
        (out / "exponents.json").write_text(json.dumps(
            {"config_hash": h, "exponents": [{"mu": -500.0, "trivial": False}]}
        ))
        capsys.readouterr()
        code = run(
            "response", "--config", KOTANI_CFG, "--out", str(out),
            "--kind", "amplitude",
        )
        assert code == EXIT_CONVERGENCE
        err = capsys.readouterr().err
        assert err.startswith("NonFiniteState: ")
        assert "Traceback" not in err and "mu=-500" in err
        assert not (out / "q.csv").exists()

    def test_no_exponent_recorded(self, tmp_path, capsys):
        # [-0.01, 0.05] holds only the trivial root, so the exponent file
        # exists but lists no nontrivial exponent for the amplitude response
        out = tmp_path / "run"
        code = run(
            "export", "--config", KOTANI_CFG, "--out", str(out),
            "--override", "scan.mu_min=-0.01",
        )
        assert code == EXIT_CONVERGENCE
        err = capsys.readouterr().err
        assert err.startswith("NoExponentInRange: ")
        assert "[-0.01, 0.05]" in err
        assert (out / "exponents.json").exists()
        assert not (out / "q.csv").exists()

    def test_overflowing_scan_range(self, tmp_path, capsys):
        # e^{-mu tau} overflows at mu = -500, so M(mu) is not finite there
        code = run(
            "export", "--config", KOTANI_CFG, "--out", str(tmp_path / "run"),
            "--override", "scan.mu_min=-500",
        )
        assert code == EXIT_CONVERGENCE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("NonFiniteState: ")
        assert "mu=-500" in err and "scan.mu_min" in err

    def test_phase_only_needs_orbit(self, tmp_path):
        out = tmp_path / "run"
        run("cycle", "--config", KOTANI_CFG, "--out", str(out))
        code = run(
            "response", "--config", KOTANI_CFG, "--out", str(out), "--kind", "phase"
        )
        assert code == EXIT_OK
        assert (out / "z.csv").exists()
        assert not (out / "q.csv").exists()


class TestMalformedInput:
    """Input files that lack a field or hold one of the wrong form exit 5
    with a typed error, not a traceback."""

    @staticmethod
    def expect_malformed(capsys, *argv):
        capsys.readouterr()
        assert run(*argv) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("MalformedInput: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("field", ["T", "coeffs", "anchor_component"])
    def test_orbit_file_without_field(self, tmp_path, capsys, field):
        out = tmp_path / "run"
        run("cycle", "--config", KOTANI_CFG, "--out", str(out))
        path = out / "orbit_coeffs.json"
        data = json.loads(path.read_text())
        del data[field]
        path.write_text(json.dumps(data))
        self.expect_malformed(capsys, "floquet", "--config", KOTANI_CFG, "--out", str(out))
        assert not (out / "exponents.json").exists()

    def test_seed_coeffs_not_pairs(self, tmp_path, capsys):
        first = tmp_path / "first"
        run("cycle", "--config", KOTANI_CFG, "--out", str(first))
        path = first / "orbit_coeffs.json"
        data = json.loads(path.read_text())
        data["coeffs"] = [[re for re, _ in comp] for comp in data["coeffs"]]
        path.write_text(json.dumps(data))
        self.expect_malformed(
            capsys, "cycle", "--config", KOTANI_CFG, "--out", str(tmp_path / "again"),
            "--seed-from", "file", "--override", f"seed.path={path}",
        )
        assert not (tmp_path / "again" / "orbit_coeffs.json").exists()

    @pytest.mark.parametrize("field", ["mu", "trivial"])
    def test_exponent_entry_without_field(self, tmp_path, capsys, field):
        out = tmp_path / "run"
        run("cycle", "--config", KOTANI_CFG, "--out", str(out))
        h = json.loads((out / "orbit_coeffs.json").read_text())["config_hash"]
        entry = {"mu": -0.03, "trivial": False}
        del entry[field]
        (out / "exponents.json").write_text(
            json.dumps({"config_hash": h, "exponents": [entry]})
        )
        self.expect_malformed(
            capsys, "response", "--config", KOTANI_CFG, "--out", str(out),
            "--kind", "amplitude",
        )
        assert not (out / "q.csv").exists()

    def test_exponent_file_not_an_object(self, tmp_path, capsys):
        out = tmp_path / "run"
        run("cycle", "--config", KOTANI_CFG, "--out", str(out))
        (out / "exponents.json").write_text("[1, 2]")
        self.expect_malformed(capsys, "response", "--config", KOTANI_CFG, "--out", str(out))
        assert not (out / "z.csv").exists()


class TestExportPipeline:
    def test_kotani_full_pipeline(self, tmp_path):
        out = tmp_path / "run"
        assert run("export", "--config", KOTANI_CFG, "--out", str(out)) == EXIT_OK
        for name in ("orbit.csv", "floquet_scan.csv", "z.csv", "q.csv"):
            assert (out / name).exists()
        meta = json.loads((out / "response_meta.json").read_text())
        assert meta["phase"]["normalization_residual"] < 1e-8
        assert meta["amplitude"]["normalization_residual"] < 1e-8

    def test_cortico_fig2_exponent_report(self, tmp_path):
        out = tmp_path / "run"
        assert run("cycle", "--config", CORTICO_CFG, "--out", str(out)) == EXIT_OK
        assert run("floquet", "--config", CORTICO_CFG, "--out", str(out)) == EXIT_OK
        data = json.loads((out / "exponents.json").read_text())
        nontrivial = [e["mu"] for e in data["exponents"] if not e["trivial"]]
        assert len(nontrivial) == 1
        assert abs(nontrivial[0] - (-0.00296)) < 5e-5


# layers that only `ddehb validate` (and an oracle seed) run
ORACLE_LAYERS = {"ddehb.oracle", "ddehb.sweep", "ddehb.validation", "numpy.random"}
# runs the commands of argv[1] (a JSON list of argument lists) in order and
# prints their exit codes and the modules loaded after `import numpy`
# (numpy < 2 loads numpy.random itself, which then counts as not loaded)
_PROBE = """
import json, sys
import numpy
before = set(sys.modules)
from ddehb.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(set(sys.modules) - before)]))
"""


def run_fresh(*commands):
    """Exit codes of the commands, run in one fresh interpreter, and the set
    of modules they loaded."""
    src = str(Path(ddehb.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(commands)],
        capture_output=True, text=True, env=env, check=True,
    )
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    return codes, set(loaded)


class TestLoadedLayers:
    """The spectral commands load no oracle, sweep, validation or
    numpy.random code; an oracle seed loads the oracle on demand."""

    @pytest.mark.parametrize("steps", [("cycle", "floquet", "response"), ("export",)])
    def test_spectral_commands(self, tmp_path, steps):
        codes, loaded = run_fresh(
            *[[step, "--config", KOTANI_CFG, "--out", str(tmp_path)] for step in steps]
        )
        assert codes == [EXIT_OK] * len(steps)
        assert "ddehb.floquet" in loaded
        assert not ORACLE_LAYERS & loaded

    def test_oracle_seed(self, tmp_path):
        codes, loaded = run_fresh(
            ["cycle", "--config", KOTANI_CFG, "--out", str(tmp_path), "--seed-from", "oracle"]
        )
        assert codes == [EXIT_OK]
        assert {"ddehb.oracle", "ddehb.sweep"} <= loaded
        assert "ddehb.validation" not in loaded


KOTANI_CHECKS = [
    "kotani.period",
    "kotani.cycle_profile",
    "kotani.cycle_runtime",
    "kotani.trivial_sigma",
    "kotani.trivial_mode",
    "kotani.exponent_M_doubling",
    "kotani.normalization_phase",
    "kotani.normalization_amplitude",
    "kotani.pairing_phase",
    "kotani.pairing_amplitude",
    "kotani.oracle_unit_multiplier",
    "kotani.oracle_exponent",
    "kotani.oracle_eigenfunction",
    "kotani.oracle_z",
    "kotani.oracle_q",
    "kotani.oracle_runtime",
    "kotani.direct_prc",
    "kotani.prc_linearity",
    "spectral.unitary",
    "spectral.exact_operators",
    "spectral.roundtrip",
    "oracle.integrator_order",
]


class TestValidateCommand:
    def test_kotani_report_matches_exit_code(self, tmp_path):
        # a coarse chain keeps the run short; at N=512 some oracle checks
        # miss their tolerances, so the run exercises the failure exit
        out = tmp_path / "run"
        code = run(
            "validate", "--config", KOTANI_CFG, "--out", str(out),
            "--override", "oracle.N=512",
        )
        report = json.loads((out / "validation_report.json").read_text())
        checks = report["checks"]
        assert [c["name"] for c in checks] == KOTANI_CHECKS
        assert all(np.isfinite(c["measured"]) for c in checks)
        passed = all(c["passed"] for c in checks)
        assert report["passed"] == passed
        assert code == (EXIT_OK if passed else EXIT_VALIDATION)

    def test_doubled_solve_keeps_solver_config(self, monkeypatch):
        cfg = load_config(
            KOTANI_CFG, ["solver.tolerance=1.0e-12", "solver.max_iterations=50"]
        )
        received = []

        class Doubled(Exception):
            pass

        def recording(model, seed, opts):
            received.append(opts)
            if opts.M != cfg.solver.M:
                raise Doubled  # the M-doubling solve: stop before the oracle
            return solve_cycle(model, seed, opts)

        monkeypatch.setattr(cycle, "solve_cycle", recording)
        with pytest.raises(Doubled):
            validation.validate_kotani(cfg)
        assert received[0] == pipeline.solve_options(cfg)
        assert received[-1] == dataclasses.replace(received[0], M=2 * cfg.solver.M)

    def test_no_exponent_in_scan_range(self, tmp_path, capsys):
        # [-0.01, 0.05] holds only the trivial root; the leading exponent
        # sits near -0.029
        code = run(
            "validate", "--config", KOTANI_CFG, "--out", str(tmp_path / "run"),
            "--override", "scan.mu_min=-0.01",
        )
        assert code == EXIT_CONVERGENCE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("NoExponentInRange: ")
        assert "[-0.01, 0.05]" in err


class TestConfigValidation:
    def test_malformed_override(self, tmp_path):
        assert run(
            "cycle", "--config", KOTANI_CFG, "--out", str(tmp_path), "--override",
            "solverM20",
        ) == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        assert run("cycle", "--config", str(tmp_path / "nope.yaml")) == EXIT_CONFIG

    def test_unknown_section(self, tmp_path):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump({"model": {"name": "kotani"}, "extra": {}}))
        assert run("cycle", "--config", str(cfg)) == EXIT_CONFIG

    def test_exponent_form_floats(self, tmp_path):
        cfg = load_config(KOTANI_CFG, ["solver.tolerance=1e-12"])
        assert cfg.solver.tolerance == 1e-12
        out = tmp_path / "run"
        assert run(
            "cycle", "--config", KOTANI_CFG, "--out", str(out),
            "--override", "model.params.delta=5e-2",
        ) == EXIT_OK
        T = json.loads((out / "orbit_coeffs.json").read_text())["T"]
        assert abs(T - 2 * np.pi) < 1e-8

    @pytest.mark.parametrize(
        "name, override", [("kotani_fig1.yaml", "model.params.delta=abc"),
                           ("kotani_fig1.yaml", "model.params.omega=1.0"),
                           ("cortico_fig2.yaml", "model.params.tau=-1.0")],
    )
    def test_bad_model_parameter(self, tmp_path, name, override):
        assert run(
            "cycle", "--config", str(CONFIG_DIR / name), "--out", str(tmp_path),
            "--override", override,
        ) == EXIT_CONFIG

    @pytest.mark.parametrize("name", ["kotani_fig1.yaml", "cortico_fig2.yaml"])
    def test_removed_legacy_normalization(self, tmp_path, capsys, name):
        code = run(
            "export", "--config", str(CONFIG_DIR / name), "--out", str(tmp_path),
            "--override", "response.legacy_amplitude_normalization=true",
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "legacy_amplitude_normalization was removed" in err
        assert "e^{-mu tau}" in err and "base time" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("name", ["kotani_fig1.yaml", "cortico_fig2.yaml"])
    def test_removed_quadrature_nodes(self, tmp_path, capsys, name):
        code = run(
            "export", "--config", str(CONFIG_DIR / name), "--out", str(tmp_path),
            "--override", "response.quadrature_nodes=32",
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "quadrature_nodes was removed" in err
        assert "adjoint.QUAD_NODES" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "name, override",
        [
            ("kotani_fig1.yaml", "oracle.exponents=0"),
            ("kotani_fig1.yaml", "oracle.prc_phases=0"),
            ("kotani_fig1.yaml", "oracle.prc_periods=-1"),
            ("kotani_fig1.yaml", "oracle.dt=1.0"),  # coarser than tau/10
            ("kotani_fig1.yaml", "oracle.dt=-0.01"),
            ("cortico_fig2.yaml", "seed.dt=-0.04"),
            ("cortico_fig2.yaml", "seed.observe_time=-1.0"),
            ("cortico_fig2.yaml", "solver.anchor_component=2"),
            # non-finite numbers and seed amplitudes of the wrong form
            ("kotani_fig1.yaml", "oracle.N=.inf"),
            ("kotani_fig1.yaml", "solver.M=.nan"),
            ("cortico_fig2.yaml", "seed.transient=.nan"),
            ("kotani_fig1.yaml", "solver.tolerance=.nan"),
            ("kotani_fig1.yaml", "seed.amplitude=[a]"),
            ("kotani_fig1.yaml", "seed.amplitude=[]"),
            ("kotani_fig1.yaml", "seed.amplitude=[0.8,0.1,0.2]"),
            ("cortico_fig2.yaml", "seed.amplitude=[0.05,.inf]"),
            # these ran before: the first to exit 3 in the solve, the second to
            # list the trivial root as nontrivial and exit 0
            ("kotani_fig1.yaml", "solver.max_iterations=-3"),
            ("kotani_fig1.yaml", "scan.exclude_zero_radius=-1.0"),
        ],
    )
    def test_bad_run_setting(self, tmp_path, capsys, name, override):
        code = run(
            "validate", "--config", str(CONFIG_DIR / name), "--out", str(tmp_path),
            "--override", override,
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert override.partition("=")[0] in err  # the message names the key
        assert not list(tmp_path.iterdir())

    def test_bad_oracle_levels(self, tmp_path):
        assert run(
            "cycle", "--config", KOTANI_CFG, "--out", str(tmp_path),
            "--override", "oracle.levels=5",
        ) == EXIT_CONFIG

    def test_coarsest_chain_too_short(self, tmp_path):
        # N=4 over 3 levels leaves a coarsest chain of one segment
        assert run(
            "validate", "--config", KOTANI_CFG, "--out", str(tmp_path),
            "--override", "oracle.N=4",
        ) == EXIT_CONFIG
        assert not (tmp_path / "validation_report.json").exists()
        assert run(
            "cycle", "--config", KOTANI_CFG, "--out", str(tmp_path),
            "--override", "oracle.N=8",
        ) == EXIT_OK
