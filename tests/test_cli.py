import dataclasses
import functools
import gc
import hashlib
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
from ddehb import cli, cycle, floquet, oracle, pipeline, validation
from ddehb.config import RunConfig, load_config
from ddehb.cycle import solve_cycle
from ddehb.errors import ConfigError
from ddehb.model import BUILTIN_MODELS
from ddehb.pipeline import series_payload

from conftest import abs_kotani

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
KOTANI_CFG = str(CONFIG_DIR / "kotani_fig1.yaml")
CORTICO_CFG = str(CONFIG_DIR / "cortico_fig2.yaml")


def run(*argv):
    return main(list(argv))


def fresh_env():
    """The environment for a fresh interpreter that imports this ddehb."""
    src = str(Path(ddehb.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def cli_fresh(*argv):
    """The finished process of one ddehb command in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "ddehb.cli", *argv],
                          capture_output=True, text=True, env=fresh_env())


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

    @pytest.mark.parametrize("amplitude", ["1e308", "1e100"])
    def test_overflowing_seed_prints_one_line(self, tmp_path, amplitude):
        # a fresh interpreter, since pytest captures numpy warnings in process:
        # the typed error is the one line on stderr, and no directory is made
        out = tmp_path / "run"
        proc = cli_fresh("cycle", "--config", KOTANI_CFG, "--out", str(out),
                         "--override", f"seed.amplitude=[{amplitude}]")
        assert proc.returncode == EXIT_CONVERGENCE
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("NonFiniteState: "), proc.stderr
        assert not out.exists()

    def test_tiny_period_prints_one_line(self, tmp_path):
        # omega_p tau too large to realify ended in a ValueError traceback (exit 1)
        out = tmp_path / "run"
        proc = cli_fresh("cycle", "--config", KOTANI_CFG, "--out", str(out),
                         "--override", "seed.period_guess=1e-6")
        assert proc.returncode == EXIT_CONVERGENCE
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("PeriodTooShort: period T=1e-06 "), proc.stderr
        assert not out.exists()

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
        T = json.loads((first / "orbit_coeffs.json").read_text())["T"]
        assert abs(data["T"] - 2 * np.pi) < 1e-8
        assert abs(data["T"] - T) <= load_config(KOTANI_CFG).solver.tolerance
        assert data["iterations"] == 1  # the converged seed takes one certifying step

    def test_non_analytic_model_rejected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(BUILTIN_MODELS, "kotani", abs_kotani)
        out = tmp_path / "run"
        assert run("cycle", "--config", KOTANI_CFG, "--out", str(out)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "ConfigError: model 'kotani_abs': DF0[0, 0] at z0=" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_overflowing_model_prints_one_line(self, tmp_path, capsys):
        # the Jacobian check passed an F that overflows, with numpy warnings,
        # and the solve failed after it
        out = tmp_path / "run"
        code = run("cycle", "--config", KOTANI_CFG, "--out", str(out),
                   "--override", "model.params.delta=1e308")
        assert code == EXIT_CONVERGENCE
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("NonFiniteState: model 'kotani': F or its DF0 is not finite")
        assert not out.exists()

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

    def test_tiny_orbit_period_prints_one_line(self, tmp_path):
        # ended in a ValueError traceback (exit 1) from the spectral operators
        out = tmp_path / "run"
        run("cycle", "--config", KOTANI_CFG, "--out", str(out))
        path = out / "orbit_coeffs.json"
        data = json.loads(path.read_text())
        data["T"] = 1e-6
        path.write_text(json.dumps(data))
        proc = cli_fresh("floquet", "--config", KOTANI_CFG, "--out", str(out))
        assert proc.returncode == EXIT_CONVERGENCE
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("PeriodTooShort: period T=1e-06 "), proc.stderr
        assert not (out / "exponents.json").exists()

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
        assert not (out / "z.csv").exists()

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


    @pytest.mark.parametrize("config", [KOTANI_CFG, CORTICO_CFG], ids=["kotani", "cortico"])
    def test_each_kind_writes_what_export_writes(self, tmp_path, request, config):
        # `--kind phase` solves the trivial mode alone and `--kind amplitude`
        # the leading mode alone; each writes its curve and its object of
        # response_meta.json as export does.  Cortico is seeded from the
        # session settle through an orbit-format file
        args = ("--config", config)
        if config == CORTICO_CFG:
            seed = request.getfixturevalue("cortico_settle").seed
            path = tmp_path / "seed_coeffs.json"
            path.write_text(json.dumps({"T": seed.T, **series_payload(seed)}))
            args += ("--seed-from", "file", "--override", f"seed.path={path}")
        export, staged = tmp_path / "export", tmp_path / "staged"
        assert run("export", *args, "--out", str(export)) == EXIT_OK
        meta = json.loads((export / "response_meta.json").read_text())
        for step in ("cycle", "floquet"):
            assert run(step, *args, "--out", str(staged)) == EXIT_OK
        for kind, name in (("phase", "z.csv"), ("amplitude", "q.csv")):
            for stale in ("z.csv", "q.csv"):
                (staged / stale).unlink(missing_ok=True)
            assert run("response", *args, "--out", str(staged), "--kind", kind) == EXIT_OK
            assert sorted(p.name for p in staged.glob("?.csv")) == [name]
            assert (staged / name).read_bytes() == (export / name).read_bytes(), kind
            written = json.loads((staged / "response_meta.json").read_text())
            assert written == {"config_hash": meta["config_hash"], kind: meta[kind]}


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
        return err

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

    @pytest.mark.parametrize("T", [-1.0, 0.0, float("nan"), float("inf"), True])
    def test_orbit_file_period_not_finite_positive(self, tmp_path, capsys, T):
        # these ended in a ValueError traceback (exit 1), inf in a misleading
        # overflow (exit 3), true in NotSingular at mu = 0 (exit 3)
        out = tmp_path / "run"
        run("cycle", "--config", KOTANI_CFG, "--out", str(out))
        path = out / "orbit_coeffs.json"
        data = json.loads(path.read_text())
        data["T"] = T
        path.write_text(json.dumps(data))
        self.expect_malformed(capsys, "floquet", "--config", KOTANI_CFG, "--out", str(out))
        assert not (out / "exponents.json").exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), True])
    def test_orbit_coefficient_not_a_number(self, tmp_path, capsys, value):
        # a NaN coefficient ended in an overflow that blamed scan.mu_min (exit 3)
        out = tmp_path / "run"
        run("cycle", "--config", KOTANI_CFG, "--out", str(out))
        path = out / "orbit_coeffs.json"
        data = json.loads(path.read_text())
        data["coeffs"][0][3][0] = value
        path.write_text(json.dumps(data))
        err = self.expect_malformed(capsys, "floquet", "--config", KOTANI_CFG,
                                    "--out", str(out))
        assert "orbit_coeffs.json: coeffs:" in err
        assert not (out / "exponents.json").exists()

    @pytest.mark.parametrize(
        "field, value",
        [("anchor_component", "x"), ("anchor_component", True), ("anchor_component", 5),
         ("anchor_component", 1.5), ("residual_norm", "x"), ("residual_norm", None),
         ("residual_norm", -1.0), ("iterations", True)],
    )
    def test_orbit_read_back_field_out_of_form(self, tmp_path, capsys, field, value):
        # the first six let floquet exit 0; kotani has the one component 0
        out = tmp_path / "run"
        run("cycle", "--config", KOTANI_CFG, "--out", str(out))
        path = out / "orbit_coeffs.json"
        data = json.loads(path.read_text())
        data[field] = value
        path.write_text(json.dumps(data))
        err = self.expect_malformed(capsys, "floquet", "--config", KOTANI_CFG,
                                    "--out", str(out))
        assert f"orbit_coeffs.json: {field}:" in err
        assert not (out / "exponents.json").exists()

    @pytest.mark.parametrize("field, value", [("M", 7), ("M", 20.0), ("M", True),
                                              ("harmonics", [0]),
                                              ("harmonics", list(range(-7, 8)))])
    def test_orbit_file_size_fields_match_coeffs(self, tmp_path, capsys, field, value):
        # each of these let floquet exit 0, with M read from the 41 coefficients
        out = tmp_path / "run"
        run("cycle", "--config", KOTANI_CFG, "--out", str(out))
        path = out / "orbit_coeffs.json"
        data = json.loads(path.read_text())
        data[field] = value
        path.write_text(json.dumps(data))
        err = self.expect_malformed(capsys, "floquet", "--config", KOTANI_CFG,
                                    "--out", str(out))
        assert f"orbit_coeffs.json: {field}: expected" in err
        assert not (out / "exponents.json").exists()

    def test_seed_file_size_field_matches_coeffs(self, tmp_path, capsys):
        first = tmp_path / "first"
        run("cycle", "--config", KOTANI_CFG, "--out", str(first))
        path = first / "orbit_coeffs.json"
        data = json.loads(path.read_text())
        data["M"] = 7
        path.write_text(json.dumps(data))
        err = self.expect_malformed(
            capsys, "cycle", "--config", KOTANI_CFG, "--out", str(tmp_path / "again"),
            "--seed-from", "file", "--override", f"seed.path={path}",
        )
        assert "orbit_coeffs.json: M: expected 20" in err
        assert not (tmp_path / "again").exists()

    def test_orbit_file_without_harmonics(self, tmp_path, capsys):
        # one coefficient pair per component is M = 0: no oscillation to solve
        out = tmp_path / "run"
        run("cycle", "--config", KOTANI_CFG, "--out", str(out))
        path = out / "orbit_coeffs.json"
        data = json.loads(path.read_text())
        M = len(data["coeffs"][0]) // 2
        data["coeffs"] = [comp[M : M + 1] for comp in data["coeffs"]]
        path.write_text(json.dumps(data))
        self.expect_malformed(capsys, "floquet", "--config", KOTANI_CFG, "--out", str(out))
        assert not (out / "exponents.json").exists()

    def test_seed_file_period_negative(self, tmp_path, capsys):
        # this ended in a ValueError traceback
        first = tmp_path / "first"
        run("cycle", "--config", KOTANI_CFG, "--out", str(first))
        path = first / "orbit_coeffs.json"
        data = json.loads(path.read_text())
        data["T"] = -6.0
        path.write_text(json.dumps(data))
        self.expect_malformed(
            capsys, "cycle", "--config", KOTANI_CFG, "--out", str(tmp_path / "again"),
            "--seed-from", "file", "--override", f"seed.path={path}",
        )
        assert not (tmp_path / "again").exists()

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

    @pytest.mark.parametrize("mu", [True, float("nan"), "-0.03"])
    def test_exponent_not_a_number(self, tmp_path, capsys, mu):
        # true ended in NotSingular at mu = 1 (exit 3)
        out = tmp_path / "run"
        run("cycle", "--config", KOTANI_CFG, "--out", str(out))
        h = json.loads((out / "orbit_coeffs.json").read_text())["config_hash"]
        (out / "exponents.json").write_text(
            json.dumps({"config_hash": h, "exponents": [{"mu": mu, "trivial": False}]})
        )
        err = self.expect_malformed(
            capsys, "response", "--config", KOTANI_CFG, "--out", str(out),
            "--kind", "amplitude",
        )
        assert "exponents.json: mu:" in err
        assert not (out / "q.csv").exists()

    @pytest.mark.parametrize("mu", [0.0, 1e-9, -5e-5])
    def test_nontrivial_exponent_at_the_trivial_root(self, tmp_path, capsys, mu):
        # 0.0 paired as the phase response and wrote q.csv equal to z.csv
        # (exit 0); 1e-9 and -5e-5, inside the radius too, ended in
        # GaugeAmbiguous and NotSingular (exit 3)
        out = tmp_path / "run"
        run("cycle", "--config", KOTANI_CFG, "--out", str(out))
        h = json.loads((out / "orbit_coeffs.json").read_text())["config_hash"]
        (out / "exponents.json").write_text(
            json.dumps({"config_hash": h, "exponents": [{"mu": mu, "trivial": False}]})
        )
        err = self.expect_malformed(
            capsys, "response", "--config", KOTANI_CFG, "--out", str(out),
            "--kind", "amplitude",
        )
        assert "exponents.json: mu:" in err and repr(mu) in err
        assert "scan.exclude_zero_radius = 0.0001" in err
        assert not (out / "q.csv").exists()

    @pytest.mark.parametrize("trivial", ["false", 0, None])
    def test_exponent_trivial_not_a_boolean(self, tmp_path, capsys, trivial):
        # "false" is truthy: every entry read as trivial, NoExponentInRange (exit 3)
        out = tmp_path / "run"
        run("cycle", "--config", KOTANI_CFG, "--out", str(out))
        h = json.loads((out / "orbit_coeffs.json").read_text())["config_hash"]
        (out / "exponents.json").write_text(json.dumps(
            {"config_hash": h, "exponents": [{"mu": -0.03, "trivial": trivial}]}
        ))
        err = self.expect_malformed(
            capsys, "response", "--config", KOTANI_CFG, "--out", str(out),
            "--kind", "amplitude",
        )
        assert "exponents.json: trivial:" in err
        assert not (out / "q.csv").exists()

    def test_orbit_file_component_count(self, tmp_path, capsys):
        # the one kotani component listed twice ended in a ValueError traceback
        out = tmp_path / "run"
        run("cycle", "--config", KOTANI_CFG, "--out", str(out))
        path = out / "orbit_coeffs.json"
        data = json.loads(path.read_text())
        data["coeffs"] = data["coeffs"] * 2
        path.write_text(json.dumps(data))
        err = self.expect_malformed(capsys, "floquet", "--config", KOTANI_CFG,
                                    "--out", str(out))
        assert "orbit_coeffs.json: coeffs: expected 1 components" in err
        assert "got 2" in err
        assert not (out / "exponents.json").exists()

    @pytest.mark.parametrize("config, copies", [("kotani_fig1.yaml", 2),
                                                ("cortico_fig2.yaml", 1)])
    def test_seed_file_component_count(self, tmp_path, capsys, config, copies):
        # the kotani orbit file with its component listed twice seeded kotani
        # (exit 0, a two-component orbit file written); with its one component
        # it seeded cortico into an IndexError traceback
        first = tmp_path / "first"
        run("cycle", "--config", KOTANI_CFG, "--out", str(first))
        path = first / "orbit_coeffs.json"
        data = json.loads(path.read_text())
        data["coeffs"] = data["coeffs"] * copies
        path.write_text(json.dumps(data))
        err = self.expect_malformed(
            capsys, "cycle", "--config", str(CONFIG_DIR / config),
            "--out", str(tmp_path / "again"),
            "--seed-from", "file", "--override", f"seed.path={path}",
        )
        assert "orbit_coeffs.json: coeffs: expected" in err
        assert not (tmp_path / "again").exists()

    @pytest.mark.parametrize("content", [b"{", b"\xff", b"[1, 2]"])
    def test_orbit_file_not_a_json_object(self, tmp_path, capsys, content):
        # the first exited 5 as JSONDecodeError, the second in a UnicodeDecodeError
        # traceback
        out = tmp_path / "run"
        run("cycle", "--config", KOTANI_CFG, "--out", str(out))
        (out / "orbit_coeffs.json").write_bytes(content)
        err = self.expect_malformed(capsys, "floquet", "--config", KOTANI_CFG,
                                    "--out", str(out))
        assert "orbit_coeffs.json" in err
        assert not (out / "exponents.json").exists()

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

    def test_deterministic_output(self, tmp_path):
        # two exports under one config and seed agree byte for byte in every
        # data file; the manifests hold runtime_seconds and the output
        # directory, and are left out
        runs = [tmp_path / "a", tmp_path / "b"]
        for out in runs:
            assert run("export", "--config", KOTANI_CFG, "--out", str(out)) == EXIT_OK
        names = sorted(p.name for p in runs[0].iterdir())
        data = [n for n in names if n.endswith(".csv")]
        data += ["exponents.json", "orbit_coeffs.json", "response_meta.json"]
        assert sorted(p.name for p in runs[1].iterdir()) == names
        assert set(names) - set(data) == {f"manifest_{step}.json"
                                          for step in ("cycle", "floquet", "response")}
        assert len(data) == 9
        for name in data:
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name

    @pytest.mark.parametrize("config", [KOTANI_CFG, CORTICO_CFG], ids=["kotani", "cortico"])
    def test_stage_commands_write_what_export_writes(self, tmp_path, config):
        # export hands the orbit and the modes on in memory, where `ddehb
        # floquet` and `ddehb response` read and check the files of the stage
        # before: the 9 data files agree byte for byte.  Cortico starts from
        # the ansatz, which skips the settle
        args = ("--config", config, "--seed-from", "ansatz")
        export, staged = tmp_path / "export", tmp_path / "staged"
        assert run("export", *args, "--out", str(export)) == EXIT_OK
        for step in ("cycle", "floquet", "response"):
            assert run(step, *args, "--out", str(staged)) == EXIT_OK
        names = sorted(p.name for p in export.iterdir())
        assert sorted(p.name for p in staged.iterdir()) == names
        data = [n for n in names if not n.startswith("manifest_")]
        assert len(data) == 9
        for name in data:
            assert (export / name).read_bytes() == (staged / name).read_bytes(), name

    @pytest.mark.parametrize("config", [KOTANI_CFG, CORTICO_CFG], ids=["kotani", "cortico"])
    def test_validate_checks_the_exported_orbit_and_responses(self, tmp_path, monkeypatch,
                                                              request, config):
        # the series owns the orbit: `ddehb cycle` writes it and load_orbit
        # reads back the very T, M and samples that solve_cycle gave, so the
        # z and q that validate checks are those in z.csv and q.csv, bit for
        # bit.  Cortico is seeded from the session settle in both commands
        if config == CORTICO_CFG:
            settled = request.getfixturevalue("cortico_settle")
            monkeypatch.setattr(pipeline, "build_seed", lambda cfg, model: (settled.seed, settled))
        assert run("export", "--config", config, "--out", str(tmp_path)) == EXIT_OK
        cfg = load_config(config, out_dir=str(tmp_path))
        st = validation._solve_stage(cfg)
        read = pipeline.load_orbit(tmp_path, cfg)
        assert (read.T, read.M) == (st.orbit.T, st.orbit.M)
        assert np.array_equal(read.X, st.orbit.X)
        z, q = pipeline.run_responses(st.orbit, floquet.eigenfunction(st.orbit, 0.0),
                                      floquet.eigenfunction(st.orbit, st.mu))
        for name, curve in (("z.csv", z), ("q.csv", q)):
            written = np.loadtxt(tmp_path / name, delimiter=",", skiprows=2, ndmin=2)
            assert np.array_equal(written[:, 0], st.orbit.sample_times), name
            assert np.array_equal(written[:, 1:], curve.Q), name

    def test_cortico_fig2_exponent_report(self, tmp_path, cortico_settle):
        # seeded from the session settle through an orbit-format file, so the
        # cycle is not settled a second time
        seed = cortico_settle.seed
        path = tmp_path / "seed_coeffs.json"
        path.write_text(json.dumps({"T": seed.T, **series_payload(seed)}))
        out = tmp_path / "run"
        args = ("--config", CORTICO_CFG, "--out", str(out), "--seed-from", "file",
                "--override", f"seed.path={path}")
        assert run("cycle", *args) == EXIT_OK
        assert run("floquet", *args) == EXIT_OK
        data = json.loads((out / "exponents.json").read_text())
        nontrivial = [e["mu"] for e in data["exponents"] if not e["trivial"]]
        assert len(nontrivial) == 1
        assert abs(nontrivial[0] - (-0.00296)) < 5e-5


class TestProcessEntry:
    """A process ends through cli.run: main(), then gc.freeze(), so the
    shutdown collection skips the heap.  main alone leaves the collector as
    it is, since tests and the benchmark call it many times in one process."""

    def test_main_freezes_nothing(self, tmp_path):
        frozen = gc.get_freeze_count()
        assert run("export", "--config", KOTANI_CFG, "--out", str(tmp_path)) == EXIT_OK
        assert gc.get_freeze_count() == frozen

    def test_run_returns_the_code_of_main_and_freezes_the_heap(self, monkeypatch):
        monkeypatch.setattr(cli, "main", lambda: EXIT_VALIDATION)
        probe = [object()]
        frozen = gc.get_freeze_count()
        try:
            assert cli.run() == EXIT_VALIDATION
            assert gc.get_freeze_count() > frozen
            assert not any(obj is probe for obj in gc.get_objects())
        finally:
            gc.unfreeze()


# layers that only `ddehb validate` (and an oracle seed) run
ORACLE_LAYERS = {"ddehb.oracle", "ddehb.validation", "numpy.random"}
# runs the commands of argv[1] (a JSON list of argument lists) in order and
# prints their exit codes and the modules loaded after `import numpy`
# (numpy < 2 loads numpy.random and numpy.polynomial itself, which then count
# as not loaded)
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
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(commands)],
        capture_output=True, text=True, env=fresh_env(), check=True,
    )
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    return codes, set(loaded)


class TestLoadedLayers:
    """The spectral commands load no oracle, validation, numpy.random or
    numpy.polynomial code; an oracle seed loads the oracle on demand.
    `ddehb validate` loads every layer but no numpy.random or
    numpy.polynomial: the pairing rows read their Gauss-Legendre rule from a
    constant table.  No command loads OpenSSL (_hashlib), which costs about
    3.5 MB of resident memory."""

    @pytest.fixture(scope="class")
    def validate_loaded(self, tmp_path_factory):
        """The modules one `ddehb validate` of kotani loads, with its exit codes."""
        out = tmp_path_factory.mktemp("validate")
        return run_fresh(["validate", "--config", KOTANI_CFG, "--out", str(out)])

    @pytest.mark.parametrize("steps", [("cycle", "floquet", "response"), ("export",)])
    def test_spectral_commands(self, tmp_path, steps):
        codes, loaded = run_fresh(
            *[[step, "--config", KOTANI_CFG, "--out", str(tmp_path)] for step in steps]
        )
        assert codes == [EXIT_OK] * len(steps)
        assert "ddehb.floquet" in loaded
        assert not ORACLE_LAYERS & loaded
        assert "numpy.polynomial" not in loaded
        assert "_hashlib" not in loaded

    def test_validate_loads_no_numpy_random(self, validate_loaded):
        # its only random draws come from the standard library
        codes, loaded = validate_loaded
        assert codes == [EXIT_OK]
        assert "ddehb.validation" in loaded and "numpy.random" not in loaded
        assert "_hashlib" not in loaded

    def test_validate_loads_no_numpy_polynomial(self, validate_loaded):
        codes, loaded = validate_loaded
        assert codes == [EXIT_OK]
        assert "ddehb.adjoint" in loaded and "ddehb.oracle" in loaded
        assert not {name for name in loaded if name.startswith("numpy.polynomial")}

    def test_oracle_seed(self, tmp_path):
        codes, loaded = run_fresh(
            ["cycle", "--config", KOTANI_CFG, "--out", str(tmp_path), "--seed-from", "oracle"]
        )
        assert codes == [EXIT_OK]
        assert "ddehb.oracle" in loaded
        assert "ddehb.validation" not in loaded
        assert "_hashlib" not in loaded


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
    def test_kotani_report_matches_exit_code(self, tmp_path, monkeypatch):
        # a coarse oracle (n = 8, 500 steps) misses the oracle tolerances, so
        # the run takes the failure exit and writes a failed report
        coarse = functools.partial(oracle.oracle_floquet, n=8, steps=500)
        monkeypatch.setattr(oracle, "oracle_floquet", coarse)
        out = tmp_path / "run"
        code = run("validate", "--config", KOTANI_CFG, "--out", str(out))
        report = json.loads((out / "validation_report.json").read_text())
        checks = report["checks"]
        assert [c["name"] for c in checks] == KOTANI_CHECKS
        assert all(np.isfinite(c["measured"]) for c in checks)
        failed = [c["name"] for c in checks if not c["passed"]]
        assert failed and all(name.startswith("kotani.oracle_") for name in failed)
        assert report["passed"] is False
        assert code == EXIT_VALIDATION

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
            validation.run_validation(cfg)
        assert received[0] == cfg.solver
        assert received[-1] == dataclasses.replace(received[0], M=2 * cfg.solver.M)

    def test_each_truncation_solved_once(self, monkeypatch, cortico_settle):
        # the M-doubling row and the tail row read the stage's two orbits:
        # the cycle is solved at M, 2M and M/2, each once
        solved = []

        class OracleReached(Exception):
            pass

        def recording(model, seed, opts):
            solved.append(opts.M)
            return solve_cycle(model, seed, opts)

        def stop(*args, **kwargs):
            raise OracleReached

        monkeypatch.setattr(cycle, "solve_cycle", recording)
        monkeypatch.setattr(pipeline, "build_seed",
                            lambda cfg, model: (cortico_settle.seed, cortico_settle))
        monkeypatch.setattr(oracle, "oracle_floquet", stop)
        with pytest.raises(OracleReached):
            validation.run_validation(load_config(CORTICO_CFG))
        assert solved == [20, 40, 10]

    def test_period_consistency_from_an_ansatz_seed(self, monkeypatch, cortico_settle):
        # the row was dropped without a word when the seed was no settle; it
        # settles from the config's seed settings (here the session settle)
        build_seed = pipeline.build_seed
        kinds = []

        def session_settle(cfg, model):
            kinds.append(cfg.seed.kind)
            if cfg.seed.kind == "oracle":
                return cortico_settle.seed, cortico_settle
            return build_seed(cfg, model)

        monkeypatch.setattr(pipeline, "build_seed", session_settle)
        rows = validation.run_validation(load_config(CORTICO_CFG, ["seed.kind=ansatz"]))
        assert kinds == ["ansatz", "oracle"]
        row = {r.name: r for r in rows}["cortico.period_consistency"]
        assert row.passed and f"settle={cortico_settle.seed.T:.6f}" in row.detail
        assert all(r.passed for r in rows)

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

    def test_overflowing_scan_range(self, tmp_path, capsys):
        # on this grid the leading search would stop far above mu = -500,
        # but e^{-mu tau} overflows there, so validate fails as export does
        out = tmp_path / "run"
        code = run("validate", "--config", KOTANI_CFG, "--out", str(out),
                   "--override", "scan.mu_min=-500", "--override", "scan.points=20003")
        assert code == EXIT_CONVERGENCE
        err = capsys.readouterr().err
        assert err.startswith("NonFiniteState: ")
        assert "mu=-500" in err and "increase scan.mu_min" in err
        assert not out.exists()

    def test_tail_row_needs_a_half_truncation(self, tmp_path, capsys):
        # cortico.tail_monotone solves the cycle at M // 2, which is 0 here
        out = tmp_path / "run"
        code = run("validate", "--config", CORTICO_CFG, "--out", str(out),
                   "--seed-from", "ansatz", "--override", "solver.M=1")
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert err.startswith("ConfigError: ") and "solver.M" in err
        assert not out.exists()

    def test_every_builtin_model_has_a_suite(self):
        # a built-in model cannot ship without its tolerances, and a model
        # with no entry fails before any solve
        assert validation.SUITES.keys() == BUILTIN_MODELS.keys()
        cfg = load_config(KOTANI_CFG)
        cfg = dataclasses.replace(cfg, model=dataclasses.replace(cfg.model, name="no_such"))
        with pytest.raises(ValueError, match="'no_such'"):
            validation.run_validation(cfg)

    def test_failed_run_leaves_no_directory(self, tmp_path):
        out = tmp_path / "run"
        code = run("validate", "--config", KOTANI_CFG, "--out", str(out),
                   "--override", "scan.mu_min=-0.01")
        assert code == EXIT_CONVERGENCE
        assert not out.exists()

    def test_slow_phase_decay_exits_3(self, tmp_path, capsys, monkeypatch):
        # kotani's kicked copies decay by r = 0.578 over the window spacing,
        # so a bound below that rejects the extrapolation
        monkeypatch.setattr(oracle, "PRC_MAX_RATIO", 0.5)
        out = tmp_path / "run"
        code = run("validate", "--config", KOTANI_CFG, "--out", str(out))
        assert code == EXIT_CONVERGENCE
        assert capsys.readouterr().err.startswith("SlowPhaseDecay: phase residue ratio r=0.578")
        assert not out.exists()


class TestConfigHash:
    @pytest.mark.parametrize("config, overrides, pinned", [
        (KOTANI_CFG, [], "63e03ebecc1105a3"),
        (CORTICO_CFG, [], "1871ef73b50ae5aa"),
        (KOTANI_CFG, ["model.params.delta=0.1"], None),
    ])
    def test_sha256_of_the_sorted_compact_json(self, config, overrides, pinned):
        # the stored hashes of existing outputs stay valid, whichever
        # SHA-256 module the interpreter provides
        cfg = load_config(config, overrides)
        payload = dataclasses.asdict(cfg)
        del payload["output"]
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        assert cfg.config_hash() == hashlib.sha256(blob).hexdigest()[:16]
        if pinned is not None:
            assert cfg.config_hash() == pinned


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
                           ("cortico_fig2.yaml", "model.params.tau=-1.0"),
                           # exited 3 in the solve: cortico has no cycle at tau = 0
                           ("cortico_fig2.yaml", "model.params.tau=0")],
    )
    def test_bad_model_parameter(self, tmp_path, name, override):
        assert run(
            "cycle", "--config", str(CONFIG_DIR / name), "--out", str(tmp_path),
            "--override", override,
        ) == EXIT_CONFIG

    def test_zero_delay_rejected_at_load(self, tmp_path, capsys):
        # the settle step tau/64 ended in a ZeroDivisionError traceback (exit 1)
        out = tmp_path / "run"
        assert run(
            "cycle", "--config", CORTICO_CFG, "--out", str(out),
            "--override", "model.params.tau=0", "--override", "seed.dt=null",
        ) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err and "tau" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, override",
        [
            # removed oracle settings, also at their former defaults
            ("kotani_fig1.yaml", "oracle.N=2000"),
            ("kotani_fig1.yaml", "oracle.levels=3"),
            ("kotani_fig1.yaml", "oracle.exponents=0"),
            ("kotani_fig1.yaml", "oracle.prc_phases=0"),
            ("kotani_fig1.yaml", "oracle.prc_periods=-1"),
            ("kotani_fig1.yaml", "oracle.dt=1.0"),
            ("kotani_fig1.yaml", "oracle.dt=-0.01"),
            ("kotani_fig1.yaml", "oracle.exponents=5"),
            ("kotani_fig1.yaml", "oracle.prc_phases=16"),
            ("kotani_fig1.yaml", "oracle.prc_periods=20"),
            ("kotani_fig1.yaml", "oracle.dt=null"),
            # removed response settings: an unknown section that names the key
            ("kotani_fig1.yaml", "response.legacy_amplitude_normalization=true"),
            ("cortico_fig2.yaml", "response.legacy_amplitude_normalization=true"),
            ("kotani_fig1.yaml", "response.quadrature_nodes=32"),
            ("cortico_fig2.yaml", "response.quadrature_nodes=32"),
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
            # a boolean is not a number; this one ran as 1
            ("kotani_fig1.yaml", "seed.observe_time=true"),
            # one case per type rule: str, X | None, list, dict, int, float
            ("kotani_fig1.yaml", "model.name=3"),
            ("kotani_fig1.yaml", "seed.path=3"),
            ("kotani_fig1.yaml", "seed.amplitude=0.5"),
            ("kotani_fig1.yaml", "model.params=3"),
            ("kotani_fig1.yaml", "solver.M=2.5"),
            ("kotani_fig1.yaml", "solver.tolerance=abc"),
            ("kotani_fig1.yaml", "rng_seed=1.5"),
            ("kotani_fig1.yaml", "oracle.dt=true"),
            # an unknown model: the text of make_model, the one lookup
            ("kotani_fig1.yaml", "model.name=lorenz"),
            # a negative seed ended in a ValueError traceback from numpy.random
            ("kotani_fig1.yaml", "rng_seed=-1"),
            # a negative transient ended in a ValueError traceback from numpy
            ("cortico_fig2.yaml", "seed.transient=-1.0"),
            # sizes beyond numpy's index range ended in a ValueError traceback
            # ("Maximum allowed dimension exceeded" or "size exceeded"), 1e-310
            # in an OverflowError; none of them allocates
            ("cortico_fig2.yaml", "seed.dt=1e-300"),
            ("cortico_fig2.yaml", "seed.transient=1e300"),
            ("cortico_fig2.yaml", "seed.observe_time=1e300"),
            ("cortico_fig2.yaml", "seed.dt=1e-310"),
            ("kotani_fig1.yaml", "scan.points=100000000000000000000"),
            ("kotani_fig1.yaml", "solver.M=100000000000000000000"),
            # validate solves again at 2M, and solve_cycle holds every solve
            # to the cap of 250; this one ran at 252
            ("kotani_fig1.yaml", "solver.M=126"),
        ],
    )
    def test_bad_run_setting(self, tmp_path, capsys, name, override):
        code = run(
            "validate", "--config", str(CONFIG_DIR / name), "--out", str(tmp_path),
            "--override", override,
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1
        assert override.partition("=")[0] in err  # the message names the key
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("key, value", [
        ("solver.M", 0), ("solver.M", 251), ("solver.anchor_component", 1),
        ("solver.tolerance", 0.0), ("solver.max_iterations", 0),
        ("scan.points", 1), ("scan.points", 100001), ("scan.mu_max", -0.3),
        ("scan.exclude_zero_radius", 0.0),
        ("seed.transient", -1.0), ("seed.observe_time", -1.0), ("seed.dt", -0.1),
        ("seed.dt", 1.0), ("seed.dt", 1e-300),
    ])
    def test_library_raises_the_config_text(self, tmp_path, capsys, key, value):
        # each solver, scan and settle rule has one copy, which the config
        # check and the library both run: the command line prints the text
        # that the library raises for the same value
        code = run("export", "--config", KOTANI_CFG, "--out", str(tmp_path),
                   "--override", f"{key}={value}")
        assert code == EXIT_CONFIG
        cfg = load_config(KOTANI_CFG)
        section, name = key.split(".")
        options = dataclasses.replace(getattr(cfg, section), **{name: value})
        model = pipeline.build_model(cfg)
        with pytest.raises(ConfigError) as exc:
            if section == "solver":
                options.check(model.m)
            elif section == "scan":
                options.check()
            else:
                oracle.settle_to_cycle(model, None, options.transient, dt=options.dt,
                                       observe_time=options.observe_time)
        assert capsys.readouterr().err == f"configuration error: {exc.value}\n"

    @pytest.mark.parametrize(
        "text, flags, named",
        [
            # each of these ended in a traceback (exit 1)
            (b"[a, b]", ["--out", "d"], "output.directory"),
            (b"3", ["--override", "a.b=1"], "a.b"),
            (b"seed: 3", ["--seed-from", "oracle"], "seed.kind"),
            (b"output: 3", ["--out", "d"], "output.directory"),
            (b"model: {name: kotani}", ["--override", "seed.amplitude=["], "seed.amplitude"),
            (b"model: {name: kotani\xff}", [], "bad.yaml"),  # not UTF-8
            (None, [], "bad.yaml"),  # a directory
            # each of these ran every default and wrote the kotani orbit (exit 0)
            (b"[]", [], "configuration must be a mapping at top level"),
            (b"0", [], "configuration must be a mapping at top level"),
            (b"false", [], "configuration must be a mapping at top level"),
            (b'""', [], "configuration must be a mapping at top level"),
        ],
        ids=["top-list", "top-scalar", "seed-scalar", "output-scalar", "override-yaml",
             "not-utf8", "directory", "empty-list", "zero", "false", "empty-string"],
    )
    def test_unreadable_config(self, tmp_path, monkeypatch, capsys, text, flags, named):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "bad.yaml"
        if text is None:
            path.mkdir()
        else:
            path.write_bytes(text)
        assert run("cycle", "--config", str(path), *flags) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err and named in err
        assert [p.name for p in tmp_path.iterdir()] == ["bad.yaml"]

    @pytest.mark.parametrize("text", ["", "# no settings\n"])
    def test_empty_config_runs_defaults(self, tmp_path, text):
        path = tmp_path / "empty.yaml"
        path.write_text(text)
        assert load_config(str(path)) == RunConfig()

    def test_output_directory_not_a_string(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = run("cycle", "--config", KOTANI_CFG, "--override", "output.directory=3")
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err and "output.directory" in err
        assert not list(tmp_path.iterdir())

    def test_bad_oracle_levels(self, tmp_path):
        # the oracle section is gone; a key in it is unknown
        assert run(
            "cycle", "--config", KOTANI_CFG, "--out", str(tmp_path),
            "--override", "oracle.levels=5",
        ) == EXIT_CONFIG
