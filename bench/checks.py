"""Correctness checks on the files a `ddehb` command wrote.

Export outputs (kotani config) are checked against reference values: the
cycle is cos(t) with T = 2 pi (1e-8), and both normalization residuals in
response_meta.json are at most 1e-8.  Validate outputs are read from
validation_report.json.

Each check adds to `attempted`; a miss adds to `failed` and makes the run
incorrect.  The one validation check that fails at the benchmark's first
commit, kotani.trivial_mode, fails by a sign flip of the trivial mode
(gap 2.0).  Failing with exactly that signature counts in the validation
fail ratio but is not a benchmark failure; failing with any other value
is.  Only standard-library modules are used here.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

EXPORT_FILES = (
    "orbit.csv", "orbit_coeffs.json", "floquet_scan.csv", "exponents.json",
    "mode_trivial.csv", "z.csv", "q.csv", "response_meta.json",
)
# check name -> measured value of its known failure (sign-flipped mode)
KNOWN_FAILURES = {"kotani.trivial_mode": 2.0}
# validation check -> accuracy metric it reports
ORACLE_GAPS = {
    "kotani.oracle_exponent": "accuracy.mu_gap_oracle",
    "kotani.oracle_z": "accuracy.z_gap_oracle",
    "kotani.oracle_q": "accuracy.q_gap_oracle",
    "kotani.oracle_eigenfunction": "accuracy.rho_gap_oracle",
}
ACCURACY_METRICS = [
    "accuracy.period_err", "accuracy.profile_err", "accuracy.normalization_residual",
    *ORACLE_GAPS.values(), "validation.fail_ratio",
]


@dataclass
class Verdict:
    attempted: int = 0
    failed: list[str] = field(default_factory=list)
    accuracy: dict[str, float] = field(default_factory=dict)
    known_failures: list[str] = field(default_factory=list)

    def check(self, name: str, ok: bool):
        self.attempted += 1
        if not ok:
            self.failed.append(name)
        return ok


def read_csv_rows(path: Path) -> list[list[float]]:
    """Data rows of a ddehb CSV: skips the manifest comment and the header."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return [[float(x) for x in ln.split(",")] for ln in lines[1:]]


def csv_digest(out_dir: Path) -> str:
    """One hash over every CSV the command wrote, names included."""
    h = hashlib.sha256()
    for path in sorted(out_dir.glob("*.csv")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_export(out_dir: Path, returncode: int, v: Verdict):
    if not v.check("export.exit_code", returncode == 0):
        return
    if not v.check("export.outputs", all((out_dir / f).is_file() for f in EXPORT_FILES)):
        return
    meta = json.loads((out_dir / "response_meta.json").read_text())
    resid = max(meta["phase"]["normalization_residual"],
                meta["amplitude"]["normalization_residual"])
    T = json.loads((out_dir / "orbit_coeffs.json").read_text())["T"]
    rows = read_csv_rows(out_dir / "orbit.csv")
    profile = max(abs(x - math.cos(t)) for t, x in rows)
    v.accuracy["accuracy.normalization_residual"] = resid
    v.accuracy["accuracy.period_err"] = abs(T - 2.0 * math.pi)
    v.accuracy["accuracy.profile_err"] = profile
    v.check("export.normalization_residual", resid <= 1e-8)
    v.check("kotani.period", abs(T - 2.0 * math.pi) <= 1e-8)
    v.check("kotani.cycle_profile", profile <= 1e-8)


def check_validate(out_dir: Path, returncode: int, v: Verdict):
    path = out_dir / "validation_report.json"
    if not v.check("validate.report", path.is_file()):
        return
    report = json.loads(path.read_text())
    checks = report["checks"]
    v.check("validate.exit_code", returncode == (0 if report["passed"] else 4))
    for c in checks:
        if c["name"] in ORACLE_GAPS:
            v.accuracy[ORACLE_GAPS[c["name"]]] = c["measured"]
        known = KNOWN_FAILURES.get(c["name"])
        if not c["passed"] and known is not None and abs(c["measured"] - known) <= 1e-6:
            v.known_failures.append(c["name"])
            v.check(c["name"], True)
        else:
            v.check(c["name"], c["passed"])
    v.accuracy["validation.fail_ratio"] = (
        sum(not c["passed"] for c in checks) / len(checks)
    )
