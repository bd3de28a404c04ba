"""Acceptance gate: each criterion is a set of rows of the validation report.

`ddehb validate` measures every criterion (`ddehb.validation`); this
module only reads its reports on the two shipped configs, computed once
per session.  Each row carries the tolerance the criterion pins, so a row
that fails, goes missing or has its tolerance moved in `ddehb.validation`
fails its criterion.  Each test prints a single PASS/FAIL line (visible
with `pytest -s` or in the captured output).
"""

import json
from pathlib import Path

import pytest

from ddehb import pipeline
from ddehb.config import load_config
from ddehb.validation import run_validation

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CONFIGS = ("kotani_fig1.yaml", "cortico_fig2.yaml")

# criterion "<number>_<label>" -> {report row: pinned tolerance}
CRITERIA = {
    "1_exact_benchmark_cycle": {
        "kotani.period": 1e-8,
        "kotani.cycle_profile": 1e-8,
        "kotani.cycle_runtime": 10.0,
    },
    "2_paper_floquet_exponent": {
        "cortico.exponent": 5e-5,
        "cortico.floquet_runtime": 120.0,
    },
    "3_trivial_mode_identity": {
        "kotani.trivial_sigma": 1e-8,
        "kotani.trivial_mode": 1e-6,
        "cortico.trivial_sigma": 1e-8,
        "cortico.trivial_mode": 1e-6,
    },
    "4_fig1_oracle_equivalence": {
        "kotani.oracle_eigenfunction": 1e-9,
        "kotani.oracle_z": 1e-9,
        "kotani.oracle_q": 2e-9,
        "kotani.oracle_runtime": 300.0,
    },
    "5_direct_perturbation": {
        "kotani.direct_prc": 0.05,
        "kotani.prc_linearity": 0.02,
    },
    "6_normalization_identities": {
        f"{model}.{row}": tol
        for model in ("kotani", "cortico")
        for row, tol in (
            ("normalization_phase", 1e-8),
            ("normalization_amplitude", 1e-8),
            ("pairing_phase", 1e-6),
            ("pairing_amplitude", 1e-6),
        )
    },
    "7_spectral_exactness": {
        "spectral.unitary": 1e-12,
        "spectral.exact_operators": 1e-10,
        "spectral.roundtrip": 1e-12,
    },
    "8_convergence_properties": {
        "kotani.exponent_M_doubling": 1e-6,
        "cortico.exponent_M_doubling": 1e-6,
        "oracle.integrator_order": 0.5,
        "cortico.tail_monotone": 0.5,
    },
    # the analytic center-manifold curve of Fig. 2(B) is not reprinted; the
    # stand-in is relative agreement with the oracle on both components of
    # the eigenfunction, z and q
    "9_fig2_analytic_standin": {
        "cortico.oracle_eigenfunction": 1e-9,
        "cortico.oracle_z": 1e-6,
        "cortico.oracle_q": 2e-9,
    },
    "10_oracle_floquet_spectrum": {
        "kotani.oracle_unit_multiplier": 1e-10,
        "cortico.oracle_unit_multiplier": 1e-7,
        "kotani.oracle_exponent": 1e-9,
        "cortico.oracle_exponent": 1e-9,
        "cortico.period_consistency": 1e-3,
    },
}


@pytest.fixture(scope="session")
def report_rows(cortico_settle):
    """Every row of the validation reports of the shipped configs.  The
    cortico seed is the session's settle of the same config, so the cycle
    is not settled again; every row but the wall times is unchanged by it.
    So the cortico.floquet_runtime row leaves out the settle here, which
    `ddehb validate --config configs/cortico_fig2.yaml` still times."""
    build_seed = pipeline.build_seed

    def shared_seed(cfg, model):
        if cfg.model.name == "cortico":
            return cortico_settle.seed, cortico_settle
        return build_seed(cfg, model)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "build_seed", shared_seed)
        return [
            row
            for name in CONFIGS
            for row in run_validation(load_config(str(CONFIG_DIR / name)))
        ]


@pytest.mark.parametrize("criterion", CRITERIA)
def test_criterion(criterion, report_rows):
    rows = {row.name: row for row in report_rows}
    conditions = []
    for name, tol in CRITERIA[criterion].items():
        row = rows.get(name)
        if row is None:
            conditions.append((False, f"{name} missing from the report"))
            continue
        text = f"{name}={row.measured:.2e} (tol {tol:g})"
        if row.detail:
            text += f" {row.detail}"
        if row.tolerance != tol:
            text += f", report tol {row.tolerance:g}"
        conditions.append((row.passed and row.tolerance == tol, text))
    ok = all(v for v, _ in conditions)
    detail = "; ".join(text for _, text in conditions)
    number, _, label = criterion.partition("_")
    label = label.replace("_", " ")
    print(f"ACCEPTANCE {number} [{label}]: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {number} ({label}): {detail}"


def test_every_row_in_one_criterion(report_rows):
    table = [name for rows in CRITERIA.values() for name in rows]
    assert sorted(row.name for row in report_rows) == sorted(table)


@pytest.mark.parametrize("model", ["kotani", "cortico"])
def test_oracle_spectrum_rows_share_their_time(model, report_rows):
    # one oracle_floquet call serves both rows, so each gets half its time
    rows = {row.name: row for row in report_rows}
    unit = rows[f"{model}.oracle_unit_multiplier"].seconds
    exponent = rows[f"{model}.oracle_exponent"].seconds
    assert unit > 1e-3 and exponent > 1e-3
    assert abs(unit - exponent) <= 0.1 * max(unit, exponent)


def test_rows_are_plain_json(report_rows):
    # `ddehb validate` writes the rows with json.dump, which rejects NumPy bools
    for row in report_rows:
        assert type(row.passed) is bool, row.name
        assert type(row.measured) is float and type(row.tolerance) is float, row.name
    json.dumps([vars(row) for row in report_rows])
